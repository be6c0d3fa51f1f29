//! The `goodList` and `compatibleList` tests.
//!
//! `goodList` filters malformed or unusable lists: the sender must already
//! quote us among its neighbours (the triple handshake that certifies the
//! link is symmetric), the list must not be longer than `Dmax + 1` levels,
//! and it must not contain an empty level.
//!
//! `compatibleList` decides whether accepting a neighbour's list could push
//! the group diameter beyond `Dmax` (Proposition 13). The lengths entering
//! the test are the *group-core* lengths: marked entries (handshake
//! bookkeeping, rejected neighbours) and our own identity quoted back by the
//! sender are not group content and are excluded — otherwise two freshly met
//! singletons would count each other twice and could never merge for small
//! `Dmax`. Like the proposition's statement ("either … or"), the test
//! accepts when *either* the `p − i + 1 + q` or the `i/2 + q + 1` bound
//! holds — it takes their `min` — although the proposition's proof bounds
//! both path families; [`compatible_list`] says why the optimistic reading
//! is the one implemented.

use crate::ancestor_list::AncestorList;
use dyngraph::NodeId;

/// The `goodList` test (Section 4.3).
///
/// `own_id` is the receiving node `v`; `list` is the (already mark-filtered)
/// list received from a neighbour. Returns `true` when the list can be used
/// in the `ant` computation.
pub fn good_list(own_id: NodeId, list: &AncestorList, dmax: usize) -> bool {
    // "v or v̄ are in list.1": the sender quotes us among its distance-1
    // nodes, possibly marked — that is precisely what tells us the link is
    // symmetric.
    list.level_contains(1, own_id) && list.len() <= dmax + 1 && !list.has_empty_level()
}

/// Number of levels of actual group content: levels are counted up to the
/// deepest one containing an unmarked node not `excluded`.
fn core_len(list: &AncestorList, excluded: impl Fn(NodeId) -> bool) -> usize {
    (0..list.len())
        .rev()
        .find(|&i| {
            list.level(i)
                .unwrap_or(&[])
                .iter()
                .any(|&(n, m)| !m.is_marked() && !excluded(n))
        })
        .map_or(0, |i| i + 1)
}

/// The group-core lengths of our list and of a received one. What must be
/// ignored when measuring the *new* depth a received list would add to our
/// group: our own identity, plus every node we already know unmarked
/// (information we already hold adds no diameter).
fn core_lens(own_id: NodeId, own_list: &AncestorList, received: &AncestorList) -> (usize, usize) {
    let own_len = core_len(own_list, |_| false);
    let recv_len = core_len(received, |n| n == own_id || own_list.quotes_unmarked(n));
    (own_len, recv_len)
}

/// The `compatibleList` test (Section 4.3, Proposition 13).
///
/// `own_id` is the receiving node `v`, `own_list` its current `listv`,
/// `received` the candidate neighbour list.
///
/// The condition is the paper's: accept when the two lists are short enough
/// to concatenate (`p + 1 + q + 1 ≤ Dmax + 1`), or when some level `i` of
/// our list is entirely made of the sender's direct neighbours and
/// `min(p − i + 1 + q, i/2 + q + 1) ≤ Dmax`. Two reproduction details:
///
/// * lengths are *group-core* lengths — marked handshake entries, our own
///   identity quoted back by the sender and nodes we already know are not
///   new group content (otherwise two freshly met singletons can never
///   merge and an in-progress merge keeps rejecting itself);
/// * the condition is deliberately optimistic (the proposition's `min`),
///   because an over-acceptance is repaired by the far-node arbitration and
///   the priority mechanism, whereas an over-rejection has no repair path
///   and freezes mergeable groups apart (breaking ΠM).
///
/// Builds no set: every membership question is a binary search in a
/// sorted level slice.
pub fn compatible_list(
    own_id: NodeId,
    own_list: &AncestorList,
    received: &AncestorList,
    dmax: usize,
) -> bool {
    let (own_len, recv_len) = core_lens(own_id, own_list, received);
    if own_len == 0 || recv_len == 0 {
        return true;
    }
    // Simple sufficient condition: end-to-end concatenation fits.
    if own_len + recv_len <= dmax + 1 {
        return true;
    }
    let p = own_len - 1;
    let q = recv_len - 1;
    // Optimised condition: fold through a level fully adjacent to the sender.
    if received.level(1).is_none_or(|l| l.is_empty()) {
        return false;
    }
    (0..=p).any(|i| {
        let mut our_level = own_list
            .level(i)
            .unwrap_or(&[])
            .iter()
            .filter(|(_, mark)| !mark.is_marked())
            .peekable();
        let fold = our_level.peek().is_some()
            && our_level.all(|&(node, _)| received.level_contains(1, node));
        fold && (p - i + 1 + q).min(i / 2 + q + 1) <= dmax
    })
}

/// The naive compatibility test used by the E10 ablation: only the
/// sum-of-core-lengths condition, no short-cut optimisation.
pub fn naive_compatible_list(
    own_id: NodeId,
    own_list: &AncestorList,
    received: &AncestorList,
    dmax: usize,
) -> bool {
    let (own_len, recv_len) = core_lens(own_id, own_list, received);
    own_len == 0 || recv_len == 0 || own_len + recv_len <= dmax + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marks::Mark;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn clear_levels(levels: &[&[u64]]) -> AncestorList {
        AncestorList::from_levels(
            levels
                .iter()
                .map(|lvl| lvl.iter().map(|&i| (n(i), Mark::Clear)).collect())
                .collect(),
        )
    }

    #[test]
    fn good_list_requires_us_at_distance_one() {
        let dmax = 3;
        // sender 2 quotes us (node 1) at distance 1
        let good = clear_levels(&[&[2], &[1, 3]]);
        assert!(good_list(n(1), &good, dmax));
        // sender does not quote us at all → handshake incomplete
        let no_us = clear_levels(&[&[2], &[3]]);
        assert!(!good_list(n(1), &no_us, dmax));
        // quoting us farther than distance 1 does not count
        let far_us = clear_levels(&[&[2], &[3], &[1]]);
        assert!(!good_list(n(1), &far_us, dmax));
        // a bare singleton (u) has no level 1 at all
        let bare = AncestorList::singleton(n(2));
        assert!(!good_list(n(1), &bare, dmax));
    }

    #[test]
    fn good_list_accepts_marked_self() {
        // "v or v̄ in list.1": the sender may quote us with a mark
        let dmax = 3;
        let list =
            AncestorList::from_levels(vec![vec![(n(2), Mark::Clear)], vec![(n(1), Mark::Pending)]]);
        assert!(good_list(n(1), &list, dmax));
    }

    #[test]
    fn good_list_rejects_long_or_holed_lists() {
        let dmax = 2;
        let too_long = clear_levels(&[&[2], &[1], &[3], &[4]]); // 4 levels > dmax+1
        assert!(!good_list(n(1), &too_long, dmax));
        // an internal empty level is a malformation (trailing empties are
        // normalised away by the list constructor)
        let holed = AncestorList::from_levels(vec![
            vec![(n(2), Mark::Clear)],
            vec![(n(1), Mark::Clear)],
            vec![],
            vec![(n(7), Mark::Clear)],
        ]);
        assert!(!good_list(n(1), &holed, 3));
    }

    #[test]
    fn fresh_singletons_are_compatible_even_for_dmax_one() {
        // After the first exchange, node 1's list is ({1},{2 pending}) and
        // node 2 sends ({2},{1 pending}); the group cores are just {1} and
        // {2}, so the pair fits in a group of diameter 1.
        let ours =
            AncestorList::from_levels(vec![vec![(n(1), Mark::Clear)], vec![(n(2), Mark::Pending)]]);
        let theirs =
            AncestorList::from_levels(vec![vec![(n(2), Mark::Clear)], vec![(n(1), Mark::Pending)]]);
        assert!(compatible_list(n(1), &ours, &theirs, 1));
        assert!(compatible_list(n(1), &ours, &theirs, 2));
        assert!(naive_compatible_list(n(1), &ours, &theirs, 1));
    }

    #[test]
    fn short_lists_are_always_compatible() {
        let dmax = 3;
        let ours = clear_levels(&[&[1], &[2]]);
        let theirs = clear_levels(&[&[5], &[1]]);
        assert!(compatible_list(n(1), &ours, &theirs, dmax));
        assert!(naive_compatible_list(n(1), &ours, &theirs, dmax));
    }

    #[test]
    fn two_path_groups_of_two_merge_when_dmax_allows() {
        // Groups {0,1} and {2,3} on a path 0-1-2-3; node 1 receives node 2's
        // list. Merged diameter is 3.
        let ours = clear_levels(&[&[1], &[0]]);
        let theirs = clear_levels(&[&[2], &[1, 3]]);
        assert!(compatible_list(n(1), &ours, &theirs, 3));
        // with Dmax = 2 the optimistic shortcut bound (i = 0 → q + 1 = 2)
        // still accepts; the far-node arbitration splits the group later if
        // the merged diameter turns out to exceed the bound
        assert!(compatible_list(n(1), &ours, &theirs, 2));
        assert!(!compatible_list(n(1), &ours, &theirs, 1));
    }

    #[test]
    fn deep_lists_are_incompatible_for_small_dmax() {
        let ours = clear_levels(&[&[1], &[2], &[3]]);
        let theirs = clear_levels(&[&[10], &[1, 11], &[12]]);
        // cores: 3 + 3; the best fold (i = 0) gives min(5, 3) = 3
        assert!(compatible_list(n(1), &ours, &theirs, 3));
        assert!(!compatible_list(n(1), &ours, &theirs, 2));
        assert!(!naive_compatible_list(n(1), &ours, &theirs, 3));
    }

    #[test]
    fn shortcut_allows_merging_where_naive_test_refuses() {
        let dmax = 3;
        // Our group is the path 3-2-1 (we are node 1, list ({1},{2},{3})).
        // The sender 10 is adjacent to both 1 and 2 (a short-cut) and brings
        // one group member 11 behind it.
        let ours = clear_levels(&[&[1], &[2], &[3]]);
        let theirs = clear_levels(&[&[10], &[1, 2, 11]]);
        // cores: 3 + 2 = 5 > 4, so the naive test refuses …
        assert!(!naive_compatible_list(n(1), &ours, &theirs, dmax));
        // … but level 1 = {2} is fully adjacent to the sender: i = 1 gives
        // min(2-1+1+1, 0+1+1) = 2 ≤ 3.
        assert!(compatible_list(n(1), &ours, &theirs, dmax));
    }

    #[test]
    fn no_fold_level_means_plain_concatenation_bound() {
        // The sender's neighbour level quotes none of our nodes: only the
        // simple sum-of-lengths condition can accept.
        let ours = clear_levels(&[&[1], &[2], &[3]]);
        let theirs = clear_levels(&[&[10], &[11]]);
        assert!(!compatible_list(n(1), &ours, &theirs, 3));
        assert!(compatible_list(n(1), &ours, &theirs, 4));
    }

    #[test]
    fn adjacent_singleton_is_compatible_even_for_dmax_one() {
        let dmax = 1;
        let ours = clear_levels(&[&[1], &[2]]);
        let theirs = clear_levels(&[&[9], &[1]]);
        // the optimistic i = 0 fold gives q + 1 = 1 ≤ 1: accepted; if the
        // resulting group exceeds the bound the far-node arbitration on the
        // deeper member will split it again
        assert!(compatible_list(n(1), &ours, &theirs, dmax));
    }

    #[test]
    fn empty_or_self_only_lists_are_trivially_compatible() {
        let ours = AncestorList::empty();
        let theirs = clear_levels(&[&[9], &[1]]);
        assert!(compatible_list(n(1), &ours, &theirs, 1));
        // a received list whose core is only ourselves is also trivially fine
        let ours = clear_levels(&[&[1], &[2], &[3]]);
        let only_us = clear_levels(&[&[1]]);
        assert!(compatible_list(n(1), &ours, &only_us, 1));
    }
}
