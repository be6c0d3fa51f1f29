//! Ordered lists of ancestors' sets and the `ant` r-operator.
//!
//! The ordered list of ancestors' sets of a node `v` is
//! `(a⁰_v, a¹_v, …, aᵖ_v)` where every node of `aⁱ_v` is at distance `i`
//! from `v` and `a⁰_v = {v}` (Section 4.2). Entries additionally carry a
//! [`Mark`], the typographic single/double marking of the paper.
//!
//! Three operations define the algebra:
//!
//! * `⊕` ([`AncestorList::merge`]) — position-wise union followed by
//!   deduplication (a node is kept only at its smallest position) and
//!   removal of trailing empty sets;
//! * `r` ([`AncestorList::shifted`]) — prepend an empty set, i.e. push every
//!   node one hop farther;
//! * `ant(l1, l2) = l1 ⊕ r(l2)` ([`AncestorList::ant`]) — the strictly
//!   idempotent r-operator used by `compute()` to fold the neighbours'
//!   lists into the local one.
//!
//! # Representation
//!
//! The list is stored CSR-style: one flat entry array sorted by `(level,
//! node)` plus a level-offset array (`offsets[i]..offsets[i + 1]` is level
//! `i`). Every `⊕` — a pairwise [`merge`](AncestorList::merge) or the whole
//! neighbour fold of `compute()` ([`ant_fold`](AncestorList::ant_fold)) —
//! is one pass: gather `(node, level, mark)` rows from all operands, sort
//! them by `(node, level)`, keep each node's smallest level (combining the
//! marks met there), and lay the survivors out level by level with a
//! counting sort. The observable semantics (level contents, entry
//! iteration order, equality) are identical to the historical
//! `Vec<BTreeMap<NodeId, Mark>>` layout and its pairwise fold, which survive
//! as the executable reference implementation in
//! `tests/property_flat_list.rs`, where they pin the equivalence operation
//! by operation; the golden trace digests pin it end to end.

use crate::marks::Mark;
use dyngraph::NodeId;
use std::collections::BTreeSet;
use std::fmt;

/// One `(node, mark)` entry of an ancestors' set.
pub type Entry = (NodeId, Mark);

/// An ordered list of ancestors' sets with per-entry marks.
///
/// **Serialization contract:** the wire/persisted shape of a list is the
/// *level-map* form exposed by [`to_levels`](Self::to_levels) /
/// [`from_levels`](Self::from_levels) — NOT the raw `{entries, offsets}`
/// CSR internals, whose invariants (monotonic offsets starting at 0,
/// per-level sorted unique ids) untrusted input must never construct
/// directly. A serialization format, when one is needed, goes through
/// `to_levels`/`from_levels` so the `{levels: [...]}` encoding — and
/// validation on the way in — is preserved.
#[derive(Debug, PartialEq, Eq)]
pub struct AncestorList {
    /// Entries in `(level, ascending node id)` order.
    entries: Vec<Entry>,
    /// `offsets[i]..offsets[i + 1]` delimits level `i`; always holds
    /// `levels + 1` values starting at 0. `u32` keeps the hot arrays
    /// compact — a list quotes at most the members of one group, far below
    /// 4G entries.
    offsets: Vec<u32>,
}

impl Default for AncestorList {
    fn default() -> Self {
        AncestorList::empty()
    }
}

impl Clone for AncestorList {
    fn clone(&self) -> Self {
        AncestorList {
            entries: self.entries.clone(),
            offsets: self.offsets.clone(),
        }
    }

    /// Reuses `self`'s buffers: `compute()` copies every received list into
    /// the same few lists, round after round.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
        self.offsets.clone_from(&source.offsets);
    }
}

/// A `(node, level, mark)` row, the unit the one-pass `⊕` sorts.
type Row = (NodeId, u32, Mark);

impl AncestorList {
    /// The empty list (no levels): a folding identity and a blank buffer.
    pub fn empty() -> Self {
        AncestorList {
            entries: Vec::new(),
            offsets: vec![0],
        }
    }

    /// `(v)`: the list of a node that only knows itself.
    pub fn singleton(node: NodeId) -> Self {
        AncestorList::marked_singleton(node, Mark::Clear)
    }

    /// `(u)` with a mark — the replacement list used when a neighbour's list
    /// is rejected (lines 4, 7 and 19 of `compute()`).
    pub fn marked_singleton(node: NodeId, mark: Mark) -> Self {
        AncestorList {
            entries: vec![(node, mark)],
            offsets: vec![0, 1],
        }
    }

    /// Overwrite the list with `(u)` marked `mark`, keeping its buffers —
    /// the in-place [`marked_singleton`](Self::marked_singleton).
    pub(crate) fn assign_marked_singleton(&mut self, node: NodeId, mark: Mark) {
        self.entries.clear();
        self.entries.push((node, mark));
        self.offsets.clear();
        self.offsets.extend([0, 1]);
    }

    /// Build from explicit levels (mostly for tests and corruption).
    /// Trailing empty levels are meaningless and removed; internal empty
    /// levels are kept (they are a malformation `goodList` must detect).
    /// Within a level, entries are sorted by id and a duplicated id keeps
    /// its last mark (the historical `BTreeMap::insert` semantics).
    pub fn from_levels(levels: Vec<Vec<Entry>>) -> Self {
        let mut entries = Vec::new();
        let mut offsets = Vec::with_capacity(levels.len() + 1);
        offsets.push(0);
        for level in levels {
            // collect through an ordered map so duplicate ids overwrite,
            // exactly like the historical per-level BTreeMap did
            let map: std::collections::BTreeMap<NodeId, Mark> = level.into_iter().collect();
            entries.extend(map);
            offsets.push(entries.len() as u32);
        }
        let mut list = AncestorList { entries, offsets };
        list.trim_trailing_empty();
        list
    }

    /// The levels as owned `(node, mark)` rows — the inverse of
    /// [`from_levels`](Self::from_levels) and the shape the serialized form
    /// exposes (`from_levels(list.to_levels()) == list` for canonical
    /// lists).
    pub fn to_levels(&self) -> Vec<Vec<Entry>> {
        (0..self.len())
            .map(|i| self.level(i).unwrap_or(&[]).to_vec())
            .collect()
    }

    /// Number of levels, the paper's `s(list)`.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the list has no level at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th ancestors' set (`list.i`), if present, as a slice sorted
    /// by node id.
    pub fn level(&self, i: usize) -> Option<&[Entry]> {
        if i < self.len() {
            Some(&self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize])
        } else {
            None
        }
    }

    /// Does level `i` quote this node (at any mark)? False when the level
    /// does not exist.
    pub fn level_contains(&self, i: usize, node: NodeId) -> bool {
        self.level(i)
            .is_some_and(|l| l.binary_search_by_key(&node, |&(n, _)| n).is_ok())
    }

    /// Does some level quote this node unmarked — is it one of
    /// [`unmarked_nodes`](Self::unmarked_nodes)? One binary search per
    /// level, no set built.
    pub fn quotes_unmarked(&self, node: NodeId) -> bool {
        (0..self.len()).any(|i| {
            self.level(i).is_some_and(|l| {
                l.binary_search_by_key(&node, |&(n, _)| n)
                    .is_ok_and(|j| !l[j].1.is_marked())
            })
        })
    }

    /// The node ids of the `i`-th ancestors' set (empty set when absent).
    pub fn level_nodes(&self, i: usize) -> BTreeSet<NodeId> {
        self.level(i)
            .map(|l| l.iter().map(|&(n, _)| n).collect())
            .unwrap_or_default()
    }

    /// Total number of node entries across all levels (used as a proxy for
    /// the wire size of a message).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Does the list mention this node (at any level, marked or not)?
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|&(n, _)| n == node)
    }

    /// The level at which a node appears, if any.
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        let idx = self.entries.iter().position(|&(n, _)| n == node)?;
        Some(self.level_of_index(idx))
    }

    /// The mark of a node, if it appears (first occurrence, as the
    /// historical level scan returned).
    pub fn mark_of(&self, node: NodeId) -> Option<Mark> {
        self.entries
            .iter()
            .find_map(|&(n, m)| (n == node).then_some(m))
    }

    /// The level a flat entry index belongs to.
    fn level_of_index(&self, idx: usize) -> usize {
        // offsets is sorted; the entry lives in the last level whose start
        // is <= idx
        match self.offsets.binary_search(&(idx as u32)) {
            // equal offsets (empty levels) all start at the same index: the
            // entry belongs to the last of them
            Ok(mut i) => {
                while i + 1 < self.offsets.len() && self.offsets[i + 1] as usize == idx {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        }
    }

    /// Iterate over `(node, level, mark)` for every entry, in `(level,
    /// ascending id)` order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, usize, Mark)> + '_ {
        (0..self.len()).flat_map(move |i| {
            self.level(i)
                .unwrap_or(&[])
                .iter()
                .map(move |&(n, m)| (n, i, m))
        })
    }

    /// All node ids mentioned in the list.
    pub fn all_nodes(&self) -> BTreeSet<NodeId> {
        self.entries.iter().map(|&(n, _)| n).collect()
    }

    /// All *unmarked* node ids (the candidates for the view).
    pub fn unmarked_nodes(&self) -> BTreeSet<NodeId> {
        self.entries
            .iter()
            .filter(|(_, m)| !m.is_marked())
            .map(|&(n, _)| n)
            .collect()
    }

    /// Does any level contain no node at all (the `∅ ∈ list` malformation
    /// rejected by `goodList`)? Trailing levels never stay empty after
    /// normalisation, so this only detects internal holes.
    pub fn has_empty_level(&self) -> bool {
        self.offsets.windows(2).any(|w| w[0] == w[1])
    }

    /// Remove every marked entry except a *single-marked* `keep` (line 2 of
    /// `compute()`: marked nodes are only meaningful between direct
    /// neighbours; a single mark on *ourselves* tells us the sender heard us,
    /// whereas a double mark means the sender rejected us — Proposition 3
    /// requires that rejection to cut propagation in both directions, so the
    /// double-marked entry is dropped and the receiver will treat the link
    /// as asymmetric).
    pub fn remove_marked_except(&mut self, keep: NodeId) {
        let mut write = 0usize;
        let mut read_start = 0usize;
        for level in 0..self.len() {
            let read_end = self.offsets[level + 1] as usize;
            for i in read_start..read_end {
                let (n, m) = self.entries[i];
                if !m.is_marked() || (n == keep && m == Mark::Pending) {
                    self.entries[write] = (n, m);
                    write += 1;
                }
            }
            self.offsets[level + 1] = write as u32;
            read_start = read_end;
        }
        self.entries.truncate(write);
        self.trim_trailing_empty();
    }

    /// Set the mark of a node wherever it appears.
    pub fn set_mark(&mut self, node: NodeId, mark: Mark) {
        for entry in &mut self.entries {
            if entry.0 == node {
                entry.1 = mark;
            }
        }
    }

    /// Keep only the first `max_levels` levels (line 28 of `compute()`).
    pub fn truncate(&mut self, max_levels: usize) {
        if max_levels < self.len() {
            self.entries.truncate(self.offsets[max_levels] as usize);
            self.offsets.truncate(max_levels + 1);
        }
        self.trim_trailing_empty();
    }

    /// `r`: a copy of the list with an empty set prepended (every node one
    /// hop farther).
    pub fn shifted(&self) -> AncestorList {
        let mut offsets = Vec::with_capacity(self.offsets.len() + 1);
        offsets.push(0);
        offsets.extend_from_slice(&self.offsets);
        AncestorList {
            entries: self.entries.clone(),
            offsets,
        }
    }

    /// Push every entry as a `(node, level + shift, mark)` row: the rows
    /// of `r^shift(self)`.
    fn gather(&self, shift: u32, rows: &mut Vec<Row>) {
        for level in 0..self.len() {
            let run = &self.entries[self.offsets[level] as usize..self.offsets[level + 1] as usize];
            rows.extend(run.iter().map(|&(n, m)| (n, level as u32 + shift, m)));
        }
    }

    /// Overwrite the list with the `⊕` of the gathered rows, reusing its
    /// buffers: each node is kept at its smallest level with the marks met
    /// there combined, and trailing empty levels never arise (internal ones
    /// do, exactly as the pairwise fold keeps them). `⊕` may fold all its
    /// operands at once because it keeps the smallest position and
    /// `combine` is associative and commutative. O(m log m) for m rows.
    fn assemble(&mut self, rows: &mut Vec<Row>) {
        rows.sort_unstable_by_key(|&(n, level, _)| (n, level));
        // `dedup_by` hands over (later row, kept row) of the same node
        rows.dedup_by(|row, kept| {
            if row.0 != kept.0 {
                return false;
            }
            if row.1 == kept.1 {
                kept.2 = kept.2.combine(row.2);
            }
            true
        });
        // counting sort by level; stable, so every level stays sorted by id
        let levels = rows
            .iter()
            .map(|&(_, level, _)| level as usize + 1)
            .max()
            .unwrap_or(0);
        self.offsets.clear();
        self.offsets.resize(levels + 1, 0);
        for &(_, level, _) in rows.iter() {
            self.offsets[level as usize + 1] += 1;
        }
        for i in 1..=levels {
            self.offsets[i] += self.offsets[i - 1];
        }
        // offsets[l] starts level l; placing a row advances it to the start
        // of level l + 1, so one shift right restores the starts
        self.entries.clear();
        self.entries.resize(rows.len(), (NodeId(0), Mark::Clear));
        for &(n, level, m) in rows.iter() {
            let next = &mut self.offsets[level as usize];
            self.entries[*next as usize] = (n, m);
            *next += 1;
        }
        self.offsets.copy_within(0..levels, 1);
        self.offsets[0] = 0;
    }

    /// `a ⊕ r^shift(b)` as a new list.
    fn fold_pair(a: &AncestorList, b: &AncestorList, shift: u32) -> AncestorList {
        let mut rows = Vec::with_capacity(a.entries.len() + b.entries.len());
        a.gather(0, &mut rows);
        b.gather(shift, &mut rows);
        let mut out = AncestorList::empty();
        out.assemble(&mut rows);
        out
    }

    /// `⊕`: position-wise union, deduplication keeping the smallest
    /// position (combining marks when the same node meets itself at the same
    /// position), and removal of trailing empty sets.
    pub fn merge(&self, other: &AncestorList) -> AncestorList {
        Self::fold_pair(self, other, 0)
    }

    /// The `ant` r-operator: `ant(l1, l2) = l1 ⊕ r(l2)`.
    pub fn ant(&self, other: &AncestorList) -> AncestorList {
        Self::fold_pair(self, other, 1)
    }

    /// `self ← ant(…ant(ant((own), l₁), l₂)…, lₖ)` — lines 10–13 of
    /// `compute()` — in one pass over all the lists instead of k pairwise
    /// folds, reusing the list's buffers and `rows` (whose contents are
    /// scratch). Equal to the pairwise chain in any order of the lists.
    pub fn ant_fold<'a>(
        &mut self,
        own: NodeId,
        lists: impl IntoIterator<Item = &'a AncestorList>,
        rows: &mut Vec<(NodeId, u32, Mark)>,
    ) {
        rows.clear();
        rows.push((own, 0, Mark::Clear));
        for list in lists {
            list.gather(1, rows);
        }
        self.assemble(rows);
    }

    fn trim_trailing_empty(&mut self) {
        while self.offsets.len() > 1
            && self.offsets[self.offsets.len() - 1] == self.offsets[self.offsets.len() - 2]
        {
            self.offsets.pop();
        }
    }
}

impl fmt::Display for AncestorList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.len() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, (n, m)) in self.level(i).unwrap_or(&[]).iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                match m {
                    Mark::Clear => write!(f, "{n}")?,
                    Mark::Pending => write!(f, "{n}*")?,
                    Mark::Incompatible => write!(f, "{n}**")?,
                }
            }
            write!(f, "}}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn paper_example_of_merge() {
        // ({d},{b},{a,c}) ⊕ ({c},{a,e},{b}) = ({d,c},{b,a,e})
        // with d=4, b=2, a=1, c=3, e=5
        let l1 = clear_levels(&[&[4], &[2], &[1, 3]]);
        let l2 = clear_levels(&[&[3], &[1, 5], &[2]]);
        let merged = l1.merge(&l2);
        let expected = clear_levels(&[&[4, 3], &[2, 1, 5]]);
        assert_eq!(merged, expected);
    }

    #[test]
    fn paper_example_of_shift() {
        // r({d},{b},{a,c}) = (∅,{d},{b},{a,c})
        let l = clear_levels(&[&[4], &[2], &[1, 3]]);
        let shifted = l.shifted();
        assert_eq!(shifted.len(), 4);
        assert!(shifted.level(0).unwrap().is_empty());
        assert_eq!(shifted.level_nodes(1), [n(4)].into_iter().collect());
    }

    #[test]
    fn singleton_and_marked_singleton() {
        let s = AncestorList::singleton(n(7));
        assert_eq!(s.len(), 1);
        assert_eq!(s.position_of(n(7)), Some(0));
        assert_eq!(s.mark_of(n(7)), Some(Mark::Clear));

        let m = AncestorList::marked_singleton(n(7), Mark::Incompatible);
        assert_eq!(m.mark_of(n(7)), Some(Mark::Incompatible));
        assert!(m.unmarked_nodes().is_empty());
    }

    #[test]
    fn ant_puts_sender_at_distance_one() {
        let me = AncestorList::singleton(n(1));
        let neighbour = clear_levels(&[&[2], &[3]]);
        let result = me.ant(&neighbour);
        assert_eq!(result.position_of(n(1)), Some(0));
        assert_eq!(result.position_of(n(2)), Some(1));
        assert_eq!(result.position_of(n(3)), Some(2));
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn merge_is_idempotent_commutative() {
        let l1 = clear_levels(&[&[4], &[2], &[1, 3]]);
        let l2 = clear_levels(&[&[3], &[1, 5], &[2]]);
        assert_eq!(l1.merge(&l1), l1);
        assert_eq!(l1.merge(&l2), l2.merge(&l1));
    }

    #[test]
    fn r_operator_idempotency() {
        // x ⊕ r(x) = x : every node of r(x) already appears one level
        // earlier in x, so the dedup removes all of them.
        let x = clear_levels(&[&[1], &[2, 3], &[4]]);
        assert_eq!(x.merge(&x.shifted()), x);
        assert_eq!(x.ant(&x), x);
    }

    #[test]
    fn dedup_keeps_smallest_position() {
        let l1 = clear_levels(&[&[1], &[2]]);
        let l2 = clear_levels(&[&[2], &[1]]);
        let merged = l1.merge(&l2);
        // both 1 and 2 known at distance 0 → single level
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.level_nodes(0), [n(1), n(2)].into_iter().collect());
    }

    #[test]
    fn merge_combines_marks_at_same_position() {
        let a = AncestorList::from_levels(vec![vec![(n(1), Mark::Clear)]]);
        let b = AncestorList::from_levels(vec![vec![(n(1), Mark::Pending)]]);
        assert_eq!(a.merge(&b).mark_of(n(1)), Some(Mark::Pending));
    }

    #[test]
    fn remove_marked_except_keeps_pending_self_but_not_double_mark() {
        let mut l = AncestorList::from_levels(vec![
            vec![(n(1), Mark::Clear)],
            vec![
                (n(2), Mark::Pending),
                (n(3), Mark::Clear),
                (n(4), Mark::Incompatible),
            ],
        ]);
        let mut pending_self = l.clone();
        pending_self.remove_marked_except(n(2));
        assert!(
            pending_self.contains(n(2)),
            "a pending mark on ourselves survives"
        );
        assert!(!pending_self.contains(n(4)), "double marks always go");
        l.remove_marked_except(n(4));
        assert!(!l.contains(n(2)));
        assert!(l.contains(n(3)));
        assert!(
            !l.contains(n(4)),
            "a double mark on ourselves is dropped: the sender rejected us"
        );
    }

    #[test]
    fn remove_marked_trims_trailing_levels() {
        let mut l =
            AncestorList::from_levels(vec![vec![(n(1), Mark::Clear)], vec![(n(2), Mark::Pending)]]);
        l.remove_marked_except(n(1));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn truncate_limits_levels() {
        let mut l = clear_levels(&[&[1], &[2], &[3], &[4]]);
        l.truncate(2);
        assert_eq!(l.len(), 2);
        assert!(!l.contains(n(3)));
    }

    #[test]
    fn entry_count_and_all_nodes() {
        let l = clear_levels(&[&[1], &[2, 3]]);
        assert_eq!(l.entry_count(), 3);
        assert_eq!(l.all_nodes(), [n(1), n(2), n(3)].into_iter().collect());
    }

    #[test]
    fn set_mark_changes_existing_entry() {
        let mut l = clear_levels(&[&[1], &[2]]);
        l.set_mark(n(2), Mark::Incompatible);
        assert_eq!(l.mark_of(n(2)), Some(Mark::Incompatible));
        assert_eq!(l.unmarked_nodes(), [n(1)].into_iter().collect());
    }

    #[test]
    fn display_shows_marks() {
        let l = AncestorList::from_levels(vec![
            vec![(n(1), Mark::Clear)],
            vec![(n(2), Mark::Pending), (n(3), Mark::Incompatible)],
        ]);
        let s = l.to_string();
        assert!(s.contains("n2*"));
        assert!(s.contains("n3**"));
    }

    #[test]
    fn empty_level_detection() {
        let l = AncestorList::from_levels(vec![
            vec![(n(1), Mark::Clear)],
            vec![],
            vec![(n(2), Mark::Clear)],
        ]);
        assert!(l.has_empty_level());
        assert_eq!(l.position_of(n(2)), Some(2), "entry sits after the hole");
        let ok = clear_levels(&[&[1], &[2]]);
        assert!(!ok.has_empty_level());
    }

    #[test]
    fn default_and_empty_agree() {
        assert_eq!(AncestorList::default(), AncestorList::empty());
        assert_eq!(AncestorList::default(), AncestorList::from_levels(vec![]));
        assert!(AncestorList::default().is_empty());
        assert_eq!(
            AncestorList::empty().merge(&AncestorList::empty()),
            AncestorList::empty()
        );
    }

    #[test]
    fn to_levels_round_trips() {
        let l = AncestorList::from_levels(vec![
            vec![(n(1), Mark::Clear)],
            vec![],
            vec![(n(2), Mark::Pending), (n(9), Mark::Incompatible)],
        ]);
        assert_eq!(AncestorList::from_levels(l.to_levels()), l);
    }
}
