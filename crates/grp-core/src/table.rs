//! Flat tables keyed by node id.
//!
//! A [`GrpNode`](crate::node::GrpNode) keeps the learnt priorities and the
//! quarantine counters per node id, and every
//! [`GrpMessage`](crate::message::GrpMessage) carries a priority table. All
//! three are small (a neighbourhood or a group) and are walked in id order —
//! the canonical encoding and the wire size read them that way. A
//! [`NodeTable`] is one `Vec` sorted by id: lookup is a binary search,
//! iteration is a slice walk in exactly the key order a `BTreeMap` would
//! give, and adding a batch of ids is one sort of the batch and one merge
//! into the table's own vector (`NodeTable::merge_batch`); replacing the
//! whole table with an already sorted set is one copy (`NodeTable::assign`).
//!
//! The entries are private, so "sorted by id, each id once" holds by
//! construction: every method that adds an id keeps it (`assign`, which
//! takes an already sorted set, checks it in debug builds).

use dyngraph::NodeId;

/// A map from [`NodeId`] to `V`, stored as one `Vec` sorted by id with no
/// repeated id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeTable<V> {
    entries: Vec<(NodeId, V)>,
}

impl<V> Default for NodeTable<V> {
    fn default() -> Self {
        NodeTable {
            entries: Vec::new(),
        }
    }
}

impl<V> NodeTable<V> {
    /// The empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no id.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, node: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&node, |&(n, _)| n)
    }

    /// The value of `node`, if present.
    pub fn get(&self, node: NodeId) -> Option<&V> {
        self.find(node).ok().map(|i| &self.entries[i].1)
    }

    /// The value of `node`, if present, for update in place.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut V> {
        self.find(node).ok().map(|i| &mut self.entries[i].1)
    }

    /// Set the value of `node`, replacing any previous one.
    pub fn insert(&mut self, node: NodeId, value: V) {
        match self.find(node) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (node, value)),
        }
    }

    /// Keep the entries for which `keep` returns true; it may also update
    /// the value. Ids are visited in ascending order.
    pub fn retain_mut(&mut self, mut keep: impl FnMut(NodeId, &mut V) -> bool) {
        self.entries.retain_mut(|(node, value)| keep(*node, value));
    }

    /// Iterate over the entries in ascending id order.
    pub fn iter(&self) -> std::slice::Iter<'_, (NodeId, V)> {
        self.entries.iter()
    }

    /// The entries in ascending id order, as one slice.
    pub(crate) fn as_slice(&self) -> &[(NodeId, V)] {
        &self.entries
    }

    /// The table of `entries`, given in any order: sorted by id, and a
    /// repeated id keeps its last value. The vector becomes the table's
    /// storage as it is, so a caller that sized it exactly gets a table
    /// that never grows and never shrinks.
    pub(crate) fn from_vec(mut entries: Vec<(NodeId, V)>) -> Self {
        sort_keep_last(&mut entries);
        NodeTable { entries }
    }
}

impl<V: Clone> NodeTable<V> {
    /// Make `entries` — sorted by id, each id once — the whole table, in
    /// the table's own allocation: it grows to exactly the largest set it
    /// has been given and is not handed any other vector's spare capacity.
    pub(crate) fn assign(&mut self, entries: &[(NodeId, V)]) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        self.entries.clear();
        self.entries.reserve_exact(entries.len());
        self.entries.extend_from_slice(entries);
    }

    /// Insert every entry of `batch` as repeated [`insert`](Self::insert)
    /// would — a later entry for an id replaces an earlier one — and hand
    /// `batch` back empty, its capacity kept for the caller's next batch.
    ///
    /// In place: the batch is sorted, ids the table holds are overwritten,
    /// and the new ids are merged in from the back after one `reserve_exact`
    /// for them, so the table grows only by what it gains.
    pub(crate) fn merge_batch(&mut self, batch: &mut Vec<(NodeId, V)>) {
        sort_keep_last(batch);
        batch.retain_mut(|(node, value)| match self.find(*node) {
            Ok(i) => {
                std::mem::swap(&mut self.entries[i].1, value);
                false
            }
            Err(_) => true,
        });
        if batch.is_empty() {
            return;
        }
        // old entries in [0, old), new ones in `batch`: fill the table from
        // its end, taking the larger id first; the slots past `old` start
        // as copies of the batch and are overwritten before they are read
        let old = self.entries.len();
        self.entries.reserve_exact(batch.len());
        self.entries.extend_from_slice(batch);
        let (mut i, mut j) = (old, batch.len());
        while j > 0 {
            let write = i + j - 1;
            if i > 0 && self.entries[i - 1].0 > batch[j - 1].0 {
                self.entries.swap(write, i - 1);
                i -= 1;
            } else {
                std::mem::swap(&mut self.entries[write], &mut batch[j - 1]);
                j -= 1;
            }
        }
        batch.clear();
    }
}

impl<'a, V> IntoIterator for &'a NodeTable<V> {
    type Item = &'a (NodeId, V);
    type IntoIter = std::slice::Iter<'a, (NodeId, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Collects like `BTreeMap::from_iter`: the entries end up sorted by id and
/// a repeated id keeps its last value.
impl<V> FromIterator<(NodeId, V)> for NodeTable<V> {
    fn from_iter<I: IntoIterator<Item = (NodeId, V)>>(iter: I) -> Self {
        let mut table = NodeTable::from_vec(iter.into_iter().collect());
        table.entries.shrink_to_fit();
        table
    }
}

/// Sort `entries` by id and keep the last of each run of equal ids.
fn sort_keep_last<V>(entries: &mut Vec<(NodeId, V)>) {
    // stable, so the entries of a repeated id stay in arrival order
    entries.sort_by_key(|&(n, _)| n);
    entries.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn insert_keeps_ids_sorted_and_unique() {
        let mut t = NodeTable::new();
        for (id, v) in [(5, 'a'), (1, 'b'), (9, 'c'), (5, 'd')] {
            t.insert(n(id), v);
        }
        let ids: Vec<u64> = t.iter().map(|&(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![1, 5, 9]);
        assert_eq!(t.get(n(5)), Some(&'d'), "insert replaces");
        assert_eq!(t.get(n(4)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn from_iter_matches_btreemap() {
        let pairs = [(3, 1), (1, 2), (3, 3), (2, 4), (1, 5)];
        let table: NodeTable<u32> = pairs.iter().map(|&(id, v)| (n(id), v)).collect();
        let map: std::collections::BTreeMap<NodeId, u32> =
            pairs.iter().map(|&(id, v)| (n(id), v)).collect();
        assert!(table.iter().map(|&(id, v)| (id, v)).eq(map.into_iter()));
    }

    #[test]
    fn retain_mut_updates_and_drops() {
        let mut table: NodeTable<u32> = (1..=4).map(|i| (n(i), i as u32)).collect();
        table.retain_mut(|id, v| {
            *v *= 10;
            id != n(2)
        });
        let entries: Vec<(NodeId, u32)> = table.iter().copied().collect();
        assert_eq!(entries, vec![(n(1), 10), (n(3), 30), (n(4), 40)]);
        *table.get_mut(n(3)).unwrap() = 7;
        assert_eq!(table.get(n(3)), Some(&7));
    }

    type Entries = Vec<(u64, u32)>;

    /// A table and a batch over a small id range, so batches repeat ids and
    /// overlap the table; either may be empty.
    fn table_and_batch() -> impl Strategy<Value = (Entries, Entries)> {
        let entries = || proptest::collection::vec((0u64..24, 0u32..1000), 0..16);
        (entries(), entries())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn merge_batch_matches_repeated_insert(case in table_and_batch()) {
            let (start, batch) = case;
            let mut table: NodeTable<u32> = start.iter().map(|&(id, v)| (n(id), v)).collect();
            let mut reference = table.clone();
            let mut buffer: Vec<(NodeId, u32)> = batch.iter().map(|&(id, v)| (n(id), v)).collect();
            table.merge_batch(&mut buffer);
            for &(id, v) in &batch {
                reference.insert(n(id), v);
            }
            prop_assert_eq!(&table, &reference);
            prop_assert!(buffer.is_empty(), "the buffer comes back empty");
            prop_assert!(table.iter().zip(table.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        }
    }

    #[test]
    fn assign_replaces_the_table_in_its_own_allocation() {
        let mut table: NodeTable<char> = NodeTable::new();
        let mut source = Vec::with_capacity(16);
        source.extend([(1, 'a'), (4, 'b'), (7, 'c')].map(|(id, v)| (n(id), v)));
        table.assign(&source);
        assert_eq!(table.as_slice(), source.as_slice());
        assert_eq!(
            table.entries.capacity(),
            3,
            "sized to the set, not the source"
        );
        table.assign(&source[1..]);
        let ids: Vec<u64> = table.iter().map(|&(id, _)| id.raw()).collect();
        assert_eq!(ids, [4, 7]);
        assert_eq!(
            table.entries.capacity(),
            3,
            "a smaller set reuses the allocation"
        );
        table.assign(&[]);
        assert!(table.is_empty());
    }

    #[test]
    fn merge_batch_later_entry_wins_and_grows_exactly() {
        let mut table: NodeTable<char> = [(2, 'a'), (5, 'b'), (8, 'c')]
            .iter()
            .map(|&(id, v)| (n(id), v))
            .collect();
        let mut buffer = Vec::with_capacity(8);
        buffer.extend([(9, 'd'), (5, 'e'), (1, 'f'), (9, 'g'), (3, 'h')].map(|(id, v)| (n(id), v)));
        table.merge_batch(&mut buffer);
        let entries: Vec<(u64, char)> = table.iter().map(|&(id, v)| (id.raw(), v)).collect();
        assert_eq!(
            entries,
            [(1, 'f'), (2, 'a'), (3, 'h'), (5, 'e'), (8, 'c'), (9, 'g')]
        );
        assert_eq!(table.entries.capacity(), 6, "grown by the new ids only");
        assert!(buffer.is_empty() && buffer.capacity() >= 8, "capacity kept");
        table.merge_batch(&mut buffer);
        assert_eq!(table.len(), 6, "the empty batch is a no-op");
    }
}
