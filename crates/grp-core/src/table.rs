//! Flat tables keyed by node id.
//!
//! A [`GrpNode`](crate::node::GrpNode) keeps `msgSetv`, the learnt
//! priorities and the quarantine counters per node id, and every
//! [`GrpMessage`](crate::message::GrpMessage) carries a priority table. All
//! four are small (a neighbourhood or a group) and are walked in id order —
//! the canonical encoding and the wire size read them that way. A
//! [`NodeTable`] is one `Vec` sorted by id: lookup is a binary search,
//! iteration is a slice walk in exactly the key order a `BTreeMap` would
//! give, and adding a batch of ids is one sort of the batch and one merge.
//!
//! The entries are private, so "sorted by id, each id once" holds by
//! construction: every method that adds an id keeps it.

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

    /// Remove every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterate over the entries in ascending id order.
    pub fn iter(&self) -> std::slice::Iter<'_, (NodeId, V)> {
        self.entries.iter()
    }
}

impl<'a, V> IntoIterator for &'a NodeTable<V> {
    type Item = &'a (NodeId, V);
    type IntoIter = std::slice::Iter<'a, (NodeId, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Inserts like repeated [`NodeTable::insert`] — a later entry for an id
/// replaces an earlier one — with one sort of the new entries and one merge,
/// into a table sized to the result.
impl<V> Extend<(NodeId, V)> for NodeTable<V> {
    fn extend<I: IntoIterator<Item = (NodeId, V)>>(&mut self, iter: I) {
        let new: NodeTable<V> = iter.into_iter().collect();
        if new.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.len() + new.len());
        let mut old = std::mem::take(&mut self.entries).into_iter().peekable();
        for (node, value) in new.entries {
            while let Some(entry) = old.next_if(|&(n, _)| n < node) {
                merged.push(entry);
            }
            old.next_if(|&(n, _)| n == node);
            merged.push((node, value));
        }
        merged.extend(old);
        self.entries = merged;
    }
}

/// Collects like `BTreeMap::from_iter`: the entries end up sorted by id and
/// a repeated id keeps its last value.
impl<V> FromIterator<(NodeId, V)> for NodeTable<V> {
    fn from_iter<I: IntoIterator<Item = (NodeId, V)>>(iter: I) -> Self {
        let mut entries: Vec<(NodeId, V)> = iter.into_iter().collect();
        // stable, so the entries of a repeated id stay in arrival order
        entries.sort_by_key(|&(n, _)| n);
        // keep the last of each run of equal ids
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        entries.shrink_to_fit();
        NodeTable { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn extend_matches_repeated_insert() {
        let start = [(2, 'a'), (5, 'b'), (8, 'c')];
        let batch = [(9, 'd'), (5, 'e'), (1, 'f'), (9, 'g'), (3, 'h')];
        let mut table: NodeTable<char> = start.iter().map(|&(id, v)| (n(id), v)).collect();
        let mut reference = table.clone();
        table.extend(batch.iter().map(|&(id, v)| (n(id), v)));
        for &(id, v) in &batch {
            reference.insert(n(id), v);
        }
        assert_eq!(table, reference);
        assert_eq!(table.len(), 6);
        assert_eq!(table.get(n(9)), Some(&'g'), "the later entry wins");
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
        table.clear();
        assert!(table.is_empty());
    }
}
