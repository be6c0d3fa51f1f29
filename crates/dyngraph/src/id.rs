//! Node identifiers.
//!
//! The paper's model assumes a finite (but unknown) set of nodes `V`, each
//! with a unique identity that can be compared and transmitted in messages.
//! `NodeId` is a small copyable newtype over `u64` so identities are cheap to
//! copy into ancestor lists and messages.

use std::fmt;

/// Unique identity of a node in the system.
///
/// Identifiers are totally ordered; the order is used only for deterministic
/// tie-breaking (e.g. between equal priorities), never as a "smallest id
/// wins" election — GRP deliberately avoids cluster-head style leaders.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Build an identifier from any unsigned integer.
    pub fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Raw integer value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Slot of `id` in a NodeId-ascending table — its index there. Ids `0..n`
/// — the conventional assignment — sit at slot == id, so the guess hits
/// without a search.
pub fn slot_of(ids: &[NodeId], id: NodeId) -> Option<usize> {
    let guess = id.raw() as usize;
    if ids.get(guess) == Some(&id) {
        return Some(guess);
    }
    ids.binary_search(&id).ok()
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<usize> for NodeId {
    fn from(raw: usize) -> Self {
        NodeId(raw as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }

    #[test]
    fn ordering_follows_raw_value() {
        let mut set = BTreeSet::new();
        set.insert(NodeId(3));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        let ordered: Vec<u64> = set.iter().map(|n| n.raw()).collect();
        assert_eq!(ordered, vec![1, 2, 3]);
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(NodeId::from(9usize), NodeId::new(9));
        assert_eq!(NodeId::from(9u64).raw(), 9);
    }
}
