//! The broadcast message: a list of ancestors' sets with priorities.
//!
//! Line 8 of the GRP algorithm broadcasts "`listv` with priorities" to the
//! neighbourhood. A message therefore carries the sender's ordered list of
//! ancestors' sets plus, for every node it quotes, the node priority and the
//! group priority the sender currently associates with that node. These are
//! exactly the inputs the far-node arbitration of `compute()` needs on the
//! receiving side.

use crate::ancestor_list::AncestorList;
use crate::priority::Priority;
use crate::table::NodeTable;
use dyngraph::NodeId;
use std::sync::Arc;

/// The priorities the sender knows about one quoted node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PriorityInfo {
    /// The node's own priority (its "oldness").
    pub node: Priority,
    /// The priority of the group the node belongs to, as far as the sender
    /// knows (the minimum priority over that group's members).
    pub group: Priority,
}

impl PriorityInfo {
    pub fn new(node: Priority, group: Priority) -> Self {
        PriorityInfo { node, group }
    }

    /// A node alone in its group: the group priority is its own.
    pub fn solo(node: Priority) -> Self {
        PriorityInfo { node, group: node }
    }
}

/// The message broadcast by a GRP node at every `Ts` expiration.
///
/// The two payloads — the ancestors' list and the priority table — are
/// behind `Arc`s: a broadcast to `k` neighbours clones `k` pointers, not
/// `k` deep copies, and `msgSetv` insertion on the receiving side is
/// equally free. The payloads are immutable once built (a receiver that
/// needs to edit the list, as line 2 of `compute()` does, clones it out of
/// the `Arc` first), so sharing is safe by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct GrpMessage {
    /// The sender's identity.
    pub sender: NodeId,
    /// The sender's ordered list of ancestors' sets (with marks).
    pub list: Arc<AncestorList>,
    /// Per-quoted-node priorities, in ascending id order.
    pub priorities: Arc<NodeTable<PriorityInfo>>,
    /// The priority of the sender's group (minimum over its view).
    pub group_priority: Priority,
}

impl GrpMessage {
    /// Approximate wire size: one byte of header plus, per entry, a node id
    /// (8 bytes), a level (1 byte), a mark (1 byte) and the two priorities
    /// (16 bytes). Used only by the overhead experiment — relative numbers
    /// are what matters.
    pub fn wire_size(&self) -> usize {
        1 + self.list.entry_count() * (8 + 1 + 1) + self.priorities.len() * 16
    }

    /// The priorities the sender attributes to a node, if quoted.
    pub fn priority_of(&self, node: NodeId) -> Option<PriorityInfo> {
        self.priorities.get(node).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marks::Mark;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn wire_size_grows_with_entries() {
        let small = GrpMessage {
            sender: n(1),
            list: Arc::new(AncestorList::singleton(n(1))),
            priorities: Arc::new(NodeTable::new()),
            group_priority: Priority::new(0, n(1)),
        };
        let priorities = [1, 2]
            .map(|i| (n(i), PriorityInfo::solo(Priority::new(0, n(i)))))
            .into_iter()
            .collect();
        let big = GrpMessage {
            sender: n(1),
            list: Arc::new(AncestorList::from_levels(vec![
                vec![(n(1), Mark::Clear)],
                vec![(n(2), Mark::Clear), (n(3), Mark::Clear)],
            ])),
            priorities: Arc::new(priorities),
            group_priority: Priority::new(0, n(1)),
        };
        assert!(big.wire_size() > small.wire_size());
        // zero-copy fan-out: a clone shares both payload allocations
        let copy = big.clone();
        assert!(Arc::ptr_eq(&copy.list, &big.list));
        assert!(Arc::ptr_eq(&copy.priorities, &big.priorities));
    }

    #[test]
    fn priority_lookup() {
        let p = PriorityInfo::new(Priority::new(3, n(2)), Priority::new(1, n(9)));
        let priorities = [(n(2), p)].into_iter().collect();
        let msg = GrpMessage {
            sender: n(1),
            list: Arc::new(AncestorList::singleton(n(1))),
            priorities: Arc::new(priorities),
            group_priority: Priority::new(0, n(1)),
        };
        assert_eq!(msg.priority_of(n(2)), Some(p));
        assert_eq!(msg.priority_of(n(5)), None);
    }

    #[test]
    fn solo_priority_info_uses_same_priority_for_group() {
        let p = Priority::new(4, n(8));
        let info = PriorityInfo::solo(p);
        assert_eq!(info.node, p);
        assert_eq!(info.group, p);
    }
}
