//! Node and group priorities.
//!
//! Priorities arbitrate which node must leave when a group would exceed the
//! diameter bound, and which of two groups absorbs the other when merging.
//! They are *totally ordered*; `pr(u) < pr(v)` means `u` has the priority.
//! The paper recommends implementing them as the node's "oldness": a logical
//! clock that increases while the node is alone and freezes once it belongs
//! to a group of two or more, so that late arrivals always lose against
//! established members. The group priority is the smallest priority of its
//! members.

use dyngraph::NodeId;
use std::fmt;

/// A totally-ordered priority: `(value, node id)` compared lexicographically.
/// Smaller is *better* (has the priority).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Priority {
    /// The logical-clock component ("oldness": lower = older = stronger).
    pub value: u64,
    /// Tie-breaking component, making the order total.
    pub id: NodeId,
}

impl Priority {
    /// A priority for node `id` with the given clock value.
    pub fn new(value: u64, id: NodeId) -> Self {
        Priority { value, id }
    }

    /// Does this priority win over `other` (i.e. is it strictly smaller)?
    pub fn beats(&self, other: &Priority) -> bool {
        self < other
    }

    /// The better (smaller) of two priorities.
    pub fn min_of(a: Priority, b: Priority) -> Priority {
        if a <= b {
            a
        } else {
            b
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pr({},{})", self.value, self.id)
    }
}

/// The group priority implied by a set of member priorities: the minimum,
/// or `None` for an empty set.
pub fn group_priority<I: IntoIterator<Item = Priority>>(members: I) -> Option<Priority> {
    members.into_iter().min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64, id: u64) -> Priority {
        Priority::new(v, NodeId(id))
    }

    #[test]
    fn order_is_value_then_id() {
        assert!(p(1, 9).beats(&p(2, 1)));
        assert!(p(1, 1).beats(&p(1, 2)));
        assert!(!p(1, 2).beats(&p(1, 2)), "a priority never beats itself");
        assert_eq!(Priority::min_of(p(3, 1), p(2, 9)), p(2, 9));
        assert_eq!(Priority::min_of(p(2, 1), p(2, 9)), p(2, 1));
    }

    #[test]
    fn group_priority_is_minimum_member() {
        assert_eq!(
            group_priority(vec![p(5, 1), p(2, 7), p(9, 0)]),
            Some(p(2, 7))
        );
        assert_eq!(group_priority(Vec::new()), None);
    }

    #[test]
    fn display_formats_both_components() {
        assert_eq!(p(4, 2).to_string(), "pr(4,n2)");
    }
}
