//! Marks on list entries.
//!
//! The protocol uses a *marking* technique to (a) confirm that a link is
//! symmetric before using it and (b) remember that a neighbour's list was
//! rejected. In the paper's notation a node can appear plainly, single
//! marked (underlined) or double marked (overlined); marked nodes are never
//! propagated farther than the neighbourhood and never enter a view.

/// The mark attached to a node entry in an ancestor list.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Mark {
    /// Plain entry: the node is a confirmed group member or candidate.
    #[default]
    Clear,
    /// Single mark: the sender was heard but the link has not yet been
    /// confirmed symmetric (the triple handshake is still in progress), or
    /// its list was malformed.
    Pending,
    /// Double mark: the neighbour's list was rejected (incompatible or
    /// containing a too-far node with priority); the edge towards it is a
    /// *double-marked edge* and cuts list propagation (Prop. 3).
    Incompatible,
}

impl Mark {
    /// Is the entry marked at all (single or double)?
    pub fn is_marked(self) -> bool {
        self != Mark::Clear
    }

    /// Combine two marks for the same node at the same distance: the
    /// "stronger" knowledge wins (Incompatible > Pending > Clear).
    pub fn combine(self, other: Mark) -> Mark {
        self.max(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clear() {
        assert_eq!(Mark::default(), Mark::Clear);
        assert!(!Mark::Clear.is_marked());
        assert!(Mark::Pending.is_marked());
        assert!(Mark::Incompatible.is_marked());
    }

    #[test]
    fn combine_prefers_stronger_mark() {
        assert_eq!(Mark::Clear.combine(Mark::Pending), Mark::Pending);
        assert_eq!(Mark::Pending.combine(Mark::Clear), Mark::Pending);
        assert_eq!(
            Mark::Pending.combine(Mark::Incompatible),
            Mark::Incompatible
        );
        assert_eq!(Mark::Clear.combine(Mark::Clear), Mark::Clear);
    }
}
