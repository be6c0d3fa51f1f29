//! Topology events: the changes between two successive configurations.
//!
//! Section 2 of the paper models a dynamic system as a sequence of
//! configurations, each with a single topology `G_ci`. A [`TopologyEvent`]
//! is one change from one configuration's topology to the next; the
//! simulator applies them in explicit-topology mode.

use crate::id::NodeId;

/// A single topology change between two successive configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyEvent {
    /// A communication link appeared between two nodes.
    LinkUp(NodeId, NodeId),
    /// A communication link disappeared.
    LinkDown(NodeId, NodeId),
    /// A node became active (appears in the topology).
    NodeJoin(NodeId),
    /// A node became inactive (disappears with all its links).
    NodeLeave(NodeId),
}
