//! The interface between a distributed protocol and the simulator.
//!
//! The GRP algorithm (Section 4.3) is structured around three handlers —
//! message reception, the compute timer `Tc` and the send timer `Ts` — and
//! that is exactly the shape of this trait. The baselines use the same
//! interface so that every experiment runs the same simulation loop.

use crate::time::SimTime;
use dyngraph::NodeId;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A node-local protocol instance driven by the simulator.
///
/// The simulator runs every handler on one thread, in event order, with
/// `&mut self` exclusively, so implementations need no synchronisation and
/// no thread-safety bounds.
pub trait Protocol {
    /// The messages broadcast to the neighbourhood.
    type Message: Clone + std::fmt::Debug;

    /// Identity of the node running this instance.
    fn id(&self) -> NodeId;

    /// "Upon reception of a message msg sent by a node u" — called for every
    /// delivered message (after loss and collisions are resolved by the
    /// channel model).
    fn on_message(&mut self, from: NodeId, msg: Self::Message, now: SimTime);

    /// "Upon Tc timer expiration" — run the local computation.
    fn on_compute(&mut self, now: SimTime);

    /// "Upon Ts timer expiration" — produce the broadcast for the
    /// neighbourhood, or `None` to stay silent this period.
    fn on_send(&mut self, now: SimTime) -> Option<Self::Message>;

    /// Approximate wire size of a message, used for the overhead experiment.
    /// The default counts one abstract unit per message.
    fn message_size(msg: &Self::Message) -> usize {
        let _ = msg;
        1
    }

    /// Corrupt the local state with arbitrary values — used by the
    /// self-stabilization experiments to start from an arbitrary
    /// configuration. The default does nothing.
    fn corrupt_state(&mut self, rng: &mut ChaCha8Rng) {
        let _ = rng;
    }

    /// Corrupt one of this node's *in-flight* messages — the "message"
    /// half of the paper's transient faults
    /// ([`FaultKind::CorruptMessage`](crate::fault::FaultKind)). The
    /// message is a queued broadcast payload that has left the sender but
    /// not yet reached any receiver; implementations must mutate the
    /// message only (copy-on-write any shared payload — never the sender's
    /// own state through a shared `Arc`). The default does nothing.
    fn corrupt_message(&mut self, msg: &mut Self::Message, rng: &mut ChaCha8Rng) {
        let _ = (msg, rng);
    }

    /// Reset the node to its initial (post-boot) state — used to model a
    /// crash/restart. The default does nothing.
    fn reset(&mut self) {}
}

/// A view: the set of nodes a protocol instance currently believes to be
/// in its group (the paper's `viewv`), sorted ascending and without
/// duplicates.
///
/// One allocation is shared by the node that holds the view and by every
/// snapshot that records it: cloning a `View` clones an `Arc`, so a round
/// in which a view did not change costs a pointer copy, and
/// [`View::ptr_eq`] tells "the very same view as last round" without
/// comparing members.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct View(Arc<[NodeId]>);

impl View {
    /// The view `{id}` of a node alone in its group.
    pub fn singleton(id: NodeId) -> Self {
        View(Arc::from([id]))
    }

    /// Is `node` a member? A binary search.
    pub fn contains(&self, node: &NodeId) -> bool {
        self.0.binary_search(node).is_ok()
    }

    /// The members, ascending.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.0.iter()
    }

    /// The members as an ascending slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the view with no member.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// This view with `node` added.
    pub fn with(&self, node: NodeId) -> Self {
        self.iter().copied().chain([node]).collect()
    }

    /// Do `a` and `b` share one allocation? Shared views are equal; equal
    /// views need not be shared.
    pub fn ptr_eq(a: &View, b: &View) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

/// Collects any members, in any order and with repeats, into a view.
impl FromIterator<NodeId> for View {
    fn from_iter<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut members: Vec<NodeId> = nodes.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        View(members.into())
    }
}

impl<'a> IntoIterator for &'a View {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Formats as a set, `{a, b}`.
impl std::fmt::Debug for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A protocol whose output is a [`View`]. This is the capability the
/// generic observer pipeline reads — `SnapshotRecorder` and the predicate
/// probes work against `ViewProtocol`, so no harness needs to know the
/// concrete protocol type. Implemented by `grp_core::GrpNode` and every
/// baseline algorithm.
pub trait ViewProtocol: Protocol {
    /// Borrow the current view. A snapshot records it by cloning the
    /// handle, so an implementation that keeps its `View` whenever the
    /// members did not change shares one allocation with every round that
    /// recorded it.
    fn view(&self) -> &View;
}

/// A [`ViewProtocol`] whose complete semantic state can be folded into a
/// [`CanonicalHasher`](crate::digest::CanonicalHasher) — the capability the
/// `modelcheck` crate's bounded explorer needs for hash-based visited-state
/// deduplication.
///
/// The encoding contract mirrors the trace-digest contract: typed, tagged,
/// length-prefixed, platform-independent. Two instances must feed identical
/// bytes **iff** they are behaviourally indistinguishable — diagnostic
/// counters, caches and scratch buffers must *not* enter the encoding,
/// otherwise reachable states never deduplicate and the explorer's state
/// space becomes infinite.
pub trait CanonicalState: ViewProtocol + Clone {
    /// Fold the node's semantic state into the hasher.
    fn feed_state(&self, hasher: &mut crate::digest::CanonicalHasher);

    /// Fold one in-flight message into the hasher.
    fn feed_message(msg: &Self::Message, hasher: &mut crate::digest::CanonicalHasher);
}

/// A minimal beacon protocol: every `Ts` the node broadcasts its identity
/// and counts what it hears. The handlers are O(1), so a simulation of
/// [`Beacon`] nodes measures the engine itself — event queue, radio,
/// spatial index, mobility — rather than any protocol logic.
#[derive(Clone, Debug)]
pub struct Beacon {
    me: NodeId,
    /// Beacons received from any neighbour.
    pub heard: u64,
    /// Compute-timer expirations observed.
    pub computes: u64,
}

impl Beacon {
    /// A beacon instance for node `me` with zeroed counters.
    pub fn new(me: NodeId) -> Self {
        Beacon {
            me,
            heard: 0,
            computes: 0,
        }
    }
}

impl Protocol for Beacon {
    type Message = NodeId;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_message(&mut self, _from: NodeId, _msg: Self::Message, _now: SimTime) {
        self.heard += 1;
    }

    fn on_compute(&mut self, _now: SimTime) {
        self.computes += 1;
    }

    fn on_send(&mut self, _now: SimTime) -> Option<Self::Message> {
        Some(self.me)
    }

    fn message_size(_msg: &Self::Message) -> usize {
        8
    }

    fn reset(&mut self) {
        *self = Beacon::new(self.me);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A tiny flooding protocol used by the simulator unit tests: every node
    //! broadcasts the set of identifiers it has heard of; the set grows until
    //! it covers the connected component.
    use super::*;
    use std::collections::BTreeSet;

    #[derive(Clone, Debug)]
    pub struct Flood {
        pub me: NodeId,
        pub known: BTreeSet<NodeId>,
        pub received: usize,
        pub computes: usize,
    }

    impl Flood {
        pub fn new(me: NodeId) -> Self {
            let mut known = BTreeSet::new();
            known.insert(me);
            Flood {
                me,
                known,
                received: 0,
                computes: 0,
            }
        }
    }

    impl Protocol for Flood {
        type Message = BTreeSet<NodeId>;

        fn id(&self) -> NodeId {
            self.me
        }

        fn on_message(&mut self, _from: NodeId, msg: Self::Message, _now: SimTime) {
            self.received += 1;
            self.known.extend(msg);
        }

        fn on_compute(&mut self, _now: SimTime) {
            self.computes += 1;
        }

        fn on_send(&mut self, _now: SimTime) -> Option<Self::Message> {
            Some(self.known.clone())
        }

        fn message_size(msg: &Self::Message) -> usize {
            msg.len() * 8
        }

        fn corrupt_state(&mut self, rng: &mut ChaCha8Rng) {
            use rand::Rng;
            self.known.insert(NodeId(rng.gen_range(1000..2000)));
        }

        fn corrupt_message(&mut self, msg: &mut Self::Message, rng: &mut ChaCha8Rng) {
            use rand::Rng;
            // a ghost identity floods outward from the corrupted payload;
            // distinct range from corrupt_state so tests can tell which
            // fault planted a given ghost
            msg.insert(NodeId(rng.gen_range(3000..4000)));
        }

        fn reset(&mut self) {
            let me = self.me;
            *self = Flood::new(me);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A view is one fat pointer: nodes and snapshots hold 16 bytes each
    /// on 64-bit targets, whatever the group size.
    #[test]
    fn a_view_is_a_shared_slice_handle() {
        assert_eq!(std::mem::size_of::<View>(), 16);
    }

    #[test]
    fn views_are_sorted_sets_shared_by_clones() {
        let view: View = [NodeId(5), NodeId(1), NodeId(5), NodeId(3)]
            .into_iter()
            .collect();
        assert_eq!(view.as_slice(), [NodeId(1), NodeId(3), NodeId(5)]);
        assert!(view.contains(&NodeId(3)) && !view.contains(&NodeId(4)));
        assert_eq!(format!("{view:?}"), "{NodeId(1), NodeId(3), NodeId(5)}");
        let copy = view.clone();
        assert!(View::ptr_eq(&view, &copy));
        let rebuilt: View = view.iter().copied().collect();
        assert!(rebuilt == view && !View::ptr_eq(&rebuilt, &view));
        assert_eq!(view.with(NodeId(2)).len(), 4);
        assert_eq!(View::singleton(NodeId(9)).as_slice(), [NodeId(9)]);
    }
}
