//! Running GRP on the `netsim` simulator.
//!
//! [`GrpNode`] implements [`netsim::Protocol`] directly: reception feeds
//! `msgSetv`, the compute timer runs `compute()` and resets `msgSetv`, the
//! send timer broadcasts `listv` with priorities — exactly the event handlers
//! of the GRP algorithm listing.

use crate::ancestor_list::AncestorList;
use crate::marks::Mark;
use crate::message::{GrpMessage, PriorityInfo};
use crate::node::GrpNode;
use crate::priority::Priority;
use dyngraph::NodeId;
use netsim::{CanonicalHasher, CanonicalState, Protocol, SimTime};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

impl Protocol for GrpNode {
    type Message = GrpMessage;

    fn id(&self) -> NodeId {
        self.node_id()
    }

    fn on_message(&mut self, _from: NodeId, msg: GrpMessage, _now: SimTime) {
        self.receive(msg);
    }

    fn on_compute(&mut self, _now: SimTime) {
        self.on_round();
    }

    fn on_send(&mut self, _now: SimTime) -> Option<GrpMessage> {
        // cached between computes: the broadcast only changes when the
        // state machine moves, so repeated Ts expirations within one
        // compute period share a single Arc-backed message
        Some(self.message_for_send())
    }

    fn message_size(msg: &GrpMessage) -> usize {
        msg.wire_size()
    }

    fn corrupt_state(&mut self, rng: &mut ChaCha8Rng) {
        let ghost_count = rng.gen_range(1..=3);
        let ghosts: Vec<NodeId> = (0..ghost_count)
            .map(|_| NodeId(rng.gen_range(100_000..200_000)))
            .collect();
        let scrambled_priority = rng.gen_range(0..1000);
        self.corrupt(&ghosts, scrambled_priority);
    }

    fn corrupt_message(&mut self, msg: &mut GrpMessage, rng: &mut ChaCha8Rng) {
        // the paper's "message" half of transient faults: splice a ghost
        // into the quoted ancestors' list and scramble the advertised
        // group priority. Strictly copy-on-write — both payloads are
        // `Arc`-shared with the sender's cached broadcast, which must
        // survive intact (the fault hit the wire, not the sender).
        // Ghost range 300_000..400_000 is distinct from `corrupt_state`'s
        // 100_000..200_000 so tests can tell which fault planted a ghost.
        let ghost = NodeId(rng.gen_range(300_000..400_000));
        let mut levels = msg.list.to_levels();
        if levels.is_empty() {
            levels.push(vec![(ghost, Mark::Clear)]);
        } else {
            let level = rng.gen_range(0..levels.len());
            levels[level].push((ghost, Mark::Clear));
        }
        msg.list = Arc::new(AncestorList::from_levels(levels));
        let scrambled = Priority::new(rng.gen_range(0..1000), ghost);
        Arc::make_mut(&mut msg.priorities).insert(ghost, PriorityInfo::solo(scrambled));
        msg.group_priority = Priority::min_of(msg.group_priority, scrambled);
    }

    fn reset(&mut self) {
        self.reboot();
    }
}

/// The model checker's hashing capability: semantic state and in-flight
/// messages fold into the canonical digest encoding (see
/// [`GrpNode::feed_canonical`] for what is — deliberately — excluded).
impl CanonicalState for GrpNode {
    fn feed_state(&self, hasher: &mut CanonicalHasher) {
        self.feed_canonical(hasher);
    }

    fn feed_message(msg: &GrpMessage, hasher: &mut CanonicalHasher) {
        GrpNode::feed_message_canonical(msg, hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrpConfig;
    use dyngraph::generators::path;
    use netsim::{SimConfig, Simulator, TopologyMode};
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn grp_sim(n: usize, dmax: usize, seed: u64) -> Simulator<GrpNode> {
        let mut sim = Simulator::new(
            SimConfig {
                seed,
                ..Default::default()
            },
            TopologyMode::Explicit(path(n)),
        );
        sim.add_nodes((0..n).map(|i| GrpNode::new(NodeId(i as u64), GrpConfig::new(dmax))));
        sim
    }

    #[test]
    fn small_path_converges_to_one_group_on_simulator() {
        let mut sim = grp_sim(4, 3, 1);
        sim.run_rounds(30);
        let all: BTreeSet<NodeId> = (0..4).map(NodeId).collect();
        for (_, node) in sim.protocols() {
            assert_eq!(node.view(), &all);
        }
    }

    #[test]
    fn long_path_splits_under_small_dmax() {
        let mut sim = grp_sim(8, 2, 2);
        sim.run_rounds(60);
        for (_, node) in sim.protocols() {
            let ids: Vec<u64> = node.view().iter().map(|x| x.raw()).collect();
            let span = ids.iter().max().unwrap() - ids.iter().min().unwrap();
            assert!(span <= 2, "view {:?} spans more than Dmax", ids);
        }
    }

    #[test]
    fn protocol_hooks_corrupt_and_reset() {
        let mut node = GrpNode::new(NodeId(1), GrpConfig::new(2));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        node.corrupt_state(&mut rng);
        assert!(node.view().len() > 1, "corruption planted ghost members");
        Protocol::reset(&mut node);
        assert_eq!(node.view().len(), 1);
    }

    #[test]
    fn message_size_reflects_wire_size() {
        let node = GrpNode::new(NodeId(1), GrpConfig::new(2));
        let msg = node.build_message();
        assert_eq!(GrpNode::message_size(&msg), msg.wire_size());
    }

    /// In-flight corruption plants a ghost in the quoted list and never
    /// writes through the `Arc`s shared with the sender's cached message.
    #[test]
    fn corrupt_message_is_copy_on_write() {
        let mut node = GrpNode::new(NodeId(1), GrpConfig::new(2));
        let original = node.build_message();
        let mut in_flight = original.clone();
        assert!(Arc::ptr_eq(&in_flight.list, &original.list));
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        node.corrupt_message(&mut in_flight, &mut rng);
        let ghosts: Vec<u64> = in_flight
            .list
            .all_nodes()
            .iter()
            .map(|n| n.raw())
            .filter(|id| (300_000..400_000).contains(id))
            .collect();
        assert_eq!(ghosts.len(), 1, "one ghost spliced into the payload");
        assert!(in_flight.priorities.get(NodeId(ghosts[0])).is_some());
        // the sender's copy survives byte-for-byte
        assert_eq!(original, node.build_message());
        assert!(!Arc::ptr_eq(&in_flight.list, &original.list));
        assert!(!original.list.contains(NodeId(ghosts[0])));
    }
}
