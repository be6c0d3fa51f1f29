//! Min-id cluster-head k-clustering.
//!
//! The classical k-clustering baseline the paper cites (Datta et al.,
//! Johnen & Nguyen, …): every node elects as *cluster head* the smallest
//! identifier within `k = ⌊Dmax/2⌋` hops, and the group is the set of nodes
//! that elected the same head. Groups are therefore balls of radius `k`
//! around head nodes — their diameter respects `Dmax` — but the partition is
//! re-derived from the current topology at every round: when the head moves
//! away, the whole group is re-labelled, which is exactly the churn GRP is
//! designed to avoid.

use crate::discovery::{Discovery, DiscoveryMessage};
use dyngraph::NodeId;
use netsim::{Protocol, SimTime, View, ViewProtocol};
use rand_chacha::ChaCha8Rng;

/// One node of the min-id k-clustering baseline.
#[derive(Clone, Debug)]
pub struct KHopClustering {
    discovery: Discovery,
    /// Cluster radius `k` (heads gather nodes within `k` hops).
    k: u32,
    head: NodeId,
    view: View,
}

impl KHopClustering {
    /// A node configured for groups of diameter at most `dmax`.
    pub fn new(id: NodeId, dmax: usize) -> Self {
        let k = (dmax as u32 / 2).max(1);
        KHopClustering {
            // the discovery horizon must cover the head (≤ k hops) plus the
            // other members of its ball (k more hops)
            discovery: Discovery::new(id, 2 * k),
            k,
            head: id,
            view: View::singleton(id),
        }
    }

    /// The node's identity.
    pub fn node_id(&self) -> NodeId {
        self.discovery.id
    }

    /// The elected cluster head.
    pub fn head(&self) -> NodeId {
        self.head
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    fn elect(&mut self) {
        self.discovery.recompute();
        // head = smallest id within k hops (self included)
        self.head = self
            .discovery
            .within(self.k)
            .map(|(n, _)| n)
            .min()
            .unwrap_or(self.discovery.id);
        // group = nodes that advertised the same head, plus ourselves
        let mut members: Vec<NodeId> = self
            .discovery
            .advertised_heads
            .iter()
            .filter(|(_, &h)| h == self.head)
            .map(|(&n, _)| n)
            .collect();
        // also include nodes whose head we can infer locally (the head
        // itself and anything the discovery saw within k of the head is a
        // plausible member); keep it simple and honest: only ourselves plus
        // explicit confirmations
        members.push(self.discovery.id);
        if self.discovery.distances.contains_key(&self.head) {
            members.push(self.head);
        }
        let view: View = members.into_iter().collect();
        // an unchanged view keeps its allocation, shared with snapshots
        if view != self.view {
            self.view = view;
        }
    }
}

impl Protocol for KHopClustering {
    type Message = DiscoveryMessage;

    fn id(&self) -> NodeId {
        self.discovery.id
    }

    fn on_message(&mut self, _from: NodeId, msg: DiscoveryMessage, _now: SimTime) {
        self.discovery.receive(msg);
    }

    fn on_compute(&mut self, _now: SimTime) {
        self.elect();
    }

    fn on_send(&mut self, _now: SimTime) -> Option<DiscoveryMessage> {
        Some(self.discovery.message(self.head))
    }

    fn message_size(msg: &DiscoveryMessage) -> usize {
        msg.wire_size()
    }

    fn corrupt_state(&mut self, rng: &mut ChaCha8Rng) {
        use rand::Rng;
        let ghost = NodeId(rng.gen_range(100_000..200_000));
        std::sync::Arc::make_mut(&mut self.discovery.distances).insert(ghost, 1);
        self.head = ghost;
        self.view = self.view.with(ghost);
    }

    fn reset(&mut self) {
        let id = self.discovery.id;
        let dmax = (self.k * 2) as usize;
        *self = KHopClustering::new(id, dmax);
    }
}

impl ViewProtocol for KHopClustering {
    fn view(&self) -> &View {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;
    use netsim::{SimConfig, Simulator, TopologyMode};

    fn sim(n: usize, dmax: usize, seed: u64) -> Simulator<KHopClustering> {
        let mut sim = Simulator::new(
            SimConfig {
                seed,
                ..Default::default()
            },
            TopologyMode::Explicit(path(n)),
        );
        sim.add_nodes((0..n).map(|i| KHopClustering::new(NodeId(i as u64), dmax)));
        sim
    }

    #[test]
    fn initial_head_is_self() {
        let node = KHopClustering::new(NodeId(7), 4);
        assert_eq!(node.head(), NodeId(7));
        assert_eq!(node.view().len(), 1);
    }

    #[test]
    fn nodes_near_the_smallest_id_elect_it() {
        let mut sim = sim(5, 4, 1);
        sim.run_rounds(20);
        // k = 2: nodes 0, 1, 2 are within 2 hops of node 0 on a path
        assert_eq!(sim.protocol(NodeId(0)).unwrap().head(), NodeId(0));
        assert_eq!(sim.protocol(NodeId(1)).unwrap().head(), NodeId(0));
        assert_eq!(sim.protocol(NodeId(2)).unwrap().head(), NodeId(0));
        // node 4 is 4 hops from node 0, so it elects a closer head
        assert_ne!(sim.protocol(NodeId(4)).unwrap().head(), NodeId(0));
    }

    #[test]
    fn views_contain_self_and_respect_group_semantics() {
        let mut sim = sim(6, 2, 2);
        sim.run_rounds(20);
        for (id, node) in sim.protocols() {
            assert!(node.view().contains(&id));
            assert!(node.view().clone().contains(&id));
        }
    }

    #[test]
    fn head_changes_when_topology_splits() {
        let mut sim = sim(4, 4, 3);
        sim.run_rounds(20);
        assert_eq!(
            sim.protocol(NodeId(3)).unwrap().head(),
            NodeId(1),
            "k=2 ball"
        );
        // cut the path between 1 and 2: nodes 2 and 3 must re-elect
        sim.apply_topology_event(dyngraph::TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
        sim.run_rounds(20);
        assert_eq!(sim.protocol(NodeId(3)).unwrap().head(), NodeId(2));
        assert_eq!(sim.protocol(NodeId(2)).unwrap().head(), NodeId(2));
    }

    #[test]
    fn corrupt_and_reset_hooks() {
        let mut node = KHopClustering::new(NodeId(3), 4);
        let mut rng = rand::SeedableRng::seed_from_u64(9);
        node.corrupt_state(&mut rng);
        assert!(node.head().raw() >= 100_000);
        Protocol::reset(&mut node);
        assert_eq!(node.head(), NodeId(3));
    }
}
