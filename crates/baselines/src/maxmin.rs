//! Simplified Max-Min d-cluster heuristic (Amis, Prakash, Vuong — INFOCOM
//! 2000), the second clustering comparator cited by the paper.
//!
//! The original algorithm runs `2d` diffusion rounds (floodmax then
//! floodmin) to elect cluster heads that are locally *maximal* identifiers
//! while letting smaller nodes re-adopt nearer heads. In this continuously
//! running reproduction every node elects as head the largest identifier
//! within `d` hops, with the floodmin-style correction that a node adopts a
//! smaller head if that head is strictly closer than the maximal one — the
//! behaviour that distinguishes Max-Min from plain max-id clustering. As for
//! the other baselines, the partition is re-derived every round, so a moving
//! head re-labels its whole cluster.

use crate::discovery::{Discovery, DiscoveryMessage};
use dyngraph::NodeId;
use netsim::{Protocol, SimTime, View, ViewProtocol};
use rand_chacha::ChaCha8Rng;

/// One node of the Max-Min d-cluster baseline.
#[derive(Clone, Debug)]
pub struct MaxMinDCluster {
    discovery: Discovery,
    /// Cluster radius `d`.
    d: u32,
    head: NodeId,
    view: View,
}

impl MaxMinDCluster {
    /// A node configured for groups of diameter at most `dmax`.
    pub fn new(id: NodeId, dmax: usize) -> Self {
        let d = (dmax as u32 / 2).max(1);
        MaxMinDCluster {
            discovery: Discovery::new(id, 2 * d),
            d,
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
        let me = self.discovery.id;
        // floodmax: the largest identifier within d hops
        let max_head = self
            .discovery
            .within(self.d)
            .map(|(n, _)| n)
            .max()
            .unwrap_or(me);
        // floodmin correction: if a strictly closer node is itself a local
        // maximum (it advertises itself as head), prefer it — this is the
        // "smaller node pairs" rule of Max-Min that avoids giant clusters
        let max_dist = self
            .discovery
            .distances
            .get(&max_head)
            .copied()
            .unwrap_or(0);
        let closer_self_head = self
            .discovery
            .within(self.d)
            .filter(|&(n, dist)| {
                n != me && dist < max_dist && self.discovery.advertised_heads.get(&n) == Some(&n)
            })
            .min_by_key(|&(n, dist)| (dist, n));
        self.head = match closer_self_head {
            Some((n, _)) => n,
            None => max_head,
        };
        let mut members: Vec<NodeId> = self
            .discovery
            .advertised_heads
            .iter()
            .filter(|(_, &h)| h == self.head)
            .map(|(&n, _)| n)
            .collect();
        members.push(me);
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

impl Protocol for MaxMinDCluster {
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
        self.view = self.view.with(ghost);
    }

    fn reset(&mut self) {
        let id = self.discovery.id;
        let dmax = (self.d * 2) as usize;
        *self = MaxMinDCluster::new(id, dmax);
    }
}

impl ViewProtocol for MaxMinDCluster {
    fn view(&self) -> &View {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;
    use netsim::{SimConfig, Simulator, TopologyMode};
    use std::collections::BTreeSet;

    fn sim(n: usize, dmax: usize, seed: u64) -> Simulator<MaxMinDCluster> {
        let mut sim = Simulator::new(
            SimConfig {
                seed,
                ..Default::default()
            },
            TopologyMode::Explicit(path(n)),
        );
        sim.add_nodes((0..n).map(|i| MaxMinDCluster::new(NodeId(i as u64), dmax)));
        sim
    }

    #[test]
    fn initial_head_is_self() {
        let node = MaxMinDCluster::new(NodeId(7), 4);
        assert_eq!(node.head(), NodeId(7));
        assert_eq!(node.view().len(), 1);
    }

    #[test]
    fn nodes_near_the_largest_id_elect_it() {
        let mut sim = sim(5, 4, 1);
        sim.run_rounds(25);
        // d = 2: node 4 is the largest id; its 2-hop ball is {2, 3, 4}
        assert_eq!(sim.protocol(NodeId(4)).unwrap().head(), NodeId(4));
        assert_eq!(sim.protocol(NodeId(3)).unwrap().head(), NodeId(4));
        // node 0 is 4 hops away and must pick a closer head
        assert_ne!(sim.protocol(NodeId(0)).unwrap().head(), NodeId(4));
    }

    #[test]
    fn every_view_contains_self() {
        let mut sim = sim(7, 2, 2);
        sim.run_rounds(20);
        for (id, node) in sim.protocols() {
            assert!(node.view().clone().contains(&id));
        }
    }

    #[test]
    fn differs_from_min_id_clustering() {
        // on the same path the max-min heads are high ids whereas the k-hop
        // baseline elects low ids — the two baselines genuinely differ
        let mut sim = sim(5, 4, 3);
        sim.run_rounds(25);
        let heads: BTreeSet<NodeId> = sim.protocols().map(|(_, p)| p.head()).collect();
        assert!(heads.contains(&NodeId(4)));
        assert!(
            !heads.contains(&NodeId(0)),
            "node 0 is nobody's head under max-min: {heads:?}"
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut node = MaxMinDCluster::new(NodeId(3), 4);
        let mut rng = rand::SeedableRng::seed_from_u64(9);
        node.corrupt_state(&mut rng);
        Protocol::reset(&mut node);
        assert_eq!(node.head(), NodeId(3));
        assert_eq!(node.view().len(), 1);
    }
}
