//! The naive "neighbourhood ball" pseudo-grouping.
//!
//! Without a membership service, an application that needs "the vehicles
//! around me" would simply take every node within `⌊Dmax/2⌋` hops. This
//! baseline makes that strategy explicit: the view is the discovery ball
//! recomputed from scratch every round. It maximises coverage but provides
//! no agreement (two neighbours have different balls), no stable membership
//! (the view changes whenever any link flaps) and therefore no continuity —
//! the contrast the churn experiment E5 quantifies.

use crate::discovery::{Discovery, DiscoveryMessage};
use dyngraph::NodeId;
use netsim::{Protocol, SimTime, View, ViewProtocol};
use rand_chacha::ChaCha8Rng;

/// One node of the neighbourhood-ball baseline.
#[derive(Clone, Debug)]
pub struct NeighborhoodBall {
    discovery: Discovery,
    radius: u32,
    view: View,
}

impl NeighborhoodBall {
    /// A node whose pseudo-group is its `⌊Dmax/2⌋`-hop ball.
    pub fn new(id: NodeId, dmax: usize) -> Self {
        let radius = (dmax as u32 / 2).max(1);
        NeighborhoodBall {
            discovery: Discovery::new(id, radius),
            radius,
            view: View::singleton(id),
        }
    }

    /// The node's identity.
    pub fn node_id(&self) -> NodeId {
        self.discovery.id
    }

    /// The current pseudo-group.
    pub fn view(&self) -> &View {
        &self.view
    }
}

impl Protocol for NeighborhoodBall {
    type Message = DiscoveryMessage;

    fn id(&self) -> NodeId {
        self.discovery.id
    }

    fn on_message(&mut self, _from: NodeId, msg: DiscoveryMessage, _now: SimTime) {
        self.discovery.receive(msg);
    }

    fn on_compute(&mut self, _now: SimTime) {
        self.discovery.recompute();
        let view: View = self
            .discovery
            .within(self.radius)
            .map(|(n, _)| n)
            .chain([self.discovery.id])
            .collect();
        // an unchanged ball keeps its allocation, shared with snapshots
        if view != self.view {
            self.view = view;
        }
    }

    fn on_send(&mut self, _now: SimTime) -> Option<DiscoveryMessage> {
        Some(self.discovery.message(self.discovery.id))
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
        let dmax = (self.radius * 2) as usize;
        *self = NeighborhoodBall::new(id, dmax);
    }
}

impl ViewProtocol for NeighborhoodBall {
    fn view(&self) -> &View {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;
    use netsim::{SimConfig, Simulator, TopologyMode};

    fn sim(n: usize, dmax: usize, seed: u64) -> Simulator<NeighborhoodBall> {
        let mut sim = Simulator::new(
            SimConfig {
                seed,
                ..Default::default()
            },
            TopologyMode::Explicit(path(n)),
        );
        sim.add_nodes((0..n).map(|i| NeighborhoodBall::new(NodeId(i as u64), dmax)));
        sim
    }

    #[test]
    fn ball_covers_the_radius() {
        let mut sim = sim(7, 4, 1);
        sim.run_rounds(15);
        // radius 2 around node 3 on a path: {1, 2, 3, 4, 5}
        let view = sim.protocol(NodeId(3)).unwrap().view().clone();
        let expected: View = (1..=5).map(NodeId).collect();
        assert_eq!(view, expected);
    }

    #[test]
    fn neighbouring_balls_disagree() {
        let mut sim = sim(7, 4, 2);
        sim.run_rounds(15);
        let v2 = sim.protocol(NodeId(2)).unwrap().view().clone();
        let v3 = sim.protocol(NodeId(3)).unwrap().view().clone();
        assert_ne!(v2, v3, "no agreement by construction");
    }

    #[test]
    fn view_always_contains_self_and_reset_works() {
        let mut sim = sim(4, 2, 3);
        sim.run_rounds(10);
        for (id, node) in sim.protocols() {
            assert!(node.view().clone().contains(&id));
        }
        let mut node = NeighborhoodBall::new(NodeId(9), 2);
        let mut rng = rand::SeedableRng::seed_from_u64(4);
        node.corrupt_state(&mut rng);
        assert!(node.view().len() > 1);
        Protocol::reset(&mut node);
        assert_eq!(node.view().len(), 1);
    }
}
