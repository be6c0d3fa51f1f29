//! Fluent construction of a [`Simulator`].
//!
//! [`SimBuilder`] is the call sequence every harness needs —
//! `Simulator::new` + `set_channel` + `add_nodes` + `schedule_faults` — as
//! one fluent expression, shared by the scenario runner, the experiment
//! runner and the examples:
//!
//! ```
//! use netsim::{Protocol, SimBuilder, SimConfig};
//! use netsim::protocol::Beacon;
//! use dyngraph::generators::path;
//!
//! let mut sim = SimBuilder::new()
//!     .config(SimConfig::rounds(7))
//!     .explicit(path(4))
//!     .nodes_from_topology(Beacon::new)
//!     .build();
//! sim.run_rounds(3);
//! assert!(sim.stats().delivered > 0);
//! ```
//!
//! A builder-built simulator is event-identical to a hand-assembled one
//! (the golden trace digests pin this).

use crate::channel::ChannelModel;
use crate::fault::ScheduledFault;
use crate::mobility::MobilityModel;
use crate::protocol::Protocol;
use crate::radio::RadioModel;
use crate::sim::{SimConfig, Simulator, TopologyMode};
use dyngraph::{Graph, NodeId};

/// Builder for [`Simulator`]; see the module docs for the full story.
pub struct SimBuilder<P: Protocol> {
    config: SimConfig,
    mode: TopologyMode,
    channel: Option<Box<dyn ChannelModel>>,
    nodes: Vec<P>,
    faults: Vec<ScheduledFault>,
}

impl<P: Protocol> Default for SimBuilder<P> {
    fn default() -> Self {
        SimBuilder {
            config: SimConfig::default(),
            mode: TopologyMode::Explicit(Graph::new()),
            channel: None,
            nodes: Vec::new(),
            faults: Vec::new(),
        }
    }
}

impl<P: Protocol> SimBuilder<P> {
    /// A builder with the default [`SimConfig`] and an empty explicit
    /// topology.
    pub fn new() -> Self {
        SimBuilder::default()
    }

    /// Replace the whole simulation configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Set only the RNG seed, keeping the rest of the configuration.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Explicit topology mode: the harness provides (and may later mutate)
    /// the communication graph.
    pub fn explicit(mut self, topology: Graph) -> Self {
        self.mode = TopologyMode::Explicit(topology);
        self
    }

    /// Spatial topology mode: positions come from a mobility model, advanced
    /// at every mobility tick, and a radio model derives the topology from
    /// them.
    pub fn spatial(mut self, radio: Box<dyn RadioModel>, mobility: Box<dyn MobilityModel>) -> Self {
        self.mode = TopologyMode::Spatial { radio, mobility };
        self
    }

    /// Set an already-assembled topology mode (the path manifest loaders
    /// use, since they decide explicit vs spatial at runtime).
    pub fn mode(mut self, mode: TopologyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Install a channel model (see [`crate::channel`]). Defaults to
    /// [`Bernoulli`](crate::channel::Bernoulli), the iid-loss medium.
    pub fn channel(mut self, channel: Box<dyn ChannelModel>) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Add one protocol instance.
    pub fn node(mut self, protocol: P) -> Self {
        self.nodes.push(protocol);
        self
    }

    /// Add many protocol instances. Insertion order does not matter: the
    /// simulator keeps nodes in ascending id order.
    pub fn nodes<I: IntoIterator<Item = P>>(mut self, protocols: I) -> Self {
        self.nodes.extend(protocols);
        self
    }

    /// Add one protocol instance per node of the explicit topology, in the
    /// graph's ascending id order. Call after [`explicit`](Self::explicit);
    /// in spatial mode (positions, not a graph) use
    /// [`nodes_by_id`](Self::nodes_by_id) instead.
    pub fn nodes_from_topology<F: FnMut(NodeId) -> P>(mut self, mut make: F) -> Self {
        let ids: Vec<NodeId> = match &self.mode {
            TopologyMode::Explicit(g) => g.node_vec(),
            TopologyMode::Spatial { .. } => Vec::new(),
        };
        self.nodes.extend(ids.into_iter().map(&mut make));
        self
    }

    /// Add protocol instances for ids `0..count` — the conventional id
    /// assignment of the spatial workloads.
    pub fn nodes_by_id<F: FnMut(NodeId) -> P>(mut self, count: u64, make: F) -> Self {
        self.nodes.extend((0..count).map(NodeId).map(make));
        self
    }

    /// Schedule one fault (absolute time).
    pub fn fault(mut self, fault: ScheduledFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Schedule a fault plan (absolute times).
    pub fn faults<I: IntoIterator<Item = ScheduledFault>>(mut self, faults: I) -> Self {
        self.faults.extend(faults);
        self
    }

    /// Assemble the simulator: construct, add nodes, schedule faults.
    pub fn build(self) -> Simulator<P> {
        let mut sim = Simulator::new(self.config, self.mode);
        if let Some(channel) = self.channel {
            sim.set_channel(channel);
        }
        sim.add_nodes(self.nodes);
        sim.schedule_faults(self.faults);
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::mobility::Stationary;
    use crate::protocol::Beacon;
    use crate::radio::UnitDisk;
    use crate::time::SimTime;
    use dyngraph::generators::path;

    /// The builder must be indistinguishable from the manual call
    /// sequence — same events, same stats.
    #[test]
    fn builder_is_equivalent_to_manual_assembly() {
        let build = || {
            SimBuilder::new()
                .config(SimConfig {
                    seed: 9,
                    ..Default::default()
                })
                .explicit(path(5))
                .nodes_from_topology(Beacon::new)
                .fault(ScheduledFault::new(
                    SimTime(2_000),
                    FaultKind::Crash(NodeId(2)),
                ))
                .build()
        };
        let manual = || {
            let g = path(5);
            let mut sim: Simulator<Beacon> = Simulator::new(
                SimConfig {
                    seed: 9,
                    ..Default::default()
                },
                TopologyMode::Explicit(g.clone()),
            );
            sim.add_nodes(g.node_vec().into_iter().map(Beacon::new));
            sim.schedule_faults(vec![ScheduledFault::new(
                SimTime(2_000),
                FaultKind::Crash(NodeId(2)),
            )]);
            sim
        };
        let mut a = build();
        let mut b = manual();
        a.run_rounds(10);
        b.run_rounds(10);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.is_active(NodeId(2)), b.is_active(NodeId(2)));
    }

    #[test]
    fn spatial_builder_builds_topology_from_positions() {
        let mut sim: Simulator<Beacon> = SimBuilder::new()
            .seed(3)
            .spatial(
                Box::new(UnitDisk::new(12.0)),
                Box::new(Stationary::line(4, 10.0)),
            )
            .nodes_by_id(4, Beacon::new)
            .build();
        assert_eq!(sim.topology().edge_count(), 3);
        sim.run_rounds(2);
        assert!(sim.stats().delivered > 0);
    }
}
