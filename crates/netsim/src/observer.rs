//! The observer pipeline: streaming instrumentation of a running simulation.
//!
//! The paper's evaluation is defined over *configurations* — per-round
//! snapshots of topology + protocol outputs. Historically every harness
//! (scenario runner, experiment runner, bench runner, threaded cluster)
//! re-implemented snapshot capture by cloning the full graph and every view
//! once per round. An [`Observer`] instead rides inside the simulator's
//! single event loop ([`crate::Simulator::run_rounds_observed`]) and sees the
//! run as it happens, so metrics are computed *streaming* and whatever must
//! be retained can be retained incrementally (copy-on-write, deltas) instead
//! of by wholesale cloning.
//!
//! Layering:
//!
//! * this module defines the [`Observer`] trait plus the protocol-agnostic
//!   built-ins ([`TraceProbe`], [`StatsProbe`], [`NullObserver`]);
//! * `grp_core::observers` adds the view-aware probes (`SnapshotRecorder`,
//!   `ConvergenceProbe`, `ContinuityProbe`) on top of
//!   [`ViewProtocol`](crate::protocol::ViewProtocol);
//! * the harnesses (`scenarios`, `experiments`, `bench`) compose observers
//!   and never hand-roll capture loops.
//!
//! Observers are deliberately kept out of the deterministic core: they
//! receive `&Simulator` (never `&mut`), they cannot touch the RNG, and the
//! event sequence of an observed run is byte-identical to an unobserved one.

use crate::fault::ScheduledFault;
use crate::protocol::Protocol;
use crate::sim::Simulator;
use crate::time::SimTime;
use crate::trace::Trace;
use dyngraph::NodeId;

/// Streaming hooks into a simulation run. All hooks default to no-ops, so an
/// observer implements only what it needs.
///
/// Hook cadence:
///
/// * [`on_delivery`](Observer::on_delivery) — once per message actually
///   delivered to an active protocol instance (after loss);
/// * [`on_fault`](Observer::on_fault) — once per scheduled fault applied;
/// * [`on_topology_change`](Observer::on_topology_change) — once per
///   mobility tick on which a node moved (ticks where no node moved are
///   skipped, matching the engine's own skip);
/// * [`on_round_end`](Observer::on_round_end) — once per compute period
///   driven through [`Simulator::run_rounds_observed`] /
///   [`Simulator::run_rounds_driven`]; `round` is the simulator's global
///   0-based observed-round counter;
/// * [`on_run_end`](Observer::on_run_end) — invoked by the *harness* once
///   after the last round of a run (the engine cannot know when a
///   multi-call driving sequence is finished).
pub trait Observer<P: Protocol> {
    /// A compute period completed under observed driving.
    fn on_round_end(&mut self, round: u64, sim: &Simulator<P>) {
        let _ = (round, sim);
    }

    /// A message reached an active destination protocol. `size` is
    /// [`Protocol::message_size`] of the delivered message.
    fn on_delivery(&mut self, from: NodeId, to: NodeId, size: usize, now: SimTime) {
        let _ = (from, to, size, now);
    }

    /// A scheduled fault was applied (the simulator state already reflects
    /// it).
    fn on_fault(&mut self, fault: &ScheduledFault, sim: &Simulator<P>) {
        let _ = (fault, sim);
    }

    /// A mobility tick on which a node moved, so the communication
    /// topology may have changed.
    fn on_topology_change(&mut self, now: SimTime) {
        let _ = now;
    }

    /// The harness finished driving this run.
    fn on_run_end(&mut self, sim: &Simulator<P>) {
        let _ = sim;
    }
}

/// The no-op observer: `run_rounds_observed(r, &mut NullObserver)` is the
/// uninstrumented run (and is exactly what `run_rounds` does).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl<P: Protocol> Observer<P> for NullObserver {}

/// Forwarding impl so observers can be passed by mutable reference (e.g.
/// into a tuple composition without moving them).
impl<P: Protocol, O: Observer<P> + ?Sized> Observer<P> for &mut O {
    fn on_round_end(&mut self, round: u64, sim: &Simulator<P>) {
        (**self).on_round_end(round, sim);
    }
    fn on_delivery(&mut self, from: NodeId, to: NodeId, size: usize, now: SimTime) {
        (**self).on_delivery(from, to, size, now);
    }
    fn on_fault(&mut self, fault: &ScheduledFault, sim: &Simulator<P>) {
        (**self).on_fault(fault, sim);
    }
    fn on_topology_change(&mut self, now: SimTime) {
        (**self).on_topology_change(now);
    }
    fn on_run_end(&mut self, sim: &Simulator<P>) {
        (**self).on_run_end(sim);
    }
}

/// Tuples of observers observe in member order, so independent probes
/// compose without a dedicated combinator type.
macro_rules! impl_observer_tuple {
    ($($name:ident),+) => {
        #[allow(non_snake_case)]
        impl<P: Protocol, $($name: Observer<P>),+> Observer<P> for ($($name,)+) {
            fn on_round_end(&mut self, round: u64, sim: &Simulator<P>) {
                let ($($name,)+) = self;
                $($name.on_round_end(round, sim);)+
            }
            fn on_delivery(&mut self, from: NodeId, to: NodeId, size: usize, now: SimTime) {
                let ($($name,)+) = self;
                $($name.on_delivery(from, to, size, now);)+
            }
            fn on_fault(&mut self, fault: &ScheduledFault, sim: &Simulator<P>) {
                let ($($name,)+) = self;
                $($name.on_fault(fault, sim);)+
            }
            fn on_topology_change(&mut self, now: SimTime) {
                let ($($name,)+) = self;
                $($name.on_topology_change(now);)+
            }
            fn on_run_end(&mut self, sim: &Simulator<P>) {
                let ($($name,)+) = self;
                $($name.on_run_end(sim);)+
            }
        }
    };
}

impl_observer_tuple!(A);
impl_observer_tuple!(A, B);
impl_observer_tuple!(A, B, C);
impl_observer_tuple!(A, B, C, D);
impl_observer_tuple!(A, B, C, D, E);

/// Records the per-round engine trace (topology + cumulative message
/// statistics) the way every harness used to do by hand — except the
/// topology is shared with the simulator ([`Simulator::topology_shared`]),
/// so recording a round costs two `Arc` clones and a stats copy instead of
/// a full graph clone.
///
/// The recorded [`Trace`] feeds the canonical digest byte-identically to
/// the historical `Simulator::snapshot()` path.
#[derive(Clone, Debug, Default)]
pub struct TraceProbe {
    trace: Trace,
}

impl TraceProbe {
    /// An empty probe.
    pub fn new() -> Self {
        TraceProbe::default()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl<P: Protocol> Observer<P> for TraceProbe {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        self.trace
            .record(sim.now(), sim.topology_shared(), sim.stats());
    }
}

/// Streams message-overhead accounting: wire bytes (via
/// [`Protocol::message_size`]) and delivery counts, accumulated from the
/// delivery hook alone — no stored snapshots at all.
#[derive(Clone, Debug, Default)]
pub struct StatsProbe {
    /// Deliveries seen by the hook.
    pub delivered: u64,
    /// Sum of [`Protocol::message_size`] over delivered messages.
    pub delivered_bytes: u64,
}

impl StatsProbe {
    /// A probe with zeroed counters.
    pub fn new() -> Self {
        StatsProbe::default()
    }
}

impl<P: Protocol> Observer<P> for StatsProbe {
    fn on_delivery(&mut self, _from: NodeId, _to: NodeId, size: usize, _now: SimTime) {
        self.delivered += 1;
        self.delivered_bytes += size as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Beacon;
    use crate::sim::{SimConfig, TopologyMode};
    use dyngraph::generators::path;

    fn beacon_sim(n: usize, seed: u64) -> Simulator<Beacon> {
        let g = path(n);
        let mut sim = Simulator::new(
            SimConfig {
                seed,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..n as u64).map(|i| Beacon::new(NodeId(i))));
        sim
    }

    #[test]
    fn trace_probe_matches_round_count_and_shares_topology() {
        let mut sim = beacon_sim(4, 1);
        let mut probe = TraceProbe::new();
        sim.run_rounds_observed(5, &mut probe);
        assert_eq!(probe.trace().len(), 5);
        // explicit mode, no churn: every recorded round shares one topology
        let first = &probe.trace().snapshots()[0].topology;
        for s in probe.trace().snapshots() {
            assert!(std::sync::Arc::ptr_eq(first, &s.topology));
        }
    }

    /// Satellite test: `Protocol::message_size` overhead accounting flows
    /// through the probe — pinned for a non-unit-size message (a [`Beacon`]
    /// identity is 8 bytes on the wire).
    #[test]
    fn stats_probe_pins_delivered_bytes_for_non_unit_messages() {
        let mut sim = beacon_sim(3, 2);
        let mut probe = StatsProbe::new();
        sim.run_rounds_observed(4, &mut probe);
        let engine = sim.stats();
        assert!(probe.delivered > 0);
        assert_eq!(probe.delivered, engine.delivered);
        assert_eq!(probe.delivered_bytes, engine.delivered_bytes);
        assert_eq!(
            probe.delivered_bytes,
            8 * probe.delivered,
            "beacons are 8 wire bytes each"
        );
    }

    #[test]
    fn observers_compose_as_tuples() {
        let mut sim = beacon_sim(3, 3);
        let mut pipeline = (TraceProbe::new(), StatsProbe::new());
        sim.run_rounds_observed(3, &mut pipeline);
        let (trace, stats) = pipeline;
        assert_eq!(trace.trace().len(), 3);
        assert_eq!(stats.delivered, sim.stats().delivered);
    }

    /// An `on_fault` hook hands out `&Simulator` mid-run: in spatial-grid
    /// mode the observed graph must reflect every mobility tick up to the
    /// fault, not the state at the start of the `run_until` call.
    #[test]
    fn on_fault_sees_a_fresh_topology_in_grid_mode() {
        use crate::fault::{FaultKind, ScheduledFault};
        use crate::mobility::RandomWalk;
        use crate::radio::UnitDisk;
        use crate::sim::TopologyMode;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        struct FaultTopology {
            graph_at_fault: Option<dyngraph::Graph>,
        }
        impl Observer<Beacon> for FaultTopology {
            fn on_fault(&mut self, _fault: &ScheduledFault, sim: &Simulator<Beacon>) {
                self.graph_at_fault = Some(sim.topology().clone());
            }
        }

        let run = |mobility_seed: u64| {
            let mut placement = ChaCha8Rng::seed_from_u64(mobility_seed);
            let mut sim: Simulator<Beacon> = Simulator::new(
                SimConfig {
                    seed: 5,
                    mobility_period: 100,
                    ..Default::default()
                },
                TopologyMode::Spatial {
                    radio: Box::new(UnitDisk::new(30.0)),
                    mobility: Box::new(RandomWalk::new(30, 100.0, 100.0, 0.5, &mut placement)),
                },
            );
            sim.add_nodes((0..30).map(|i| Beacon::new(NodeId(i))));
            // fault lands mid compute-period, after several mobility ticks
            sim.schedule_faults(vec![ScheduledFault::new(
                SimTime(550),
                FaultKind::Crash(NodeId(3)),
            )]);
            let mut probe = FaultTopology {
                graph_at_fault: None,
            };
            sim.run_rounds_observed(1, &mut probe);
            (probe.graph_at_fault.expect("fault fired"), sim)
        };
        let (observed_graph, sim) = run(9);
        // replay the same world without the fault up to the same instant:
        // the graph the hook saw must match the freshly materialised one
        let mut placement = ChaCha8Rng::seed_from_u64(9);
        let mut twin: Simulator<Beacon> = Simulator::new(
            SimConfig {
                seed: 5,
                mobility_period: 100,
                ..Default::default()
            },
            TopologyMode::Spatial {
                radio: Box::new(UnitDisk::new(30.0)),
                mobility: Box::new(RandomWalk::new(30, 100.0, 100.0, 0.5, &mut placement)),
            },
        );
        twin.add_nodes((0..30).map(|i| Beacon::new(NodeId(i))));
        twin.run_until(SimTime(550));
        assert_eq!(&observed_graph, twin.topology());
        drop(sim);
    }

    #[test]
    fn observed_run_is_byte_identical_to_unobserved() {
        let digest_of = |observed: bool| {
            let mut sim = beacon_sim(5, 7);
            if observed {
                let mut probe = (TraceProbe::new(), StatsProbe::new());
                sim.run_rounds_observed(6, &mut probe);
            } else {
                sim.run_rounds(6);
            }
            (sim.stats(), sim.events_processed())
        };
        assert_eq!(digest_of(true), digest_of(false));
    }
}
