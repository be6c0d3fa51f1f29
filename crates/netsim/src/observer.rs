//! The observer hook: streaming instrumentation of a running simulation.
//!
//! The paper's evaluation is defined over *configurations* — per-round
//! snapshots of topology + protocol outputs. An [`Observer`] rides inside
//! the simulator's single event loop
//! ([`crate::Simulator::run_rounds_observed`]) and sees the run as it
//! happens, so metrics are computed *streaming* and whatever must be
//! retained is shared with the simulator (the topology `Arc`, each node's
//! [`View`](crate::View)) instead of cloned.
//!
//! Layering:
//!
//! * this module defines the [`Observer`] trait and the no-op
//!   [`NullObserver`]; the engine's own traffic counters are
//!   [`Simulator::stats`];
//! * `grp_core::observers::GrpPipeline` is the one per-round recorder: a
//!   shared-view `SnapshotRecorder` plus the convergence, continuity and
//!   resilience accounting, all fed from one capture per round;
//! * the harnesses (`scenarios`, `experiments`, `grp-bench`) drive a
//!   `GrpPipeline` (or its `SnapshotRecorder` alone), or an observer of
//!   their own that wraps one.
//!
//! Observers are deliberately kept out of the deterministic core: they
//! receive `&Simulator` (never `&mut`), they cannot touch the RNG, and the
//! event sequence of an observed run is byte-identical to an unobserved one.

use crate::fault::ScheduledFault;
use crate::protocol::Protocol;
use crate::sim::Simulator;
use crate::time::SimTime;
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

    /// Counts hook calls: a test-local observer, so the hook cadence is
    /// pinned without a shipping probe.
    #[derive(Default)]
    struct Tally {
        rounds: u64,
        deliveries: u64,
        delivered_bytes: u64,
    }

    impl Observer<Beacon> for Tally {
        fn on_round_end(&mut self, round: u64, _sim: &Simulator<Beacon>) {
            assert_eq!(round, self.rounds, "rounds are numbered 0, 1, …");
            self.rounds += 1;
        }
        fn on_delivery(&mut self, _from: NodeId, _to: NodeId, size: usize, _now: SimTime) {
            self.deliveries += 1;
            self.delivered_bytes += size as u64;
        }
    }

    /// `on_delivery` fires once per delivery the engine counts, with
    /// [`Protocol::message_size`] as its size — pinned for a non-unit-size
    /// message (a [`Beacon`] identity is 8 bytes on the wire).
    #[test]
    fn on_delivery_matches_the_engine_counters_for_non_unit_messages() {
        let mut sim = beacon_sim(3, 2);
        let mut tally = Tally::default();
        sim.run_rounds_observed(4, &mut tally);
        let engine = sim.stats();
        assert_eq!(tally.rounds, 4);
        assert!(tally.deliveries > 0);
        assert_eq!(tally.deliveries, engine.delivered);
        assert_eq!(tally.delivered_bytes, engine.delivered_bytes);
        assert_eq!(
            tally.delivered_bytes,
            8 * tally.deliveries,
            "beacons are 8 wire bytes each"
        );
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
                    radio: UnitDisk::new(30.0),
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
                radio: UnitDisk::new(30.0),
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
                let mut tally = Tally::default();
                sim.run_rounds_observed(6, &mut tally);
                assert_eq!(tally.rounds, 6);
            } else {
                sim.run_rounds(6);
            }
            (sim.stats(), sim.events_processed())
        };
        assert_eq!(digest_of(true), digest_of(false));
    }
}
