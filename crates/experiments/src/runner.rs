//! Shared machinery: building simulators, the observer-driven history
//! collectors, and the quick/full scale switch.
//!
//! Since the observer redesign this module owns no drive loop: history is
//! collected by `grp_core::observers` probes riding `netsim`'s single
//! observed event loop, and the entry points here ([`run_grp`],
//! [`run_grp_on`], [`run_with_snapshots`]) are thin compositions kept for
//! the e1–e10 experiments.

use dyngraph::{Graph, NodeId};
use grp_core::observers::{ConvergenceProbe, GrpPipeline, SnapshotRecorder};
use grp_core::predicates::{GroupMembership, SystemSnapshot};
use grp_core::{ConvergenceDetector, GrpConfig, GrpNode};
use netsim::mobility::MobilityModel;
use netsim::radio::RadioModel;
use netsim::{SimBuilder, SimConfig, Simulator};

/// How heavy an experiment run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes and few seeds — used by integration tests and CI.
    Quick,
    /// The full parameter sweep (observed behaviours at this scale are
    /// listed in `docs/SCENARIOS.md`, "Observed reproduction behaviours").
    Full,
}

impl Scale {
    /// Pick between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// The random seeds to replicate over.
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1, 2],
            Scale::Full => (1..=10).collect(),
        }
    }
}

/// The per-round history of one GRP run.
pub struct GrpRun {
    /// One snapshot per recorded round (the last entry is the final state).
    pub snapshots: Vec<SystemSnapshot>,
    /// The convergence detector fed with one verdict per snapshot.
    pub detector: ConvergenceDetector,
    /// Message statistics at the end of the run.
    pub stats: netsim::MessageStats,
    /// Number of nodes.
    pub nodes: usize,
}

impl GrpRun {
    /// The round at which the closed legitimate suffix starts, if the run
    /// ends legitimate.
    pub fn convergence_round(&self) -> Option<usize> {
        self.detector.convergence_round()
    }

    /// The final snapshot.
    pub fn last(&self) -> &SystemSnapshot {
        // detlint::allow(D004): every constructor records the initial snapshot
        self.snapshots.last().expect("at least one snapshot")
    }
}

/// Build a GRP simulator on an explicit topology.
pub fn grp_simulator(topology: &Graph, dmax: usize, seed: u64) -> Simulator<GrpNode> {
    grp_simulator_with(topology, GrpConfig::new(dmax), seed)
}

/// Build a GRP simulator on an explicit topology with a custom config
/// (used by the ablation experiments).
pub fn grp_simulator_with(topology: &Graph, config: GrpConfig, seed: u64) -> Simulator<GrpNode> {
    SimBuilder::new()
        .config(SimConfig {
            seed,
            ..Default::default()
        })
        .explicit(topology.clone())
        .nodes_from_topology(|id| GrpNode::new(id, config.clone()))
        .build()
}

/// Build a GRP simulator in spatial mode (mobility + radio).
pub fn grp_spatial_simulator(
    node_ids: &[NodeId],
    dmax: usize,
    radio: Box<dyn RadioModel>,
    mobility: Box<dyn MobilityModel>,
    seed: u64,
) -> Simulator<GrpNode> {
    let config = GrpConfig::new(dmax);
    SimBuilder::new()
        .config(SimConfig {
            seed,
            ..Default::default()
        })
        .spatial(radio, mobility)
        .nodes(node_ids.iter().map(|&id| GrpNode::new(id, config.clone())))
        .build()
}

/// Run any protocol simulator for `rounds` rounds, recording one
/// copy-on-write snapshot per round (active nodes only — the unified
/// snapshot semantics; see `SystemSnapshot::from_simulator`).
pub fn run_with_snapshots<P>(sim: &mut Simulator<P>, rounds: usize) -> Vec<SystemSnapshot>
where
    P: GroupMembership,
{
    let mut recorder = SnapshotRecorder::new();
    sim.run_rounds_observed(rounds as u64, &mut recorder);
    recorder.into_snapshots()
}

/// Run GRP on an explicit topology for `rounds` rounds and collect the full
/// history plus the convergence verdicts.
pub fn run_grp(topology: &Graph, dmax: usize, rounds: usize, seed: u64) -> GrpRun {
    let mut sim = grp_simulator(topology, dmax, seed);
    run_grp_on(&mut sim, dmax, rounds)
}

/// Same as [`run_grp`] but over an already-built simulator (spatial mode,
/// pre-injected faults, custom config, …).
pub fn run_grp_on(sim: &mut Simulator<GrpNode>, dmax: usize, rounds: usize) -> GrpRun {
    let mut pipeline = GrpPipeline::new().with_convergence(dmax);
    sim.run_rounds_observed(rounds as u64, &mut pipeline);
    let GrpPipeline {
        recorder,
        convergence,
        ..
    } = pipeline;
    GrpRun {
        nodes: sim.node_ids().len(),
        stats: sim.stats(),
        snapshots: recorder.into_snapshots(),
        detector: convergence
            .map(ConvergenceProbe::into_detector)
            // detlint::allow(D004): run_grp_on builds its pipeline with_convergence
            .expect("pipeline built with convergence"),
    }
}

/// A generous default for "long enough to converge" on an n-node topology.
pub fn convergence_budget(n: usize, dmax: usize) -> usize {
    4 * dmax + 3 * n + 20
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;

    #[test]
    fn scale_pick_and_seeds() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Full.pick(1, 100), 100);
        assert!(Scale::Quick.seeds().len() < Scale::Full.seeds().len());
    }

    #[test]
    fn run_grp_converges_on_a_short_path() {
        let topology = path(4);
        let run = run_grp(&topology, 3, convergence_budget(4, 3), 7);
        assert!(run.convergence_round().is_some(), "no convergence detected");
        assert!(run.last().legitimate(3));
        assert_eq!(run.last().group_count(), 1);
        assert_eq!(run.nodes, 4);
        assert!(run.stats.delivered > 0);
    }

    #[test]
    fn snapshots_are_recorded_every_round() {
        let topology = path(3);
        let run = run_grp(&topology, 2, 10, 1);
        assert_eq!(run.snapshots.len(), 10);
        assert_eq!(run.detector.len(), 10);
    }
}
