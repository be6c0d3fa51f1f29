//! E5 (Figure 3) — view churn: GRP vs. the clustering baselines.
//!
//! The motivation of the Dynamic Group Service is that existing groups
//! should be maintained as long as the diameter constraint allows, instead
//! of being re-optimised at every topology change. This experiment runs GRP
//! and the three baselines over the *same* random-waypoint mobility traces
//! and counts, per node and per round, how many members disappear from the
//! local view — the disruption an application built on the views would see.
//!
//! GRP and the baselines must replay one hand-seeded mobility trace, and a
//! manifest describes GRP runs only, so this experiment builds its
//! simulators itself instead of through `scenarios::build_simulator`.

use crate::report::{ExperimentOutput, Table};
use crate::runner::Scale;
use baselines::{KHopClustering, MaxMinDCluster, NeighborhoodBall};
use dyngraph::NodeId;
use grp_core::observers::SnapshotRecorder;
use grp_core::predicates::{view_removals, SystemSnapshot};
use grp_core::{GrpConfig, GrpNode};
use netsim::mobility::RandomWaypoint;
use netsim::radio::UnitDisk;
use netsim::{Protocol, SimConfig, Simulator, TopologyMode, ViewProtocol};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const ARENA: f64 = 120.0;
const RANGE: f64 = 35.0;

fn spatial_sim<P, F>(n: usize, speed: f64, seed: u64, make: F) -> Simulator<P>
where
    P: Protocol,
    F: Fn(NodeId) -> P,
{
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mobility = RandomWaypoint::new(n, ARENA, ARENA, (speed, speed), &mut rng);
    let mut sim = Simulator::new(
        SimConfig {
            seed,
            ..Default::default()
        },
        TopologyMode::Spatial {
            radio: UnitDisk::new(RANGE),
            mobility: Box::new(mobility),
        },
    );
    sim.add_nodes((0..n as u64).map(NodeId).map(make));
    sim
}

/// Removals per node per round after the warm-up, plus the mean view size.
fn churn_of(snapshots: &[SystemSnapshot], warmup: usize, n: usize) -> (f64, f64) {
    let mut removals = 0usize;
    let mut transitions = 0usize;
    let mut view_size_sum = 0.0;
    let mut view_samples = 0usize;
    for pair in snapshots[warmup.min(snapshots.len().saturating_sub(1))..].windows(2) {
        removals += view_removals(&pair[0], &pair[1]);
        transitions += 1;
        for view in pair[1].views.values() {
            view_size_sum += view.len() as f64;
            view_samples += 1;
        }
    }
    let churn = if transitions == 0 {
        0.0
    } else {
        removals as f64 / (transitions as f64 * n as f64)
    };
    let mean_view = if view_samples == 0 {
        0.0
    } else {
        view_size_sum / view_samples as f64
    };
    (churn, mean_view)
}

fn measure<P, F>(
    n: usize,
    speed: f64,
    rounds: usize,
    warmup: usize,
    seed: u64,
    make: F,
) -> (f64, f64)
where
    P: Protocol + ViewProtocol,
    F: Fn(NodeId) -> P,
{
    let mut sim = spatial_sim(n, speed, seed, make);
    let mut recorder = SnapshotRecorder::new();
    sim.run_rounds_observed(rounds as u64, &mut recorder);
    churn_of(&recorder.into_snapshots(), warmup, n)
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new(
        "e5",
        "View churn under random-waypoint mobility: GRP vs. clustering baselines",
    );
    let dmax = 4;
    let n = scale.pick(10, 20);
    let rounds = scale.pick(40, 100);
    let warmup = scale.pick(15, 30);
    let speeds: Vec<f64> = scale.pick(vec![0.0, 0.01], vec![0.0, 0.005, 0.01, 0.02, 0.04]);
    let seeds = scale.seeds();

    let mut table = Table::new(
        "Members removed from a view, per node per round (mean view size in parentheses)",
        &[
            "speed",
            "GRP",
            "k-hop min-id",
            "max-min d-cluster",
            "neighbourhood ball",
        ],
    );
    for &speed in &speeds {
        let mut cells: Vec<String> = vec![format!("{speed}")];
        let mut grp = (0.0, 0.0);
        let mut khop = (0.0, 0.0);
        let mut maxmin = (0.0, 0.0);
        let mut ball = (0.0, 0.0);
        for &seed in &seeds {
            let config = GrpConfig::new(dmax);
            let a = measure(n, speed, rounds, warmup, seed, |id| {
                GrpNode::new(id, config.clone())
            });
            let b = measure(n, speed, rounds, warmup, seed, |id| {
                KHopClustering::new(id, dmax)
            });
            let c = measure(n, speed, rounds, warmup, seed, |id| {
                MaxMinDCluster::new(id, dmax)
            });
            let d = measure(n, speed, rounds, warmup, seed, |id| {
                NeighborhoodBall::new(id, dmax)
            });
            grp = (grp.0 + a.0, grp.1 + a.1);
            khop = (khop.0 + b.0, khop.1 + b.1);
            maxmin = (maxmin.0 + c.0, maxmin.1 + c.1);
            ball = (ball.0 + d.0, ball.1 + d.1);
        }
        let k = seeds.len() as f64;
        for (churn, view) in [grp, khop, maxmin, ball] {
            cells.push(format!("{:.3} ({:.1})", churn / k, view / k));
        }
        table.push_row(cells);
    }
    output.notes.push(format!(
        "Dmax = {dmax}, n = {n}, arena {ARENA}×{ARENA}, radio range {RANGE}"
    ));
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_nodes_have_little_grp_churn() {
        let config = GrpConfig::new(4);
        let (churn, view) = measure(8, 0.0, 30, 15, 3, |id| GrpNode::new(id, config.clone()));
        assert!(churn < 0.2, "static network should be quiet, got {churn}");
        assert!(view >= 1.0);
    }

    #[test]
    fn quick_run_produces_rows() {
        let out = run(Scale::Quick);
        assert_eq!(out.tables[0].row_count(), 2);
    }
}
