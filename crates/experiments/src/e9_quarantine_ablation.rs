//! E9 (Figure 5) — ablation of the quarantine mechanism.
//!
//! The quarantine delays a newcomer's entry into the views by `Dmax` rounds
//! so that a conflicting concurrent admission can be detected *before* the
//! application ever sees the node. Without it, a node can appear in a view
//! and be expelled a few rounds later even though the topology never broke
//! the distance bound — exactly the best-effort violation ΠT ∧ ¬ΠC that
//! Proposition 14 rules out for the full protocol.

use crate::report::ExperimentOutput;
use crate::runner::{run_grp_on, Scale};
use dyngraph::NodeId;
use grp_core::{GrpConfig, GrpNode};
use metrics::{ChurnAccumulator, Table};
use netsim::mobility::RandomWaypoint;
use netsim::radio::UnitDisk;
use netsim::{SimConfig, Simulator, TopologyMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn measure(
    config: GrpConfig,
    n: usize,
    speed: f64,
    rounds: usize,
    warmup: usize,
    seed: u64,
) -> ChurnAccumulator {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mobility = RandomWaypoint::new(n, 100.0, 100.0, (speed, speed), &mut rng);
    let radio = UnitDisk::new(35.0);
    let mut sim = Simulator::new(
        SimConfig {
            seed,
            ..Default::default()
        },
        TopologyMode::Spatial {
            radio: Box::new(radio),
            mobility: Box::new(mobility),
        },
    );
    sim.add_nodes((0..n as u64).map(|i| GrpNode::new(NodeId(i), config.clone())));
    let dmax = config.dmax;
    let run = run_grp_on(&mut sim, dmax, rounds);
    let mut acc = ChurnAccumulator::new();
    for pair in run.snapshots[warmup..].windows(2) {
        acc.record(&pair[0], &pair[1], dmax);
    }
    acc
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new(
        "e9",
        "Quarantine ablation: best-effort violations with and without the quarantine",
    );
    let dmax = 3;
    let n = scale.pick(10, 20);
    let rounds = scale.pick(40, 100);
    let warmup = scale.pick(10, 25);
    let speeds: Vec<f64> = scale.pick(vec![0.01], vec![0.005, 0.01, 0.02]);
    let seeds = scale.seeds();

    let mut table = Table::new(
        "ΠC violations while ΠT held (and removals per transition)",
        &[
            "speed",
            "variant",
            "transitions",
            "ΠC broken while ΠT held",
            "removals / transition",
        ],
    );
    for &speed in &speeds {
        for (label, config) in [
            ("with quarantine", GrpConfig::new(dmax)),
            (
                "without quarantine",
                GrpConfig::new(dmax).without_quarantine(),
            ),
        ] {
            let acc: ChurnAccumulator = seeds
                .iter()
                .map(|&seed| measure(config.clone(), n, speed, rounds, warmup, seed))
                .fold(ChurnAccumulator::new(), |mut a, b| {
                    a.merge(&b);
                    a
                });
            table.push(vec![
                format!("{speed}"),
                label.to_string(),
                acc.transitions.to_string(),
                acc.best_effort_violations.to_string(),
                format!("{:.2}", acc.removals_per_transition()),
            ]);
        }
    }
    output.notes.push(
        "the faithful variant must report 0 best-effort violations; the ablated variant may not"
            .into(),
    );
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_variant_has_no_best_effort_violation_when_static() {
        // measure only after the cold-start convergence has settled: the
        // continuity theorem is about the converged regime (see
        // EXPERIMENTS.md for the cold-start caveat)
        let acc = measure(GrpConfig::new(3), 8, 0.0, 45, 30, 1);
        assert_eq!(acc.best_effort_violations, 0);
    }

    #[test]
    fn quick_run_produces_two_rows_per_speed() {
        let out = run(Scale::Quick);
        assert_eq!(out.tables[0].row_count(), 2);
    }
}
