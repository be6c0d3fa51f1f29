//! E1 (Table 1) — convergence time to a legitimate configuration.
//!
//! Self-stabilization (Propositions 7, 8 and 12) says that, on a fixed
//! topology, every execution reaches in finite time a suffix where
//! ΠA ∧ ΠS ∧ ΠM holds. This experiment measures *how long*: starting from a
//! cold boot on random geometric graphs of increasing size, we count the
//! rounds until the closed legitimate suffix begins.

use crate::report::ExperimentOutput;
use crate::runner::{convergence_budget, run_grp, Scale};
use dyngraph::generators::random_geometric;
use metrics::{Summary, Table};

/// Build the RGG used throughout the sweeps: area grows with n so that the
/// expected degree stays roughly constant (~6 neighbours).
pub fn sized_rgg(n: usize, seed: u64) -> dyngraph::Graph {
    let radius = 3.0;
    let target_degree = 6.0;
    let side = (n as f64 * std::f64::consts::PI * radius * radius / target_degree).sqrt();
    random_geometric(n, side, radius, seed)
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new(
        "e1",
        "Convergence time to ΠA ∧ ΠS ∧ ΠM on fixed random geometric graphs",
    );
    let sizes: Vec<usize> = scale.pick(vec![10, 20], vec![10, 20, 40, 80, 160]);
    let dmaxes: Vec<usize> = scale.pick(vec![2, 3], vec![2, 3, 4]);
    let seeds = scale.seeds();

    let mut table = Table::new(
        "Rounds from cold start until the legitimate suffix begins",
        &[
            "n",
            "Dmax",
            "converged runs",
            "rounds (mean ± std [min, max])",
            "p95",
        ],
    );
    for &n in &sizes {
        for &dmax in &dmaxes {
            let rounds_budget = convergence_budget(n, dmax);
            let results: Vec<Option<usize>> = seeds
                .iter()
                .map(|&seed| {
                    let g = sized_rgg(n, seed);
                    let run = run_grp(&g, dmax, rounds_budget, seed);
                    run.convergence_round()
                })
                .collect();
            let converged: Vec<f64> = results.iter().filter_map(|r| r.map(|v| v as f64)).collect();
            let summary = Summary::of(&converged);
            table.push(vec![
                n.to_string(),
                dmax.to_string(),
                format!("{}/{}", converged.len(), results.len()),
                summary.display_compact(),
                format!("{:.1}", summary.p95),
            ]);
        }
    }
    output.notes.push(format!(
        "budget per run: convergence_budget(n, Dmax) rounds; seeds per cell: {}",
        seeds.len()
    ));
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_produces_a_row_per_cell() {
        let out = run(Scale::Quick);
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].row_count(), 2 * 2);
        assert!(out.to_markdown().contains("Dmax"));
    }

    #[test]
    fn sized_rgg_keeps_density_reasonable() {
        let g = sized_rgg(40, 1);
        assert_eq!(g.node_count(), 40);
        let degree = g.mean_degree();
        assert!(degree > 1.0 && degree < 15.0, "mean degree {degree}");
    }
}
