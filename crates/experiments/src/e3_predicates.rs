//! E3 (Table 2) — predicate satisfaction after convergence.
//!
//! For every topology family and `Dmax`, how often do the three static
//! predicates (agreement ΠA, safety ΠS, maximality ΠM) hold at the end of a
//! generous convergence budget? The paper proves they eventually all hold on
//! a fixed topology; this table verifies it empirically and exposes the rare
//! runs that need more than the budgeted rounds.

use crate::report::{ExperimentOutput, Table};
use crate::runner::{convergence_budget, grp_manifest, Scale};
use dyngraph::GraphGenerator;
use scenarios::run_seed;

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new(
        "e3",
        "ΠA / ΠS / ΠM hold rates at the end of the convergence budget",
    );
    let n = scale.pick(9, 24);
    let generators = vec![
        GraphGenerator::Path { n },
        GraphGenerator::Ring { n },
        GraphGenerator::Grid {
            rows: scale.pick(3, 4),
            cols: scale.pick(3, 6),
        },
        GraphGenerator::RandomGeometric {
            n,
            side: (n as f64).sqrt() * 2.2,
            radius: 3.0,
        },
        GraphGenerator::Clustered {
            clusters: scale.pick(2, 4),
            cluster_size: scale.pick(4, 5),
        },
    ];
    let dmaxes: Vec<usize> = scale.pick(vec![2], vec![2, 3, 4]);
    let seeds = scale.seeds();

    let mut table = Table::new(
        "Fraction of runs satisfying each predicate at the end of the run",
        &["topology", "Dmax", "ΠA", "ΠS", "ΠM", "all three"],
    );
    for generator in &generators {
        for &dmax in &dmaxes {
            let rounds = convergence_budget(generator.node_count(), dmax);
            let manifest = grp_manifest("e3", generator.clone(), dmax, rounds);
            let verdicts: Vec<(bool, bool, bool)> = seeds
                .iter()
                .map(|&seed| {
                    let last = run_seed(&manifest, seed, None).final_snapshot;
                    (last.agreement(), last.safety(dmax), last.maximality(dmax))
                })
                .collect();
            let total = verdicts.len() as f64;
            let rate = |f: &dyn Fn(&(bool, bool, bool)) -> bool| {
                verdicts.iter().filter(|v| f(v)).count() as f64 / total
            };
            table.push(vec![
                generator.label(),
                dmax.to_string(),
                format!("{:.2}", rate(&|v| v.0)),
                format!("{:.2}", rate(&|v| v.1)),
                format!("{:.2}", rate(&|v| v.2)),
                format!("{:.2}", rate(&|v| v.0 && v.1 && v.2)),
            ]);
        }
    }
    output.notes.push(format!("{} seeds per row", seeds.len()));
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_one_row_per_topology() {
        let out = run(Scale::Quick);
        assert_eq!(out.tables[0].row_count(), 5);
    }

    #[test]
    fn path_topology_always_reaches_safety() {
        // The first row is the path family with Dmax = 2. Safety (ΠS) must
        // hold on every seed; agreement and maximality can need more rounds
        // than the quick budget on unlucky seeds (see docs/SCENARIOS.md,
        // "Observed reproduction behaviours"), so they are only required to
        // hold on at least one seed here.
        let out = run(Scale::Quick);
        let csv = out.tables[0].to_csv();
        let first_row = csv.lines().nth(1).unwrap();
        assert!(first_row.starts_with("path"));
        let cells: Vec<&str> = first_row.split(',').collect();
        let safety: f64 = cells[3].parse().unwrap();
        let all: f64 = cells[5].parse().unwrap();
        assert_eq!(safety, 1.0, "ΠS must hold on every seed: {first_row}");
        assert!(
            all > 0.0,
            "at least one seed must fully converge: {first_row}"
        );
    }
}
