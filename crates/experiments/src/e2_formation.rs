//! E2 (Figure 1) — group formation over time from a cold start.
//!
//! Plots (as series) the number of distinct groups and the largest group
//! diameter, round by round, on structured topologies. The expected shape:
//! the group count starts at `n` (all singletons), falls as neighbours merge
//! and settles at the size of a diameter-constrained partition, while the
//! maximum diameter never exceeds `Dmax` once the system has stabilized.

use crate::report::{ExperimentOutput, TimeSeries};
use crate::runner::{convergence_budget, grp_manifest, snapshots, Scale};
use dyngraph::GraphGenerator;

fn formation_series(
    generator: GraphGenerator,
    dmax: usize,
    rounds: usize,
    seed: u64,
) -> Vec<TimeSeries> {
    let name = generator.label();
    let manifest = grp_manifest("e2", generator, dmax, rounds);
    let mut groups = TimeSeries::new(format!("{name}: group count"));
    let mut diameter = TimeSeries::new(format!("{name}: max group diameter"));
    for (round, snapshot) in snapshots(&manifest, seed).iter().enumerate() {
        groups.push(round as u64, snapshot.group_count() as f64);
        let d = snapshot.max_group_diameter().map_or(-1.0, |d| d as f64);
        diameter.push(round as u64, d);
    }
    vec![groups, diameter]
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new("e2", "Group count and diameter over time (cold start)");
    let dmax = 3;
    let n = scale.pick(10, 24);
    let rounds = convergence_budget(n, dmax);
    let side = scale.pick(3, 5);
    let generators = [
        GraphGenerator::Path { n },
        GraphGenerator::Ring { n },
        GraphGenerator::Grid {
            rows: side,
            cols: side,
        },
    ];
    for generator in generators {
        output
            .series
            .extend(formation_series(generator, dmax, rounds, 1));
    }
    output.notes.push(format!(
        "Dmax = {dmax}; a diameter value of -1 denotes a transiently disconnected group"
    ));
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_shrink_group_count_over_time() {
        let out = run(Scale::Quick);
        assert_eq!(out.series.len(), 6);
        let groups = &out.series[0];
        let first = groups.points().first().unwrap().1;
        let last = groups.last_value().unwrap();
        assert!(last < first, "groups should merge: {first} -> {last}");
    }

    #[test]
    fn diameters_respect_dmax_at_the_end() {
        let out = run(Scale::Quick);
        for series in out.series.iter().filter(|s| s.name.contains("diameter")) {
            let last = series.last_value().unwrap();
            assert!(last >= 0.0, "final groups are connected");
            assert!(last <= 3.0, "final diameter {last} exceeds Dmax");
        }
    }
}
