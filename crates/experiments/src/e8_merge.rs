//! E8 (Table 4) — merge latency and maximality.
//!
//! Two groups converge separately, then a link appears between them. If the
//! merged group would respect `Dmax`, the maximality property requires them
//! to merge; this experiment measures how many rounds the merge takes as a
//! function of the group sizes and `Dmax`, and verifies that groups that
//! must *not* merge (the merged diameter would exceed `Dmax`) indeed stay
//! apart.

use crate::report::{ExperimentOutput, Summary, Table};
use crate::runner::{convergence_budget, grp_manifest, Scale};
use dyngraph::{GraphGenerator, NodeId, TopologyEvent};
use grp_core::predicates::SystemSnapshot;
use scenarios::build_simulator;

/// Two path segments of `half` nodes each, disconnected; node ids are
/// 0..half and 100..100+half.
fn two_segments(half: usize) -> GraphGenerator {
    let segment = |first: u64| (first + 1..first + half as u64).map(|id| (id - 1, id));
    GraphGenerator::Edges(segment(0).chain(segment(100)).collect())
}

/// Converge the two segments, add the bridge from the right end of the
/// left segment to the left end of the right one, and return
/// `(rounds_until_single_group, final_group_count)`.
fn merge_latency(half: usize, dmax: usize, seed: u64) -> (Option<usize>, usize) {
    let warmup = convergence_budget(2 * half, dmax);
    let mut sim = build_simulator(&grp_manifest("e8", two_segments(half), dmax, warmup), seed);
    sim.run_rounds(warmup as u64);
    sim.apply_topology_event(TopologyEvent::LinkUp(NodeId(half as u64 - 1), NodeId(100)));
    let budget = 2 * convergence_budget(2 * half, dmax);
    let mut merged_at = None;
    for round in 0..budget {
        sim.run_rounds(1);
        let snapshot = SystemSnapshot::from_simulator(&sim);
        if snapshot.agreement() && snapshot.group_count() == 1 {
            merged_at = Some(round + 1);
            break;
        }
    }
    let final_count = SystemSnapshot::from_simulator(&sim).group_count();
    (merged_at, final_count)
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new(
        "e8",
        "Merge latency when a link appears between two converged groups",
    );
    let seeds = scale.seeds();
    // (half, dmax, merge expected?) — two segments of `half` nodes joined end
    // to end form a path of 2*half nodes, diameter 2*half - 1
    let cases: Vec<(usize, usize, bool)> = scale.pick(
        vec![(2, 3, true), (3, 3, false)],
        vec![
            (2, 3, true),
            (3, 5, true),
            (4, 7, true),
            (3, 3, false),
            (4, 5, false),
        ],
    );

    let mut table = Table::new(
        "Rounds from bridge appearance to a single agreed group",
        &[
            "segment size",
            "Dmax",
            "merge allowed",
            "merged runs",
            "rounds (mean ± std [min, max])",
            "final group count",
        ],
    );
    for &(half, dmax, allowed) in &cases {
        let results: Vec<(Option<usize>, usize)> = seeds
            .iter()
            .map(|&seed| merge_latency(half, dmax, seed))
            .collect();
        let merged: Vec<f64> = results
            .iter()
            .filter_map(|(r, _)| r.map(|v| v as f64))
            .collect();
        let final_counts = Summary::of(&results.iter().map(|(_, c)| *c as f64).collect::<Vec<_>>());
        table.push(vec![
            half.to_string(),
            dmax.to_string(),
            allowed.to_string(),
            format!("{}/{}", merged.len(), results.len()),
            Summary::of(&merged).display_compact(),
            format!("{:.1}", final_counts.mean),
        ]);
    }
    output.notes.push(
        "\"merge allowed\" = the merged path would respect Dmax; when false the groups must stay distinct (ΠM via ΠS)"
            .into(),
    );
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_merge_happens() {
        let (merged, final_count) = merge_latency(2, 3, 1);
        assert!(
            merged.is_some(),
            "two 2-node groups must merge under Dmax=3"
        );
        assert_eq!(final_count, 1);
    }

    #[test]
    fn forbidden_merge_does_not_happen() {
        let (merged, final_count) = merge_latency(3, 3, 1);
        assert!(merged.is_none(), "a 6-node path has diameter 5 > 3");
        assert!(final_count >= 2);
    }

    #[test]
    fn two_segments_are_two_paths() {
        let g = two_segments(3).generate(0);
        assert_eq!(g.node_vec(), [0, 1, 2, 100, 101, 102].map(NodeId));
        assert_eq!(g.edge_count(), 4);
        assert!(g.contains_edge(NodeId(101), NodeId(102)));
        assert!(!g.contains_edge(NodeId(2), NodeId(100)));
    }

    #[test]
    fn quick_run_produces_rows() {
        let out = run(Scale::Quick);
        assert_eq!(out.tables[0].row_count(), 2);
    }
}
