//! E10 (Table 5) — ablation of the `compatibleList` short-cut optimisation.
//!
//! The naive compatibility test only compares list lengths, so it refuses
//! merges whose combined length looks too big even when short-cut links
//! between the two groups keep the true diameter within `Dmax`
//! (Proposition 13). The full test exploits the knowledge each group has of
//! the other. This experiment builds exactly such overlapping-group
//! topologies and measures how often the two groups manage to merge under
//! each variant.

use crate::report::ExperimentOutput;
use crate::runner::{convergence_budget, grp_simulator_with, Scale};
use dyngraph::{Graph, NodeId};
use grp_core::predicates::SystemSnapshot;
use grp_core::GrpConfig;
use metrics::Table;

/// A path group 0-1-…-(left-1) and a second group anchored at node 100,
/// where the anchor is adjacent to the last `overlap` nodes of the first
/// group (the short-cut links), followed by a tail 101, 102, ….
fn shortcut_topology(left: usize, tail: usize, overlap: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..left {
        g.add_node(NodeId(i as u64));
        if i > 0 {
            g.add_edge(NodeId(i as u64 - 1), NodeId(i as u64));
        }
    }
    let anchor = NodeId(100);
    g.add_node(anchor);
    for k in 0..overlap.min(left) {
        g.add_edge(anchor, NodeId((left - 1 - k) as u64));
    }
    for t in 0..tail {
        let id = NodeId(101 + t as u64);
        let prev = if t == 0 {
            anchor
        } else {
            NodeId(100 + t as u64)
        };
        g.add_edge(prev, id);
    }
    g
}

/// Run one variant and report whether the system ends as a single agreed
/// group.
fn merges(topology: &Graph, config: GrpConfig, seed: u64) -> bool {
    let n = topology.node_count();
    let dmax = config.dmax;
    let mut sim = grp_simulator_with(topology, config, seed);
    sim.run_rounds(2 * convergence_budget(n, dmax) as u64);
    let snapshot = SystemSnapshot::from_simulator(&sim);
    snapshot.agreement() && snapshot.group_count() == 1
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new(
        "e10",
        "compatibleList ablation: merge success with and without the short-cut optimisation",
    );
    let seeds = scale.seeds();
    // (left, tail, overlap, dmax): the whole merged graph has diameter ≤ dmax
    // thanks to the short-cut links, but the naive sum-of-lengths test sees
    // two "long" lists and refuses.
    let cases: Vec<(usize, usize, usize, usize)> = scale.pick(
        vec![(3, 1, 2, 3)],
        vec![(3, 1, 2, 3), (4, 1, 3, 3), (4, 2, 3, 4), (5, 2, 4, 4)],
    );

    let mut table = Table::new(
        "Fraction of runs ending as a single agreed group",
        &[
            "scenario (left/tail/shortcuts)",
            "Dmax",
            "merged diameter",
            "full compatibleList",
            "naive length test",
        ],
    );
    for &(left, tail, overlap, dmax) in &cases {
        let topology = shortcut_topology(left, tail, overlap);
        // detlint::allow(D004): shortcut_topology builds a connected graph
        let diameter = topology.diameter().expect("connected scenario");
        let full_rate = seeds
            .iter()
            .filter(|&&seed| merges(&topology, GrpConfig::new(dmax), seed))
            .count() as f64
            / seeds.len() as f64;
        let naive_rate = seeds
            .iter()
            .filter(|&&seed| {
                merges(
                    &topology,
                    GrpConfig::new(dmax).with_naive_compatibility(),
                    seed,
                )
            })
            .count() as f64
            / seeds.len() as f64;
        table.push(vec![
            format!("{left}/{tail}/{overlap}"),
            dmax.to_string(),
            diameter.to_string(),
            format!("{full_rate:.2}"),
            format!("{naive_rate:.2}"),
        ]);
    }
    output.notes.push(
        "every scenario's merged diameter is ≤ Dmax, so a perfect membership service would always end with one group"
            .into(),
    );
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortcut_topology_shape() {
        let g = shortcut_topology(3, 1, 2);
        // nodes: 0,1,2, anchor 100, tail 101
        assert_eq!(g.node_count(), 5);
        assert!(g.contains_edge(NodeId(100), NodeId(2)));
        assert!(g.contains_edge(NodeId(100), NodeId(1)));
        assert!(g.contains_edge(NodeId(100), NodeId(101)));
        assert_eq!(g.diameter(), Some(3));
    }

    #[test]
    fn full_test_merges_the_quick_scenario() {
        let topology = shortcut_topology(3, 1, 2);
        assert!(merges(&topology, GrpConfig::new(3), 1));
    }

    #[test]
    fn quick_run_produces_a_row() {
        let out = run(Scale::Quick);
        assert_eq!(out.tables[0].row_count(), 1);
    }
}
