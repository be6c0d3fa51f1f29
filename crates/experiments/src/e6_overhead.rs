//! E6 (Table 3) — message overhead.
//!
//! GRP broadcasts its list (bounded by `Dmax + 1` levels) every `τ2`; the
//! overhead therefore grows with the density of the network and with `Dmax`.
//! This table reports messages and list-entry bytes delivered per node per
//! round, for GRP and for the k-hop clustering baseline whose distance
//! vectors are the natural comparison point.
//!
//! GRP and the baseline must run on one hand-built graph under the same
//! seed, and a manifest describes GRP runs only, so this experiment builds
//! its simulators with `Simulator::new` instead of
//! `scenarios::build_simulator`.

use crate::e1_convergence::sized_rgg;
use crate::report::{ExperimentOutput, Table};
use crate::runner::{convergence_budget, Scale};
use baselines::KHopClustering;
use dyngraph::Graph;
use grp_core::{GrpConfig, GrpNode};
use netsim::{MessageStats, Protocol, SimConfig, Simulator, TopologyMode};

/// Run one protocol and read its overhead accounting from the engine's
/// cumulative counters ([`Simulator::stats`]): `delivered` counts every
/// delivery and `delivered_bytes` sums `Protocol::message_size` over them.
fn run_stats<P, F>(topology: &Graph, rounds: usize, seed: u64, make: F) -> MessageStats
where
    P: Protocol,
    F: FnMut(dyngraph::NodeId) -> P,
{
    let config = SimConfig {
        seed,
        ..Default::default()
    };
    let mut sim = Simulator::new(config, TopologyMode::Explicit(topology.clone()));
    sim.add_nodes(topology.nodes().map(make));
    sim.run_rounds(rounds as u64);
    sim.stats()
}

fn per_node_per_round(stat: u64, n: usize, rounds: usize) -> f64 {
    stat as f64 / (n as f64 * rounds as f64)
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new("e6", "Message overhead per node per round");
    let n = scale.pick(16, 48);
    let rounds = convergence_budget(n, 4).min(scale.pick(40, 120));
    let dmaxes: Vec<usize> = scale.pick(vec![2, 4], vec![2, 3, 4, 6]);
    let seed = 1;
    let topology = sized_rgg(n).generate(seed);

    let mut table = Table::new(
        "Deliveries and payload units per node per round (GRP vs. k-hop clustering)",
        &[
            "Dmax",
            "mean degree",
            "GRP msgs",
            "GRP bytes",
            "k-hop msgs",
            "k-hop bytes",
        ],
    );
    for &dmax in &dmaxes {
        let grp_stats = run_stats(&topology, rounds, seed, |id| {
            GrpNode::new(id, GrpConfig::new(dmax))
        });
        let khop_stats = run_stats(&topology, rounds, seed, |id| KHopClustering::new(id, dmax));
        table.push(vec![
            dmax.to_string(),
            format!("{:.1}", topology.mean_degree()),
            format!("{:.2}", per_node_per_round(grp_stats.delivered, n, rounds)),
            format!(
                "{:.1}",
                per_node_per_round(grp_stats.delivered_bytes, n, rounds)
            ),
            format!("{:.2}", per_node_per_round(khop_stats.delivered, n, rounds)),
            format!(
                "{:.1}",
                per_node_per_round(khop_stats.delivered_bytes, n, rounds)
            ),
        ]);
    }
    output.notes.push(format!(
        "n = {n} nodes on a random geometric graph, {rounds} rounds, τ2 = τ1/4 (4 broadcasts per compute round)"
    ));
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_dmax() {
        let out = run(Scale::Quick);
        let csv = out.tables[0].to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        let bytes = |row: &str| row.split(',').nth(3).unwrap().parse::<f64>().unwrap();
        assert!(
            bytes(rows[1]) >= bytes(rows[0]),
            "larger Dmax should not shrink the payload: {csv}"
        );
    }

    #[test]
    fn message_counts_are_positive() {
        let out = run(Scale::Quick);
        let csv = out.tables[0].to_csv();
        for row in csv.lines().skip(1) {
            let msgs: f64 = row.split(',').nth(2).unwrap().parse().unwrap();
            assert!(msgs > 0.0);
        }
    }
}
