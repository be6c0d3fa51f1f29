//! Shared helpers for the Criterion benchmarks (see `benches/`).
//!
//! Each bench target regenerates the performance aspect of one experiment
//! family of the evaluation: the `ant` operator micro-cost, the per-round
//! `compute()` cost, full convergence runs (Table 1 / E1), continuity under
//! mobility (Figure 2 / E4), the predicate checkers, raw simulator
//! throughput and the GRP-vs-baseline comparison (Figure 3 / E5).

#![forbid(unsafe_code)]

use dyngraph::Graph;
use grp_core::GrpNode;
use netsim::Simulator;

/// Build a converged GRP simulator to benchmark steady-state rounds.
pub fn converged_grp(topology: &Graph, dmax: usize, seed: u64) -> Simulator<GrpNode> {
    let mut sim = experiments::runner::grp_simulator(topology, dmax, seed);
    sim.run_rounds(experiments::runner::convergence_budget(topology.node_count(), dmax) as u64);
    sim
}
