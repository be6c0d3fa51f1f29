//! Self-stabilization in action: corrupt half of the nodes and watch the
//! system repair itself.
//!
//! ```text
//! cargo run --example fault_recovery
//! ```

use dyngraph::generators::grid;
use grp_core::observers::ConvergenceProbe;
use grp_core::predicates::SystemSnapshot;
use grp_core::{GrpConfig, GrpNode};
use netsim::{FaultKind, ScheduledFault, SimConfig, Simulator, TopologyMode};
use std::process::ExitCode;

fn main() -> ExitCode {
    let dmax = 3;
    let topology = grid(3, 4);
    let ids = topology.node_vec();
    let mut sim = Simulator::new(SimConfig::rounds(13), TopologyMode::Explicit(topology));
    let node = |id| GrpNode::new(id, GrpConfig::new(dmax));
    sim.add_nodes(ids.into_iter().map(node));

    // let the 3x4 grid converge
    sim.run_rounds(60);
    let before = SystemSnapshot::from_simulator(&sim);
    println!(
        "after convergence: {} groups, legitimate = {}",
        before.group_count(),
        before.legitimate(dmax)
    );

    // corrupt half of the nodes' memories (ghost members, scrambled
    // priorities) — the transient faults of the self-stabilization model
    let victims: Vec<_> = sim.node_ids().into_iter().step_by(2).collect();
    println!("corrupting {} nodes …", victims.len());
    let now = sim.now();
    sim.schedule_faults(
        victims
            .iter()
            .map(|&v| ScheduledFault::new(now + 1, FaultKind::CorruptState(v))),
    );
    sim.run_rounds(1);
    let corrupted = SystemSnapshot::from_simulator(&sim);
    println!(
        "right after the fault: legitimate = {} (agreement = {})",
        corrupted.legitimate(dmax),
        corrupted.agreement()
    );

    // stream legitimacy verdicts until the system is legitimate again —
    // no snapshot history retained at all
    let mut probe = ConvergenceProbe::new(dmax);
    for round in 1..=120u64 {
        sim.run_rounds_observed(1, &mut probe);
        if probe.is_currently_legitimate() {
            println!("system legitimate again after {round} rounds");
            let snapshot = SystemSnapshot::from_simulator(&sim);
            println!(
                "final groups: {:?}",
                snapshot
                    .groups()
                    .iter()
                    .map(|g| g.iter().map(|n| n.raw()).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            );
            return ExitCode::SUCCESS;
        }
    }
    eprintln!("system did not recover within the budget (unexpected)");
    ExitCode::FAILURE
}
