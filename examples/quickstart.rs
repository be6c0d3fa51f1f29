//! Quickstart: run GRP on a small fixed topology and watch the groups form.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dyngraph::generators::path;
use grp_core::{GrpConfig, GrpNode, SnapshotRecorder};
use netsim::{SimConfig, Simulator, TopologyMode};

fn main() {
    // Six nodes on a line; the application tolerates groups of diameter 2.
    let dmax = 2;
    let topology = path(6);
    let ids = topology.node_vec();
    // seed 42 -> 43 when the shared RNG stream was retired: 42's per-node
    // timer phases settle on a non-maximal partition within 40 rounds
    let mut sim = Simulator::new(SimConfig::rounds(43), TopologyMode::Explicit(topology));
    let node = |id| GrpNode::new(id, GrpConfig::new(dmax));
    sim.add_nodes(ids.into_iter().map(node));

    println!("topology: a line of 6 nodes, Dmax = {dmax}");
    println!("round | groups (each node's view)");
    // one copy-on-write recorder observes the whole run; we print its
    // latest snapshot every 5 rounds
    let mut recorder = SnapshotRecorder::new();
    for round in (5..=40u64).step_by(5) {
        sim.run_rounds_observed(5, &mut recorder);
        let snapshot = recorder.last_snapshot().expect("rounds recorded");
        let groups: Vec<Vec<u64>> = snapshot
            .groups()
            .iter()
            .map(|g| g.iter().map(|n| n.raw()).collect())
            .collect();
        println!(
            "{round:5} | {groups:?}  (ΠA={} ΠS={} ΠM={})",
            snapshot.agreement(),
            snapshot.safety(dmax),
            snapshot.maximality(dmax)
        );
    }

    let snapshot = recorder.last_snapshot().expect("rounds recorded");
    println!("\nfinal views:");
    for (id, node) in sim.protocols() {
        let members: Vec<u64> = node.view().iter().map(|n| n.raw()).collect();
        println!("  node {id}: {members:?}");
    }
    println!(
        "\nlegitimate configuration reached: {}",
        snapshot.legitimate(dmax)
    );
}
