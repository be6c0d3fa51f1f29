//! GRP outside the simulator: one OS thread per node, lossy `std::sync::mpsc`
//! channels, wall-clock timers — then a live topology change.
//!
//! ```text
//! cargo run --example threaded_runtime
//! ```

use dyngraph::generators::path;
use dyngraph::NodeId;
use grp_core::GrpConfig;
use grp_runtime::{Cluster, ClusterConfig, LinkQuality};
use std::time::Duration;

fn main() {
    let config = ClusterConfig {
        send_period: Duration::from_millis(10),
        compute_period: Duration::from_millis(40),
        link: LinkQuality::lossy(0.2),
        grp: GrpConfig::new(3),
        seed: 7,
    };
    println!("starting 5 node threads on a line, 20% message loss …");
    let cluster = Cluster::start(path(5), config);

    cluster.wait_for_rounds(50, Duration::from_secs(20));
    let snapshot = cluster.snapshot();
    println!(
        "after ~50 rounds: {} group(s), agreement = {}",
        snapshot.group_count(),
        snapshot.agreement()
    );
    for (id, view) in cluster.views() {
        println!(
            "  node {id}: {:?}",
            view.iter().map(|n| n.raw()).collect::<Vec<_>>()
        );
    }

    println!("\ncutting the link between node 1 and node 2 …");
    let mut broken = path(5);
    broken.remove_edge(NodeId(1), NodeId(2));
    cluster.set_topology(broken);
    let target = cluster.rounds().values().copied().max().unwrap_or(0) + 50;
    cluster.wait_for_rounds(target, Duration::from_secs(20));
    let snapshot = cluster.snapshot();
    println!(
        "after the cut: {} group(s), safety(3) = {}",
        snapshot.group_count(),
        snapshot.safety(3)
    );
    for (id, view) in cluster.views() {
        println!(
            "  node {id}: {:?}",
            view.iter().map(|n| n.raw()).collect::<Vec<_>>()
        );
    }
    cluster.shutdown();
}
