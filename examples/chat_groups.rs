//! A proximity chat built on the group service.
//!
//! The application layer only reads `view_v`: every node "posts" a message
//! to its group each round, and a message is considered delivered when every
//! member of the poster's view also has the poster in its own view. This
//! shows how a third-party application can rely on the views *before* global
//! convergence, thanks to the continuity guarantee — and how application
//! logic rides the observer pipeline instead of hand-rolling a capture loop.
//!
//! ```text
//! cargo run --example chat_groups
//! ```

use dyngraph::generators::clustered;
use dyngraph::NodeId;
use grp_core::predicates::SystemSnapshot;
use grp_core::{GrpConfig, GrpNode};
use netsim::{Observer, SimConfig, Simulator, TopologyMode};

/// The chat application as an observer: it reads each round's views and
/// counts group-wide message deliveries, streaming, with no snapshot vector.
#[derive(Default)]
struct ChatApp {
    posted: u64,
    delivered: u64,
}

impl Observer<GrpNode> for ChatApp {
    fn on_round_end(&mut self, round: u64, sim: &Simulator<GrpNode>) {
        let snapshot = SystemSnapshot::from_simulator(sim);
        for (author, view) in &snapshot.views {
            if view.len() <= 1 {
                continue;
            }
            self.posted += 1;
            let all_members_see_author = view.iter().all(|member| {
                snapshot
                    .views
                    .get(member)
                    .map(|their_view| their_view.contains(author))
                    .unwrap_or(false)
            });
            if all_members_see_author {
                self.delivered += 1;
            }
        }
        if (round + 1).is_multiple_of(10) {
            println!(
                "round {:3}: {} chat groups, {:.1} members on average",
                round + 1,
                snapshot.group_count(),
                snapshot.mean_group_size(),
            );
        }
    }
}

fn main() {
    let dmax = 2;
    // three dense pockets of 4 nodes chained by bridges — typical "groups of
    // vehicles at a junction"
    let topology = clustered(3, 4);
    let ids = topology.node_vec();
    let mut sim = Simulator::new(SimConfig::rounds(5), TopologyMode::Explicit(topology));
    let node = |id| GrpNode::new(id, GrpConfig::new(dmax));
    sim.add_nodes(ids.into_iter().map(node));

    let mut app = ChatApp::default();
    sim.run_rounds_observed(50, &mut app);

    println!("\nchat messages posted to a group : {}", app.posted);
    println!("delivered to every group member  : {}", app.delivered);
    println!(
        "delivery ratio                   : {:.1}%",
        100.0 * app.delivered as f64 / app.posted.max(1) as f64
    );

    let ids: Vec<NodeId> = sim.node_ids();
    println!(
        "\nfinal group of node {}: {:?}",
        ids[0],
        sim.protocol(ids[0]).unwrap().view()
    );
}
