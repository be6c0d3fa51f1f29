//! Integration tests comparing GRP with the baselines on identical
//! workloads — the qualitative claims of the paper's positioning.

use baselines::{KHopClustering, MaxMinDCluster, NeighborhoodBall};
use dyngraph::generators::path;
use dyngraph::{NodeId, TopologyEvent};
use grp_core::predicates::{view_removals, SystemSnapshot};
use grp_core::{GrpConfig, GrpNode};
use netsim::{Protocol, SimConfig, Simulator, TopologyMode, ViewProtocol};

fn run_and_snapshot<P, F>(n: usize, rounds: u64, make: F) -> (Simulator<P>, SystemSnapshot)
where
    P: Protocol + ViewProtocol,
    F: Fn(NodeId) -> P,
{
    let topology = path(n);
    let mut sim = Simulator::new(
        SimConfig {
            seed: 23,
            ..Default::default()
        },
        TopologyMode::Explicit(topology),
    );
    sim.add_nodes((0..n as u64).map(NodeId).map(make));
    sim.run_rounds(rounds);
    let snapshot = SystemSnapshot::from_simulator(&sim);
    (sim, snapshot)
}

#[test]
fn grp_satisfies_agreement_where_the_ball_baseline_cannot() {
    let dmax = 2;
    let (_, grp) = run_and_snapshot(6, 60, |id| GrpNode::new(id, GrpConfig::new(dmax)));
    let (_, ball) = run_and_snapshot(6, 60, |id| NeighborhoodBall::new(id, dmax));
    assert!(grp.agreement(), "GRP views: {:?}", grp.views);
    assert!(
        !ball.agreement(),
        "the ball baseline has no agreement by construction"
    );
}

#[test]
fn all_protocols_respect_self_membership() {
    let dmax = 4;
    let (_, grp) = run_and_snapshot(5, 40, |id| GrpNode::new(id, GrpConfig::new(dmax)));
    let (_, khop) = run_and_snapshot(5, 40, |id| KHopClustering::new(id, dmax));
    let (_, maxmin) = run_and_snapshot(5, 40, |id| MaxMinDCluster::new(id, dmax));
    for snapshot in [grp, khop, maxmin] {
        for (node, view) in &snapshot.views {
            assert!(view.contains(node));
        }
    }
}

#[test]
fn head_loss_relabels_clusters_but_grp_keeps_the_surviving_group() {
    // path 0-1-2-3 with Dmax 4: GRP puts everyone in one group, while the
    // k-hop baseline (k = 2) elects node 1 as the head of nodes 1..3. When
    // the head node 1 disappears, the baseline relabels the survivors,
    // whereas GRP only removes the departed member from the views.
    let dmax = 4;
    let build_grp = |id| GrpNode::new(id, GrpConfig::new(dmax));
    let build_khop = |id| KHopClustering::new(id, dmax);

    let (mut grp_sim, grp_before) = run_and_snapshot(4, 60, build_grp);
    let (mut khop_sim, khop_before) = run_and_snapshot(4, 60, build_khop);
    assert!(grp_before.views[&NodeId(3)].contains(&NodeId(1)));
    assert_eq!(khop_sim.protocol(NodeId(3)).unwrap().head(), NodeId(1));

    grp_sim.apply_topology_event(TopologyEvent::NodeLeave(NodeId(1)));
    grp_sim.set_active(NodeId(1), false);
    khop_sim.apply_topology_event(TopologyEvent::NodeLeave(NodeId(1)));
    khop_sim.set_active(NodeId(1), false);
    grp_sim.run_rounds(40);
    khop_sim.run_rounds(40);

    let grp_after = SystemSnapshot::from_simulator(&grp_sim);
    let khop_after = SystemSnapshot::from_simulator(&khop_sim);

    // GRP: the surviving pair 2-3 keeps its group (minus the departed node)
    let grp_survivor_view = &grp_after.views[&NodeId(3)];
    assert!(!grp_survivor_view.contains(&NodeId(1)));
    assert!(grp_survivor_view.contains(&NodeId(2)));
    // k-hop: the head moved to the new smallest id among the survivors
    assert_eq!(khop_sim.protocol(NodeId(3)).unwrap().head(), NodeId(2));

    // both protocols lose members on this transition (GRP had the larger
    // group to start with, so absolute removals are not comparable here —
    // experiment E5 does the normalised comparison under mobility)
    assert!(view_removals(&grp_before, &grp_after) > 0);
    assert!(view_removals(&khop_before, &khop_after) > 0);
}
