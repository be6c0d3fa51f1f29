//! Fault-injection and explicit-topology mutation coverage: the group view
//! must re-converge after crashes, restarts, state corruption, loss bursts
//! and live edge changes. These tests drive `netsim`'s fault plan and
//! mutation paths through the real GRP protocol (not the Flood test stub).

use dyngraph::generators::path;
use dyngraph::{NodeId, TopologyEvent};
use grp_core::predicates::SystemSnapshot;
use grp_core::{GrpConfig, GrpNode};
use netsim::{FaultKind, ScheduledFault, SimConfig, SimTime, Simulator, TopologyMode, View};

fn grp_sim(n: usize, dmax: usize, seed: u64) -> Simulator<GrpNode> {
    let topology = path(n);
    let mut sim = Simulator::new(
        SimConfig {
            seed,
            ..Default::default()
        },
        TopologyMode::Explicit(topology.clone()),
    );
    sim.add_nodes(
        topology
            .nodes()
            .map(|id| GrpNode::new(id, GrpConfig::new(dmax)))
            .collect::<Vec<_>>(),
    );
    sim
}

/// Snapshot only the active nodes (a crashed node has no view) — the
/// unified semantics `SystemSnapshot::from_simulator` now implements.
fn active_snapshot(sim: &Simulator<GrpNode>) -> SystemSnapshot {
    SystemSnapshot::from_simulator(sim)
}

#[test]
fn crash_mid_run_shrinks_the_group_and_restart_reforms_it() {
    let dmax = 3;
    let mut sim = grp_sim(4, dmax, 101);
    sim.run_rounds(40);
    let all: View = (0..4).map(NodeId).collect();
    assert_eq!(
        sim.protocol(NodeId(0)).unwrap().view(),
        &all,
        "sanity: the whole line forms one group before the fault"
    );

    // crash the tail node mid-run, then bring it back later
    sim.schedule_faults(vec![ScheduledFault::new(
        SimTime(sim.now().ticks() + 500),
        FaultKind::Crash(NodeId(3)),
    )]);
    sim.run_rounds(40);
    assert!(!sim.is_active(NodeId(3)));
    let snapshot = active_snapshot(&sim);
    assert!(
        snapshot.agreement(),
        "survivors agree: {:?}",
        snapshot.views
    );
    assert!(
        !sim.protocol(NodeId(0)).unwrap().view().contains(&NodeId(3)),
        "the crashed node ages out of the survivors' views"
    );

    sim.schedule_faults(vec![ScheduledFault::new(
        SimTime(sim.now().ticks() + 500),
        FaultKind::Restart(NodeId(3)),
    )]);
    sim.run_rounds(60);
    assert!(sim.is_active(NodeId(3)));
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.legitimate(dmax), "views: {:?}", snapshot.views);
    assert_eq!(
        sim.protocol(NodeId(3)).unwrap().view(),
        &all,
        "the restarted node rejoins the full group"
    );
}

#[test]
fn state_corruption_is_self_stabilized_away() {
    let dmax = 3;
    // Seed 103 -> 104 when the shared RNG stream was retired: under seed
    // 103's per-node phases node 1's compute timer fires between the fault
    // and the peek below, flushing the ghost before it can be observed.
    let mut sim = grp_sim(4, dmax, 104);
    sim.run_rounds(40);
    sim.schedule_faults(vec![ScheduledFault::new(
        SimTime(sim.now().ticks() + 100),
        FaultKind::CorruptState(NodeId(1)),
    )]);
    // peek right after the fault fires, before the next compute flushes it
    sim.run_for(150);
    let ghosted = sim
        .protocol(NodeId(1))
        .unwrap()
        .view()
        .iter()
        .any(|n| n.raw() >= 100_000);
    assert!(ghosted, "sanity: corruption visible before stabilization");

    sim.run_rounds(60);
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.legitimate(dmax), "views: {:?}", snapshot.views);
    assert!(
        snapshot
            .views
            .values()
            .flat_map(|v| v.iter())
            .all(|n| n.raw() < 100),
        "ghost identities are flushed from every view"
    );
}

#[test]
fn loss_burst_stalls_but_does_not_break_convergence() {
    let dmax = 3;
    let mut sim = grp_sim(4, dmax, 105);
    sim.schedule_faults(vec![ScheduledFault::new(
        SimTime(0),
        FaultKind::LossBurst { duration: 20_000 },
    )]);
    sim.run_rounds(100);
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.legitimate(dmax), "views: {:?}", snapshot.views);
    assert!(sim.stats().dropped > 0, "the burst dropped traffic");
}

/// The `partition` fault (a membership cut, not a topology edit): while
/// the cut is up the two halves each re-form a legitimate group of their
/// own; after `heal` the line re-merges into one group. Agreement and
/// safety (ΠA/ΠS over the active nodes) must hold in the partitioned
/// steady state too — partition is a fault the protocol stabilizes
/// *under*, not just after.
#[test]
fn partition_splits_the_view_and_heal_remerges_it() {
    let dmax = 3;
    let mut sim = grp_sim(4, dmax, 113);
    sim.run_rounds(40);
    let all: View = (0..4).map(NodeId).collect();
    assert_eq!(
        sim.protocol(NodeId(0)).unwrap().view(),
        &all,
        "sanity: one group before the cut"
    );

    sim.schedule_faults(vec![ScheduledFault::new(
        SimTime(sim.now().ticks() + 500),
        FaultKind::Partition {
            groups: vec![(0..2).map(NodeId).collect(), (2..4).map(NodeId).collect()],
        },
    )]);
    sim.run_rounds(60);
    let snapshot = active_snapshot(&sim);
    assert!(
        snapshot.agreement() && snapshot.safety(dmax),
        "ΠA/ΠS must hold in the partitioned steady state: {:?}",
        snapshot.views
    );
    assert_eq!(
        snapshot.group_count(),
        2,
        "the cut halves re-form one group each: {:?}",
        snapshot.views
    );
    assert!(
        !sim.protocol(NodeId(0)).unwrap().view().contains(&NodeId(2)),
        "nodes across the cut age out of each other's views"
    );

    sim.schedule_faults(vec![ScheduledFault::new(
        SimTime(sim.now().ticks() + 500),
        FaultKind::Heal,
    )]);
    sim.run_rounds(80);
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.legitimate(dmax), "views: {:?}", snapshot.views);
    assert_eq!(snapshot.group_count(), 1, "the healed line re-merges");
    assert_eq!(
        sim.protocol(NodeId(0)).unwrap().view(),
        &all,
        "every node returns to the full view after heal"
    );
}

#[test]
fn edge_removal_between_rounds_splits_the_view() {
    let dmax = 3;
    let mut sim = grp_sim(4, dmax, 107);
    sim.run_rounds(40);

    sim.apply_topology_event(TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
    sim.run_rounds(60);
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.agreement(), "views: {:?}", snapshot.views);
    assert!(snapshot.safety(dmax));
    assert!(
        snapshot.group_count() >= 2,
        "severed halves cannot stay one group: {:?}",
        snapshot.views
    );
    assert!(
        !sim.protocol(NodeId(0)).unwrap().view().contains(&NodeId(3)),
        "views re-converge to the reachable component"
    );
}

#[test]
fn edge_addition_between_rounds_remerges_the_view() {
    let dmax = 3;
    let mut sim = grp_sim(4, dmax, 109);
    // start severed, converge, then heal the line
    sim.apply_topology_event(TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
    sim.run_rounds(40);
    assert!(active_snapshot(&sim).group_count() >= 2);

    sim.apply_topology_event(TopologyEvent::LinkUp(NodeId(1), NodeId(2)));
    sim.run_rounds(80);
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.legitimate(dmax), "views: {:?}", snapshot.views);
    assert_eq!(snapshot.group_count(), 1, "the healed line re-merges");
}

#[test]
fn node_join_and_leave_between_rounds_reconverge() {
    let dmax = 3;
    let mut sim = grp_sim(3, dmax, 111);
    sim.run_rounds(40);

    // a newcomer joins at the tail
    let newcomer = NodeId(3);
    sim.add_node(GrpNode::new(newcomer, GrpConfig::new(dmax)));
    sim.apply_topology_event(TopologyEvent::NodeJoin(newcomer));
    sim.apply_topology_event(TopologyEvent::LinkUp(NodeId(2), newcomer));
    sim.run_rounds(60);
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.legitimate(dmax), "views: {:?}", snapshot.views);
    assert!(
        sim.protocol(NodeId(0)).unwrap().view().contains(&newcomer),
        "the newcomer enters the group view"
    );

    // and leaves again
    sim.apply_topology_event(TopologyEvent::NodeLeave(newcomer));
    sim.set_active(newcomer, false);
    sim.run_rounds(60);
    let snapshot = active_snapshot(&sim);
    assert!(snapshot.legitimate(dmax), "views: {:?}", snapshot.views);
    assert!(
        !sim.protocol(NodeId(0)).unwrap().view().contains(&newcomer),
        "the departed node ages out of the view"
    );
}
