//! Equivalence gates between two ways of computing the same thing:
//!
//! * a simulator assembled by hand and one built from a manifest describing
//!   the same run produce the same trace — one engine behind every entry
//!   point;
//! * `SnapshotRecorder`'s delta-encoded digest folding must hash to exactly
//!   the bytes of the naive full walk.

use dyngraph::{NodeId, TopologyEvent};
use grp_core::observers::{RecordedRound, SnapshotRecorder};
use grp_core::{GrpConfig, GrpNode};
use netsim::{
    CanonicalHasher, FaultKind, Protocol, ScheduledFault, SimConfig, SimTime, Simulator,
    TopologyMode, View, ViewProtocol,
};
use scenarios::manifest::ScenarioManifest;
use scenarios::{build_simulator, drive_manifest, suite_dir};

fn load(name: &str) -> ScenarioManifest {
    ScenarioManifest::load(&suite_dir().join(name)).expect("manifest loads")
}

/// `netsim`'s defaults and the manifest defaults are the same engine: the
/// same topology, seed, timing, loss and `GrpConfig` give the same
/// recorded trace and views, round for round, whichever way the simulator
/// is assembled.
#[test]
fn embedders_and_manifests_run_the_same_engine() {
    let manifest = ScenarioManifest::parse(
        r#"
name = "same-engine"

[sim]
seed = 7
rounds = 20
loss = 0.1

[protocol]
dmax = 3

[topology]
kind = "grid"
rows = 3
cols = 4
"#,
    )
    .expect("parses");
    let observed = |recorder: SnapshotRecorder, sim: &Simulator<GrpNode>| {
        let mut hasher = CanonicalHasher::new();
        recorder.feed_trace_digest(&mut hasher);
        recorder.feed_views_digest(&mut hasher);
        (hasher.finalize(), recorder.len(), sim.stats())
    };

    let mut from_manifest = build_simulator(&manifest, 7);
    let mut recorder = SnapshotRecorder::new();
    drive_manifest(&mut from_manifest, &manifest, &mut recorder);
    let from_manifest = observed(recorder, &from_manifest);

    let topology = dyngraph::generators::grid(3, 4);
    let ids = topology.node_vec();
    let config = SimConfig {
        loss_probability: 0.1,
        ..SimConfig::rounds(7)
    };
    let mut embedded = Simulator::new(config, TopologyMode::Explicit(topology));
    let node = |id| GrpNode::new(id, GrpConfig::new(3));
    embedded.add_nodes(ids.into_iter().map(node));
    let mut recorder = SnapshotRecorder::new();
    embedded.run_rounds_observed(20, &mut recorder);
    let embedded = observed(recorder, &embedded);

    assert_eq!(from_manifest.1, 20);
    assert!(from_manifest.2.dropped > 0, "the lossy channel drew");
    assert_eq!(from_manifest, embedded);
}

/// The reference walk `SnapshotRecorder::feed_trace_digest` must match:
/// every round's graph re-encoded from scratch.
fn feed_trace_digest_full(rounds: &[RecordedRound], hasher: &mut CanonicalHasher) {
    hasher.begin_list("trace");
    hasher.feed_u64(rounds.len() as u64);
    for round in rounds {
        hasher.feed_time(round.at);
        hasher.feed_graph(&round.snapshot.topology);
        hasher.feed_stats(&round.stats);
    }
    hasher.end_list();
}

/// The reference walk `SnapshotRecorder::feed_views_digest` must match:
/// every view of every round re-hashed.
fn feed_views_digest_full(rounds: &[RecordedRound], hasher: &mut CanonicalHasher) {
    hasher.begin_list("views");
    hasher.feed_u64(rounds.len() as u64);
    for (index, round) in rounds.iter().enumerate() {
        hasher.feed_u64(index as u64);
        for (&node, view) in &round.snapshot.views {
            hasher.feed_u64(node.raw());
            hasher.feed_node_set(view.iter().copied());
        }
    }
    hasher.end_list();
}

#[test]
fn delta_digest_folding_is_byte_identical_to_full_walk() {
    // three golden manifests spanning the sharing regimes: a stationary
    // line (everything shared once converged), a churn scenario (topology
    // Arcs change mid-run), and a mobile spatial scenario (fresh topology
    // every mobility tick, views mostly stable)
    for name in [
        "s01_stationary_line.toml",
        "s07_partition_merge.toml",
        "s10_random_walk.toml",
    ] {
        let manifest = load(name);
        let seed = manifest.sim.seeds[0];
        let mut sim = build_simulator(&manifest, seed);
        let mut recorder = SnapshotRecorder::new();
        drive_manifest(&mut sim, &manifest, &mut recorder);

        let mut delta = CanonicalHasher::new();
        recorder.feed_trace_digest(&mut delta);
        recorder.feed_views_digest(&mut delta);
        let mut full = CanonicalHasher::new();
        feed_trace_digest_full(recorder.rounds(), &mut full);
        feed_views_digest_full(recorder.rounds(), &mut full);
        assert_eq!(
            delta.finalize(),
            full.finalize(),
            "{name}: delta-encoded digest diverged from the full walk"
        );
    }
}

/// A node whose view follows a script, one entry per compute, cycled. An
/// entry equal to the current view keeps its allocation; any other entry
/// is a fresh one, even when an earlier round held the same members.
#[derive(Clone, Debug)]
struct Scripted {
    id: NodeId,
    script: Vec<Vec<u64>>,
    computes: usize,
    view: View,
}

impl Scripted {
    fn new(id: u64, script: &[&[u64]]) -> Self {
        Scripted {
            id: NodeId(id),
            script: script.iter().map(|entry| entry.to_vec()).collect(),
            computes: 0,
            view: View::singleton(NodeId(id)),
        }
    }
}

impl Protocol for Scripted {
    type Message = ();

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_message(&mut self, _from: NodeId, _msg: (), _now: SimTime) {}

    fn on_compute(&mut self, _now: SimTime) {
        let entry = &self.script[self.computes % self.script.len()];
        self.computes += 1;
        if !self.view.iter().map(|m| m.raw()).eq(entry.iter().copied()) {
            self.view = entry.iter().copied().map(NodeId).collect();
        }
    }

    fn on_send(&mut self, _now: SimTime) -> Option<()> {
        None
    }

    fn reset(&mut self) {
        self.view = View::singleton(self.id);
    }
}

impl ViewProtocol for Scripted {
    fn view(&self) -> &View {
        &self.view
    }
}

/// The folds compare each round with the one before it only. A view that
/// returns to members it held two rounds ago (A → B → A), a topology that
/// returns to an earlier graph (G1 → G2 → G1), each in a fresh allocation,
/// and a node missing from the round before (crashed) must all hash as the
/// full walk does.
#[test]
fn digest_folds_match_the_full_walk_when_a_state_returns() {
    let mut sim: Simulator<Scripted> = Simulator::new(
        SimConfig {
            seed: 3,
            stagger_phases: false,
            ..Default::default()
        },
        TopologyMode::Explicit(dyngraph::generators::path(3)),
    );
    sim.add_nodes([
        Scripted::new(0, &[&[0, 1], &[0, 2], &[0, 1], &[0, 1]]),
        Scripted::new(1, &[&[1]]),
        Scripted::new(2, &[&[0, 2], &[2]]),
    ]);
    // node 2 is down at the end of the second round (t = 2 000)
    sim.schedule_faults([
        ScheduledFault::new(SimTime(1_100), FaultKind::Crash(NodeId(2))),
        ScheduledFault::new(SimTime(2_100), FaultKind::Restart(NodeId(2))),
    ]);
    let mut recorder = SnapshotRecorder::new();
    sim.run_rounds_observed(1, &mut recorder);
    sim.apply_topology_event(TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
    sim.run_rounds_observed(1, &mut recorder);
    sim.apply_topology_event(TopologyEvent::LinkUp(NodeId(1), NodeId(2)));
    sim.run_rounds_observed(2, &mut recorder);

    let rounds = recorder.rounds();
    let view = |round: usize, node: u64| &rounds[round].snapshot.views[&NodeId(node)];
    let topology = |round: usize| &rounds[round].snapshot.topology;
    // A → B → A, the second A a fresh allocation, then kept
    assert_eq!(view(0, 0), view(2, 0));
    assert_ne!(view(0, 0), view(1, 0));
    assert!(!View::ptr_eq(view(0, 0), view(2, 0)));
    assert!(View::ptr_eq(view(2, 0), view(3, 0)));
    // G1 → G2 → G1, the second G1 a fresh allocation, then kept
    assert_eq!(topology(0), topology(2));
    assert_ne!(topology(0), topology(1));
    assert!(!std::sync::Arc::ptr_eq(topology(0), topology(2)));
    assert!(std::sync::Arc::ptr_eq(topology(2), topology(3)));
    // node 2 is absent from the second round only
    let present = |round: usize| rounds[round].snapshot.views.contains_key(&NodeId(2));
    assert_eq!([0, 1, 2, 3].map(present), [true, false, true, true]);

    let mut delta = CanonicalHasher::new();
    recorder.feed_trace_digest(&mut delta);
    recorder.feed_views_digest(&mut delta);
    let mut full = CanonicalHasher::new();
    feed_trace_digest_full(rounds, &mut full);
    feed_views_digest_full(rounds, &mut full);
    assert_eq!(delta.finalize(), full.finalize());
}
