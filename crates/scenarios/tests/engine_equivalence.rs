//! Equivalence gates between two ways of computing the same thing:
//!
//! * a simulator assembled by hand and one built from a manifest describing
//!   the same run produce the same trace — one engine behind every entry
//!   point;
//! * `SnapshotRecorder`'s delta-encoded digest folding must hash to exactly
//!   the bytes of the naive full walk.

use grp_core::observers::{RecordedRound, SnapshotRecorder};
use grp_core::{GrpConfig, GrpNode};
use netsim::{CanonicalHasher, SimConfig, Simulator, TopologyMode};
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
