//! Equivalence gates between two ways of computing the same thing:
//!
//! * a simulator assembled by hand and one built from a manifest describing
//!   the same run produce the same trace — one engine behind every entry
//!   point;
//! * `SnapshotRecorder`'s delta-encoded digest folding must hash to exactly
//!   the bytes of the naive full walk.

use grp_core::observers::SnapshotRecorder;
use grp_core::{GrpConfig, GrpNode};
use netsim::{CanonicalHasher, SimBuilder, SimConfig, TraceProbe};
use scenarios::manifest::ScenarioManifest;
use scenarios::{build_simulator, drive_manifest, suite_dir};

fn load(name: &str) -> ScenarioManifest {
    ScenarioManifest::load(&suite_dir().join(name)).expect("manifest loads")
}

/// `netsim`'s defaults and the manifest defaults are the same engine: the
/// same topology, seed, timing, loss and `GrpConfig` give the same trace
/// and the same final views whichever way the simulator is assembled.
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
    let observed = |probe: TraceProbe, sim: &netsim::Simulator<GrpNode>| {
        let mut hasher = CanonicalHasher::new();
        probe.trace().feed_digest(&mut hasher);
        let views: Vec<_> = sim.protocols().map(|(_, p)| p.view().clone()).collect();
        (hasher.finalize(), views, sim.stats())
    };

    let mut from_manifest = build_simulator(&manifest, 7);
    let mut probe = TraceProbe::new();
    drive_manifest(&mut from_manifest, &manifest, &mut probe);
    let from_manifest = observed(probe, &from_manifest);

    let mut embedded = SimBuilder::new()
        .config(SimConfig {
            loss_probability: 0.1,
            ..SimConfig::rounds(7)
        })
        .explicit(dyngraph::generators::grid(3, 4))
        .nodes_from_topology(|id| GrpNode::new(id, GrpConfig::new(3)))
        .build();
    let mut probe = TraceProbe::new();
    embedded.run_rounds_observed(20, &mut probe);
    let embedded = observed(probe, &embedded);

    assert!(from_manifest.2.dropped > 0, "the lossy channel drew");
    assert_eq!(from_manifest, embedded);
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
        recorder.feed_trace_digest_full(&mut full);
        recorder.feed_views_digest_full(&mut full);
        assert_eq!(
            delta.finalize(),
            full.finalize(),
            "{name}: delta-encoded digest diverged from the full walk"
        );
    }
}
