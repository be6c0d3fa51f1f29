//! Determinism gates for everything that may run on more than one thread,
//! for the delta-encoded digest feed, and for the one engine every entry
//! point shares:
//!
//! * the worker count of the engine's same-instant batches (computes,
//!   sends, deliveries) must leave every scenario digest byte-identical;
//! * `SnapshotRecorder`'s delta-encoded digest folding must hash to exactly
//!   the bytes of the naive full walk;
//! * a simulator assembled by hand and one built from a manifest describing
//!   the same run produce the same trace.

use grp_core::observers::SnapshotRecorder;
use grp_core::{GrpConfig, GrpNode};
use netsim::{CanonicalHasher, SimBuilder, SimConfig, TraceProbe};
use scenarios::manifest::ScenarioManifest;
use scenarios::{build_simulator, drive_manifest, suite_dir};

fn load(name: &str) -> ScenarioManifest {
    ScenarioManifest::load(&suite_dir().join(name)).expect("manifest loads")
}

/// Digest, final snapshot and message statistics of one seed of `manifest`
/// with at most `workers` threads per engine batch.
fn run_with_workers(
    manifest: &ScenarioManifest,
    workers: usize,
) -> impl PartialEq + std::fmt::Debug {
    let mut sim = build_simulator(manifest, manifest.sim.seeds[0]);
    sim.set_worker_cap(workers);
    let mut recorder = SnapshotRecorder::new();
    drive_manifest(&mut sim, manifest, &mut recorder);
    let mut hasher = CanonicalHasher::new();
    recorder.feed_trace_digest(&mut hasher);
    recorder.feed_views_digest(&mut hasher);
    (
        hasher.finalize(),
        recorder.last_snapshot().cloned(),
        sim.stats(),
    )
}

/// Every random decision is drawn from the stream of the node it concerns,
/// never from a shared cursor, so sharding a same-instant batch across
/// worker threads must not move a byte. Covers explicit topologies, fault
/// schedules, spatial mobility and the contention channel (s15–s17 family)
/// as pinned, then the two largest populations again in lockstep
/// (`stagger_phases = false`): there the whole population lands in every
/// compute, send and delivery batch, well above the inline floor of 16, so
/// the `par_map` branches really execute.
#[test]
fn worker_count_leaves_scenario_digests_identical() {
    for name in [
        "s01_stationary_line.toml",
        "s02_grid.toml",
        "s09_faults.toml",
        "s10_random_walk.toml",
        "s15_city_grid_contention.toml",
        "s16_metro_commuters.toml",
        "s17_mixed_highway_rsu.toml",
    ] {
        let manifest = load(name);
        assert_eq!(
            run_with_workers(&manifest, 1),
            run_with_workers(&manifest, 4),
            "{name}: the worker count changed the run"
        );
    }
    for name in ["s15_city_grid_contention.toml", "s16_metro_commuters.toml"] {
        let mut lockstep = load(name);
        assert!(lockstep.workload.node_count() >= 16);
        lockstep.sim.stagger_phases = false;
        assert_eq!(
            run_with_workers(&lockstep, 1),
            run_with_workers(&lockstep, 4),
            "{name} in lockstep: the worker count changed the run"
        );
    }
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
