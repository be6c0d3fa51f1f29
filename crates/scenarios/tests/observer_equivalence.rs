//! Observer-pipeline equivalence suite (the redesign's safety net).
//!
//! The pre-redesign scenario runner drove the simulator round by round,
//! deep-cloning the topology and every active view into materialised
//! vectors. These tests replicate that legacy loop *inline, verbatim* and
//! assert that the observer pipeline — `drive_manifest` + the
//! shared-view `SnapshotRecorder` — records the exact same per-round
//! history and produces byte-identical canonical digests on golden
//! manifests (including one with a churn schedule), against the pinned
//! golden values.

use dyngraph::{Graph, NodeId};
use grp_core::observers::GrpPipeline;
use netsim::{CanonicalHasher, MessageStats, SimTime};
use scenarios::manifest::ScenarioManifest;
use scenarios::{
    apply_churn_action, build_simulator, drive_manifest, grp_config_of, run_seed, suite_dir,
};
use std::collections::{BTreeMap, BTreeSet};

/// One round of history as the legacy loop materialised it.
struct LegacyRound {
    at: SimTime,
    topology: Graph,
    stats: MessageStats,
    views: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

/// The pre-redesign drive loop, reproduced exactly: churn at round
/// boundaries, one `run_rounds(1)` per round, then a deep-clone capture of
/// the topology, the cumulative stats and every *active* node's view.
fn legacy_run(manifest: &ScenarioManifest, seed: u64) -> (Vec<LegacyRound>, String) {
    let grp_config = grp_config_of(manifest);
    let mut sim = build_simulator(manifest, seed);
    let mut churn = manifest.churn.iter().peekable();
    let mut rounds = Vec::new();
    for round in 0..manifest.sim.rounds {
        while let Some(c) = churn.peek() {
            if c.at_round > round {
                break;
            }
            apply_churn_action(&mut sim, &c.action, &grp_config);
            churn.next();
        }
        sim.run_rounds(1);
        let views = sim
            .protocols()
            .filter(|&(id, _)| sim.is_active(id))
            .map(|(id, p)| (id, p.view().iter().copied().collect()))
            .collect();
        rounds.push(LegacyRound {
            at: sim.now(),
            topology: sim.topology().clone(),
            stats: sim.stats(),
            views,
        });
    }

    // the legacy digest encoding, byte for byte
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str(&manifest.name);
    hasher.feed_u64(seed);
    hasher.feed_u64(manifest.protocol.dmax as u64);
    hasher.begin_list("trace");
    hasher.feed_u64(rounds.len() as u64);
    for r in &rounds {
        hasher.feed_time(r.at);
        hasher.feed_graph(&r.topology);
        hasher.feed_stats(&r.stats);
    }
    hasher.end_list();
    hasher.begin_list("views");
    hasher.feed_u64(rounds.len() as u64);
    for (index, r) in rounds.iter().enumerate() {
        hasher.feed_u64(index as u64);
        for (&node, view) in &r.views {
            hasher.feed_u64(node.raw());
            hasher.feed_node_set(view.iter().copied());
        }
    }
    hasher.end_list();
    (rounds, hasher.finalize().to_hex())
}

/// The manifests the equivalence suite covers: an explicit topology, a
/// spatial mobility workload, and a churn schedule (joins + leaves — the
/// case where snapshot semantics can diverge).
const MANIFESTS: [&str; 3] = [
    "s02_grid.toml",
    "s10_random_walk.toml",
    "s08_churn_join_leave.toml",
];

#[test]
fn pipeline_history_equals_legacy_loop_on_golden_manifests() {
    for name in MANIFESTS {
        let manifest = ScenarioManifest::load(&suite_dir().join(name)).expect("manifest loads");
        let seed = manifest.sim.seeds[0];
        let (legacy, legacy_digest) = legacy_run(&manifest, seed);

        let mut sim = build_simulator(&manifest, seed);
        let mut pipeline = GrpPipeline::new();
        drive_manifest(&mut sim, &manifest, &mut pipeline);
        let recorder = pipeline.recorder;

        assert_eq!(recorder.len(), legacy.len(), "{name}: round count differs");
        for (i, (new, old)) in recorder.rounds().iter().zip(&legacy).enumerate() {
            assert_eq!(new.at, old.at, "{name} round {i}: timestamp differs");
            assert_eq!(new.stats, old.stats, "{name} round {i}: stats differ");
            assert_eq!(
                *new.snapshot.topology, old.topology,
                "{name} round {i}: topology differs"
            );
            assert_eq!(
                new.snapshot.views.len(),
                old.views.len(),
                "{name} round {i}: node set differs"
            );
            for (id, view) in &new.snapshot.views {
                assert_eq!(
                    view.iter().copied().collect::<BTreeSet<_>>(),
                    old.views[id],
                    "{name} round {i}: view of {id} differs"
                );
            }
        }

        // and the full canonical digest agrees with both the legacy
        // encoding and the pinned golden value
        let mut hasher = CanonicalHasher::new();
        hasher.feed_str(&manifest.name);
        hasher.feed_u64(seed);
        hasher.feed_u64(manifest.protocol.dmax as u64);
        recorder.feed_trace_digest(&mut hasher);
        recorder.feed_views_digest(&mut hasher);
        let pipeline_digest = hasher.finalize().to_hex();
        assert_eq!(
            pipeline_digest, legacy_digest,
            "{name}: pipeline and legacy digests diverge"
        );
        assert_eq!(
            &pipeline_digest, &manifest.golden.digests[0],
            "{name}: digest drifted from the pinned golden value"
        );
    }
}

#[test]
fn run_seed_digest_matches_legacy_digest() {
    for name in MANIFESTS {
        let manifest = ScenarioManifest::load(&suite_dir().join(name)).expect("manifest loads");
        let seed = manifest.sim.seeds[0];
        let (_, legacy_digest) = legacy_run(&manifest, seed);
        let outcome = run_seed(&manifest, seed, None);
        assert_eq!(outcome.digest.to_hex(), legacy_digest, "{name}");
    }
}
