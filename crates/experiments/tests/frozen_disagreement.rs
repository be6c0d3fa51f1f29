//! The pinned frozen-disagreement witnesses (see `docs/SCENARIOS.md`,
//! "Observed reproduction behaviours"):
//! `tests/scenarios/s20_frozen_disagreement.toml` is E1's `sized_rgg(20)`
//! under seed 4, and its views stop changing while five nodes still
//! disagree; `tests/scenarios/s21_frozen_cut7.toml` is its 7-node cut,
//! which freezes in disagreement too.

use dyngraph::{induced_subgraph, GraphGenerator, NodeId};
use experiments::e1_convergence::sized_rgg;
use grp_core::observers::SnapshotRecorder;
use grp_core::predicates::SystemSnapshot;
use scenarios::manifest::WorkloadSpec;
use scenarios::{build_simulator, drive_manifest, suite_dir, ScenarioManifest};

fn load(file: &str) -> (ScenarioManifest, GraphGenerator) {
    let manifest =
        ScenarioManifest::load(&suite_dir().join(file)).unwrap_or_else(|e| panic!("{e}"));
    let WorkloadSpec::Explicit(generator) = manifest.workload.clone() else {
        panic!("{file} has an explicit topology");
    };
    (manifest, generator)
}

fn history(manifest: &ScenarioManifest, seed: u64) -> Vec<SystemSnapshot> {
    let mut sim = build_simulator(manifest, seed);
    let mut recorder = SnapshotRecorder::new();
    drive_manifest(&mut sim, manifest, &mut recorder);
    recorder.into_snapshots()
}

#[test]
fn s20_is_e1s_witness_and_freezes_in_five_disagreeing_views() {
    let (manifest, generator) = load("s20_frozen_disagreement.toml");
    let seed = manifest.sim.seeds[0];
    assert_eq!(generator.generate(seed), sized_rgg(20).generate(4));

    let snapshots = history(&manifest, seed);
    assert_eq!(snapshots.len(), 452);
    let last = &snapshots[451];
    assert_eq!(
        snapshots[399].views, last.views,
        "views at round 400 differ from the final round's"
    );
    assert!(!last.agreement());
    for (node, expected) in [
        (1, vec![1, 6, 15]),
        (3, vec![3, 6, 9, 15]),
        (6, vec![1, 3, 6, 9]),
        (9, vec![3, 6, 9, 15]),
        (15, vec![1, 3, 9, 15]),
    ] {
        let view: Vec<u64> = last.views[&NodeId(node)].iter().map(|n| n.raw()).collect();
        assert_eq!(view, expected, "final view of node {node}");
    }
}

#[test]
fn s21_is_s20s_seven_node_cut_and_freezes_in_disagreement() {
    let (manifest, generator) = load("s21_frozen_cut7.toml");
    let cut = [1, 3, 6, 8, 9, 14, 15].map(NodeId).into_iter().collect();
    assert_eq!(
        generator.generate(0),
        induced_subgraph(&sized_rgg(20).generate(4), &cut)
    );
    for &seed in &manifest.sim.seeds {
        let snapshots = history(&manifest, seed);
        let last = &snapshots[snapshots.len() - 1];
        assert_eq!(
            snapshots[19].views, last.views,
            "seed {seed}: views at round 20 differ from the final round's"
        );
        assert!(!last.agreement(), "seed {seed}: the cut must not agree");
    }
}
