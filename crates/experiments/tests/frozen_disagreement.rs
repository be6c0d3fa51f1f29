//! The pinned frozen-disagreement witness, `tests/scenarios/s20_frozen_disagreement.toml`
//! (see `docs/SCENARIOS.md`, "Observed reproduction behaviours"): it is
//! E1's `sized_rgg(20, 4)`, and its views stop changing while five nodes
//! still disagree.

use dyngraph::NodeId;
use experiments::e1_convergence::sized_rgg;
use grp_core::observers::SnapshotRecorder;
use scenarios::manifest::WorkloadSpec;
use scenarios::{build_simulator, drive_manifest, suite_dir, ScenarioManifest};

#[test]
fn s20_is_e1s_witness_and_freezes_in_five_disagreeing_views() {
    let path = suite_dir().join("s20_frozen_disagreement.toml");
    let manifest = ScenarioManifest::load(&path).unwrap_or_else(|e| panic!("{e}"));
    let seed = manifest.sim.seeds[0];
    let WorkloadSpec::Explicit(generator) = &manifest.workload else {
        panic!("s20 has an explicit topology");
    };
    assert_eq!(generator.generate(seed), sized_rgg(20, 4));

    let mut sim = build_simulator(&manifest, seed);
    let mut recorder = SnapshotRecorder::new();
    drive_manifest(&mut sim, &manifest, &mut recorder);
    let snapshots = recorder.into_snapshots();
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
