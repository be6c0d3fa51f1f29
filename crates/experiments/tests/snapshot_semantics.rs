//! Regression tests for the unified snapshot semantics.
//!
//! Before the observer redesign, `experiments::runner` captured snapshots
//! with `SystemSnapshot::from_simulator` over *all* nodes while the
//! scenario runner captured *active* nodes only — so the same manifest
//! produced different histories depending on which harness ran it, and a
//! departed node's frozen view silently leaked into churn metrics. These
//! tests pin the unified rule (active nodes only, everywhere) on a churn
//! schedule that would have exposed the divergence.

use dyngraph::NodeId;
use experiments::runner::snapshots;
use grp_core::observers::GrpPipeline;
use scenarios::{build_simulator, drive_manifest, ScenarioManifest};

const CHURN_MANIFEST: &str = r#"
name = "semantics-churn"
[protocol]
dmax = 3
[sim]
seed = 11
rounds = 40
[topology]
kind = "path"
n = 5
[[churn]]
at_round = 12
action = "node_leave"
node = 4
[[churn]]
at_round = 25
action = "node_join"
node = 4
links = [3]
"#;

/// The regression that would have caught the historical mismatch: after
/// `node_leave`, the departed node must vanish from every captured
/// snapshot (its frozen view must not feed the predicates or the churn
/// metrics), and it must reappear after the re-join.
#[test]
fn departed_nodes_leave_the_captured_history() {
    let manifest = ScenarioManifest::parse(CHURN_MANIFEST).expect("manifest parses");
    let snapshots = snapshots(&manifest, 11);
    assert_eq!(snapshots.len(), 40);
    let gone = NodeId(4);
    for (round, snapshot) in snapshots.iter().enumerate() {
        let present = snapshot.views.contains_key(&gone);
        if (12..25).contains(&round) {
            assert!(
                !present,
                "round {round}: departed node still in the snapshot — the \
                 all-nodes capture bug is back"
            );
        } else {
            assert!(present, "round {round}: active node missing");
        }
        // no *other* node's view may keep quoting the departed node once
        // the protocol has had Dmax+1 rounds to flush it
        if (17..24).contains(&round) {
            for (id, view) in &snapshot.views {
                assert!(
                    !view.contains(&gone),
                    "round {round}: node {id} still quotes the departed node"
                );
            }
        }
    }
}

/// The experiments' capture (a bare `SnapshotRecorder`, as in
/// [`experiments::runner::snapshots`]) and the scenario runner's
/// probe pipeline must record the *same* history for the same manifest and
/// seed. (Under the pre-redesign split semantics this assertion fails at
/// the first post-leave round.)
#[test]
fn experiment_and_scenario_harnesses_capture_identical_histories() {
    let manifest = ScenarioManifest::parse(CHURN_MANIFEST).expect("manifest parses");
    let seed = 11;
    let recorded = snapshots(&manifest, seed);

    let mut sim = build_simulator(&manifest, seed);
    let dmax = manifest.protocol.dmax;
    let mut pipeline = GrpPipeline::new()
        .with_convergence(dmax)
        .with_continuity(dmax);
    drive_manifest(&mut sim, &manifest, &mut pipeline);
    let scenario_snapshots = pipeline.recorder.into_snapshots();

    assert_eq!(recorded.len(), scenario_snapshots.len());
    for (round, (a, b)) in recorded.iter().zip(&scenario_snapshots).enumerate() {
        assert_eq!(a, b, "round {round}: harness histories diverge");
    }
}
