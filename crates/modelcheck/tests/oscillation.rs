//! Regression pin for the synchronous-compute view oscillation.
//!
//! `grp-core` documents (at `GrpNode::compute`) that a *fully synchronous*
//! schedule — deliver every in-flight message, then let every node compute,
//! forever — can trap a boundary node between two groups that never admit
//! it. This test checks in the minimal concrete counterexample as a trace
//! file and verifies every documented property of it mechanically:
//!
//! * the trace replays from freshly-booted nodes to the cycle entry;
//! * the cycle is genuine — `period_rounds` more synchronous rounds return
//!   to the same configuration;
//! * every configuration in the cycle is *illegitimate*, and specifically
//!   it is maximality (ΠM) that fails — agreement and safety hold, so two
//!   mergeable groups sit next to each other forever;
//! * the oscillation is a property of the schedule, not the protocol: a
//!   staggered (still lockstep-fair) schedule that computes one node per
//!   sweep escapes to a legitimate configuration quickly.
//!
//! The protocol therefore self-stabilizes under the scheduler the explorer
//! enumerates, but the fully synchronous schedule is an accepted fairness
//! assumption violation for maximality. Regenerate the artifact with
//! `cargo run -p modelcheck --example pin_oscillation`.

use dyngraph::generators::path;
use grp_core::GrpConfig;
use modelcheck::{
    drain, find_synchronous_lasso, fresh_net, parse_trace, replay, snapshot_of, synchronous_round,
    Checker, GrpChecker, McNet,
};

const PINNED: &str = include_str!("data/path5_dmax2_sync.trace");
const DMAX: usize = 2;

fn start() -> McNet<grp_core::GrpNode> {
    fresh_net(path(5), &GrpConfig::new(DMAX))
}

/// Extract a `# key value` header line from the pinned artifact.
fn header(key: &str) -> String {
    PINNED
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .filter_map(|l| l.trim().strip_prefix(key))
        .map(|rest| rest.trim().to_string())
        .next()
        .unwrap_or_else(|| panic!("header `{key}` missing from pinned trace"))
}

#[test]
fn pinned_trace_replays_to_the_lasso_entry() {
    let trace = parse_trace(PINNED).expect("pinned trace parses");
    let end = replay(&start(), &trace, Default::default()).expect("pinned trace replays");
    assert!(
        end.channels.is_empty(),
        "the pinned trace ends in a drained configuration"
    );
    assert_eq!(end.state_hash().to_hex(), header("entry_hash"));

    // The checked-in artifact is exactly what the lasso finder reports
    // today: same stem, same period, same entry configuration.
    let lasso = find_synchronous_lasso(&start(), 64).expect("schedule is periodic");
    assert_eq!(lasso.stem_rounds.to_string(), header("stem_rounds"));
    assert_eq!(lasso.period_rounds.to_string(), header("period_rounds"));
    assert_eq!(lasso.entry_hash.to_hex(), header("entry_hash"));
    assert_eq!(lasso.trace, trace, "artifact drifted — regenerate it");
}

#[test]
fn the_cycle_is_periodic_and_violates_only_maximality() {
    let trace = parse_trace(PINNED).expect("pinned trace parses");
    let entry = replay(&start(), &trace, Default::default()).expect("replays");
    let period: usize = header("period_rounds").parse().expect("period header");
    assert!(period > 1, "a period of 1 would be a fixpoint, not a cycle");

    let checker = GrpChecker::new(DMAX);
    let mut net = entry.clone();
    for round in 0..period {
        // Every configuration along the cycle (drained for the predicate,
        // which reads settled views) is illegitimate for the same reason:
        // ΠA and ΠS hold, ΠM does not — the boundary node's group and a
        // neighbouring group could merge but never do.
        let mut drained = net.clone();
        drain(&mut drained);
        let snap = snapshot_of(&drained);
        assert!(snap.agreement(), "round {round}: agreement should hold");
        assert!(snap.safety(DMAX), "round {round}: safety should hold");
        assert!(
            !snap.maximality(DMAX),
            "round {round}: maximality should be the violated predicate"
        );
        assert!(!checker.goal(&drained), "round {round}: not legitimate");
        synchronous_round(&mut net);
    }
    drain(&mut net);
    assert!(
        net.state_hash() == entry.state_hash(),
        "{period} synchronous rounds must return to the cycle entry"
    );
}

#[test]
fn a_staggered_schedule_escapes_the_oscillation() {
    // Same protocol, same topology, starting *inside* the cycle — but with
    // staggered compute timers: every node still broadcasts each sweep,
    // while only one node (round-robin) runs its compute step. This is the
    // timing regime real deployments live in, and it escapes: the boundary
    // node gets to observe a settled neighbourhood instead of two groups
    // reshaping simultaneously, and the run reaches a legitimate
    // configuration. The oscillation is a schedule artifact, not a
    // protocol defect — which is why it is encoded here as an accepted
    // fairness assumption rather than patched in `GrpNode::compute`.
    let trace = parse_trace(PINNED).expect("pinned trace parses");
    let entry = replay(&start(), &trace, Default::default()).expect("replays");
    let mut nodes = entry.nodes.clone();
    let edges: Vec<_> = entry.topology.edges().collect();
    let ids: Vec<_> = nodes.keys().copied().collect();

    let mut legitimate_at = None;
    for sweep in 0..40 {
        let messages: std::collections::BTreeMap<_, _> = nodes
            .iter()
            .map(|(&id, node)| (id, node.build_message()))
            .collect();
        for &(a, b) in &edges {
            let to_b = messages[&a].clone();
            let to_a = messages[&b].clone();
            nodes.get_mut(&b).unwrap().receive(to_b);
            nodes.get_mut(&a).unwrap().receive(to_a);
        }
        nodes.get_mut(&ids[sweep % ids.len()]).unwrap().on_round();

        let views = nodes
            .iter()
            .map(|(&id, n)| (id, n.view().clone()))
            .collect();
        let snap = grp_core::SystemSnapshot::new(entry.topology.clone(), views);
        if snap.legitimate(DMAX) {
            legitimate_at = Some(sweep);
            break;
        }
    }
    assert!(
        legitimate_at.is_some(),
        "the staggered schedule should escape the cycle within 40 sweeps"
    );
}
