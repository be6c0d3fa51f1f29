//! Property tests for the explorer itself: whatever instance it is pointed
//! at, exploration must be (1) deterministic — the verdict is a function of
//! the configuration, never of iteration order or hashing accidents — and
//! (2) honest — every trace it emits replays, step by enabled step, to the
//! exact state it claims to end in. Both properties are what lets a
//! `[golden]` digest pin an exhaustive verdict and a checked-in trace file
//! stay meaningful across refactors.

use dyngraph::generators::{complete, path, star};
use grp_core::GrpConfig;
use modelcheck::{
    check_corruptions, explore, fresh_net, verify_trace, ExploreConfig, FaultBudget, GrpChecker,
    McNet, Report,
};
use proptest::prelude::*;

/// The small-instance pool the properties sample from. Index 0..5.
fn instance(which: usize, dmax: usize) -> McNet<grp_core::GrpNode> {
    let config = GrpConfig::new(dmax);
    let topology = match which {
        0 => path(2),
        1 => path(3),
        2 => path(4),
        3 => complete(3),
        4 => star(4),
        _ => complete(4),
    };
    fresh_net(topology, &config)
}

fn config_for(seed: u64, depth: usize, max_states: usize) -> ExploreConfig {
    ExploreConfig {
        depth,
        max_states,
        budget: FaultBudget::default(),
        walks: 2,
        walk_depth: 32,
        seed,
    }
}

/// The counterexample (or convergence witness) a report carries, as
/// comparable data: the choice list plus the end hash.
fn emitted_trace(report: &Report) -> Option<(Vec<modelcheck::Choice>, String)> {
    report
        .trace()
        .map(|t| (t.choices.clone(), t.end_hash.to_hex()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same instance + same configuration ⇒ byte-for-byte the same verdict:
    /// visited count, goal count, depth reached, outcome, and the first
    /// emitted counterexample/witness trace.
    #[test]
    fn exploration_is_deterministic(
        which in 0usize..5,
        dmax in 1usize..3,
        seed in 0u64..1000,
    ) {
        let net = instance(which, dmax);
        let checker = GrpChecker::new(dmax);
        let config = config_for(seed, 16, 1200);
        let a = explore(&net, &checker, &config);
        let b = explore(&net, &checker, &config);
        prop_assert_eq!(a.visited, b.visited);
        prop_assert_eq!(a.goal_states, b.goal_states);
        prop_assert_eq!(a.max_depth, b.max_depth);
        prop_assert_eq!(a.tag(), b.tag());
        prop_assert_eq!(emitted_trace(&a), emitted_trace(&b));
    }

    /// Every trace the explorer emits — convergence witness or violation
    /// counterexample — replays from the initial configuration through
    /// enabled transitions only, and lands on exactly the claimed end hash.
    #[test]
    fn emitted_traces_replay_to_their_end_hash(
        which in 0usize..5,
        dmax in 1usize..3,
        seed in 0u64..1000,
    ) {
        let net = instance(which, dmax);
        let checker = GrpChecker::new(dmax);
        let config = config_for(seed, 16, 1200);
        let report = explore(&net, &checker, &config);
        if let Some(trace) = report.trace() {
            let end = verify_trace(&net, trace, config.budget);
            prop_assert!(end.is_ok(), "trace must replay: {}", end.unwrap_err());
        }
    }

    /// The corruption catalogue driver inherits determinism: the case
    /// order, every per-case verdict, and every per-case trace are a pure
    /// function of the base configuration and the explore config.
    #[test]
    fn corruption_sweeps_are_deterministic(
        dmax in 1usize..3,
        seed in 0u64..100,
    ) {
        let config = GrpConfig::new(dmax);
        let base = match modelcheck::legitimate_start(path(3), &config, 64) {
            Ok(net) => net,
            Err(_) => return Ok(()), // no stable sync start at this dmax
        };
        let checker = GrpChecker::new(dmax);
        let explore_config = config_for(seed, 16, 1200);
        let a = check_corruptions(&base, &checker, &explore_config, 1);
        let b = check_corruptions(&base, &checker, &explore_config, 1);
        prop_assert_eq!(a.len(), b.len());
        for (ca, cb) in a.iter().zip(&b) {
            prop_assert_eq!(&ca.victims, &cb.victims);
            prop_assert_eq!(ca.report.visited, cb.report.visited);
            prop_assert_eq!(emitted_trace(&ca.report), emitted_trace(&cb.report));
        }
    }
}
