//! # modelcheck — a bounded state-space explorer for view protocols
//!
//! The paper's central claim is *self-stabilization*: started from an
//! arbitrary configuration, GRP converges to a legitimate one (ΠA ∧ ΠS ∧
//! ΠM) and stays there. The simulation scenarios sample that claim along
//! individual random executions; this crate checks it *mechanically* on
//! small instances by enumerating every fair schedule.
//!
//! The pieces:
//!
//! * [`McNet`] — a configuration: per-node protocol state (anything
//!   implementing [`netsim::CanonicalState`]), the in-flight message
//!   multiset, the crashed set, and per-node round counters;
//! * [`Choice`] — the scheduler's transition alphabet (deliver, compute,
//!   drop, duplicate, crash, reboot), with a stable textual form so traces
//!   can be checked in as files;
//! * [`explore()`] — exhaustive BFS with hash-based visited-state
//!   deduplication, goal-pruning at legitimate states, post-hoc acyclicity
//!   checking of the non-goal subgraph, and seeded random walks past the
//!   bounds ([`ExploreConfig`], [`Report`], [`Outcome`], [`Violation`]);
//! * [`replay`] / [`verify_trace`] — deterministic re-execution of a
//!   choice sequence, the format every counterexample is emitted in;
//! * [`grp`] — the GRP instantiation: legitimacy as the goal, the one
//!   synchronous driver ([`drain`], [`synchronous_round`]) and its lasso
//!   finder, which both warms a topology up to a legitimate start and
//!   pins the oscillation counterexample, and one corruption runner,
//!   [`check_corruptions`], over victim sets of 0, 1 or 2 nodes (the
//!   legitimate start, the single-node and the pair catalogue).
//!
//! Fairness is built into the transition rules rather than filtered after
//! the fact — see the [`state`] module docs — so every cycle the explorer
//! reports is an execution the simulator could actually produce. The rules
//! are spelled once, in [`McNet::enabled_choices`]; [`McNet::is_enabled`]
//! asks it.

#![forbid(unsafe_code)]

pub mod explore;
pub mod grp;
pub mod state;

pub use explore::{
    explore, verify_trace, Checker, ExploreConfig, Outcome, Report, Trace, Violation,
};
pub use grp::{
    check_corruptions, drain, find_synchronous_lasso, fresh_net, legitimate_start, snapshot_of,
    synchronous_round, CorruptionCase, GrpChecker, SyncLasso,
};
pub use state::{parse_trace, replay, Choice, FaultBudget, McNet, CHANNEL_CAP};
