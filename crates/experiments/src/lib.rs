//! # experiments — the evaluation harness
//!
//! One module per table/figure of the evaluation, `e1_convergence` to
//! `e10_compat_ablation` below (each module doc names the paper claim it
//! measures). Every experiment
//!
//! * builds its workload from the `dyngraph` generators or a `netsim`
//!   mobility model,
//! * runs GRP (and, where relevant, the baselines) on the simulator,
//! * evaluates the specification predicates each round,
//! * and returns [`metrics::Table`]s / [`metrics::TimeSeries`] that the
//!   `grp-experiments` binary prints and writes under `results/`.
//!
//! All experiments accept a [`Scale`] so the same code serves the full
//! evaluation (`cargo run -p experiments --release -- all`) and the quick
//! smoke-check used by integration tests.

#![forbid(unsafe_code)]

pub mod e10_compat_ablation;
pub mod e1_convergence;
pub mod e2_formation;
pub mod e3_predicates;
pub mod e4_continuity;
pub mod e5_churn;
pub mod e6_overhead;
pub mod e7_faults;
pub mod e8_merge;
pub mod e9_quarantine_ablation;
pub mod report;
pub mod runner;

pub use report::{run_experiment, ExperimentOutput};
pub use runner::{GrpRun, Scale};

/// The identifiers of every experiment, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];
