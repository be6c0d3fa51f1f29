//! # experiments — the evaluation harness
//!
//! One module per table/figure of the evaluation, `e1_convergence` to
//! `e10_compat_ablation` below (each module doc names the paper claim it
//! measures). Every experiment
//!
//! * describes each GRP run as a [`scenarios::ScenarioManifest`] (in code,
//!   with [`ScenarioManifest::simulate`](scenarios::ScenarioManifest::simulate))
//!   and builds it through [`scenarios::build_simulator`], the code path
//!   the golden digests pin — except E5 and E6, whose GRP runs share a
//!   hand-built trace or graph with the baselines;
//! * evaluates the specification predicates each round;
//! * and returns [`report::Table`]s / [`report::TimeSeries`] that the
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
mod series;
mod stats;
mod table;

pub use report::{run_experiment, ExperimentOutput};
pub use runner::Scale;

/// The identifiers of every experiment, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];
