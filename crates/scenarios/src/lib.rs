//! # scenarios — declarative scenario-conformance harness
//!
//! This crate turns the GRP reproduction into a conformance-testable
//! system: a scenario is a 20-line TOML manifest instead of a new Rust
//! module. A manifest declares
//!
//! * the workload — an explicit topology generator, or a mobility model
//!   plus a radio model (spatial mode);
//! * the protocol parameters (`Dmax`, ablation switches) and simulator
//!   timing (`τ1`/`τ2`, loss, delays, seeds);
//! * an optional transient-fault plan and a churn schedule (topology
//!   mutations between compute rounds);
//! * the predicates the run must satisfy: convergence deadlines, final
//!   legitimacy (ΠA/ΠS/ΠM), the best-effort continuity conformance ratio
//!   (ΠT ⇒ ΠC), group-count bounds, delivery-ratio floors;
//! * pinned golden trace digests — same manifest + same seed must
//!   reproduce byte-identical observable behaviour forever.
//!
//! The headless [`runner`] executes manifests and emits a machine-readable
//! [`result`]`.json` artifact per scenario; the `scenario-runner` binary
//! wraps this for CI. See `docs/SCENARIOS.md` for the manifest and result
//! schemas, and `tests/scenarios/` at the workspace root for the curated
//! suite.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod json;
pub mod manifest;
pub mod result;
pub mod runner;
pub mod toml;

pub use campaign::{
    emit_worst_case, parse_campaign_file, render_campaign_file, CampaignReport, CampaignScore,
    ScheduleSummary,
};
pub use manifest::{RunMode, ScenarioManifest, SCHEMA_VERSION};
pub use result::{
    stream_scenario, to_json, write_result, write_result_streaming, ResultWriter,
    RESULT_SCHEMA_VERSION,
};
pub use runner::{
    apply_churn_action, build_simulator, build_topology, drive_manifest, grp_config_of,
    run_scenario, run_scenario_with, run_seed, ScenarioOutcome,
};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Locate every `*.toml` manifest under a directory (sorted by file name,
/// so suite order is stable across platforms).
pub fn discover_manifests(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// What executing one manifest produced: the text destined for stdout and
/// stderr (buffered so parallel workers never interleave their output) and
/// the outcome itself. Workers run scenarios concurrently; reports are
/// printed afterwards in suite order, so `--jobs 1` and `--jobs N` emit
/// byte-identical output.
pub struct ManifestReport {
    pub path: PathBuf,
    pub stdout: String,
    pub stderr: String,
    pub outcome: Option<ScenarioOutcome>,
}

impl ManifestReport {
    /// Flush the buffered report to the real stdout/stderr.
    pub fn print(&self) {
        print!("{}", self.stdout);
        eprint!("{}", self.stderr);
    }
}

/// Load, execute and report one manifest: renders a PASS/FAIL line per
/// (scenario, seed) with failed-assertion details and writes the
/// `result.json` artifact. The outcome is `None` when the manifest cannot
/// be loaded or the artifact cannot be written (details in `stderr`).
/// Shared by the `scenario-runner` binary and the `grp-experiments
/// scenario` mode so the two CLIs cannot drift.
pub fn run_one(path: &Path, out_dir: &Path) -> ManifestReport {
    use std::fmt::Write as _;
    let mut report = ManifestReport {
        path: path.to_path_buf(),
        stdout: String::new(),
        stderr: String::new(),
        outcome: None,
    };
    let manifest = match ScenarioManifest::load(path) {
        Ok(m) => m,
        Err(err) => {
            let _ = writeln!(report.stderr, "{err}");
            return report;
        }
    };
    // the artifact streams per seed while the scenario executes; the bytes
    // are pinned byte-identical to the batch renderer's output
    let (artifact, outcome) = match result::write_result_streaming(&manifest, out_dir) {
        Ok(pair) => pair,
        Err(err) => {
            let _ = writeln!(
                report.stderr,
                "cannot write result for {}: {err}",
                manifest.name
            );
            return report;
        }
    };
    for run in &outcome.runs {
        let verdict = if run.pass { "PASS" } else { "FAIL" };
        let _ = writeln!(
            report.stdout,
            "{verdict} {name} seed={seed} rounds={rounds} groups={groups} converged={conv} digest={digest}",
            name = manifest.name,
            seed = run.seed,
            rounds = run.rounds,
            groups = run.final_snapshot.group_count(),
            conv = run
                .converged_round
                .map(|r| r.to_string())
                .unwrap_or_else(|| "never".into()),
            digest = &run.digest.to_hex()[..16],
        );
        for a in run.assertions.iter().filter(|a| !a.pass) {
            let _ = writeln!(
                report.stdout,
                "     ✗ {}: expected {}, observed {}",
                a.name, a.expected, a.observed
            );
        }
    }
    let _ = writeln!(report.stdout, "     wrote {}", artifact.display());
    report.outcome = Some(outcome);
    report
}

/// Back-compat wrapper around [`run_one`] that prints immediately.
pub fn execute_and_report(path: &Path, out_dir: &Path) -> Option<ScenarioOutcome> {
    let report = run_one(path, out_dir);
    report.print();
    report.outcome
}

/// Execute a batch of manifests on up to `jobs` worker threads (one
/// deterministic simulation pipeline per worker — every scenario owns its
/// RNGs, so concurrency cannot perturb any digest). Reports come back in
/// input order regardless of scheduling; nothing is printed here. Each
/// worker claims the next unclaimed manifest through an atomic index; a
/// panicking worker's panic is passed on to the caller.
pub fn run_suite(paths: &[PathBuf], out_dir: &Path, jobs: usize) -> Vec<ManifestReport> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(path) = paths.get(i) else {
                return done;
            };
            done.push((i, run_one(path, out_dir)));
        }
    };
    let mut reports: Vec<(usize, ManifestReport)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.clamp(1, paths.len().max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    reports.sort_by_key(|&(i, _)| i);
    reports.into_iter().map(|(_, report)| report).collect()
}

/// Did every assertion *except* the golden-digest pin pass? This is the
/// pass criterion while re-pinning digests with `--update-golden`: the old
/// pinned digest is expected to mismatch, but a failing behavioural
/// assertion must never be silently pinned over.
pub fn passes_ignoring_golden(outcome: &ScenarioOutcome) -> bool {
    outcome.runs.iter().all(|run| {
        run.assertions
            .iter()
            .filter(|a| a.name != "golden_digest")
            .all(|a| a.pass)
    })
}

/// The workspace-relative directory holding the curated scenario suite.
/// Resolved from the crate's manifest directory so tests work regardless of
/// the process working directory.
pub fn suite_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/scenarios")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("tests/scenarios"))
}
