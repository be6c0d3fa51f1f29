//! The parent side: generate the manifests, run each repetition in a fresh
//! child process (one at a time), check every run, summarise.

use crate::expected::{same, Expected};
use crate::json::Json;
use crate::metrics::{self, BOUND, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::Summary;
use crate::workload::{Workload, DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Untraced runs per workload in `run`. The issue's seven took the full set
/// ~2.5 min of the 5 it may take; nine fit, and a longer set averages over
/// more of the box's slow phases.
const REPS: usize = 9;
/// Untraced runs a `--trace 1` measurement makes before its traced run.
const TRACE_BASELINE_REPS: usize = 3;
/// Version of the result files `run` writes and `compare` reads.
const RESULT_SCHEMA: i64 = 1;

#[derive(Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub quick: bool,
}

/// Where results, traces and scratch files land (`benchmark/out/`).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a pass of the pace kernel takes on the reference box when nothing
/// slows it: the fastest tenth of 428 readings lay below 0.0243 s.
const REFERENCE_PACE_S: f64 = 0.024;
/// The parent starts a pass of the pace kernel this long after the last one
/// ended, for as long as a child runs: ~a tenth of the CPU they share.
const PACE_GAP: Duration = Duration::from_millis(250);
/// How often the parent looks whether the child has ended.
const POLL: Duration = Duration::from_millis(5);

/// Set-up is the first thing a child times, over a block of ≥ 0.3 s: the
/// passes beside it are the first this many.
const SETUP_PASSES: usize = 3;

/// How fast the box was while one child ran, from the pace passes the
/// parent made beside it.
#[derive(Clone, Copy)]
struct Pace {
    /// Median pass, in seconds.
    pass_s: f64,
    /// Median of the first [`SETUP_PASSES`] passes. Over 27 runs of
    /// `metropolis` it left set-up a run-by-run spread of 8 % where the
    /// median of the whole run's passes left 17 %.
    setup_pass_s: f64,
    /// The share of the child's lifetime the passes took from it.
    duty: f64,
}

impl Pace {
    /// Seconds as the reference box at full pace would have measured them,
    /// from `seconds` on the child's clock: less the share the passes took,
    /// scaled down by how much slower than the reference the kernel ran
    /// (`pass_s`), to the power 1.5. The kernel is a small program and the
    /// box's slow phases hit the simulator harder: regressing a run's
    /// seconds on its median pass gave exponents of 1.1 – 1.6 by workload,
    /// and over four ten-seed passes of the driver's protocol 1.5 left the
    /// widest spread of any workload's `wall_s` at 10 %, where 1.25 left
    /// 16 % and 1 or 1.75 left 15 – 20 %. Why the compared times are these
    /// and not the clock's is in `README.md` (Noise).
    fn calibrated(self, seconds: f64, pass_s: f64) -> f64 {
        let factor = REFERENCE_PACE_S / pass_s;
        // factor^1.5 without `powf`: that would link libm into this binary,
        // which is the child's too, and add 0.3 MiB to every `peak_rss_mb`
        seconds * (1.0 - self.duty) * factor * factor.sqrt()
    }

    fn wall(self, seconds: f64) -> f64 {
        self.calibrated(seconds, self.pass_s)
    }

    fn setup(self, seconds: f64) -> f64 {
        self.calibrated(seconds, self.setup_pass_s)
    }
}

/// The measurements of one successful untraced run.
struct Rep {
    /// The two times calibrated by the pace beside the child.
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    /// The two times as the clock read them.
    raw_wall_s: f64,
    raw_setup_s: f64,
    pace: Pace,
}

/// Everything observed about one workload in one session.
struct WorkloadRun {
    workload: &'static Workload,
    manifest_path: PathBuf,
    reps: Vec<Rep>,
    /// The first run's digest and exact counters; every later run of the
    /// same manifest must reproduce them.
    digest: Option<String>,
    counters: Counters,
    /// Per-layer metrics of the traced run.
    layer: Option<Json>,
}

impl WorkloadRun {
    fn summary(&self, pick: fn(&Rep) -> f64) -> Option<Summary> {
        Summary::of(&self.reps.iter().map(pick).collect::<Vec<_>>())
    }

    fn end_to_end(&self) -> Option<[Summary; 3]> {
        Some([
            self.summary(|r| r.wall_s)?,
            self.summary(|r| r.setup_s)?,
            self.summary(|r| r.peak_rss_mb)?,
        ])
    }
}

struct Session {
    opts: Options,
    /// Hold every run to `expected.json`: the full profile at the default
    /// seed, unless the pins are what is being replaced.
    check_pins: bool,
    exe: PathBuf,
    /// Scratch directory of this process, removed when the session ends.
    scratch: PathBuf,
    expected: Expected,
    attempted: u64,
    failed: u64,
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

fn number(record: &Json, key: &str) -> Result<f64, String> {
    record
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child reported no `{key}`"))
}

/// Exact counters by metric name.
type Counters = Vec<(String, Json)>;

/// Read one `result.json`: the digest, the verdict and the exact counters
/// it carries. An artifact that does not parse is a failed run.
fn read_result(path: &Path) -> Result<(String, bool, Counters), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let run = doc
        .at("runs/0")
        .ok_or_else(|| format!("{}: no run recorded", path.display()))?;
    let digest = run
        .get("digest")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: run has no digest", path.display()))?
        .to_string();
    let pass = doc.get("pass").and_then(Json::as_bool).unwrap_or(false);
    // a null statistic (never converged, no resilience section) reads -1:
    // "not measured", which still has to repeat exactly
    let field = |path: &str| match run.at(path) {
        Some(Json::Null) | None => Json::Int(-1),
        Some(value) => value.clone(),
    };
    let counters = [
        ("engine.broadcasts", "stats/broadcasts"),
        ("engine.link_attempts", "stats/attempted"),
        ("engine.delivered", "stats/delivered"),
        ("engine.dropped", "stats/dropped"),
        ("engine.delivered_bytes", "stats/delivered_bytes"),
        ("protocol.converged_round", "converged_round"),
        ("protocol.groups_final", "final/groups"),
        ("protocol.view_continuity", "continuity/view_continuity"),
        ("protocol.availability", "resilience/availability"),
        ("protocol.max_mttr_rounds", "resilience/max_mttr_rounds"),
    ]
    .map(|(name, path)| (name.to_string(), field(path)))
    .to_vec();
    Ok((digest, pass, counters))
}

impl Session {
    fn new(opts: Options, repin: bool) -> Result<Session, String> {
        let scratch = out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        Ok(Session {
            opts,
            check_pins: !opts.quick && opts.seed == DEFAULT_SEED && !repin,
            exe: std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?,
            scratch,
            expected: Expected::embedded(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Generate the workload's manifest from the session seed.
    fn prepare(&self, workload: &'static Workload) -> Result<WorkloadRun, String> {
        let manifest_path = self.scratch.join(format!("{}.toml", workload.name));
        std::fs::write(
            &manifest_path,
            workload.manifest(self.opts.seed, self.opts.quick),
        )
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
        Ok(WorkloadRun {
            workload,
            manifest_path,
            reps: Vec::new(),
            digest: None,
            counters: Vec::new(),
            layer: None,
        })
    }

    /// Run this program's `child` subcommand to the end and parse the
    /// record it prints last. While the child runs, the parent makes a pass
    /// of the pace kernel every [`PACE_GAP`], on the CPU both are pinned to
    /// (`main::on_one_cpu`): the box changes speed within a run, so readings
    /// before and after it miss what a 4 s run went through (README, Noise).
    /// The child runs at the lowest priority, so a pass has the CPU to
    /// itself and reads as it would alone; the kernel runs here, in the
    /// parent, on a heap the program under test never touches.
    fn spawn_child(&self, args: &[&std::ffi::OsStr]) -> Result<(Json, Pace), String> {
        let started = Instant::now();
        let mut child = Command::new("nice")
            .args(["-n", "19"])
            .arg(&self.exe)
            .arg("child")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the child under nice: {e}"))?;
        let mut passes = Vec::new();
        let status = loop {
            passes.push(probes::pace_pass());
            let pass_ended = Instant::now();
            // the record is one line: the pipe never fills before the end
            let mut ended = child.try_wait();
            while matches!(ended, Ok(None)) && pass_ended.elapsed() < PACE_GAP {
                std::thread::sleep(POLL);
                ended = child.try_wait();
            }
            match ended {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("cannot wait for the child: {e}"));
                }
            }
        };
        let lifetime_s = started.elapsed().as_secs_f64();
        let mut stdout = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            std::io::Read::read_to_string(&mut pipe, &mut stdout)
                .map_err(|e| format!("cannot read the child's record: {e}"))?;
        }
        if !status.success() {
            return Err(format!("child ended with {status}"));
        }
        let last = stdout.lines().last().unwrap_or("");
        let record = Json::parse(last).map_err(|e| format!("child record: {e}"))?;
        let median = |passes: &[f64]| Summary::of(passes).expect("a pass is made first").median;
        let pace = Pace {
            pass_s: median(&passes),
            setup_pass_s: median(&passes[..passes.len().min(SETUP_PASSES)]),
            duty: passes.iter().sum::<f64>() / lifetime_s,
        };
        Ok((record, pace))
    }

    /// Check one run's digest and counters against the pins and against the
    /// earlier runs of this session.
    fn check(
        &self,
        run: &mut WorkloadRun,
        digest: String,
        counters: Counters,
    ) -> Result<(), String> {
        let mut problems = if self.check_pins {
            self.expected
                .mismatches(run.workload.name, &digest, &counters)
        } else {
            Vec::new()
        };
        match &run.digest {
            Some(first) if *first != digest => {
                problems.push(format!("digest {digest} != earlier run's {first}"));
            }
            _ => run.digest = Some(digest),
        }
        for (name, value) in counters {
            match run.counters.iter().find(|(seen, _)| *seen == name) {
                Some((_, earlier)) if !same(earlier, &value) => problems.push(format!(
                    "{name} = {} != earlier run's {}",
                    value.compact(),
                    earlier.compact()
                )),
                Some(_) => {}
                None => run.counters.push((name, value)),
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    fn try_untraced(&mut self, run: &mut WorkloadRun) -> Result<Rep, String> {
        let result_path = self
            .scratch
            .join(format!("{}.result.json", run.workload.name));
        let repeats = run.workload.setup_repeats(self.opts.quick).to_string();
        let (record, pace) = self.spawn_child(&[
            "--manifest".as_ref(),
            run.manifest_path.as_os_str(),
            "--result".as_ref(),
            result_path.as_os_str(),
            "--setup-repeats".as_ref(),
            repeats.as_ref(),
        ])?;
        let (digest, pass, mut counters) = read_result(&result_path)?;
        if !pass {
            return Err("a manifest assertion failed".to_string());
        }
        let bytes = std::fs::metadata(&result_path).map_or(0, |m| m.len());
        counters.push(("scenarios.result_bytes".to_string(), Json::from(bytes)));
        self.check(run, digest, counters)?;
        let raw_wall_s = number(&record, "wall_s")?;
        let raw_setup_s = number(&record, "setup_s")?;
        Ok(Rep {
            wall_s: pace.wall(raw_wall_s),
            setup_s: pace.setup(raw_setup_s),
            peak_rss_mb: number(&record, "peak_rss_mb")?,
            raw_wall_s,
            raw_setup_s,
            pace,
        })
    }

    /// One untraced repetition; a failure is counted and reported, its
    /// timings dropped.
    fn untraced(&mut self, run: &mut WorkloadRun) {
        self.attempted += 1;
        match self.try_untraced(run) {
            Ok(rep) => {
                eprintln!(
                    "{} rep {}: wall_s {:.4} (clock {:.4}) setup_s {:.6} (clock {:.6}) peak_rss_mb {:.2} pace_s {:.5} duty {:.3}",
                    run.workload.name,
                    run.reps.len() + 1,
                    rep.wall_s,
                    rep.raw_wall_s,
                    rep.setup_s,
                    rep.raw_setup_s,
                    rep.peak_rss_mb,
                    rep.pace.pass_s,
                    rep.pace.duty
                );
                run.reps.push(rep);
            }
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {} (untraced): {why}", run.workload.name);
            }
        }
    }

    fn try_traced(&mut self, run: &mut WorkloadRun) -> Result<Json, String> {
        let result_path = self
            .scratch
            .join(format!("{}.traced.result.json", run.workload.name));
        let trace_path = out_dir().join(format!("trace-{}.json", run.workload.name));
        let (record, pace) = self.spawn_child(&[
            "--manifest".as_ref(),
            run.manifest_path.as_os_str(),
            "--result".as_ref(),
            result_path.as_os_str(),
            "--trace".as_ref(),
            trace_path.as_os_str(),
        ])?;
        let (digest, _, _) = read_result(&result_path)?;
        let mut layer = record
            .get("layer")
            .cloned()
            .ok_or("child reported no `layer`")?;
        let counters = layer
            .fields()
            .iter()
            .filter(|(name, _)| metrics::per_layer(name).is_some_and(|m| m.exact))
            .cloned()
            .collect();
        self.check(run, digest, counters)?;

        let untraced_wall = run
            .summary(|r| r.wall_s)
            .ok_or("no untraced run to compare the traced run with")?;
        let traced_wall = pace.wall(number(&record, "wall_s")?);
        layer.set("trace.overhead", traced_wall / untraced_wall.median);
        layer.set("calib.pace_s", pace.pass_s);
        let bytes = run
            .counters
            .iter()
            .find(|(name, _)| name == "scenarios.result_bytes")
            .map_or(Json::Int(0), |(_, v)| v.clone());
        layer.set("scenarios.result_bytes", bytes);
        Ok(layer)
    }

    /// The traced run and the layer probes.
    fn traced(&mut self, run: &mut WorkloadRun) {
        self.attempted += 1;
        match self.try_traced(run) {
            Ok(layer) => run.layer = Some(layer),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {} (traced): {why}", run.workload.name);
            }
        }
    }
}

fn metric_json(value: &Json, unit: &str) -> Json {
    Json::object()
        .with("value", value.clone())
        .with("unit", unit)
}

/// The `per_layer` object of a result: every metric by name, with its unit.
fn layer_json(layer: &Json) -> Json {
    let mut out = Json::object();
    for metric in &PER_LAYER {
        if let Some(value) = layer.get(metric.name) {
            out.set(metric.name, metric_json(value, metric.unit));
        }
    }
    out
}

fn print_metric(workload: &str, name: &str, value: &Json, unit: &str, spread: Option<Summary>) {
    let text = match value {
        Json::Float(f) => format!("{f:.6}"),
        other => other.compact(),
    };
    match spread {
        Some(s) => println!(
            "{workload:<12} {name:<28} {text:>16} {unit:<6} min {:.6}  max {:.6}  n {}",
            s.min, s.max, s.n
        ),
        None => println!("{workload:<12} {name:<28} {text:>16} {unit}"),
    }
}

/// `run`: every workload, [`REPS`] untraced repetitions interleaved
/// round-robin (so a slow phase of the shared box spreads over all of
/// them), then one traced run each. Returns the result document.
pub fn run_all(opts: Options, update_expected: bool) -> Result<Json, String> {
    if update_expected && (opts.quick || opts.seed != DEFAULT_SEED) {
        return Err(format!(
            "--update-expected pins the full profile at the default seed {DEFAULT_SEED} only"
        ));
    }
    let mut session = Session::new(opts, update_expected)?;
    let mut runs = WORKLOADS
        .iter()
        .map(|w| session.prepare(w))
        .collect::<Result<Vec<_>, _>>()?;
    for _ in 0..REPS {
        for run in &mut runs {
            session.untraced(run);
        }
    }
    for run in &mut runs {
        eprintln!("traced {}", run.workload.name);
        session.traced(run);
    }

    if update_expected {
        // what must hold for a re-pin is that every run ended, passed its
        // assertions and agreed with the others
        if session.failed > 0 {
            return Err("a run failed: nothing re-pinned".to_string());
        }
        let mut expected = Expected::empty(opts.seed);
        for run in &runs {
            let (Some(digest), Some(_)) = (&run.digest, &run.layer) else {
                return Err(format!("{}: no complete run to pin", run.workload.name));
            };
            expected.pin(run.workload.name, digest, &run.counters);
        }
        std::fs::write(Expected::path(), expected.render())
            .map_err(|e| format!("cannot write {}: {e}", Expected::path().display()))?;
        eprintln!("re-pinned {}", Expected::path().display());
    }

    let mut workloads = Json::object();
    for run in &runs {
        let name = run.workload.name;
        let mut end_to_end = Json::object();
        if let Some(summaries) = run.end_to_end() {
            for (metric, summary) in END_TO_END.iter().zip(summaries) {
                end_to_end.set(metric.name, summary.to_json(metric.unit));
                print_metric(
                    name,
                    metric.name,
                    &Json::Float(summary.median),
                    metric.unit,
                    Some(summary),
                );
            }
        }
        // the two times as the clock read them, beside the compared ones
        let mut clock = Json::object();
        let clock_readings = [
            ("wall_s", run.summary(|r| r.raw_wall_s)),
            ("setup_s", run.summary(|r| r.raw_setup_s)),
        ];
        for (metric, raw) in clock_readings {
            let Some(raw) = raw else { continue };
            clock.set(metric, raw.to_json("s"));
            print_metric(
                name,
                &format!("{metric} (clock)"),
                &Json::Float(raw.median),
                "s",
                Some(raw),
            );
        }
        let per_layer = run.layer.as_ref().map(layer_json).unwrap_or(Json::object());
        for (metric, value) in per_layer.fields() {
            let unit = value.get("unit").and_then(Json::as_str).unwrap_or("");
            print_metric(
                name,
                metric,
                value.get("value").unwrap_or(&Json::Null),
                unit,
                None,
            );
        }
        workloads.set(
            name,
            Json::object()
                .with("digest", run.digest.clone())
                .with("end_to_end", end_to_end)
                .with("clock", clock)
                .with("per_layer", per_layer),
        );
    }
    println!(
        "runs_failed / runs_attempted = {} / {}",
        session.failed, session.attempted
    );
    Ok(Json::object()
        .with("schema", RESULT_SCHEMA)
        .with("quick", opts.quick)
        .with("seed", opts.seed)
        .with(
            "threads_available",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("runs_attempted", session.attempted)
        .with("runs_failed", session.failed)
        .with("workloads", workloads))
}

/// The driver contract: one workload, measured for `seconds`, one JSON
/// object on the last line. `--trace 0` prints the end-to-end metrics over
/// as many untraced repetitions as fit (at least two, so the digest is
/// checked run to run on any seed); `--trace 1` a few untraced runs and one
/// traced run, and prints the per-layer metrics. A failed run ends the
/// measurement; the line is printed all the same, `correct: false`, with
/// the metrics of the runs that did succeed.
pub fn drive(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(), String> {
    let opts = Options { seed, quick: false };
    let mut session = Session::new(opts, false)?;
    let mut run = session.prepare(workload)?;
    let mut metrics = Json::object();
    if traced {
        // the traced run is compared with the untraced median
        for _ in 0..TRACE_BASELINE_REPS {
            if session.failed == 0 {
                session.untraced(&mut run);
            }
        }
        if session.failed == 0 {
            session.traced(&mut run);
        }
        if let Some(layer) = &run.layer {
            metrics = layer_json(layer);
        }
    } else {
        let budget = Duration::from_secs(seconds);
        let started = Instant::now();
        loop {
            let rep_started = Instant::now();
            session.untraced(&mut run);
            // stop when another run of this length would not fit
            let full = started.elapsed() + rep_started.elapsed() > budget;
            if session.failed > 0 || (session.attempted >= 2 && full) {
                break;
            }
        }
        if let Some(summaries) = run.end_to_end() {
            for (metric, summary) in END_TO_END.iter().zip(summaries) {
                metrics.set(
                    metric.name,
                    metric_json(&Json::Float(summary.median), metric.unit),
                );
            }
        }
    }
    let line = Json::object()
        .with("correct", session.failed == 0)
        .with("attempted", session.attempted)
        .with("failed", session.failed)
        .with("metrics", metrics);
    println!("{}", line.compact());
    Ok(())
}

/// `compare`: per workload and metric, the change from `old` to `new`
/// against the bound; digests and exact counters must be equal. Returns
/// whether `new` is acceptable.
pub fn compare(old: &Json, new: &Json) -> Result<bool, String> {
    for (label, doc) in [("OLD", old), ("NEW", new)] {
        if doc.get("schema").and_then(Json::as_i64) != Some(RESULT_SCHEMA) {
            return Err(format!(
                "{label} is not a schema-{RESULT_SCHEMA} result file"
            ));
        }
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{label} is a --quick smoke result: its numbers are not comparable"
            ));
        }
    }
    let mut ok = true;
    for (label, doc) in [("OLD", old), ("NEW", new)] {
        let failed = doc.get("runs_failed").and_then(Json::as_i64).unwrap_or(-1);
        if failed != 0 {
            println!("FAIL {label}: runs_failed = {failed}");
            ok = false;
        }
    }
    let (old_seed, new_seed) = (old.get("seed"), new.get("seed"));
    let same_inputs = old_seed == new_seed;
    if !same_inputs {
        println!("note: seeds differ, so digests and counters are not compared");
    }
    for workload in &WORKLOADS {
        let name = workload.name;
        let path = |rest: &str| format!("workloads/{name}/{rest}");
        for metric in &END_TO_END {
            let value = |doc: &Json| {
                doc.at(&path(&format!("end_to_end/{}/value", metric.name)))?
                    .as_f64()
            };
            let (Some(before), Some(after)) = (value(old), value(new)) else {
                println!("FAIL {name:<12} {:<28} missing", metric.name);
                ok = false;
                continue;
            };
            let change = (after - before) / before;
            let verdict = if change > BOUND { "FAIL" } else { "ok" };
            ok &= change <= BOUND;
            println!(
                "{verdict:<4} {name:<12} {:<28} {before:>14.6} -> {after:>14.6} {:<4} {:+.2}% (bound +{:.0}%)",
                metric.name,
                metric.unit,
                change * 100.0,
                BOUND * 100.0
            );
        }
        if !same_inputs {
            continue;
        }
        let mut exact = vec![("digest".to_string(), path("digest"))];
        exact.extend(PER_LAYER.iter().filter(|m| m.exact).map(|m| {
            (
                m.name.to_string(),
                path(&format!("per_layer/{}/value", m.name)),
            )
        }));
        for (what, path) in exact {
            match (old.at(&path), new.at(&path)) {
                (Some(a), Some(b)) if same(a, b) => {}
                (a, b) => {
                    let show = |v: Option<&Json>| v.map_or("missing".to_string(), Json::compact);
                    println!("FAIL {name:<12} {what:<28} {} != {}", show(a), show(b));
                    ok = false;
                }
            }
        }
    }
    println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child;

    /// The traced run is the untraced run recomposed from public pieces:
    /// on every workload's smoke profile it must leave the same digest and
    /// the same simulated statistics in its `result.json`.
    #[test]
    fn traced_run_reproduces_the_untraced_digest_on_the_quick_profile() {
        let dir = out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for workload in &WORKLOADS {
            let text = workload.manifest(DEFAULT_SEED, true);
            let manifest_path = dir.join(format!("{}.toml", workload.name));
            std::fs::write(&manifest_path, &text).unwrap();

            let untraced_path = dir.join(format!("{}.result.json", workload.name));
            let record = child::run_untraced(&manifest_path, &untraced_path, 1).unwrap();
            assert_eq!(
                record.get("pass"),
                Some(&Json::Bool(true)),
                "{}",
                workload.name
            );
            for key in ["wall_s", "setup_s", "peak_rss_mb"] {
                assert!(
                    number(&record, key).unwrap() > 0.0,
                    "{}: {key}",
                    workload.name
                );
            }
            let (digest, pass, counters) = read_result(&untraced_path).unwrap();
            assert!(pass, "{}", workload.name);

            let traced_path = dir.join(format!("{}.traced.result.json", workload.name));
            let traced = child::traced_run(&text, &traced_path).unwrap();
            let (traced_digest, _, traced_counters) = read_result(&traced_path).unwrap();
            assert_eq!(digest, traced_digest, "{}", workload.name);
            assert_eq!(counters, traced_counters, "{}", workload.name);
            assert_eq!(traced.outcome.digest.to_hex(), digest);
            // every span was closed under the one that was open before it
            let spans = traced.tracer.spans();
            assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
            assert!(crate::trace::count(spans, "scenarios.parse") == 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A minimal result file: one value for every end-to-end metric of
    /// every workload, one exact counter.
    fn result_doc(wall_s: f64, events: i64, quick: bool) -> Json {
        let mut workloads = Json::object();
        for workload in &WORKLOADS {
            let mut end_to_end = Json::object();
            for metric in &END_TO_END {
                let value = if metric.name == "wall_s" { wall_s } else { 1.0 };
                end_to_end.set(metric.name, metric_json(&Json::Float(value), metric.unit));
            }
            let mut per_layer = Json::object();
            for metric in PER_LAYER.iter().filter(|m| m.exact) {
                per_layer.set(metric.name, metric_json(&Json::Int(events), metric.unit));
            }
            workloads.set(
                workload.name,
                Json::object()
                    .with("digest", "abcd")
                    .with("end_to_end", end_to_end)
                    .with("per_layer", per_layer),
            );
        }
        Json::object()
            .with("schema", RESULT_SCHEMA)
            .with("quick", quick)
            .with("seed", DEFAULT_SEED)
            .with("runs_failed", 0i64)
            .with("workloads", workloads)
    }

    #[test]
    fn compare_holds_times_to_the_bound_and_counters_to_equality() {
        let old = result_doc(2.0, 1000, false);
        assert_eq!(compare(&old, &old), Ok(true));
        // faster is always fine, slower only within the bound
        assert_eq!(compare(&old, &result_doc(1.0, 1000, false)), Ok(true));
        let within = 2.0 * (1.0 + BOUND) - 0.01;
        assert_eq!(compare(&old, &result_doc(within, 1000, false)), Ok(true));
        let beyond = 2.0 * (1.0 + BOUND) + 0.01;
        assert_eq!(compare(&old, &result_doc(beyond, 1000, false)), Ok(false));
        // an exact counter may not move at all
        assert_eq!(compare(&old, &result_doc(2.0, 1001, false)), Ok(false));
        // a failed run on either side fails the comparison
        let mut failed = old.clone();
        failed.set("runs_failed", 1i64);
        assert_eq!(compare(&old, &failed), Ok(false));
        // smoke results are refused outright
        assert!(compare(&old, &result_doc(2.0, 1000, true)).is_err());
        assert!(compare(&Json::object(), &old).is_err());
    }
}
