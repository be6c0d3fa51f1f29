//! One measured run, in a process of its own: the parent spawns this
//! program again with the `child` subcommand, so every repetition starts
//! from a fresh heap and `VmHWM` is that run's peak alone.
//!
//! The untraced child is the real `scenario-runner` path — manifest text in,
//! `result.json` flushed and closed. The traced child recomposes the same
//! run from its public pieces with a span around each call into a layer.

use crate::api::{
    build_simulator, drive_manifest, run_seed, stream_scenario, CanonicalHasher, Graph, GrpNode,
    GrpPipeline, NodeId, Observer, ResultWriter, RunMode, RunOutcome, ScenarioManifest,
    ScheduledFault, SimTime, Simulator, TraceDigest,
};
use crate::json::Json;
use crate::probes;
use crate::procfs;
use crate::trace::{self, Tracer};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// What a statistic the run did not produce (never converged, no resilience
/// section) reads as; it still has to repeat exactly.
const NOT_MEASURED: i64 = -1;
/// Wall-clock cap on the protocol handler probe.
const HANDLER_PROBE_BUDGET: Duration = Duration::from_secs(3);

fn parse(text: &str) -> Result<ScenarioManifest, String> {
    ScenarioManifest::parse(text).map_err(|e| e.to_string())
}

fn first_seed(manifest: &ScenarioManifest) -> Result<u64, String> {
    manifest
        .sim
        .seeds
        .first()
        .copied()
        .ok_or_else(|| "manifest declares no seed".to_string())
}

/// Seconds per `parse` + `build_simulator`, over one timed block of
/// `repeats`.
fn setup_seconds(text: &str, repeats: u32) -> Result<f64, String> {
    let started = Instant::now();
    for _ in 0..repeats {
        let manifest = parse(black_box(text))?;
        let seed = first_seed(&manifest)?;
        black_box(build_simulator(&manifest, seed));
    }
    Ok(started.elapsed().as_secs_f64() / f64::from(repeats))
}

/// The untraced run: set-up timing first, then manifest text in →
/// `result.json` flushed and closed.
pub fn run_untraced(
    manifest_path: &Path,
    result_path: &Path,
    repeats: u32,
) -> Result<Json, String> {
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let setup_s = setup_seconds(&text, repeats)?;

    let io_err = |e: std::io::Error| format!("cannot write {}: {e}", result_path.display());
    let started = Instant::now();
    let manifest = parse(&text)?;
    let file = File::create(result_path).map_err(io_err)?;
    let (outcome, sink) = stream_scenario(&manifest, BufWriter::new(file)).map_err(io_err)?;
    // a BufWriter dropped with bytes pending loses the error: take the file back
    let file = sink.into_inner().map_err(|e| io_err(e.into_error()))?;
    drop(file);
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = procfs::peak_rss_mb();

    Ok(Json::object()
        .with("wall_s", wall_s)
        .with("setup_s", setup_s)
        .with("peak_rss_mb", peak_rss_mb)
        .with("pass", outcome.pass))
}

/// Wraps the standard pipeline: a span around every `on_round_end`, a count
/// at every other hook. Everything is forwarded, so the run is the run.
struct SpanObserver<'a> {
    inner: GrpPipeline,
    tracer: &'a mut Tracer,
    deliveries: u64,
    faults: u64,
    topology_changes: u64,
}

impl Observer<GrpNode> for SpanObserver<'_> {
    fn on_round_end(&mut self, round: u64, sim: &Simulator<GrpNode>) {
        let span = self.tracer.open("observers.round_end");
        self.inner.on_round_end(round, sim);
        self.tracer.close(span);
    }

    fn on_delivery(&mut self, from: NodeId, to: NodeId, size: usize, now: SimTime) {
        self.deliveries += 1;
        Observer::<GrpNode>::on_delivery(&mut self.inner, from, to, size, now);
    }

    fn on_fault(&mut self, fault: &ScheduledFault, sim: &Simulator<GrpNode>) {
        self.faults += 1;
        self.inner.on_fault(fault, sim);
    }

    fn on_topology_change(&mut self, now: SimTime) {
        self.topology_changes += 1;
        Observer::<GrpNode>::on_topology_change(&mut self.inner, now);
    }

    fn on_run_end(&mut self, sim: &Simulator<GrpNode>) {
        self.inner.on_run_end(sim);
    }
}

/// Counts the traced run made at the layer boundaries.
#[derive(Default)]
struct Counts {
    events: u64,
    deliveries: u64,
    faults: u64,
    topology_changes: u64,
    computes: u64,
    node_ticks: u64,
    node_rounds: u64,
    schedules: u64,
}

/// `run_seed` for `mode = "simulate"`, recomposed from its public pieces
/// with a span around each. Assertions are the one piece with no public
/// entry point; the untraced run is where they are checked.
fn traced_simulate(
    manifest: &ScenarioManifest,
    seed: u64,
    tracer: &mut Tracer,
) -> (RunOutcome, Counts, Graph) {
    let span = tracer.open("scenarios.build");
    let mut sim = build_simulator(manifest, seed);
    tracer.close(span);

    let dmax = manifest.protocol.dmax;
    let mut pipeline = GrpPipeline::new();
    if manifest.report.convergence {
        pipeline = pipeline.with_convergence(dmax);
    }
    if manifest.report.continuity {
        pipeline = pipeline.with_continuity(dmax);
    }
    if manifest.report.resilience {
        pipeline = pipeline.with_resilience(dmax);
    }
    let span = tracer.open("engine.drive");
    let mut observer = SpanObserver {
        inner: pipeline,
        tracer,
        deliveries: 0,
        faults: 0,
        topology_changes: 0,
    };
    drive_manifest(&mut sim, manifest, &mut observer);
    let SpanObserver {
        inner: pipeline,
        deliveries,
        faults,
        topology_changes,
        ..
    } = observer;
    tracer.close(span);

    let GrpPipeline {
        recorder,
        convergence,
        continuity,
        resilience,
    } = pipeline;
    let span = tracer.open("digest.fold");
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str(&manifest.name);
    hasher.feed_u64(seed);
    hasher.feed_u64(dmax as u64);
    recorder.feed_trace_digest(&mut hasher);
    recorder.feed_views_digest(&mut hasher);
    let digest: TraceDigest = hasher.finalize();
    tracer.close(span);

    let sim_spec = &manifest.sim;
    let nodes = sim.node_ids().len();
    let mobility_ticks = if topology_changes == 0 {
        0 // an explicit topology: nothing moves
    } else {
        sim_spec.rounds * sim_spec.compute_period / sim_spec.mobility_period.max(1)
    };
    let counts = Counts {
        events: sim.events_processed(),
        deliveries,
        faults,
        topology_changes,
        // an active node computes once a round; the recorder keeps active
        // nodes' views only
        computes: recorder
            .rounds()
            .iter()
            .map(|r| r.snapshot.views.len() as u64)
            .sum(),
        node_ticks: mobility_ticks * nodes as u64,
        node_rounds: sim_spec.rounds * nodes as u64,
        schedules: 0,
    };

    let outcome = RunOutcome {
        seed,
        rounds: sim_spec.rounds,
        nodes,
        digest,
        converged_round: convergence.and_then(|probe| probe.convergence_round()),
        final_snapshot: recorder
            .last_snapshot()
            .cloned()
            .expect("a manifest runs at least one round"),
        stats: sim.stats(),
        continuity: continuity.map(|probe| probe.stats()).unwrap_or_default(),
        resilience: resilience.map(|probe| probe.into_stats()),
        modelcheck: None,
        campaign: None,
        assertions: Vec::new(),
        pass: true,
    };
    (outcome, counts, sim.topology().clone())
}

/// What the traced run leaves behind for the probes and the metrics.
pub struct TracedRun {
    manifest: ScenarioManifest,
    seed: u64,
    pub outcome: RunOutcome,
    counts: Counts,
    /// The topology the run ended on.
    topology: Graph,
    pub tracer: Tracer,
    wall_s: f64,
    cpu_s: f64,
    ctx_switches: u64,
}

/// The traced run alone: manifest text in → `result.json` flushed and
/// closed, recomposed from public pieces with a span around each.
pub fn traced_run(text: &str, result_path: &Path) -> Result<TracedRun, String> {
    let io_err = |e: std::io::Error| format!("cannot write {}: {e}", result_path.display());
    let mut tracer = Tracer::new();
    let cpu_before = procfs::cpu_seconds();
    let ctx_before = procfs::ctx_switches();
    let started = Instant::now();

    let span = tracer.open("scenarios.parse");
    let manifest = parse(text)?;
    tracer.close(span);

    let span = tracer.open("scenarios.result_write");
    let file = File::create(result_path).map_err(io_err)?;
    let mut writer = ResultWriter::new(BufWriter::new(file), &manifest).map_err(io_err)?;
    tracer.close(span);

    // the generator writes one seed per manifest
    let seed = first_seed(&manifest)?;
    tracer.set_run(seed);
    let (outcome, counts, topology) = match manifest.mode {
        RunMode::Simulate => traced_simulate(&manifest, seed, &mut tracer),
        // traced at `run_seed` granularity only: no hooks inside, so the
        // reported (worst) schedule's stats stand in for the hook counts,
        // and its active nodes are all of them
        RunMode::Campaign => {
            let span = tracer.open("campaign.search");
            let outcome = run_seed(&manifest, seed, None);
            tracer.close(span);
            let counts = Counts {
                deliveries: outcome.stats.delivered,
                computes: outcome.rounds * outcome.nodes as u64,
                schedules: outcome
                    .campaign
                    .as_ref()
                    .map_or(0, |report| report.schedules.len() as u64),
                ..Counts::default()
            };
            let topology = build_simulator(&manifest, seed).topology().clone();
            (outcome, counts, topology)
        }
        RunMode::ModelCheck => return Err("no workload runs in modelcheck mode".to_string()),
    };
    let span = tracer.open("scenarios.result_write");
    writer.write_run(&outcome, None).map_err(io_err)?;
    let sink = writer.finish(outcome.pass).map_err(io_err)?;
    let file = sink.into_inner().map_err(|e| io_err(e.into_error()))?;
    drop(file);
    tracer.close(span);

    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds()
        .zip(cpu_before)
        .map_or(0.0, |(after, before)| after - before);
    let ctx_switches = procfs::ctx_switches()
        .zip(ctx_before)
        .map_or(0, |(after, before)| after - before);
    Ok(TracedRun {
        manifest,
        seed,
        outcome,
        counts,
        topology,
        tracer,
        wall_s,
        cpu_s,
        ctx_switches,
    })
}

/// The traced run plus the layer probes. Writes the spans to `trace_path`
/// and returns every per-layer metric the child can see.
pub fn run_traced(
    manifest_path: &Path,
    result_path: &Path,
    trace_path: &Path,
) -> Result<Json, String> {
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let TracedRun {
        manifest,
        seed,
        outcome,
        counts,
        topology,
        tracer,
        wall_s,
        cpu_s,
        ctx_switches,
    } = traced_run(&text, result_path)?;
    std::fs::write(trace_path, tracer.to_json().compact())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    // probes, on the topology the traced run ended on
    let handlers = probes::handler_costs(&topology, &manifest, HANDLER_PROBE_BUDGET);
    let (bernoulli_ns, contention_ns) =
        probes::channel_link_ns(topology.mean_degree(), manifest.sim.send_period);
    let (kernel_s, sha_mb_per_s) = probes::calibration();
    let build_s = if manifest.mode == RunMode::Campaign {
        // the searcher builds once for the node list and once per schedule;
        // those calls sit inside `run_seed`, so estimate: probe cost × count
        let repeats = 200;
        let t = Instant::now();
        for _ in 0..repeats {
            black_box(build_simulator(&manifest, seed));
        }
        t.elapsed().as_secs_f64() / f64::from(repeats) * (counts.schedules + 1) as f64
    } else {
        trace::self_seconds(tracer.spans(), "scenarios.build")
    };

    let spans = tracer.spans();
    let stats = outcome.stats;
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let drive_s = trace::self_seconds(spans, "engine.drive");
    let est_s = (handlers.on_message_ns * counts.deliveries as f64
        + handlers.on_compute_ns * counts.computes as f64
        + handlers.on_send_ns * stats.broadcasts as f64)
        / 1e9;
    let net_s = (drive_s - est_s).max(0.0);
    let round_end_s = trace::self_seconds(spans, "observers.round_end");
    let search_s = trace::self_seconds(spans, "campaign.search");
    let resilience = outcome.resilience.as_ref();

    let layer = Json::object()
        .with(
            "scenarios.parse_s",
            trace::self_seconds(spans, "scenarios.parse"),
        )
        .with("scenarios.build_s", build_s)
        .with(
            "scenarios.result_write_s",
            trace::self_seconds(spans, "scenarios.result_write"),
        )
        .with("campaign.search_s", search_s)
        .with("campaign.schedules", counts.schedules)
        .with(
            "campaign.ms_per_schedule",
            per(search_s * 1e3, counts.schedules),
        )
        .with("engine.drive_s", drive_s)
        .with("engine.events", counts.events)
        .with("engine.us_per_event", per(drive_s * 1e6, counts.events))
        .with("engine.broadcasts", stats.broadcasts)
        .with("engine.link_attempts", stats.attempted)
        .with("engine.delivered", stats.delivered)
        .with("engine.dropped", stats.dropped)
        .with("engine.delivered_bytes", stats.delivered_bytes)
        .with("engine.node_ticks", counts.node_ticks)
        .with("engine.topology_changes", counts.topology_changes)
        .with("engine.faults_applied", counts.faults)
        .with("engine.net_s", net_s)
        .with(
            "engine.us_per_link_attempt",
            per(net_s * 1e6, stats.attempted),
        )
        .with(
            "engine.us_per_node_tick",
            per(net_s * 1e6, counts.node_ticks),
        )
        .with("channel.bernoulli_link_ns", bernoulli_ns)
        .with("channel.contention_link_ns", contention_ns)
        .with(
            "channel.delivery_ratio",
            per(stats.delivered as f64, stats.attempted),
        )
        .with("protocol.on_message_ns", handlers.on_message_ns)
        .with("protocol.on_compute_ns", handlers.on_compute_ns)
        .with("protocol.on_send_ns", handlers.on_send_ns)
        .with("protocol.est_s", est_s)
        .with(
            "protocol.bytes_per_message",
            per(stats.delivered_bytes as f64, stats.delivered),
        )
        .with(
            "protocol.converged_round",
            outcome.converged_round.map_or(NOT_MEASURED, |r| r as i64),
        )
        .with(
            "protocol.groups_final",
            outcome.final_snapshot.group_count(),
        )
        .with(
            "protocol.view_continuity",
            outcome.continuity.view_continuity(),
        )
        .with(
            "protocol.availability",
            resilience.map_or(NOT_MEASURED as f64, |r| r.availability()),
        )
        .with(
            "protocol.max_mttr_rounds",
            resilience
                .and_then(|r| r.max_mttr_rounds())
                .map_or(NOT_MEASURED, |r| r as i64),
        )
        .with("observers.round_end_s", round_end_s)
        .with(
            "observers.rounds",
            trace::count(spans, "observers.round_end"),
        )
        .with(
            "observers.us_per_node_round",
            per(round_end_s * 1e6, counts.node_rounds),
        )
        .with("digest.fold_s", trace::self_seconds(spans, "digest.fold"))
        .with("digest.sha_mb_per_s", sha_mb_per_s)
        .with("proc.cpu_s", cpu_s)
        .with("proc.cpu_over_wall", cpu_s / wall_s)
        .with("proc.ctx_switches", ctx_switches)
        .with("calib.kernel_s", kernel_s);

    Ok(Json::object().with("wall_s", wall_s).with("layer", layer))
}

/// Print the child's record as the last line of stdout.
pub fn emit(record: &Json) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", record.compact());
    let _ = out.flush();
}
