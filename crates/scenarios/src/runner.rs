//! The headless scenario runner.
//!
//! [`run_scenario`] turns a [`ScenarioManifest`] into simulator executions —
//! one per seed — evaluating the manifest's assertions on each and folding
//! the full observable behaviour (per-round topologies, message statistics
//! and every node's view) into a canonical [`TraceDigest`]. Same manifest +
//! same seed ⇒ byte-identical digest; that is the contract the golden-trace
//! regression tests pin.
//!
//! Since the observer redesign this module contains no drive loop of its
//! own: [`drive_manifest`] hands the manifest's churn schedule and an
//! [`Observer`] to `netsim`'s single observed event loop, and [`run_seed`]
//! composes the standard [`GrpPipeline`] (copy-on-write snapshot recorder +
//! convergence + continuity probes) on top of it.

use crate::campaign::{self, CampaignReport};
use crate::manifest::{
    AssertionSpec, ChurnAction, MobilitySpec, RadioSpec, RunMode, ScenarioManifest, StartSpec,
    WorkloadSpec,
};
use dyngraph::{NodeId, TopologyEvent};
use grp_core::observers::{GrpPipeline, ResilienceStats};
use grp_core::predicates::{OmegaPartition, SystemSnapshot};
use grp_core::{GrpConfig, GrpNode};
use modelcheck::{
    check_corruptions, check_pair_corruptions, explore, fresh_net, legitimate_start, snapshot_of,
    ExploreConfig, GrpChecker, Outcome, Report, Violation,
};
use netsim::mobility::{CityGrid, Highway, MixedHighway, RandomWalk, RandomWaypoint, Stationary};
use netsim::radio::{DistanceLossDisk, LossyDisk, UnitDisk};
use netsim::{
    CanonicalHasher, ChannelModel, Contention, MessageStats, Observer, SimConfig, Simulator,
    TopologyMode, TraceDigest,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Re-exported from `grp_core::observers`, where the streaming continuity
/// probe now lives.
pub use grp_core::observers::ContinuityStats;

/// The outcome of one assertion on one run.
#[derive(Clone, Debug)]
pub struct AssertionResult {
    pub name: String,
    pub expected: String,
    pub observed: String,
    pub pass: bool,
}

impl AssertionResult {
    pub(crate) fn new(
        name: &str,
        expected: impl ToString,
        observed: impl ToString,
        pass: bool,
    ) -> Self {
        AssertionResult {
            name: name.to_string(),
            expected: expected.to_string(),
            observed: observed.to_string(),
            pass,
        }
    }
}

/// One explored model-check case as reported in `result.json`.
#[derive(Clone, Debug)]
pub struct McCaseReport {
    /// The corrupted node, or `None` for the whole-net `start =
    /// "legitimate"` case.
    pub node: Option<u64>,
    /// The second corrupted node of a `start = "pair-corrupted"` case
    /// (`None` for single-node and legitimate starts).
    pub partner: Option<u64>,
    /// Corruption-catalogue variant name (or `"legitimate"`; pair cases
    /// join both victims' variants with `+`).
    pub variant: String,
    /// `"converged"`, `"cycle"`, `"stuck"`, `"invariant"` or `"bounds"`.
    pub outcome: String,
    pub converged: bool,
    pub visited: u64,
    pub goal_states: u64,
    pub max_depth: usize,
    /// Length of the witness/counterexample choice trace, if one exists.
    pub trace_len: Option<usize>,
}

/// The model-check section of one run: every explored case plus the
/// aggregate verdict. Deterministic given (manifest, seed), so it folds
/// into the golden digest.
#[derive(Clone, Debug, Default)]
pub struct McReport {
    /// `"legitimate"` or `"corrupted"` — which start the manifest chose.
    pub start: String,
    pub cases: Vec<McCaseReport>,
    pub total_visited: u64,
    pub all_converged: bool,
}

/// Everything observed while executing one (manifest, seed) pair.
pub struct RunOutcome {
    pub seed: u64,
    pub rounds: u64,
    pub nodes: usize,
    pub digest: TraceDigest,
    /// Index of the first snapshot of the closed legitimate suffix
    /// (`None` when the convergence probe is disabled via `[report]`).
    pub converged_round: Option<usize>,
    pub final_snapshot: SystemSnapshot,
    pub stats: MessageStats,
    pub continuity: ContinuityStats,
    /// Present iff the manifest enabled `[report] resilience = true` (or
    /// ran in `mode = "campaign"`, where the metrics are the verdict).
    pub resilience: Option<ResilienceStats>,
    /// Present iff the manifest ran in `mode = "modelcheck"`.
    pub modelcheck: Option<McReport>,
    /// Present iff the manifest ran in `mode = "campaign"`.
    pub campaign: Option<CampaignReport>,
    pub assertions: Vec<AssertionResult>,
    pub pass: bool,
}

/// A full scenario outcome: one run per seed.
pub struct ScenarioOutcome {
    pub manifest: ScenarioManifest,
    pub runs: Vec<RunOutcome>,
    pub pass: bool,
}

/// Execute every seed of a manifest.
pub fn run_scenario(manifest: &ScenarioManifest) -> ScenarioOutcome {
    run_scenario_with(manifest, |_, _| {})
}

/// Execute every seed of a manifest, handing each completed [`RunOutcome`]
/// (with its seed index) to `on_run` before the next seed starts — the
/// hook the streaming `result.json` writer feeds from.
pub fn run_scenario_with(
    manifest: &ScenarioManifest,
    mut on_run: impl FnMut(usize, &RunOutcome),
) -> ScenarioOutcome {
    let runs: Vec<RunOutcome> = manifest
        .sim
        .seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let run = run_seed(manifest, seed, manifest.golden.digests.get(i));
            on_run(i, &run);
            run
        })
        .collect();
    let pass = runs.iter().all(|r| r.pass);
    ScenarioOutcome {
        manifest: manifest.clone(),
        runs,
        pass,
    }
}

/// Topology mode plus the channel model a workload asks for. `None` keeps the
/// simulator's built-in [`netsim::Bernoulli`] default (the legacy behaviour,
/// byte-identical golden digests). Seeded generators fold the run seed in,
/// so different seeds explore different graphs.
fn build_mode(workload: &WorkloadSpec, seed: u64) -> (TopologyMode, Option<Box<dyn ChannelModel>>) {
    match workload {
        WorkloadSpec::Explicit(generator) => {
            (TopologyMode::Explicit(generator.generate(seed)), None)
        }
        WorkloadSpec::Spatial {
            mobility,
            radio,
            channel,
        } => {
            // placement randomness is separated from the simulator's channel
            // randomness so both streams stay reproducible
            let mut placement_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5ce0_a71e_5eed);
            let mobility: Box<dyn netsim::MobilityModel> = match *mobility {
                MobilitySpec::StationaryLine { n, spacing } => {
                    Box::new(Stationary::line(n, spacing))
                }
                MobilitySpec::StationaryUniform { n, width, height } => {
                    Box::new(Stationary::uniform(n, width, height, &mut placement_rng))
                }
                MobilitySpec::RandomWalk {
                    n,
                    width,
                    height,
                    max_step,
                } => Box::new(RandomWalk::new(
                    n,
                    width,
                    height,
                    max_step,
                    &mut placement_rng,
                )),
                MobilitySpec::Waypoint {
                    n,
                    width,
                    height,
                    speed_min,
                    speed_max,
                } => Box::new(RandomWaypoint::new(
                    n,
                    width,
                    height,
                    (speed_min, speed_max),
                    &mut placement_rng,
                )),
                MobilitySpec::Highway {
                    n,
                    lanes,
                    road_length,
                    initial_gap,
                    speed_min,
                    speed_max,
                } => Box::new(Highway::new(
                    n,
                    lanes,
                    road_length,
                    initial_gap,
                    (speed_min, speed_max),
                    &mut placement_rng,
                )),
                MobilitySpec::CityGrid {
                    n,
                    blocks,
                    block_size,
                    speed_min,
                    speed_max,
                    light_period,
                } => Box::new(CityGrid::new(
                    n,
                    blocks,
                    block_size,
                    (speed_min, speed_max),
                    light_period,
                    &mut placement_rng,
                )),
                MobilitySpec::MixedHighway {
                    n_roadside,
                    rsu_spacing,
                    rsu_setback,
                    n,
                    lanes,
                    road_length,
                    initial_gap,
                    speed_min,
                    speed_max,
                } => Box::new(MixedHighway::new(
                    n_roadside,
                    rsu_spacing,
                    rsu_setback,
                    n,
                    lanes,
                    road_length,
                    initial_gap,
                    (speed_min, speed_max),
                    &mut placement_rng,
                )),
            };
            let channel = channel.map(|c| Box::new(Contention::new(c)) as Box<dyn ChannelModel>);
            let radio: Box<dyn netsim::RadioModel> = match *radio {
                RadioSpec::UnitDisk { range } => Box::new(UnitDisk::new(range)),
                RadioSpec::LossyDisk { range, loss } => Box::new(LossyDisk::new(range, loss)),
                RadioSpec::DistanceLoss { range, edge_loss } => {
                    Box::new(DistanceLossDisk::new(range, edge_loss))
                }
            };
            (TopologyMode::Spatial { radio, mobility }, channel)
        }
    }
}

/// Build a ready-to-run simulator for one (manifest, seed) pair: topology or
/// mobility+radio, GRP nodes, and the scheduled fault plan, assembled with
/// [`Simulator::new`]. This is the one place a GRP simulator is
/// built from a workload description: the conformance runner and the
/// E1–E4 and E7–E10 experiments (which describe their runs with
/// [`ScenarioManifest::simulate`]) all start here.
pub fn build_simulator(manifest: &ScenarioManifest, seed: u64) -> Simulator<GrpNode> {
    let sim_spec = &manifest.sim;
    let config = SimConfig {
        send_period: sim_spec.send_period,
        compute_period: sim_spec.compute_period,
        mobility_period: sim_spec.mobility_period,
        delivery_delay: sim_spec.delivery_delay,
        loss_probability: sim_spec.loss,
        seed,
        stagger_phases: sim_spec.stagger_phases,
    };
    let (mode, channel) = build_mode(&manifest.workload, seed);
    let node_ids: Vec<NodeId> = match &mode {
        TopologyMode::Explicit(g) => g.node_vec(),
        TopologyMode::Spatial { .. } => (0..manifest.workload.node_count() as u64)
            .map(NodeId)
            .collect(),
    };
    let grp_config = &manifest.protocol;
    let mut sim = Simulator::new(config, mode);
    if let Some(channel) = channel {
        sim.set_channel(channel);
    }
    sim.add_nodes(
        node_ids
            .iter()
            .map(|&id| GrpNode::new(id, grp_config.clone())),
    );
    sim.schedule_faults(manifest.faults.iter().cloned());
    sim
}

/// The `GrpConfig` a manifest's `[protocol]` section describes, ablations
/// included.
pub fn grp_config_of(manifest: &ScenarioManifest) -> GrpConfig {
    manifest.protocol.clone()
}

/// Apply one churn action to a running simulator. [`drive_manifest`]
/// applies a manifest's schedule through it; it is public so tests can
/// replay a schedule by hand against the driven path.
pub fn apply_churn_action(
    sim: &mut Simulator<GrpNode>,
    action: &ChurnAction,
    grp_config: &GrpConfig,
) {
    match action {
        ChurnAction::LinkUp { a, b } => {
            sim.apply_topology_event(TopologyEvent::LinkUp(NodeId(*a), NodeId(*b)));
        }
        ChurnAction::LinkDown { a, b } => {
            sim.apply_topology_event(TopologyEvent::LinkDown(NodeId(*a), NodeId(*b)));
        }
        ChurnAction::NodeJoin { node, links } => {
            let id = NodeId(*node);
            if sim.protocol(id).is_none() {
                sim.add_node(GrpNode::new(id, grp_config.clone()));
            } else {
                // a re-joining node comes back with a fresh state
                if let Some(p) = sim.protocol_mut(id) {
                    p.reboot();
                }
                sim.set_active(id, true);
            }
            sim.apply_topology_event(TopologyEvent::NodeJoin(id));
            for &peer in links {
                sim.apply_topology_event(TopologyEvent::LinkUp(id, NodeId(peer)));
            }
        }
        ChurnAction::NodeLeave { node } => {
            let id = NodeId(*node);
            sim.apply_topology_event(TopologyEvent::NodeLeave(id));
            sim.set_active(id, false);
        }
    }
}

/// Drive a built simulator through a manifest's full round schedule:
/// churn actions are applied at their round boundaries and `obs` sees
/// every round. This is the *only* manifest drive path — the conformance
/// runner, the experiments and the tests all funnel through it into
/// `netsim`'s single observed event loop.
pub fn drive_manifest(
    sim: &mut Simulator<GrpNode>,
    manifest: &ScenarioManifest,
    obs: &mut dyn Observer<GrpNode>,
) {
    let mut churn = manifest.churn.iter().peekable();
    // `at_round` is relative to the manifest's own schedule; the driven
    // callback reports the simulator's *global* observed-round counter, so
    // rebase it in case the caller warmed the simulator up first
    let first_round = sim.rounds_completed();
    sim.run_rounds_driven(manifest.sim.rounds, obs, &mut |round, sim| {
        let manifest_round = round - first_round;
        while let Some(c) = churn.peek() {
            if c.at_round > manifest_round {
                break;
            }
            apply_churn_action(sim, &c.action, &manifest.protocol);
            churn.next();
        }
    });
    obs.on_run_end(sim);
}

/// Execute one seed. `golden` is the pinned digest for this seed, if any.
pub fn run_seed(manifest: &ScenarioManifest, seed: u64, golden: Option<&String>) -> RunOutcome {
    match manifest.mode {
        RunMode::ModelCheck => return run_modelcheck_seed(manifest, seed, golden),
        RunMode::Campaign => return campaign::run_campaign_seed(manifest, seed, golden),
        RunMode::Simulate => {}
    }
    let mut sim = build_simulator(manifest, seed);
    let dmax = manifest.protocol.dmax;
    let rounds = manifest.sim.rounds;

    // probes compose per the `[report]` toggles; an assertion that reads a
    // disabled probe was already rejected at manifest-parse time, so a
    // `None` below can never be asked for a verdict
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
    drive_manifest(&mut sim, manifest, &mut pipeline);
    let GrpPipeline {
        recorder,
        convergence,
        continuity,
        resilience,
    } = pipeline;

    // canonical digest: scenario identity, seed, the engine trace
    // (topologies + stats) and every node's view at every round — the
    // byte encoding is pinned by the golden scenario suite
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str(&manifest.name);
    hasher.feed_u64(seed);
    hasher.feed_u64(dmax as u64);
    recorder.feed_trace_digest(&mut hasher);
    recorder.feed_views_digest(&mut hasher);
    let digest = hasher.finalize();

    let final_snapshot = recorder
        .last_snapshot()
        .cloned()
        .unwrap_or_else(|| SystemSnapshot::from_simulator(&sim));
    let stats = sim.stats();
    let converged_round = convergence.and_then(|probe| probe.convergence_round());
    let continuity = continuity.map(|probe| probe.stats()).unwrap_or_default();
    let resilience = resilience.map(|probe| probe.into_stats());

    let assertions = evaluate_assertions(
        &manifest.assertions,
        manifest,
        converged_round,
        &final_snapshot,
        &continuity,
        &stats,
        None,
        &digest,
        golden,
    );
    let pass = assertions.iter().all(|a| a.pass);

    RunOutcome {
        seed,
        rounds,
        nodes: sim.node_ids().len(),
        digest,
        converged_round,
        final_snapshot,
        stats,
        continuity,
        resilience,
        modelcheck: None,
        campaign: None,
        assertions,
        pass,
    }
}

fn violation_tag(violation: &Violation) -> (&'static str, &modelcheck::Trace) {
    match violation {
        Violation::Invariant { trace, .. } => ("invariant", trace),
        Violation::Stuck { trace } => ("stuck", trace),
        Violation::Cycle { trace, .. } => ("cycle", trace),
    }
}

fn case_report(
    node: Option<u64>,
    partner: Option<u64>,
    variant: String,
    report: &Report,
) -> McCaseReport {
    let (outcome, trace_len) = match &report.outcome {
        Outcome::Converged => (
            "converged",
            report.witness.as_ref().map(|w| w.choices.len()),
        ),
        Outcome::Violation(v) => {
            let (tag, trace) = violation_tag(v);
            (tag, Some(trace.choices.len()))
        }
        Outcome::BoundsExceeded { .. } => {
            ("bounds", report.witness.as_ref().map(|w| w.choices.len()))
        }
    };
    McCaseReport {
        node,
        partner,
        variant,
        outcome: outcome.to_string(),
        converged: report.converged(),
        visited: report.visited,
        goal_states: report.goal_states,
        max_depth: report.max_depth,
        trace_len,
    }
}

/// Execute one seed in `mode = "modelcheck"`: warm the topology up to its
/// legitimate configuration synchronously, then run the bounded explorer
/// once per start case (the corruption catalogue, or the legitimate base
/// itself). The digest folds every case's verdict and state count, so the
/// `[golden]` pin mechanically freezes the exhaustively-verified claim —
/// "every enumerated corruption re-converges in exactly this state space".
fn run_modelcheck_seed(
    manifest: &ScenarioManifest,
    seed: u64,
    golden: Option<&String>,
) -> RunOutcome {
    let spec = manifest.modelcheck.clone().unwrap_or_default();
    let WorkloadSpec::Explicit(generator) = &manifest.workload else {
        unreachable!("parse-time validation rejects spatial modelcheck manifests");
    };
    let topology = generator.generate(seed);
    let nodes = topology.node_vec().len();
    let dmax = manifest.protocol.dmax;
    let grp_config = &manifest.protocol;
    let checker = GrpChecker::new(dmax);
    let explore_config = ExploreConfig {
        seed,
        ..spec.explore
    };
    let start_tag = match spec.start {
        StartSpec::Legitimate => "legitimate",
        StartSpec::Corrupted => "corrupted",
        StartSpec::PairCorrupted => "pair-corrupted",
    };

    let mut assertions = Vec::new();
    let (mc, final_snapshot) =
        match legitimate_start(topology.clone(), grp_config, spec.warmup_rounds) {
            Err(err) => {
                assertions.push(AssertionResult::new(
                    "modelcheck_warmup",
                    "a stable legitimate configuration",
                    err,
                    false,
                ));
                let report = McReport {
                    start: start_tag.to_string(),
                    ..McReport::default()
                };
                (report, snapshot_of(&fresh_net(topology, grp_config)))
            }
            Ok(base) => {
                let cases: Vec<McCaseReport> = match spec.start {
                    StartSpec::Corrupted => check_corruptions(&base, &checker, &explore_config)
                        .into_iter()
                        .map(|case| {
                            case_report(Some(case.node.raw()), None, case.variant, &case.report)
                        })
                        .collect(),
                    StartSpec::PairCorrupted => {
                        check_pair_corruptions(&base, &checker, &explore_config)
                            .into_iter()
                            .map(|case| {
                                case_report(
                                    Some(case.node.raw()),
                                    Some(case.partner.raw()),
                                    format!("{}+{}", case.variant, case.partner_variant),
                                    &case.report,
                                )
                            })
                            .collect()
                    }
                    StartSpec::Legitimate => {
                        let report = explore(&base, &checker, &explore_config);
                        vec![case_report(None, None, "legitimate".to_string(), &report)]
                    }
                };
                let report = McReport {
                    start: start_tag.to_string(),
                    total_visited: cases.iter().map(|c| c.visited).sum(),
                    all_converged: !cases.is_empty() && cases.iter().all(|c| c.converged),
                    cases,
                };
                (report, snapshot_of(&base))
            }
        };

    // the model-check digest: scenario identity, then every case's verdict
    // and exploration statistics, in catalogue order
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str(&manifest.name);
    hasher.feed_u64(seed);
    hasher.feed_u64(dmax as u64);
    hasher.begin_list("modelcheck");
    hasher.feed_str(&mc.start);
    for case in &mc.cases {
        // 0 = whole-net case; corrupted node ids are offset by one
        hasher.feed_u64(case.node.map(|n| n + 1).unwrap_or(0));
        // pair cases additionally fold the partner; single-node and
        // legitimate cases feed nothing here, keeping the historical
        // mc01–mc04 digests byte-identical
        if let Some(partner) = case.partner {
            hasher.feed_u64(partner + 1);
        }
        hasher.feed_str(&case.variant);
        hasher.feed_str(&case.outcome);
        hasher.feed_u64(case.visited);
        hasher.feed_u64(case.goal_states);
        hasher.feed_u64(case.max_depth as u64);
        hasher.feed_u64(case.trace_len.map(|l| l as u64 + 1).unwrap_or(0));
    }
    hasher.end_list();
    let digest = hasher.finalize();

    let stats = MessageStats::default();
    let continuity = ContinuityStats::default();
    assertions.extend(evaluate_assertions(
        &manifest.assertions,
        manifest,
        None,
        &final_snapshot,
        &continuity,
        &stats,
        Some(&mc),
        &digest,
        golden,
    ));
    let pass = assertions.iter().all(|a| a.pass);

    RunOutcome {
        seed,
        rounds: 0,
        nodes,
        digest,
        converged_round: None,
        final_snapshot,
        stats,
        continuity,
        resilience: None,
        modelcheck: Some(mc),
        campaign: None,
        assertions,
        pass,
    }
}

#[allow(clippy::too_many_arguments)]
fn evaluate_assertions(
    spec: &AssertionSpec,
    manifest: &ScenarioManifest,
    converged_round: Option<usize>,
    last: &SystemSnapshot,
    continuity: &ContinuityStats,
    stats: &MessageStats,
    mc: Option<&McReport>,
    digest: &TraceDigest,
    golden: Option<&String>,
) -> Vec<AssertionResult> {
    let dmax = manifest.protocol.dmax;
    // one partition of the final configuration answers every predicate
    // and group-count assertion
    let topology = &last.topology;
    let last = OmegaPartition::of(last);
    let mut results = Vec::new();

    if let Some(expected) = spec.reconverges {
        let observed = mc.map(|m| m.all_converged).unwrap_or(false);
        results.push(AssertionResult::new(
            "reconverges",
            expected,
            observed,
            observed == expected,
        ));
    }
    if let Some(bound) = spec.converged_by {
        let observed = match converged_round {
            Some(r) => r.to_string(),
            None => "never".to_string(),
        };
        let pass = converged_round.is_some_and(|r| r as u64 <= bound);
        results.push(AssertionResult::new(
            "converged_by",
            format!("<= {bound}"),
            observed,
            pass,
        ));
    }
    if let Some(bound) = spec.max_rounds {
        results.push(AssertionResult::new(
            "max_rounds",
            format!("<= {bound}"),
            manifest.sim.rounds,
            manifest.sim.rounds <= bound,
        ));
    }
    if let Some(threshold) = spec.view_continuity {
        let observed = continuity.view_continuity();
        results.push(AssertionResult::new(
            "view_continuity",
            format!(">= {threshold}"),
            format!("{observed:.4}"),
            observed >= threshold,
        ));
    }
    if let Some(expected) = spec.agreement {
        let observed = last.agreement();
        results.push(AssertionResult::new(
            "agreement",
            expected,
            observed,
            observed == expected,
        ));
    }
    if let Some(expected) = spec.safety {
        let observed = last.safety(topology, dmax);
        results.push(AssertionResult::new(
            "safety",
            expected,
            observed,
            observed == expected,
        ));
    }
    if let Some(expected) = spec.maximality {
        let observed = last.maximality(topology, dmax);
        results.push(AssertionResult::new(
            "maximality",
            expected,
            observed,
            observed == expected,
        ));
    }
    if let Some(expected) = spec.legitimate {
        let observed = last.legitimate(topology, dmax);
        results.push(AssertionResult::new(
            "legitimate",
            expected,
            observed,
            observed == expected,
        ));
    }
    let groups = last.group_count() as u64;
    if let Some(bound) = spec.min_groups {
        results.push(AssertionResult::new(
            "min_groups",
            format!(">= {bound}"),
            groups,
            groups >= bound,
        ));
    }
    if let Some(bound) = spec.max_groups {
        results.push(AssertionResult::new(
            "max_groups",
            format!("<= {bound}"),
            groups,
            groups <= bound,
        ));
    }
    if let Some(threshold) = spec.min_delivery_ratio {
        let observed = stats.delivery_ratio();
        results.push(AssertionResult::new(
            "min_delivery_ratio",
            format!(">= {threshold}"),
            format!("{observed:.4}"),
            observed >= threshold,
        ));
    }
    if let Some(golden) = golden {
        let observed = digest.to_hex();
        results.push(AssertionResult::new(
            "golden_digest",
            golden,
            &observed,
            &observed == golden,
        ));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(text: &str) -> ScenarioManifest {
        ScenarioManifest::parse(text).expect("manifest parses")
    }

    const LINE: &str = r#"
name = "unit-line"
[protocol]
dmax = 3
[sim]
seed = 7
rounds = 40
[topology]
kind = "path"
n = 4
[assertions]
legitimate = true
min_groups = 1
max_groups = 1
converged_by = 39
min_delivery_ratio = 0.9
"#;

    #[test]
    fn line_scenario_converges_and_passes() {
        let outcome = run_scenario(&manifest(LINE));
        assert_eq!(outcome.runs.len(), 1);
        let run = &outcome.runs[0];
        assert!(
            run.pass,
            "assertions: {:?}",
            run.assertions
                .iter()
                .map(|a| (&a.name, a.pass))
                .collect::<Vec<_>>()
        );
        assert!(run.converged_round.is_some());
        assert_eq!(run.nodes, 4);
        assert!(outcome.pass);
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let m = manifest(LINE);
        let a = run_seed(&m, 7, None);
        let b = run_seed(&m, 7, None);
        let c = run_seed(&m, 8, None);
        assert_eq!(
            a.digest, b.digest,
            "same manifest + seed ⇒ identical digest"
        );
        assert_ne!(a.digest, c.digest, "different seeds ⇒ different digests");
    }

    #[test]
    fn golden_digest_assertion_pins_behaviour() {
        let m = manifest(LINE);
        let first = run_seed(&m, 7, None);
        let hex = first.digest.to_hex();
        let pinned = run_seed(&m, 7, Some(&hex));
        assert!(pinned
            .assertions
            .iter()
            .any(|a| a.name == "golden_digest" && a.pass));
        let wrong = "0".repeat(64);
        let broken = run_seed(&m, 7, Some(&wrong));
        assert!(broken
            .assertions
            .iter()
            .any(|a| a.name == "golden_digest" && !a.pass));
        assert!(!broken.pass);
    }

    #[test]
    fn failing_assertion_fails_the_run() {
        let m = manifest(
            r#"
name = "will-fail"
[protocol]
dmax = 2
[sim]
rounds = 30
[topology]
kind = "path"
n = 8
[assertions]
max_groups = 1
"#,
        );
        // Dmax=2 over an 8-path cannot form one group
        let outcome = run_scenario(&m);
        assert!(!outcome.pass);
    }

    #[test]
    fn churn_schedule_mutates_topology() {
        let m = manifest(
            r#"
name = "churn-split"
[protocol]
dmax = 3
[sim]
rounds = 60
[topology]
kind = "path"
n = 4
[[churn]]
at_round = 30
action = "link_down"
a = 1
b = 2
[assertions]
min_groups = 2
"#,
        );
        let outcome = run_scenario(&m);
        assert!(outcome.pass, "the severed line must split into ≥ 2 groups");
    }

    /// `at_round` is manifest-relative: warming the simulator up through an
    /// observed entry point first must not shift (or burst-apply) the churn
    /// schedule.
    #[test]
    fn churn_rounds_are_manifest_relative_after_a_warmup() {
        use grp_core::observers::SnapshotRecorder;
        use netsim::NullObserver;

        let m = manifest(
            r#"
name = "warmup-churn"
[protocol]
dmax = 3
[sim]
rounds = 30
[topology]
kind = "path"
n = 4
[[churn]]
at_round = 10
action = "link_down"
a = 1
b = 2
"#,
        );
        let mut sim = build_simulator(&m, 3);
        // converge, through an observed entry point, so rounds_completed > 0
        sim.run_rounds_observed(40, &mut NullObserver);
        assert_eq!(sim.rounds_completed(), 40);

        let mut recorder = SnapshotRecorder::new();
        drive_manifest(&mut sim, &m, &mut recorder);
        assert_eq!(recorder.len(), 30);
        let groups: Vec<usize> = recorder.snapshots().map(|s| s.group_count()).collect();
        // the link stays up until manifest round 10: the converged line is
        // still one group right before the cut…
        assert_eq!(groups[9], 1, "group split before the scheduled round");
        // …and the severed line must have split by the end of the schedule
        assert!(groups[29] >= 2, "churn was never applied: {groups:?}");
    }

    #[test]
    fn report_toggles_disable_probes_without_panicking() {
        // the old pipeline unconditionally enabled both probes and then
        // `expect("enabled above")`-ed them back out; with `[report]` the
        // probes are genuinely optional, so this run must complete with
        // no convergence verdict and default continuity accounting
        let m = manifest(
            r#"
name = "no-probes"
[protocol]
dmax = 3
[sim]
rounds = 20
[topology]
kind = "path"
n = 3
[report]
convergence = false
continuity = false
[assertions]
legitimate = true
"#,
        );
        let run = run_seed(&m, 1, None);
        assert!(run.pass, "assertions: {:?}", run.assertions);
        assert_eq!(run.converged_round, None);
        assert_eq!(run.continuity.transitions, 0);
        // digests are probe-independent: the recorder alone feeds them
        let full = run_seed(&manifest(LINE), 7, None);
        let half = {
            let mut text = String::from(LINE);
            text.push_str("[report]\ncontinuity = false\n");
            run_seed(&manifest(&text), 7, None)
        };
        assert_eq!(full.digest, half.digest);
    }

    #[test]
    fn modelcheck_triangle_reconverges_exhaustively() {
        let m = manifest(
            r#"
name = "mc-unit-triangle"
mode = "modelcheck"
[protocol]
dmax = 2
[topology]
kind = "complete"
n = 3
[assertions]
reconverges = true
legitimate = true
"#,
        );
        let run = run_seed(&m, 1, None);
        assert!(run.pass, "assertions: {:?}", run.assertions);
        let mc = run.modelcheck.as_ref().expect("modelcheck section");
        assert_eq!(mc.start, "corrupted");
        assert_eq!(mc.cases.len(), 9, "3 nodes x 3 applicable variants");
        assert!(mc.all_converged);
        assert!(mc.cases.iter().all(|c| c.outcome == "converged"));
        assert!(mc.total_visited > 0);
        // the verdict is deterministic: same manifest + seed ⇒ same digest
        let again = run_seed(&m, 1, None);
        assert_eq!(run.digest, again.digest);
    }

    #[test]
    fn modelcheck_legitimate_start_is_a_goal_fixpoint() {
        let m = manifest(
            r#"
name = "mc-unit-legit"
mode = "modelcheck"
[protocol]
dmax = 1
[topology]
kind = "path"
n = 2
[modelcheck]
start = "legitimate"
[assertions]
reconverges = true
"#,
        );
        let run = run_seed(&m, 1, None);
        assert!(run.pass, "assertions: {:?}", run.assertions);
        let mc = run.modelcheck.as_ref().expect("modelcheck section");
        assert_eq!(mc.cases.len(), 1);
        assert_eq!(mc.cases[0].node, None);
        assert_eq!(mc.cases[0].variant, "legitimate");
        assert!(mc.all_converged);
    }

    #[test]
    fn modelcheck_warmup_failure_is_a_structured_assertion() {
        // path(4) at dmax = 1 never stabilizes under the synchronous
        // schedule (a benign period-2 internal cycle), so the warmup must
        // fail as a reported assertion rather than a panic
        let m = manifest(
            r#"
name = "mc-unit-nowarm"
mode = "modelcheck"
[protocol]
dmax = 1
[topology]
kind = "path"
n = 4
[modelcheck]
warmup_rounds = 16
[assertions]
reconverges = true
"#,
        );
        let run = run_seed(&m, 1, None);
        assert!(!run.pass);
        assert!(run
            .assertions
            .iter()
            .any(|a| a.name == "modelcheck_warmup" && !a.pass));
        assert!(run
            .assertions
            .iter()
            .any(|a| a.name == "reconverges" && !a.pass));
    }

    #[test]
    fn spatial_scenario_runs() {
        let m = manifest(
            r#"
name = "unit-spatial"
[protocol]
dmax = 3
[sim]
rounds = 30
[mobility]
kind = "stationary_line"
n = 4
spacing = 10.0
[radio]
kind = "unit_disk"
range = 12.0
[assertions]
legitimate = true
min_groups = 1
max_groups = 1
"#,
        );
        let outcome = run_scenario(&m);
        assert!(
            outcome.pass,
            "stationary line under unit disk behaves like a path"
        );
    }
}
