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
//! [`Observer`] to `netsim`'s single observed event loop. One simulate
//! core drives the one per-round recorder, [`GrpPipeline`] (shared-view
//! snapshot recorder + convergence detector + continuity and resilience
//! probes), on top of it, for a simulate seed and for every campaign
//! schedule alike; [`run_seed`] digests and judges every mode's outcome.

use crate::campaign::{self, CampaignReport};
use crate::manifest::{
    ChannelSpec, ChurnAction, MobilitySpec, RunMode, ScenarioManifest, WorkloadSpec,
};
use dyngraph::{NodeId, TopologyEvent};
use grp_core::observers::{GrpPipeline, ResilienceStats, SnapshotRecorder};
use grp_core::predicates::{OmegaPartition, SystemSnapshot};
use grp_core::{GrpConfig, GrpNode};
use modelcheck::{
    check_corruptions, fresh_net, legitimate_start, snapshot_of, CorruptionCase, ExploreConfig,
    GrpChecker,
};
use netsim::mobility::{CityGrid, Highway, MixedHighway, RandomWalk, RandomWaypoint, Stationary};
use netsim::{
    Bernoulli, CanonicalHasher, ChannelModel, Contention, MessageStats, Observer, ScheduledFault,
    SimConfig, Simulator, TopologyMode, TraceDigest,
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
    /// The first corrupted node, or `None` for the whole-net `start =
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
    /// `"legitimate"`, `"corrupted"` or `"pair-corrupted"` — which start
    /// the manifest chose.
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

/// Topology mode plus the channel model a workload asks for: an explicit
/// topology runs on the [`Bernoulli`] default. Seeded generators fold the
/// run seed in, so different seeds explore different graphs.
fn build_mode(workload: &WorkloadSpec, seed: u64) -> (TopologyMode, Box<dyn ChannelModel>) {
    match workload {
        WorkloadSpec::Explicit(generator) => (
            TopologyMode::Explicit(generator.generate(seed)),
            Box::new(Bernoulli),
        ),
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
            let channel: Box<dyn ChannelModel> = match *channel {
                ChannelSpec::Bernoulli => Box::new(Bernoulli),
                ChannelSpec::DistanceLoss(channel) => Box::new(channel),
                ChannelSpec::Contention(cfg) => Box::new(Contention::new(cfg)),
            };
            let mode = TopologyMode::Spatial {
                radio: *radio,
                mobility,
            };
            (mode, channel)
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
    sim.set_channel(channel);
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
/// Every mode starts its digest from the scenario identity (name, seed,
/// `dmax`) and appends its own section; the assembled outcome is then
/// judged by one assertion pass, after any mode-specific results.
pub fn run_seed(manifest: &ScenarioManifest, seed: u64, golden: Option<&String>) -> RunOutcome {
    // the byte encoding of every digest is pinned by the golden scenario
    // suite
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str(&manifest.name);
    hasher.feed_u64(seed);
    hasher.feed_u64(manifest.protocol.dmax as u64);
    let mut run = match manifest.mode {
        RunMode::Simulate => {
            // the engine trace (topologies + stats) and every node's view
            // at every round
            let (run, recorder) = simulate(manifest, seed, &[]);
            recorder.feed_trace_digest(&mut hasher);
            recorder.feed_views_digest(&mut hasher);
            run
        }
        RunMode::ModelCheck => run_modelcheck_seed(manifest, seed, &mut hasher),
        RunMode::Campaign => campaign::run_campaign_seed(manifest, seed, &mut hasher),
    };
    run.digest = hasher.finalize();
    let assertions = evaluate_assertions(manifest, &run, golden);
    run.assertions.extend(assertions);
    run.pass = run.assertions.iter().all(|a| a.pass);
    run
}

/// The simulate core, the one place a seed is simulated: build the
/// simulator, schedule `extra_faults` after the manifest's own, compose
/// the [`GrpPipeline`] the `[report]` toggles ask for (a campaign always
/// gets resilience too: it scores schedules by it) and drive the
/// manifest. The outcome has no digest and no assertions yet —
/// [`run_seed`] adds both — and comes with the recorder that feeds the
/// digest.
pub(crate) fn simulate(
    manifest: &ScenarioManifest,
    seed: u64,
    extra_faults: &[ScheduledFault],
) -> (RunOutcome, SnapshotRecorder) {
    let mut sim = build_simulator(manifest, seed);
    sim.schedule_faults(extra_faults.iter().cloned());
    let dmax = manifest.protocol.dmax;
    // an assertion that reads a disabled probe was already rejected at
    // manifest-parse time, so a `None` below can never be asked for a
    // verdict
    let mut pipeline = GrpPipeline::new();
    if manifest.report.convergence {
        pipeline = pipeline.with_convergence(dmax);
    }
    if manifest.report.continuity {
        pipeline = pipeline.with_continuity(dmax);
    }
    if manifest.report.resilience || manifest.mode == RunMode::Campaign {
        pipeline = pipeline.with_resilience(dmax);
    }
    drive_manifest(&mut sim, manifest, &mut pipeline);
    let GrpPipeline {
        recorder,
        convergence,
        continuity,
        resilience,
    } = pipeline;
    let run = RunOutcome {
        seed,
        rounds: manifest.sim.rounds,
        nodes: sim.node_ids().len(),
        digest: UNSET_DIGEST,
        converged_round: convergence.and_then(|detector| detector.convergence_round()),
        final_snapshot: recorder
            .last_snapshot()
            .cloned()
            .unwrap_or_else(|| SystemSnapshot::from_simulator(&sim)),
        stats: sim.stats(),
        continuity: continuity.map(|probe| probe.stats()).unwrap_or_default(),
        resilience: resilience.map(|probe| probe.into_stats()),
        modelcheck: None,
        campaign: None,
        assertions: Vec::new(),
        pass: true,
    };
    (run, recorder)
}

/// The digest of an outcome whose mode has not yet been digested:
/// [`run_seed`] replaces it before anyone reads it.
const UNSET_DIGEST: TraceDigest = TraceDigest([0; 32]);

impl From<CorruptionCase> for McCaseReport {
    fn from(case: CorruptionCase) -> Self {
        let (nodes, variants): (Vec<NodeId>, Vec<String>) = case.victims.into_iter().unzip();
        let report = &case.report;
        McCaseReport {
            node: nodes.first().map(|id| id.raw()),
            partner: nodes.get(1).map(|id| id.raw()),
            variant: if variants.is_empty() {
                "legitimate".to_string()
            } else {
                variants.join("+")
            },
            outcome: report.tag().to_string(),
            converged: report.converged(),
            visited: report.visited,
            goal_states: report.goal_states,
            max_depth: report.max_depth,
            trace_len: report.trace().map(|t| t.choices.len()),
        }
    }
}

/// Execute one seed in `mode = "modelcheck"`: warm the topology up to its
/// legitimate configuration synchronously, then run the bounded explorer
/// once per case of [`check_corruptions`] over the start's 0, 1 or 2
/// victims (the legitimate base itself, or a corruption catalogue). The digest folds every case's verdict and state count, so the
/// `[golden]` pin mechanically freezes the exhaustively-verified claim —
/// "every enumerated corruption re-converges in exactly this state space".
fn run_modelcheck_seed(
    manifest: &ScenarioManifest,
    seed: u64,
    hasher: &mut CanonicalHasher,
) -> RunOutcome {
    let spec = manifest.modelcheck.clone().unwrap_or_default();
    let WorkloadSpec::Explicit(generator) = &manifest.workload else {
        unreachable!("parse-time validation rejects spatial modelcheck manifests");
    };
    let topology = generator.generate(seed);
    let nodes = topology.node_vec().len();
    let grp_config = &manifest.protocol;
    let checker = GrpChecker::new(grp_config.dmax);
    let explore_config = ExploreConfig {
        seed,
        ..spec.explore
    };

    let mut assertions = Vec::new();
    let (cases, final_snapshot): (Vec<McCaseReport>, _) =
        match legitimate_start(topology.clone(), grp_config, spec.warmup_rounds) {
            Err(err) => {
                assertions.push(AssertionResult::new(
                    "modelcheck_warmup",
                    "a stable legitimate configuration",
                    err,
                    false,
                ));
                (Vec::new(), snapshot_of(&fresh_net(topology, grp_config)))
            }
            Ok(base) => {
                let victims = spec.start.victims();
                let cases = check_corruptions(&base, &checker, &explore_config, victims);
                (
                    cases.into_iter().map(McCaseReport::from).collect(),
                    snapshot_of(&base),
                )
            }
        };
    let mc = McReport {
        start: spec.start.name().to_string(),
        total_visited: cases.iter().map(|c| c.visited).sum(),
        all_converged: !cases.is_empty() && cases.iter().all(|c| c.converged),
        cases,
    };

    // the model-check digest section: every case's verdict and
    // exploration statistics, in catalogue order
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

    RunOutcome {
        seed,
        rounds: 0,
        nodes,
        digest: UNSET_DIGEST,
        converged_round: None,
        final_snapshot,
        stats: MessageStats::default(),
        continuity: ContinuityStats::default(),
        resilience: None,
        modelcheck: Some(mc),
        campaign: None,
        assertions,
        pass: true,
    }
}

/// The one assertion pass: judge the manifest's `[assertions]` on a
/// run's assembled outcome, in a fixed order, the golden pin last.
fn evaluate_assertions(
    manifest: &ScenarioManifest,
    run: &RunOutcome,
    golden: Option<&String>,
) -> Vec<AssertionResult> {
    let spec = &manifest.assertions;
    let dmax = manifest.protocol.dmax;
    // one partition of the final configuration answers every predicate
    // and group-count assertion
    let topology = &run.final_snapshot.topology;
    let last = OmegaPartition::of(&run.final_snapshot);
    let mut results = Vec::new();

    if let Some(expected) = spec.reconverges {
        let observed = run.modelcheck.as_ref().is_some_and(|m| m.all_converged);
        results.push(AssertionResult::new(
            "reconverges",
            expected,
            observed,
            observed == expected,
        ));
    }
    if let Some(bound) = spec.converged_by {
        let observed = match run.converged_round {
            Some(r) => r.to_string(),
            None => "never".to_string(),
        };
        let pass = run.converged_round.is_some_and(|r| r as u64 <= bound);
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
        let observed = run.continuity.view_continuity();
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
        let observed = run.stats.delivery_ratio();
        results.push(AssertionResult::new(
            "min_delivery_ratio",
            format!(">= {threshold}"),
            format!("{observed:.4}"),
            observed >= threshold,
        ));
    }
    if let Some(golden) = golden {
        let observed = run.digest.to_hex();
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
    fn modelcheck_legitimate_start_on_no_nodes_explores_the_empty_configuration() {
        let m = manifest(
            r#"
name = "mc-unit-empty"
mode = "modelcheck"
[topology]
kind = "path"
n = 0
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
        assert_eq!(
            (mc.cases[0].variant.as_str(), mc.total_visited),
            ("legitimate", 1)
        );
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
        let warmup = run
            .assertions
            .iter()
            .find(|a| a.name == "modelcheck_warmup")
            .expect("a warm-up assertion");
        assert!(!warmup.pass);
        assert_eq!(
            warmup.observed,
            "no stable legitimate configuration within 16 synchronous rounds"
        );
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

    /// A `lossy_disk` is a unit disk under the Bernoulli channel at its
    /// `loss`, one draw per in-range link from the sender's `channel`
    /// stream: the pinned digest catches any change in that stream.
    #[test]
    fn lossy_disk_manifest_reproduces_its_pinned_digest() {
        let m = manifest(
            r#"
name = "lossy-pin"
[protocol]
dmax = 2
[sim]
seeds = [3]
rounds = 30
[mobility]
kind = "random_walk"
n = 14
width = 80.0
height = 80.0
max_step = 0.005
[radio]
kind = "lossy_disk"
range = 30.0
loss = 0.1
"#,
        );
        let run = run_seed(&m, 3, None);
        assert!(run.stats.dropped > 0, "the links are lossy");
        assert_eq!(
            run.digest.to_hex(),
            "f4476fe393de100a603a98ad814bde96613bb2ab1492acb6c8dc1ad56345ade8"
        );
    }

    /// `[sim] loss` is the iid loss every channel applies first: a
    /// manifest built in code with certain loss delivers nothing, whichever
    /// channel decides the links after it.
    #[test]
    fn every_channel_honours_the_sim_loss() {
        use netsim::channel::{ContentionConfig, DistanceLoss};
        use netsim::radio::UnitDisk;
        for channel in [
            ChannelSpec::Bernoulli,
            ChannelSpec::DistanceLoss(DistanceLoss::new(0.0)),
            ChannelSpec::Contention(ContentionConfig {
                base_loss: 0.0,
                load_loss: 0.0,
                ..ContentionConfig::new(40.0)
            }),
        ] {
            let workload = WorkloadSpec::Spatial {
                mobility: MobilitySpec::StationaryLine {
                    n: 6,
                    spacing: 10.0,
                },
                radio: UnitDisk::new(40.0),
                channel,
            };
            let mut m = ScenarioManifest::simulate("lossy", workload, GrpConfig::new(2), 10);
            m.sim.loss = 1.0;
            let run = run_seed(&m, 1, None);
            assert!(run.stats.attempted > 0, "{channel:?}: links were tried");
            assert_eq!(run.stats.delivered, 0, "{channel:?}: delivered");
        }
    }
}
