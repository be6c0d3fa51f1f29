//! The scenario manifest schema (v1) and its TOML loader.
//!
//! A manifest declares *one* workload for the GRP conformance harness: how
//! the topology comes to be (generator or mobility + radio), the protocol
//! and simulator parameters, an optional fault plan and churn schedule, the
//! predicates the run must satisfy, and the golden trace digests pinned by
//! the regression suite. See `docs/SCENARIOS.md` for the narrative
//! documentation of every field.

use crate::toml::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Manifest schema version understood by this crate.
pub const SCHEMA_VERSION: i64 = 1;

/// Errors produced while loading a manifest.
#[derive(Debug)]
pub struct ManifestError(pub String);

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest error: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

fn bad<T>(msg: impl Into<String>) -> Result<T, ManifestError> {
    Err(ManifestError(msg.into()))
}

/// How the communication topology is produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Explicit-mode generator from `dyngraph::generators`.
    Path {
        n: usize,
    },
    Ring {
        n: usize,
    },
    Grid {
        rows: usize,
        cols: usize,
    },
    Complete {
        n: usize,
    },
    Star {
        n: usize,
    },
    Clustered {
        clusters: usize,
        cluster_size: usize,
    },
    ErdosRenyi {
        n: usize,
        p: f64,
    },
    RandomGeometric {
        n: usize,
        side: f64,
        radius: f64,
    },
}

impl TopologySpec {
    /// Number of nodes the generated topology will contain.
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::Path { n }
            | TopologySpec::Ring { n }
            | TopologySpec::Complete { n }
            | TopologySpec::Star { n }
            | TopologySpec::ErdosRenyi { n, .. }
            | TopologySpec::RandomGeometric { n, .. } => n,
            TopologySpec::Grid { rows, cols } => rows * cols,
            TopologySpec::Clustered {
                clusters,
                cluster_size,
            } => clusters * cluster_size,
        }
    }
}

/// Mobility models for spatial mode.
#[derive(Clone, Debug, PartialEq)]
pub enum MobilitySpec {
    StationaryLine {
        n: usize,
        spacing: f64,
    },
    StationaryUniform {
        n: usize,
        width: f64,
        height: f64,
    },
    RandomWalk {
        n: usize,
        width: f64,
        height: f64,
        max_step: f64,
    },
    Waypoint {
        n: usize,
        width: f64,
        height: f64,
        speed_min: f64,
        speed_max: f64,
    },
    Highway {
        n: usize,
        lanes: usize,
        road_length: f64,
        initial_gap: f64,
        speed_min: f64,
        speed_max: f64,
    },
    CityGrid {
        n: usize,
        blocks: usize,
        block_size: f64,
        speed_min: f64,
        speed_max: f64,
        light_period: u64,
    },
    MixedHighway {
        n_roadside: usize,
        rsu_spacing: f64,
        rsu_setback: f64,
        n: usize,
        lanes: usize,
        road_length: f64,
        initial_gap: f64,
        speed_min: f64,
        speed_max: f64,
    },
}

impl MobilitySpec {
    pub fn node_count(&self) -> usize {
        match *self {
            MobilitySpec::StationaryLine { n, .. }
            | MobilitySpec::StationaryUniform { n, .. }
            | MobilitySpec::RandomWalk { n, .. }
            | MobilitySpec::Waypoint { n, .. }
            | MobilitySpec::Highway { n, .. }
            | MobilitySpec::CityGrid { n, .. } => n,
            MobilitySpec::MixedHighway { n_roadside, n, .. } => n_roadside + n,
        }
    }
}

/// Radio (vicinity) models for spatial mode.
#[derive(Clone, Debug, PartialEq)]
pub enum RadioSpec {
    UnitDisk { range: f64 },
    LossyDisk { range: f64, loss: f64 },
    DistanceLoss { range: f64, edge_loss: f64 },
}

impl RadioSpec {
    /// The disk range — also the interference cell size of the contention
    /// channel.
    pub fn range(&self) -> f64 {
        match *self {
            RadioSpec::UnitDisk { range }
            | RadioSpec::LossyDisk { range, .. }
            | RadioSpec::DistanceLoss { range, .. } => range,
        }
    }
}

/// The channel (medium) model layered on the radio geometry — the
/// `[radio] model` key. Defaults to [`ChannelSpec::Bernoulli`], whose
/// traces the golden digests pin; parameters and formulas are documented
/// in `docs/CHANNELS.md`.
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelSpec {
    /// Per-link iid loss — delegates to the radio kind's own reception
    /// behaviour (the historical default).
    Bernoulli,
    /// Shared-medium contention: loss rises with concurrent transmitters
    /// near the receiver; see `netsim::channel::Contention`.
    Contention {
        base_loss: f64,
        load_loss: f64,
        max_loss: f64,
        window: u64,
        jitter: u64,
        hidden_terminal: bool,
    },
}

/// Either an explicit generator or a mobility + radio pair.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    Explicit(TopologySpec),
    Spatial {
        mobility: MobilitySpec,
        radio: RadioSpec,
        channel: ChannelSpec,
    },
}

impl WorkloadSpec {
    pub fn node_count(&self) -> usize {
        match self {
            WorkloadSpec::Explicit(t) => t.node_count(),
            WorkloadSpec::Spatial { mobility, .. } => mobility.node_count(),
        }
    }
}

/// One scheduled transient fault (absolute simulation time, in ticks).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    pub at: u64,
    pub kind: FaultKindSpec,
}

#[derive(Clone, Debug, PartialEq)]
pub enum FaultKindSpec {
    Crash {
        node: u64,
    },
    Restart {
        node: u64,
    },
    /// Restart that preserves the stale pre-crash state instead of
    /// rebooting to the initial configuration.
    RestartStale {
        node: u64,
    },
    Corrupt {
        node: u64,
    },
    /// Corrupt the next in-flight message broadcast by `node`.
    CorruptMessage {
        node: u64,
    },
    LossBurst {
        duration: u64,
    },
    /// Sever every link between the listed groups until a `heal`.
    Partition {
        groups: Vec<Vec<u64>>,
    },
    /// Lift an active partition.
    Heal,
    /// Silence every node inside the rectangle for `duration` ticks
    /// (spatial workloads only — explicit topologies have no positions).
    RegionBlackout {
        min_x: f64,
        min_y: f64,
        max_x: f64,
        max_y: f64,
        duration: u64,
    },
}

/// One topology mutation applied *before* the given compute round
/// (explicit mode only).
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnSpec {
    pub at_round: u64,
    pub action: ChurnAction,
}

#[derive(Clone, Debug, PartialEq)]
pub enum ChurnAction {
    LinkUp {
        a: u64,
        b: u64,
    },
    LinkDown {
        a: u64,
        b: u64,
    },
    /// A fresh node joins with the listed links.
    NodeJoin {
        node: u64,
        links: Vec<u64>,
    },
    /// A node leaves the system (removed from the topology, deactivated).
    NodeLeave {
        node: u64,
    },
}

/// Simulator timing/channel parameters. Defaults mirror
/// `netsim::SimConfig::default()`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpec {
    pub seeds: Vec<u64>,
    pub rounds: u64,
    pub send_period: u64,
    pub compute_period: u64,
    pub mobility_period: u64,
    pub delivery_delay: u64,
    pub loss: f64,
    pub stagger_phases: bool,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            seeds: vec![1],
            rounds: 60,
            send_period: 250,
            compute_period: 1000,
            mobility_period: 1000,
            delivery_delay: 10,
            loss: 0.0,
            stagger_phases: true,
        }
    }
}

/// Protocol parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolSpec {
    pub dmax: usize,
    pub naive_compatibility: bool,
    pub disable_quarantine: bool,
}

impl Default for ProtocolSpec {
    fn default() -> Self {
        ProtocolSpec {
            dmax: 3,
            naive_compatibility: false,
            disable_quarantine: false,
        }
    }
}

/// What the manifest executes: a sampled simulation (the default), the
/// bounded model checker over the same protocol implementation, or the
/// seeded worst-case fault-campaign search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunMode {
    #[default]
    Simulate,
    ModelCheck,
    Campaign,
}

/// Which optional per-round probes the run composes on top of the
/// snapshot recorder. Disabling a probe removes its cost *and* its
/// outputs: an assertion that reads a disabled probe is rejected at parse
/// time rather than panicking (or silently passing) at run time.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportSpec {
    /// Stream legitimacy verdicts and report the convergence round.
    pub convergence: bool,
    /// Stream ΠT ⇒ ΠC continuity accounting.
    pub continuity: bool,
    /// Per-fault recovery accounting (MTTR, availability, histogram) via
    /// the `ResilienceProbe`. Off by default — it requires the convergence
    /// verdict stream and adds a `resilience` section to `result.json`.
    pub resilience: bool,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            convergence: true,
            continuity: true,
            resilience: false,
        }
    }
}

/// Where a model-check run starts exploring from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StartSpec {
    /// The warmed-up legitimate configuration itself: one exploration in
    /// which only the `[modelcheck.faults]` budget can perturb the system.
    Legitimate,
    /// One exploration per entry of the single-node corruption catalogue
    /// ([`grp_core::GrpNode::enumerate_corruptions`]), each starting from
    /// the legitimate configuration with that node's state replaced.
    #[default]
    Corrupted,
    /// One exploration per unordered *pair* of simultaneously corrupted
    /// nodes — every combination of the catalogue's variants on both
    /// victims. Quadratically larger than `Corrupted`; keep topologies
    /// small.
    PairCorrupted,
}

/// The `[modelcheck]` table: bounds and adversary budget for the bounded
/// explorer (`mode = "modelcheck"` only). Defaults mirror
/// `modelcheck::ExploreConfig::default()`.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelCheckSpec {
    /// BFS depth bound (choices from the root).
    pub depth: usize,
    /// Hard cap on distinct visited states.
    pub max_states: usize,
    /// Starting configurations to explore from.
    pub start: StartSpec,
    /// Synchronous warm-up rounds allowed to reach the legitimate base.
    pub warmup_rounds: usize,
    /// Random walks launched past the bounds, and their length.
    pub walks: u32,
    pub walk_depth: usize,
    /// Adversary fault budget (`[modelcheck.faults]`): message drops,
    /// duplications and node crashes available during exploration.
    pub max_drops: u32,
    pub max_duplicates: u32,
    pub max_crashes: u32,
}

impl Default for ModelCheckSpec {
    fn default() -> Self {
        ModelCheckSpec {
            depth: 256,
            max_states: 200_000,
            start: StartSpec::default(),
            warmup_rounds: 64,
            walks: 16,
            walk_depth: 256,
            max_drops: 0,
            max_duplicates: 0,
            max_crashes: 0,
        }
    }
}

/// The `[campaign]` table: the seeded worst-case-schedule search
/// (`mode = "campaign"` only). The searcher samples `schedules` random
/// fault schedules (≤ `max_faults` faults inside the `horizon` window),
/// scores each by the resilience metrics of a full deterministic run, and
/// re-runs the worst offender for the reported metrics. With `replay`
/// set, the search is skipped and the pinned campaign file is replayed
/// instead — the regression path.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Fault schedules sampled per seed.
    pub schedules: u32,
    /// Maximum faults per sampled schedule.
    pub max_faults: u32,
    /// Injection window in ticks (default `rounds × compute_period`).
    pub horizon: Option<u64>,
    /// Sampler seed, mixed with each run seed — so re-pinning a manifest
    /// seed does not reshuffle every schedule.
    pub search_seed: u64,
    /// Path to a pinned campaign file to replay (relative to the
    /// manifest), instead of searching.
    pub replay: Option<String>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            schedules: 16,
            max_faults: 6,
            horizon: None,
            search_seed: 0xCA4A,
            replay: None,
        }
    }
}

/// Pass/fail predicates evaluated on the completed run. All fields are
/// optional; absent fields assert nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AssertionSpec {
    /// The run must reach its closed legitimate suffix by this round
    /// (0-based snapshot index).
    pub converged_by: Option<u64>,
    /// Upper bound on the number of rounds the manifest may configure —
    /// a conformance budget guard, checked against `sim.rounds`.
    pub max_rounds: Option<u64>,
    /// ΠT ⇒ ΠC conformance: among snapshot transitions whose topology
    /// change satisfied ΠT, at least this fraction must satisfy ΠC.
    pub view_continuity: Option<f64>,
    /// Final-snapshot predicates.
    pub agreement: Option<bool>,
    pub safety: Option<bool>,
    pub maximality: Option<bool>,
    pub legitimate: Option<bool>,
    /// Bounds on the number of groups in the final snapshot.
    pub min_groups: Option<u64>,
    pub max_groups: Option<u64>,
    /// Lower bound on the delivery ratio over the whole run.
    pub min_delivery_ratio: Option<f64>,
    /// Model-check mode only: every explored case must re-converge to a
    /// legitimate configuration (exhaustively, within the bounds).
    pub reconverges: Option<bool>,
}

/// Golden digests, one per seed (aligned with `sim.seeds`). Empty when the
/// manifest has not been pinned yet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GoldenSpec {
    pub digests: Vec<String>,
}

/// A fully parsed scenario manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioManifest {
    pub name: String,
    pub description: String,
    pub mode: RunMode,
    pub workload: WorkloadSpec,
    pub protocol: ProtocolSpec,
    pub sim: SimSpec,
    pub report: ReportSpec,
    /// Present iff `mode = "modelcheck"` (defaulted when the table is
    /// absent).
    pub modelcheck: Option<ModelCheckSpec>,
    /// Present iff `mode = "campaign"` (defaulted when the table is
    /// absent).
    pub campaign: Option<CampaignSpec>,
    pub faults: Vec<FaultSpec>,
    pub churn: Vec<ChurnSpec>,
    pub assertions: AssertionSpec,
    pub golden: GoldenSpec,
}

impl ScenarioManifest {
    /// Load from a TOML string.
    pub fn parse(input: &str) -> Result<Self, ManifestError> {
        let root = toml::parse(input).map_err(|e| ManifestError(e.to_string()))?;
        Self::from_root(&root)
    }

    /// Load from a file. A `[campaign] replay` path is resolved relative
    /// to the manifest's directory.
    pub fn load(path: &Path) -> Result<Self, ManifestError> {
        let input = std::fs::read_to_string(path)
            .map_err(|e| ManifestError(format!("cannot read {}: {e}", path.display())))?;
        let mut manifest = Self::parse(&input)
            .map_err(|e| ManifestError(format!("{}: {}", path.display(), e.0)))?;
        if let Some(campaign) = &mut manifest.campaign {
            if let Some(replay) = &campaign.replay {
                let resolved = path
                    .parent()
                    .map(|dir| dir.join(replay))
                    .unwrap_or_else(|| Path::new(replay).to_path_buf());
                campaign.replay = Some(resolved.to_string_lossy().into_owned());
            }
        }
        Ok(manifest)
    }

    fn from_root(root: &BTreeMap<String, Value>) -> Result<Self, ManifestError> {
        check_keys(root, "manifest", ROOT_KEYS)?;
        let schema = get_int(root, "schema")?.unwrap_or(SCHEMA_VERSION);
        if schema != SCHEMA_VERSION {
            return bad(format!(
                "unsupported schema version {schema} (this runner understands {SCHEMA_VERSION})"
            ));
        }
        let Some(name) = root.get("name").and_then(Value::as_str) else {
            return bad("missing required `name`");
        };
        let description = root
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();

        let mode = parse_mode(root.get("mode"))?;
        let workload = parse_workload(root)?;
        let protocol = parse_protocol(root.get("protocol"))?;
        let sim = parse_sim(root.get("sim"))?;
        let report = parse_report(root.get("report"))?;
        let faults = parse_faults(root.get("faults"))?;
        let churn = parse_churn(root.get("churn"))?;
        if !churn.is_empty() && matches!(workload, WorkloadSpec::Spatial { .. }) {
            return bad("churn schedules require an explicit [topology]; spatial topologies are owned by the radio model");
        }
        let assertions = parse_assertions(root.get("assertions"))?;
        let golden = parse_golden(root.get("golden"))?;
        if !golden.digests.is_empty() && golden.digests.len() != sim.seeds.len() {
            return bad(format!(
                "golden.digests has {} entries but sim.seeds has {} — they must align",
                golden.digests.len(),
                sim.seeds.len()
            ));
        }

        let modelcheck = match mode {
            RunMode::ModelCheck => Some(parse_modelcheck(root.get("modelcheck"))?),
            RunMode::Simulate | RunMode::Campaign => {
                if root.get("modelcheck").is_some() {
                    return bad("[modelcheck] requires `mode = \"modelcheck\"`");
                }
                None
            }
        };
        let campaign = match mode {
            RunMode::Campaign => Some(parse_campaign(root.get("campaign"))?),
            RunMode::Simulate | RunMode::ModelCheck => {
                if root.get("campaign").is_some() {
                    return bad("[campaign] requires `mode = \"campaign\"`");
                }
                None
            }
        };
        // RegionBlackout silences nodes by position — meaningless on an
        // explicit topology, so fail loudly instead of running an inert fault.
        if matches!(workload, WorkloadSpec::Explicit(_))
            && faults
                .iter()
                .any(|f| matches!(f.kind, FaultKindSpec::RegionBlackout { .. }))
        {
            return bad("[[faults]]: `region_blackout` requires a spatial workload \
                 ([mobility]+[radio]) — explicit topologies have no positions");
        }
        match mode {
            RunMode::ModelCheck => {
                if matches!(workload, WorkloadSpec::Spatial { .. }) {
                    return bad("mode = \"modelcheck\" requires an explicit [topology]; \
                         spatial workloads cannot be exhaustively explored");
                }
                if !faults.is_empty() {
                    return bad(
                        "mode = \"modelcheck\" takes its fault budget from [modelcheck.faults]; \
                         the timed [[faults]] schedule is simulation-only",
                    );
                }
                if !churn.is_empty() {
                    return bad("the [[churn]] schedule is simulation-only");
                }
                if report.resilience {
                    return bad("[report]: `resilience = true` is simulation-only — the \
                         model checker has no per-round recovery timeline");
                }
                for (key, present) in [
                    ("converged_by", assertions.converged_by.is_some()),
                    ("max_rounds", assertions.max_rounds.is_some()),
                    ("view_continuity", assertions.view_continuity.is_some()),
                    (
                        "min_delivery_ratio",
                        assertions.min_delivery_ratio.is_some(),
                    ),
                ] {
                    if present {
                        return bad(format!(
                            "[assertions]: `{key}` is simulation-only and cannot be \
                             checked in mode = \"modelcheck\""
                        ));
                    }
                }
            }
            RunMode::Campaign => {
                if !faults.is_empty() {
                    return bad("mode = \"campaign\" synthesizes its own fault schedules; \
                         the timed [[faults]] schedule is simulation-only");
                }
                if !churn.is_empty() {
                    return bad("the [[churn]] schedule is simulation-only");
                }
                for (key, present) in [
                    ("converged_by", assertions.converged_by.is_some()),
                    ("view_continuity", assertions.view_continuity.is_some()),
                    (
                        "min_delivery_ratio",
                        assertions.min_delivery_ratio.is_some(),
                    ),
                    ("agreement", assertions.agreement.is_some()),
                    ("safety", assertions.safety.is_some()),
                    ("maximality", assertions.maximality.is_some()),
                    ("legitimate", assertions.legitimate.is_some()),
                    ("min_groups", assertions.min_groups.is_some()),
                    ("max_groups", assertions.max_groups.is_some()),
                    ("reconverges", assertions.reconverges.is_some()),
                ] {
                    if present {
                        return bad(format!(
                            "[assertions]: `{key}` judges a single run and cannot be \
                             checked in mode = \"campaign\" (only `max_rounds` applies)"
                        ));
                    }
                }
                if !report.convergence {
                    return bad("[report]: mode = \"campaign\" scores schedules on the \
                         legitimacy verdict stream — `convergence = false` is not \
                         allowed");
                }
            }
            RunMode::Simulate => {
                if assertions.reconverges.is_some() {
                    return bad(
                        "[assertions]: `reconverges` is only meaningful in mode = \"modelcheck\"",
                    );
                }
                // A disabled probe has no output for the assertion to read;
                // reject the conflict here instead of panicking in the runner.
                if !report.convergence && assertions.converged_by.is_some() {
                    return bad("[report]: `convergence = false` disables the probe that \
                         `converged_by` asserts on — enable it or drop the assertion");
                }
                if !report.continuity && assertions.view_continuity.is_some() {
                    return bad("[report]: `continuity = false` disables the probe that \
                         `view_continuity` asserts on — enable it or drop the assertion");
                }
                // The resilience probe times recovery against the legitimacy
                // verdict stream — it cannot run with convergence off.
                if report.resilience && !report.convergence {
                    return bad("[report]: `resilience = true` requires \
                         `convergence = true` — recovery is timed against the \
                         legitimacy verdict stream");
                }
            }
        }

        Ok(ScenarioManifest {
            name: name.to_string(),
            description,
            mode,
            workload,
            protocol,
            sim,
            report,
            modelcheck,
            campaign,
            faults,
            churn,
            assertions,
            golden,
        })
    }
}

// ---- known keys ----------------------------------------------------------
//
// Every key each table reads, whatever its `kind`: a key outside its
// table's list is a typo or a leftover, and is rejected instead of ignored.

const ROOT_KEYS: &[&str] = &[
    "schema",
    "name",
    "description",
    "mode",
    "topology",
    "mobility",
    "radio",
    "protocol",
    "sim",
    "report",
    "modelcheck",
    "campaign",
    "faults",
    "churn",
    "assertions",
    "golden",
];
const TOPOLOGY_KEYS: &[&str] = &[
    "kind",
    "n",
    "rows",
    "cols",
    "clusters",
    "cluster_size",
    "p",
    "side",
    "radius",
];
const MOBILITY_KEYS: &[&str] = &[
    "kind",
    "n",
    "spacing",
    "width",
    "height",
    "max_step",
    "speed_min",
    "speed_max",
    "lanes",
    "road_length",
    "initial_gap",
    "blocks",
    "block_size",
    "light_period",
    "n_roadside",
    "rsu_spacing",
    "rsu_setback",
];
const RADIO_KEYS: &[&str] = &[
    "kind",
    "range",
    "loss",
    "edge_loss",
    "model",
    "base_loss",
    "load_loss",
    "max_loss",
    "window",
    "jitter",
    "hidden_terminal",
];
const SIM_KEYS: &[&str] = &[
    "seed",
    "seeds",
    "rounds",
    "send_period",
    "compute_period",
    "mobility_period",
    "delivery_delay",
    "loss",
    "stagger_phases",
];
/// `[sim]` keys that selected between engine regimes until the engine kept
/// one: rejected by name, so an old manifest cannot silently change meaning.
const REMOVED_SIM_KEYS: [&str; 4] = [
    "rng_streams",
    "parallel_compute",
    "parallel_transport",
    "spatial_index",
];
const PROTOCOL_KEYS: &[&str] = &["dmax", "naive_compatibility", "disable_quarantine"];
const REPORT_KEYS: &[&str] = &["convergence", "continuity", "resilience"];
const CAMPAIGN_KEYS: &[&str] = &[
    "schedules",
    "max_faults",
    "horizon",
    "search_seed",
    "replay",
];
const MODELCHECK_KEYS: &[&str] = &[
    "depth",
    "max_states",
    "start",
    "warmup_rounds",
    "walks",
    "walk_depth",
    "faults",
];
const MODELCHECK_FAULT_KEYS: &[&str] = &["drops", "duplicates", "crashes"];
const FAULT_KEYS: &[&str] = &[
    "at", "kind", "node", "duration", "groups", "min_x", "min_y", "max_x", "max_y",
];
const CHURN_KEYS: &[&str] = &["at_round", "action", "a", "b", "node", "links"];
const ASSERTION_KEYS: &[&str] = &[
    "converged_by",
    "max_rounds",
    "view_continuity",
    "agreement",
    "safety",
    "maximality",
    "legitimate",
    "min_groups",
    "max_groups",
    "min_delivery_ratio",
    "reconverges",
];
const GOLDEN_KEYS: &[&str] = &["digests"];

/// Reject the first key of `table` that `known` does not list.
fn check_keys(
    table: &BTreeMap<String, Value>,
    ctx: &str,
    known: &[&str],
) -> Result<(), ManifestError> {
    match table.keys().find(|key| !known.contains(&key.as_str())) {
        Some(key) => bad(format!("{ctx}: unknown key `{key}`")),
        None => Ok(()),
    }
}

// ---- field helpers -------------------------------------------------------

fn get_int(table: &BTreeMap<String, Value>, key: &str) -> Result<Option<i64>, ManifestError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => match v.as_int() {
            Some(i) => Ok(Some(i)),
            None => bad(format!("`{key}` must be an integer")),
        },
    }
}

/// The one validator behind every count-like key — rounds, periods, seeds,
/// node ids, depth bounds, fault budgets, assertion bounds. A count is a
/// TOML integer `>= 0`; anything else (floats, strings, booleans, negative
/// integers) reports the same shape regardless of which section the key
/// lives in: ``{ctx}: `{key}`: expected non-negative integer``.
fn count_value(value: &Value, key: &str, ctx: &str) -> Result<u64, ManifestError> {
    match value.as_int() {
        Some(i) if i >= 0 => Ok(i as u64),
        _ => bad(format!("{ctx}: `{key}`: expected non-negative integer")),
    }
}

fn req_u64(table: &BTreeMap<String, Value>, key: &str, ctx: &str) -> Result<u64, ManifestError> {
    match table.get(key) {
        Some(v) => count_value(v, key, ctx),
        None => bad(format!(
            "{ctx}: `{key}`: expected non-negative integer, but the key is missing"
        )),
    }
}

fn req_usize(
    table: &BTreeMap<String, Value>,
    key: &str,
    ctx: &str,
) -> Result<usize, ManifestError> {
    req_u64(table, key, ctx).map(|v| v as usize)
}

fn req_f64(table: &BTreeMap<String, Value>, key: &str, ctx: &str) -> Result<f64, ManifestError> {
    match table.get(key).and_then(Value::as_float) {
        Some(f) => Ok(f),
        None => bad(format!("{ctx}: missing or invalid `{key}` (number)")),
    }
}

fn opt_f64(table: &BTreeMap<String, Value>, key: &str, default: f64) -> Result<f64, ManifestError> {
    match table.get(key) {
        None => Ok(default),
        Some(v) => match v.as_float() {
            Some(f) => Ok(f),
            None => bad(format!("`{key}` must be a number")),
        },
    }
}

fn opt_u64(
    table: &BTreeMap<String, Value>,
    key: &str,
    default: u64,
    ctx: &str,
) -> Result<u64, ManifestError> {
    match table.get(key) {
        None => Ok(default),
        Some(v) => count_value(v, key, ctx),
    }
}

fn opt_bool(
    table: &BTreeMap<String, Value>,
    key: &str,
    default: bool,
) -> Result<bool, ManifestError> {
    match table.get(key) {
        None => Ok(default),
        Some(v) => match v.as_bool() {
            Some(b) => Ok(b),
            None => bad(format!("`{key}` must be a boolean")),
        },
    }
}

fn parse_workload(root: &BTreeMap<String, Value>) -> Result<WorkloadSpec, ManifestError> {
    let topology = root.get("topology");
    let mobility = root.get("mobility");
    let radio = root.get("radio");
    match (topology, mobility, radio) {
        (Some(t), None, None) => {
            let t = t
                .as_table()
                .ok_or_else(|| ManifestError("[topology] must be a table".into()))?;
            Ok(WorkloadSpec::Explicit(parse_topology(t)?))
        }
        (None, Some(m), Some(r)) => {
            let m = m
                .as_table()
                .ok_or_else(|| ManifestError("[mobility] must be a table".into()))?;
            let r = r
                .as_table()
                .ok_or_else(|| ManifestError("[radio] must be a table".into()))?;
            Ok(WorkloadSpec::Spatial {
                mobility: parse_mobility(m)?,
                radio: parse_radio(r)?,
                channel: parse_channel(r)?,
            })
        }
        (None, Some(_), None) | (None, None, Some(_)) => {
            bad("spatial scenarios need both [mobility] and [radio]")
        }
        (Some(_), _, _) => bad("[topology] is mutually exclusive with [mobility]/[radio]"),
        (None, None, None) => bad("missing workload: provide [topology] or [mobility]+[radio]"),
    }
}

fn parse_topology(t: &BTreeMap<String, Value>) -> Result<TopologySpec, ManifestError> {
    let kind = t
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ManifestError("[topology]: missing `kind`".into()))?;
    let ctx = "[topology]";
    check_keys(t, ctx, TOPOLOGY_KEYS)?;
    match kind {
        "path" => Ok(TopologySpec::Path {
            n: req_usize(t, "n", ctx)?,
        }),
        "ring" => Ok(TopologySpec::Ring {
            n: req_usize(t, "n", ctx)?,
        }),
        "grid" => Ok(TopologySpec::Grid {
            rows: req_usize(t, "rows", ctx)?,
            cols: req_usize(t, "cols", ctx)?,
        }),
        "complete" => Ok(TopologySpec::Complete {
            n: req_usize(t, "n", ctx)?,
        }),
        "star" => Ok(TopologySpec::Star {
            n: req_usize(t, "n", ctx)?,
        }),
        "clustered" => Ok(TopologySpec::Clustered {
            clusters: req_usize(t, "clusters", ctx)?,
            cluster_size: req_usize(t, "cluster_size", ctx)?,
        }),
        "erdos_renyi" => Ok(TopologySpec::ErdosRenyi {
            n: req_usize(t, "n", ctx)?,
            p: req_f64(t, "p", ctx)?,
        }),
        "random_geometric" => Ok(TopologySpec::RandomGeometric {
            n: req_usize(t, "n", ctx)?,
            side: req_f64(t, "side", ctx)?,
            radius: req_f64(t, "radius", ctx)?,
        }),
        other => bad(format!("[topology]: unknown kind `{other}`")),
    }
}

fn parse_mobility(m: &BTreeMap<String, Value>) -> Result<MobilitySpec, ManifestError> {
    let kind = m
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ManifestError("[mobility]: missing `kind`".into()))?;
    let ctx = "[mobility]";
    check_keys(m, ctx, MOBILITY_KEYS)?;
    let n = req_usize(m, "n", ctx)?;
    match kind {
        "stationary_line" => Ok(MobilitySpec::StationaryLine {
            n,
            spacing: req_f64(m, "spacing", ctx)?,
        }),
        "stationary_uniform" => Ok(MobilitySpec::StationaryUniform {
            n,
            width: req_f64(m, "width", ctx)?,
            height: req_f64(m, "height", ctx)?,
        }),
        "random_walk" => Ok(MobilitySpec::RandomWalk {
            n,
            width: req_f64(m, "width", ctx)?,
            height: req_f64(m, "height", ctx)?,
            max_step: req_f64(m, "max_step", ctx)?,
        }),
        "waypoint" => Ok(MobilitySpec::Waypoint {
            n,
            width: req_f64(m, "width", ctx)?,
            height: req_f64(m, "height", ctx)?,
            speed_min: req_f64(m, "speed_min", ctx)?,
            speed_max: req_f64(m, "speed_max", ctx)?,
        }),
        "highway" => Ok(MobilitySpec::Highway {
            n,
            lanes: req_usize(m, "lanes", ctx)?,
            road_length: req_f64(m, "road_length", ctx)?,
            initial_gap: req_f64(m, "initial_gap", ctx)?,
            speed_min: req_f64(m, "speed_min", ctx)?,
            speed_max: req_f64(m, "speed_max", ctx)?,
        }),
        "city_grid" => Ok(MobilitySpec::CityGrid {
            n,
            blocks: req_usize(m, "blocks", ctx)?,
            block_size: req_f64(m, "block_size", ctx)?,
            speed_min: req_f64(m, "speed_min", ctx)?,
            speed_max: req_f64(m, "speed_max", ctx)?,
            light_period: req_u64(m, "light_period", ctx)?,
        }),
        "mixed_highway" => Ok(MobilitySpec::MixedHighway {
            n_roadside: req_usize(m, "n_roadside", ctx)?,
            rsu_spacing: req_f64(m, "rsu_spacing", ctx)?,
            rsu_setback: opt_f64(m, "rsu_setback", 8.0)?,
            n,
            lanes: req_usize(m, "lanes", ctx)?,
            road_length: req_f64(m, "road_length", ctx)?,
            initial_gap: req_f64(m, "initial_gap", ctx)?,
            speed_min: req_f64(m, "speed_min", ctx)?,
            speed_max: req_f64(m, "speed_max", ctx)?,
        }),
        other => bad(format!("[mobility]: unknown kind `{other}`")),
    }
}

fn parse_radio(r: &BTreeMap<String, Value>) -> Result<RadioSpec, ManifestError> {
    let kind = r
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ManifestError("[radio]: missing `kind`".into()))?;
    let ctx = "[radio]";
    check_keys(r, ctx, RADIO_KEYS)?;
    match kind {
        "unit_disk" => Ok(RadioSpec::UnitDisk {
            range: req_f64(r, "range", ctx)?,
        }),
        "lossy_disk" => Ok(RadioSpec::LossyDisk {
            range: req_f64(r, "range", ctx)?,
            loss: req_f64(r, "loss", ctx)?,
        }),
        "distance_loss" => Ok(RadioSpec::DistanceLoss {
            range: req_f64(r, "range", ctx)?,
            edge_loss: req_f64(r, "edge_loss", ctx)?,
        }),
        other => bad(format!("[radio]: unknown kind `{other}`")),
    }
}

/// The contention-only `[radio]` keys — listed so a manifest that sets one
/// under `model = "bernoulli"` is rejected instead of silently ignored.
const CONTENTION_KEYS: [&str; 6] = [
    "base_loss",
    "load_loss",
    "max_loss",
    "window",
    "jitter",
    "hidden_terminal",
];

fn parse_channel(r: &BTreeMap<String, Value>) -> Result<ChannelSpec, ManifestError> {
    let ctx = "[radio]";
    let model = match r.get("model") {
        None => "bernoulli",
        Some(v) => v
            .as_str()
            .ok_or_else(|| ManifestError("[radio]: `model` must be a string".into()))?,
    };
    match model {
        "bernoulli" => {
            for key in CONTENTION_KEYS {
                if r.contains_key(key) {
                    return bad(format!(
                        "[radio]: `{key}` requires `model = \"contention\"`"
                    ));
                }
            }
            Ok(ChannelSpec::Bernoulli)
        }
        "contention" => {
            // defaults mirror netsim::channel::ContentionConfig::new
            let base_loss = opt_f64(r, "base_loss", 0.02)?;
            let load_loss = opt_f64(r, "load_loss", 0.08)?;
            let max_loss = opt_f64(r, "max_loss", 0.95)?;
            for (key, p) in [
                ("base_loss", base_loss),
                ("load_loss", load_loss),
                ("max_loss", max_loss),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return bad(format!("[radio]: `{key}` must be a probability in [0, 1]"));
                }
            }
            Ok(ChannelSpec::Contention {
                base_loss,
                load_loss,
                max_loss,
                window: opt_u64(r, "window", 250, ctx)?,
                jitter: opt_u64(r, "jitter", 0, ctx)?,
                hidden_terminal: opt_bool(r, "hidden_terminal", true)?,
            })
        }
        other => bad(format!(
            "[radio]: unknown model `{other}` (expected \"bernoulli\" or \"contention\")"
        )),
    }
}

fn parse_mode(value: Option<&Value>) -> Result<RunMode, ManifestError> {
    match value {
        None => Ok(RunMode::default()),
        Some(v) => match v.as_str() {
            Some("simulate") => Ok(RunMode::Simulate),
            Some("modelcheck") => Ok(RunMode::ModelCheck),
            Some("campaign") => Ok(RunMode::Campaign),
            Some(other) => bad(format!(
                "unknown `mode` `{other}` (expected \"simulate\", \"modelcheck\" or \
                 \"campaign\")"
            )),
            None => bad("`mode` must be a string"),
        },
    }
}

fn parse_report(value: Option<&Value>) -> Result<ReportSpec, ManifestError> {
    let default = ReportSpec::default();
    let Some(value) = value else {
        return Ok(default);
    };
    let t = value
        .as_table()
        .ok_or_else(|| ManifestError("[report] must be a table".into()))?;
    check_keys(t, "[report]", REPORT_KEYS)?;
    Ok(ReportSpec {
        convergence: opt_bool(t, "convergence", default.convergence)?,
        continuity: opt_bool(t, "continuity", default.continuity)?,
        resilience: opt_bool(t, "resilience", default.resilience)?,
    })
}

fn parse_campaign(value: Option<&Value>) -> Result<CampaignSpec, ManifestError> {
    let default = CampaignSpec::default();
    let Some(value) = value else {
        return Ok(default);
    };
    let t = value
        .as_table()
        .ok_or_else(|| ManifestError("[campaign] must be a table".into()))?;
    let ctx = "[campaign]";
    check_keys(t, ctx, CAMPAIGN_KEYS)?;
    let schedules = opt_u64(t, "schedules", u64::from(default.schedules), ctx)? as u32;
    if schedules == 0 {
        return bad("[campaign]: `schedules` must be at least 1");
    }
    let max_faults = opt_u64(t, "max_faults", u64::from(default.max_faults), ctx)? as u32;
    if max_faults == 0 {
        return bad("[campaign]: `max_faults` must be at least 1");
    }
    let horizon = match t.get("horizon") {
        None => None,
        Some(v) => Some(count_value(v, "horizon", ctx)?),
    };
    let replay = match t.get("replay") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) => Some(s.to_string()),
            None => return bad("[campaign]: `replay` must be a string path"),
        },
    };
    Ok(CampaignSpec {
        schedules,
        max_faults,
        horizon,
        search_seed: opt_u64(t, "search_seed", default.search_seed, ctx)?,
        replay,
    })
}

fn parse_modelcheck(value: Option<&Value>) -> Result<ModelCheckSpec, ManifestError> {
    let default = ModelCheckSpec::default();
    let Some(value) = value else {
        return Ok(default);
    };
    let t = value
        .as_table()
        .ok_or_else(|| ManifestError("[modelcheck] must be a table".into()))?;
    let ctx = "[modelcheck]";
    check_keys(t, ctx, MODELCHECK_KEYS)?;
    let start = match t.get("start") {
        None => StartSpec::default(),
        Some(v) => match v.as_str() {
            Some("legitimate") => StartSpec::Legitimate,
            Some("corrupted") => StartSpec::Corrupted,
            Some("pair-corrupted") => StartSpec::PairCorrupted,
            _ => {
                return bad(
                    "[modelcheck]: `start` must be \"legitimate\", \"corrupted\" \
                     or \"pair-corrupted\"",
                );
            }
        },
    };
    let (max_drops, max_duplicates, max_crashes) = match t.get("faults") {
        None => (0, 0, 0),
        Some(v) => {
            let f = v
                .as_table()
                .ok_or_else(|| ManifestError("[modelcheck.faults] must be a table".into()))?;
            let fc = "[modelcheck.faults]";
            check_keys(f, fc, MODELCHECK_FAULT_KEYS)?;
            (
                opt_u64(f, "drops", 0, fc)? as u32,
                opt_u64(f, "duplicates", 0, fc)? as u32,
                opt_u64(f, "crashes", 0, fc)? as u32,
            )
        }
    };
    Ok(ModelCheckSpec {
        depth: opt_u64(t, "depth", default.depth as u64, ctx)? as usize,
        max_states: opt_u64(t, "max_states", default.max_states as u64, ctx)? as usize,
        start,
        warmup_rounds: opt_u64(t, "warmup_rounds", default.warmup_rounds as u64, ctx)? as usize,
        walks: opt_u64(t, "walks", default.walks as u64, ctx)? as u32,
        walk_depth: opt_u64(t, "walk_depth", default.walk_depth as u64, ctx)? as usize,
        max_drops,
        max_duplicates,
        max_crashes,
    })
}

fn parse_protocol(value: Option<&Value>) -> Result<ProtocolSpec, ManifestError> {
    let Some(value) = value else {
        return Ok(ProtocolSpec::default());
    };
    let t = value
        .as_table()
        .ok_or_else(|| ManifestError("[protocol] must be a table".into()))?;
    check_keys(t, "[protocol]", PROTOCOL_KEYS)?;
    Ok(ProtocolSpec {
        dmax: req_usize(t, "dmax", "[protocol]")?,
        naive_compatibility: opt_bool(t, "naive_compatibility", false)?,
        disable_quarantine: opt_bool(t, "disable_quarantine", false)?,
    })
}

fn parse_sim(value: Option<&Value>) -> Result<SimSpec, ManifestError> {
    let default = SimSpec::default();
    let Some(value) = value else {
        return Ok(default);
    };
    let t = value
        .as_table()
        .ok_or_else(|| ManifestError("[sim] must be a table".into()))?;
    let ctx = "[sim]";
    for key in REMOVED_SIM_KEYS {
        if t.contains_key(key) {
            return bad(format!(
                "[sim]: `{key}` was removed — the engine has one regime"
            ));
        }
    }
    check_keys(t, ctx, SIM_KEYS)?;
    let seeds = match t.get("seeds") {
        None => vec![opt_u64(t, "seed", 1, ctx)?],
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| ManifestError("`seeds` must be an array".into()))?;
            let mut seeds = Vec::new();
            for item in items {
                seeds.push(count_value(item, "seeds", ctx)?);
            }
            if seeds.is_empty() {
                return bad("`seeds` must not be empty");
            }
            seeds
        }
    };
    Ok(SimSpec {
        seeds,
        rounds: opt_u64(t, "rounds", default.rounds, ctx)?,
        send_period: opt_u64(t, "send_period", default.send_period, ctx)?,
        compute_period: opt_u64(t, "compute_period", default.compute_period, ctx)?,
        mobility_period: opt_u64(t, "mobility_period", default.mobility_period, ctx)?,
        delivery_delay: opt_u64(t, "delivery_delay", default.delivery_delay, ctx)?,
        loss: opt_f64(t, "loss", default.loss)?,
        stagger_phases: opt_bool(t, "stagger_phases", default.stagger_phases)?,
    })
}

fn parse_faults(value: Option<&Value>) -> Result<Vec<FaultSpec>, ManifestError> {
    let Some(value) = value else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| ManifestError("[[faults]] must be an array of tables".into()))?;
    let mut faults = Vec::new();
    for item in items {
        let t = item
            .as_table()
            .ok_or_else(|| ManifestError("each fault must be a table".into()))?;
        check_keys(t, "[[faults]]", FAULT_KEYS)?;
        let at = req_u64(t, "at", "[[faults]]")?;
        let kind = t
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| ManifestError("[[faults]]: missing `kind`".into()))?;
        let kind = match kind {
            "crash" => FaultKindSpec::Crash {
                node: req_u64(t, "node", "[[faults]]")?,
            },
            "restart" => FaultKindSpec::Restart {
                node: req_u64(t, "node", "[[faults]]")?,
            },
            "restart_stale" => FaultKindSpec::RestartStale {
                node: req_u64(t, "node", "[[faults]]")?,
            },
            "corrupt" => FaultKindSpec::Corrupt {
                node: req_u64(t, "node", "[[faults]]")?,
            },
            "corrupt_message" => FaultKindSpec::CorruptMessage {
                node: req_u64(t, "node", "[[faults]]")?,
            },
            "loss_burst" => FaultKindSpec::LossBurst {
                duration: req_u64(t, "duration", "[[faults]]")?,
            },
            "partition" => {
                let groups = t.get("groups").and_then(Value::as_array).ok_or_else(|| {
                    ManifestError(
                        "[[faults]]: `partition` needs `groups`, an array of node-id \
                             arrays"
                            .into(),
                    )
                })?;
                let mut parsed = Vec::new();
                for group in groups {
                    let ids = group.as_array().ok_or_else(|| {
                        ManifestError("[[faults]]: each `groups` entry must be an array".into())
                    })?;
                    let mut members = Vec::new();
                    for id in ids {
                        members.push(count_value(id, "groups", "[[faults]]")?);
                    }
                    parsed.push(members);
                }
                if parsed.len() < 2 {
                    return bad("[[faults]]: `partition` needs at least two groups");
                }
                FaultKindSpec::Partition { groups: parsed }
            }
            "heal" => FaultKindSpec::Heal,
            "region_blackout" => {
                let ctx = "[[faults]]";
                let kind = FaultKindSpec::RegionBlackout {
                    min_x: req_f64(t, "min_x", ctx)?,
                    min_y: req_f64(t, "min_y", ctx)?,
                    max_x: req_f64(t, "max_x", ctx)?,
                    max_y: req_f64(t, "max_y", ctx)?,
                    duration: req_u64(t, "duration", ctx)?,
                };
                if let FaultKindSpec::RegionBlackout {
                    min_x,
                    min_y,
                    max_x,
                    max_y,
                    ..
                } = kind
                {
                    if max_x < min_x || max_y < min_y {
                        return bad("[[faults]]: `region_blackout` rectangle is inverted \
                             (max_x/max_y below min_x/min_y)");
                    }
                }
                kind
            }
            other => return bad(format!("[[faults]]: unknown kind `{other}`")),
        };
        faults.push(FaultSpec { at, kind });
    }
    Ok(faults)
}

fn parse_churn(value: Option<&Value>) -> Result<Vec<ChurnSpec>, ManifestError> {
    let Some(value) = value else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| ManifestError("[[churn]] must be an array of tables".into()))?;
    let mut churn = Vec::new();
    for item in items {
        let t = item
            .as_table()
            .ok_or_else(|| ManifestError("each churn entry must be a table".into()))?;
        check_keys(t, "[[churn]]", CHURN_KEYS)?;
        let at_round = req_u64(t, "at_round", "[[churn]]")?;
        let action = t
            .get("action")
            .and_then(Value::as_str)
            .ok_or_else(|| ManifestError("[[churn]]: missing `action`".into()))?;
        let action = match action {
            "link_up" => ChurnAction::LinkUp {
                a: req_u64(t, "a", "[[churn]]")?,
                b: req_u64(t, "b", "[[churn]]")?,
            },
            "link_down" => ChurnAction::LinkDown {
                a: req_u64(t, "a", "[[churn]]")?,
                b: req_u64(t, "b", "[[churn]]")?,
            },
            "node_join" => {
                let links = match t.get("links") {
                    None => Vec::new(),
                    Some(v) => {
                        let arr = v
                            .as_array()
                            .ok_or_else(|| ManifestError("`links` must be an array".into()))?;
                        let mut links = Vec::new();
                        for l in arr {
                            links.push(count_value(l, "links", "[[churn]]")?);
                        }
                        links
                    }
                };
                ChurnAction::NodeJoin {
                    node: req_u64(t, "node", "[[churn]]")?,
                    links,
                }
            }
            "node_leave" => ChurnAction::NodeLeave {
                node: req_u64(t, "node", "[[churn]]")?,
            },
            other => return bad(format!("[[churn]]: unknown action `{other}`")),
        };
        churn.push(ChurnSpec { at_round, action });
    }
    churn.sort_by_key(|c| c.at_round);
    Ok(churn)
}

fn parse_assertions(value: Option<&Value>) -> Result<AssertionSpec, ManifestError> {
    let Some(value) = value else {
        return Ok(AssertionSpec::default());
    };
    let t = value
        .as_table()
        .ok_or_else(|| ManifestError("[assertions] must be a table".into()))?;
    check_keys(t, "[assertions]", ASSERTION_KEYS)?;
    let opt_bool_field = |key: &str| -> Result<Option<bool>, ManifestError> {
        match t.get(key) {
            None => Ok(None),
            Some(v) => match v.as_bool() {
                Some(b) => Ok(Some(b)),
                None => bad(format!("[assertions]: `{key}` must be a boolean")),
            },
        }
    };
    let opt_u64_field = |key: &str| -> Result<Option<u64>, ManifestError> {
        match t.get(key) {
            None => Ok(None),
            Some(v) => count_value(v, key, "[assertions]").map(Some),
        }
    };
    let opt_f64_field = |key: &str| -> Result<Option<f64>, ManifestError> {
        match t.get(key) {
            None => Ok(None),
            Some(v) => match v.as_float() {
                Some(f) => Ok(Some(f)),
                None => bad(format!("[assertions]: `{key}` must be a number")),
            },
        }
    };
    Ok(AssertionSpec {
        converged_by: opt_u64_field("converged_by")?,
        max_rounds: opt_u64_field("max_rounds")?,
        view_continuity: opt_f64_field("view_continuity")?,
        agreement: opt_bool_field("agreement")?,
        safety: opt_bool_field("safety")?,
        maximality: opt_bool_field("maximality")?,
        legitimate: opt_bool_field("legitimate")?,
        min_groups: opt_u64_field("min_groups")?,
        max_groups: opt_u64_field("max_groups")?,
        min_delivery_ratio: opt_f64_field("min_delivery_ratio")?,
        reconverges: opt_bool_field("reconverges")?,
    })
}

fn parse_golden(value: Option<&Value>) -> Result<GoldenSpec, ManifestError> {
    let Some(value) = value else {
        return Ok(GoldenSpec::default());
    };
    let t = value
        .as_table()
        .ok_or_else(|| ManifestError("[golden] must be a table".into()))?;
    check_keys(t, "[golden]", GOLDEN_KEYS)?;
    let digests = match t.get("digests") {
        None => Vec::new(),
        Some(v) => {
            let arr = v
                .as_array()
                .ok_or_else(|| ManifestError("`digests` must be an array of strings".into()))?;
            let mut out = Vec::new();
            for d in arr {
                match d.as_str() {
                    Some(s) => out.push(s.to_string()),
                    None => return bad("`digests` entries must be strings"),
                }
            }
            out
        }
    };
    Ok(GoldenSpec { digests })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
schema = 1
name = "minimal"

[topology]
kind = "path"
n = 4
"#;

    #[test]
    fn minimal_manifest_uses_defaults() {
        let m = ScenarioManifest::parse(MINIMAL).expect("parses");
        assert_eq!(m.name, "minimal");
        assert_eq!(m.protocol.dmax, 3);
        assert_eq!(m.sim.seeds, vec![1]);
        assert_eq!(m.sim.rounds, 60);
        assert_eq!(m.workload.node_count(), 4);
        assert!(m.faults.is_empty() && m.churn.is_empty());
        assert_eq!(m.assertions, AssertionSpec::default());
    }

    /// A typo must not silently fall back to the default: every table
    /// rejects a key it does not read, naming table and key.
    #[test]
    fn unknown_keys_are_rejected_in_every_table() {
        let spatial =
            "name = \"k\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 5.0\n";
        for (input, table, key) in [
            (format!("{MINIMAL}[sim]\nrouns = 3\n"), "[sim]", "rouns"),
            (
                format!("{MINIMAL}[protocol]\ndmax = 3\ndisable_quarantin = true\n"),
                "[protocol]",
                "disable_quarantin",
            ),
            (
                format!("{spatial}[radio]\nkind = \"unit_disk\"\nrange = 6.0\nrnage = 7.0\n"),
                "[radio]",
                "rnage",
            ),
            (
                format!("{MINIMAL}[assertions]\nconverged_bye = 10\n"),
                "[assertions]",
                "converged_bye",
            ),
            (
                format!("{MINIMAL}[[faults]]\nat = 100\nkind = \"crash\"\nnode = 0\nnoed = 1\n"),
                "[[faults]]",
                "noed",
            ),
            (
                format!("{MINIMAL}[[churn]]\nat_round = 2\naction = \"node_leave\"\nnode = 0\nlnks = [1]\n"),
                "[[churn]]",
                "lnks",
            ),
            (
                format!("{spatial}wdith = 9.0\n[radio]\nkind = \"unit_disk\"\nrange = 6.0\n"),
                "[mobility]",
                "wdith",
            ),
            (format!("{MINIMAL}side = 3.0\nsdie = 4.0\n"), "[topology]", "sdie"),
            (format!("{MINIMAL}[report]\nresiliance = true\n"), "[report]", "resiliance"),
            (format!("{MINIMAL}[golden]\ndigest = []\n"), "[golden]", "digest"),
            (format!("bogus_key = true\n{MINIMAL}"), "manifest", "bogus_key"),
            (
                format!("mode = \"campaign\"\n{MINIMAL}[campaign]\nschedule = 4\n"),
                "[campaign]",
                "schedule",
            ),
            (
                format!("mode = \"modelcheck\"\n{MINIMAL}[modelcheck]\ndepht = 4\n"),
                "[modelcheck]",
                "depht",
            ),
            (
                format!("mode = \"modelcheck\"\n{MINIMAL}[modelcheck.faults]\ndorps = 1\n"),
                "[modelcheck.faults]",
                "dorps",
            ),
        ] {
            let err = ScenarioManifest::parse(&input).expect_err(key).0;
            assert_eq!(err, format!("{table}: unknown key `{key}`"));
        }
    }

    /// The four keys that selected between engine regimes are gone; a
    /// manifest still carrying one is told so rather than run differently.
    #[test]
    fn removed_sim_keys_are_rejected_by_name() {
        for line in [
            "rng_streams = \"legacy\"",
            "parallel_compute = true",
            "parallel_transport = false",
            "spatial_index = false",
        ] {
            let key = line.split(' ').next().expect("non-empty");
            let err = ScenarioManifest::parse(&format!("{MINIMAL}[sim]\n{line}\n"))
                .expect_err(key)
                .0;
            assert_eq!(
                err,
                format!("[sim]: `{key}` was removed — the engine has one regime")
            );
        }
    }

    #[test]
    fn full_manifest_round_trips_every_section() {
        let m = ScenarioManifest::parse(
            r#"
schema = 1
name = "full"
description = "everything at once"

[protocol]
dmax = 2
naive_compatibility = true
disable_quarantine = true

[sim]
seeds = [3, 5]
rounds = 40
send_period = 100
compute_period = 400
loss = 0.25
stagger_phases = false

[topology]
kind = "grid"
rows = 2
cols = 3

[[faults]]
at = 5000
kind = "crash"
node = 1

[[faults]]
at = 9000
kind = "loss_burst"
duration = 2000

[[churn]]
at_round = 20
action = "link_down"
a = 0
b = 1

[[churn]]
at_round = 10
action = "node_join"
node = 9
links = [0, 3]

[assertions]
converged_by = 30
view_continuity = 0.9
agreement = true
min_groups = 1
max_groups = 4
min_delivery_ratio = 0.5

[golden]
digests = ["aa", "bb"]
"#,
        )
        .expect("parses");
        assert_eq!(m.protocol.dmax, 2);
        assert!(m.protocol.naive_compatibility && m.protocol.disable_quarantine);
        assert_eq!(m.sim.seeds, vec![3, 5]);
        assert!((m.sim.loss - 0.25).abs() < 1e-12);
        assert!(!m.sim.stagger_phases);
        assert_eq!(m.workload.node_count(), 6);
        assert_eq!(m.faults.len(), 2);
        assert!(matches!(
            m.faults[1].kind,
            FaultKindSpec::LossBurst { duration: 2000 }
        ));
        // churn is sorted by round
        assert_eq!(m.churn[0].at_round, 10);
        assert!(
            matches!(&m.churn[0].action, ChurnAction::NodeJoin { node: 9, links } if links == &[0, 3])
        );
        assert_eq!(m.assertions.converged_by, Some(30));
        assert_eq!(m.golden.digests.len(), 2);
    }

    #[test]
    fn spatial_manifest_parses() {
        let m = ScenarioManifest::parse(
            r#"
name = "spatial"

[mobility]
kind = "highway"
n = 12
lanes = 2
road_length = 1000.0
initial_gap = 20.0
speed_min = 0.01
speed_max = 0.03

[radio]
kind = "lossy_disk"
range = 50.0
loss = 0.1
"#,
        )
        .expect("parses");
        assert!(matches!(
            m.workload,
            WorkloadSpec::Spatial {
                mobility: MobilitySpec::Highway {
                    n: 12,
                    lanes: 2,
                    ..
                },
                radio: RadioSpec::LossyDisk { .. },
                channel: ChannelSpec::Bernoulli,
            }
        ));
    }

    #[test]
    fn contention_channel_parses_with_defaults_and_overrides() {
        let base = r#"
name = "vanet"
[mobility]
kind = "city_grid"
n = 40
blocks = 4
block_size = 120.0
speed_min = 0.01
speed_max = 0.02
light_period = 3000
[radio]
kind = "unit_disk"
range = 45.0
model = "contention"
"#;
        let m = ScenarioManifest::parse(base).expect("parses");
        let WorkloadSpec::Spatial { channel, radio, .. } = &m.workload else {
            panic!("spatial workload expected");
        };
        assert_eq!(radio.range(), 45.0);
        assert_eq!(
            *channel,
            ChannelSpec::Contention {
                base_loss: 0.02,
                load_loss: 0.08,
                max_loss: 0.95,
                window: 250,
                jitter: 0,
                hidden_terminal: true,
            }
        );

        let tuned = format!(
            "{base}base_loss = 0.01\nload_loss = 0.05\nmax_loss = 0.9\nwindow = 500\njitter = 6\nhidden_terminal = false\n"
        );
        let m = ScenarioManifest::parse(&tuned).expect("parses");
        let WorkloadSpec::Spatial { channel, .. } = &m.workload else {
            panic!("spatial workload expected");
        };
        assert_eq!(
            *channel,
            ChannelSpec::Contention {
                base_loss: 0.01,
                load_loss: 0.05,
                max_loss: 0.9,
                window: 500,
                jitter: 6,
                hidden_terminal: false,
            }
        );
    }

    #[test]
    fn mixed_highway_counts_roadside_and_vehicles() {
        let m = ScenarioManifest::parse(
            r#"
name = "mixed"
[mobility]
kind = "mixed_highway"
n_roadside = 6
rsu_spacing = 200.0
n = 30
lanes = 3
road_length = 1200.0
initial_gap = 25.0
speed_min = 0.01
speed_max = 0.04
[radio]
kind = "unit_disk"
range = 60.0
"#,
        )
        .expect("parses");
        assert_eq!(m.workload.node_count(), 36);
        assert!(matches!(
            m.workload,
            WorkloadSpec::Spatial {
                mobility: MobilitySpec::MixedHighway {
                    n_roadside: 6,
                    n: 30,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn channel_model_validation_rejects_bad_input() {
        let manifest = |radio: &str| {
            format!(
                "name = \"x\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 10.0\n[radio]\nkind = \"unit_disk\"\nrange = 15.0\n{radio}"
            )
        };
        // unknown model
        let err = ScenarioManifest::parse(&manifest("model = \"csma\"\n")).unwrap_err();
        assert!(err.to_string().contains("unknown model `csma`"), "{err}");
        // contention keys without the contention model
        let err = ScenarioManifest::parse(&manifest("load_loss = 0.1\n")).unwrap_err();
        assert!(
            err.to_string()
                .contains("`load_loss` requires `model = \"contention\"`"),
            "{err}"
        );
        // out-of-range probability
        let err = ScenarioManifest::parse(&manifest("model = \"contention\"\nmax_loss = 1.5\n"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("`max_loss` must be a probability in [0, 1]"),
            "{err}"
        );
        // count keys share the uniform error shape
        let err = ScenarioManifest::parse(&manifest("model = \"contention\"\nwindow = 1.5\n"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("[radio]: `window`: expected non-negative integer"),
            "{err}"
        );
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(
            ScenarioManifest::parse("name = \"x\"").is_err(),
            "no workload"
        );
        assert!(ScenarioManifest::parse(
            "schema = 99\nname = \"x\"\n[topology]\nkind = \"path\"\nn = 2"
        )
        .is_err());
        assert!(
            ScenarioManifest::parse("name = \"x\"\n[topology]\nkind = \"blob\"\nn = 2").is_err()
        );
        assert!(
            ScenarioManifest::parse("name = \"x\"\n[mobility]\nkind = \"random_walk\"\nn = 2\nwidth = 1.0\nheight = 1.0\nmax_step = 0.1").is_err(),
            "mobility without radio"
        );
        // churn on a spatial workload is rejected
        let spatial_churn = r#"
name = "x"
[mobility]
kind = "stationary_line"
n = 3
spacing = 10.0
[radio]
kind = "unit_disk"
range = 15.0
[[churn]]
at_round = 1
action = "link_down"
a = 0
b = 1
"#;
        assert!(ScenarioManifest::parse(spatial_churn).is_err());
        // golden misaligned with seeds
        let misaligned = r#"
name = "x"
[topology]
kind = "path"
n = 2
[sim]
seeds = [1, 2]
[golden]
digests = ["only-one"]
"#;
        assert!(ScenarioManifest::parse(misaligned).is_err());
    }

    /// Every count-like key, wherever it lives, reports the same error
    /// shape on a malformed value: `` `{key}`: expected non-negative
    /// integer``. One case per validation site.
    #[test]
    fn count_keys_report_one_uniform_error_shape() {
        let cases: &[(&str, &str)] = &[
            // [topology] required count, float-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2.5",
                "[topology]: `n`: expected non-negative integer",
            ),
            // [topology] required count, missing
            (
                "name = \"x\"\n[topology]\nkind = \"path\"",
                "[topology]: `n`: expected non-negative integer, but the key is missing",
            ),
            // [protocol] required count, negative
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[protocol]\ndmax = -1",
                "[protocol]: `dmax`: expected non-negative integer",
            ),
            // [sim] optional count, string-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[sim]\nrounds = \"ten\"",
                "[sim]: `rounds`: expected non-negative integer",
            ),
            // [sim] seeds array entry, negative
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[sim]\nseeds = [1, -2]",
                "[sim]: `seeds`: expected non-negative integer",
            ),
            // [[faults]] required count, boolean-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[[faults]]\nat = true\nkind = \"crash\"\nnode = 0",
                "[[faults]]: `at`: expected non-negative integer",
            ),
            // [[churn]] links entry, float-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 3\n[[churn]]\nat_round = 1\naction = \"node_join\"\nnode = 9\nlinks = [0, 1.5]",
                "[[churn]]: `links`: expected non-negative integer",
            ),
            // [assertions] optional count, float-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[assertions]\nconverged_by = 9.75",
                "[assertions]: `converged_by`: expected non-negative integer",
            ),
            // [modelcheck] optional count, negative
            (
                "name = \"x\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck]\ndepth = -4",
                "[modelcheck]: `depth`: expected non-negative integer",
            ),
            // [modelcheck.faults] budget entry, string-shaped
            (
                "name = \"x\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck]\n[modelcheck.faults]\ndrops = \"two\"",
                "[modelcheck.faults]: `drops`: expected non-negative integer",
            ),
        ];
        for (input, expected) in cases {
            let err = ScenarioManifest::parse(input).expect_err(expected).0;
            assert!(
                err.contains(expected),
                "expected error containing `{expected}`, got `{err}`"
            );
        }
    }

    #[test]
    fn modelcheck_manifest_parses_with_defaults_and_overrides() {
        let m = ScenarioManifest::parse(
            r#"
name = "mc"
mode = "modelcheck"
[topology]
kind = "complete"
n = 3
[assertions]
reconverges = true
"#,
        )
        .expect("parses");
        assert_eq!(m.mode, RunMode::ModelCheck);
        let spec = m.modelcheck.expect("defaulted spec");
        assert_eq!(spec, ModelCheckSpec::default());
        assert_eq!(m.assertions.reconverges, Some(true));

        let m = ScenarioManifest::parse(
            r#"
name = "mc"
mode = "modelcheck"
[topology]
kind = "path"
n = 4
[modelcheck]
depth = 32
max_states = 5000
start = "legitimate"
warmup_rounds = 20
walks = 4
walk_depth = 64
[modelcheck.faults]
drops = 1
duplicates = 2
crashes = 1
"#,
        )
        .expect("parses");
        let spec = m.modelcheck.expect("spec");
        assert_eq!(spec.depth, 32);
        assert_eq!(spec.max_states, 5000);
        assert_eq!(spec.start, StartSpec::Legitimate);
        assert_eq!(spec.warmup_rounds, 20);
        assert_eq!((spec.walks, spec.walk_depth), (4, 64));
        assert_eq!(
            (spec.max_drops, spec.max_duplicates, spec.max_crashes),
            (1, 2, 1)
        );
    }

    #[test]
    fn modelcheck_mode_rejects_simulation_only_sections() {
        let base = "name = \"mc\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 3\n";
        for (extra, why) in [
            (
                "[[faults]]\nat = 100\nkind = \"crash\"\nnode = 0\n",
                "faults",
            ),
            (
                "[[churn]]\nat_round = 2\naction = \"link_down\"\na = 0\nb = 1\n",
                "churn",
            ),
            ("[assertions]\nconverged_by = 10\n", "converged_by"),
            ("[assertions]\nview_continuity = 0.9\n", "view_continuity"),
            ("[assertions]\nmin_delivery_ratio = 0.5\n", "delivery"),
            ("[assertions]\nmax_rounds = 40\n", "max_rounds"),
        ] {
            let input = format!("{base}{extra}");
            assert!(
                ScenarioManifest::parse(&input).is_err(),
                "modelcheck manifest with {why} must be rejected"
            );
        }
        // spatial workloads cannot be explored
        assert!(ScenarioManifest::parse(
            "name = \"mc\"\nmode = \"modelcheck\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 10.0\n[radio]\nkind = \"unit_disk\"\nrange = 15.0\n"
        )
        .is_err());
        // and the table/assertion are modelcheck-only
        assert!(ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck]\ndepth = 8\n"
        )
        .is_err());
        assert!(ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[assertions]\nreconverges = true\n"
        )
        .is_err());
        assert!(ScenarioManifest::parse(
            "name = \"x\"\nmode = \"fuzz\"\n[topology]\nkind = \"path\"\nn = 2\n"
        )
        .is_err());
    }

    #[test]
    fn report_toggles_conflict_with_probe_reading_assertions() {
        let m = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nconvergence = false\ncontinuity = false\n",
        )
        .expect("parses");
        assert!(!m.report.convergence && !m.report.continuity);
        // defaults keep both probes on; resilience is opt-in
        assert_eq!(
            ReportSpec::default(),
            ReportSpec {
                convergence: true,
                continuity: true,
                resilience: false,
            }
        );

        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nconvergence = false\n[assertions]\nconverged_by = 10\n",
        )
        .expect_err("conflict").0;
        assert!(err.contains("convergence = false"), "got `{err}`");
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\ncontinuity = false\n[assertions]\nview_continuity = 0.5\n",
        )
        .expect_err("conflict").0;
        assert!(err.contains("continuity = false"), "got `{err}`");

        // resilience rides on the convergence verdict stream
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nconvergence = false\nresilience = true\n",
        )
        .expect_err("conflict").0;
        assert!(err.contains("resilience = true"), "got `{err}`");
        let m = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nresilience = true\n",
        )
        .expect("parses");
        assert!(m.report.resilience);
    }

    /// Every fault kind of the adversarial campaign round-trips through
    /// the manifest, and the spatial-only kind is rejected on explicit
    /// topologies.
    #[test]
    fn adversarial_fault_kinds_parse_and_validate() {
        let m = ScenarioManifest::parse(
            r#"
name = "storm"
[topology]
kind = "path"
n = 6

[[faults]]
at = 1000
kind = "partition"
groups = [[0, 1, 2], [3, 4, 5]]

[[faults]]
at = 2000
kind = "corrupt_message"
node = 3

[[faults]]
at = 3000
kind = "heal"

[[faults]]
at = 4000
kind = "restart_stale"
node = 2
"#,
        )
        .expect("parses");
        assert_eq!(m.faults.len(), 4);
        assert!(matches!(
            &m.faults[0].kind,
            FaultKindSpec::Partition { groups } if groups == &[vec![0, 1, 2], vec![3, 4, 5]]
        ));
        assert!(matches!(
            m.faults[1].kind,
            FaultKindSpec::CorruptMessage { node: 3 }
        ));
        assert!(matches!(m.faults[2].kind, FaultKindSpec::Heal));
        assert!(matches!(
            m.faults[3].kind,
            FaultKindSpec::RestartStale { node: 2 }
        ));

        // region_blackout parses on a spatial workload...
        let spatial = r#"
name = "blackout"
[mobility]
kind = "stationary_line"
n = 4
spacing = 10.0
[radio]
kind = "unit_disk"
range = 15.0
[[faults]]
at = 500
kind = "region_blackout"
min_x = 0.0
min_y = -5.0
max_x = 20.0
max_y = 5.0
duration = 1000
"#;
        let m = ScenarioManifest::parse(spatial).expect("parses");
        assert!(matches!(
            m.faults[0].kind,
            FaultKindSpec::RegionBlackout { duration: 1000, .. }
        ));

        // ...but is rejected on explicit topologies
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4\n[[faults]]\nat = 500\nkind = \"region_blackout\"\nmin_x = 0.0\nmin_y = 0.0\nmax_x = 1.0\nmax_y = 1.0\nduration = 100\n",
        )
        .expect_err("explicit region_blackout").0;
        assert!(err.contains("spatial workload"), "got `{err}`");

        // inverted rectangle is rejected
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 10.0\n[radio]\nkind = \"unit_disk\"\nrange = 15.0\n[[faults]]\nat = 500\nkind = \"region_blackout\"\nmin_x = 5.0\nmin_y = 0.0\nmax_x = 1.0\nmax_y = 1.0\nduration = 100\n",
        )
        .expect_err("inverted rect").0;
        assert!(err.contains("inverted"), "got `{err}`");

        // a one-group partition is rejected
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4\n[[faults]]\nat = 500\nkind = \"partition\"\ngroups = [[0, 1]]\n",
        )
        .expect_err("one group").0;
        assert!(err.contains("at least two groups"), "got `{err}`");
    }

    #[test]
    fn campaign_manifest_parses_with_defaults_and_overrides() {
        let m = ScenarioManifest::parse(
            r#"
name = "campaign"
mode = "campaign"
[topology]
kind = "path"
n = 6
[assertions]
max_rounds = 80
"#,
        )
        .expect("parses");
        assert_eq!(m.mode, RunMode::Campaign);
        assert_eq!(m.campaign, Some(CampaignSpec::default()));
        assert_eq!(m.assertions.max_rounds, Some(80));

        let m = ScenarioManifest::parse(
            r#"
name = "campaign"
mode = "campaign"
[topology]
kind = "ring"
n = 8
[campaign]
schedules = 24
max_faults = 4
horizon = 30000
search_seed = 99
replay = "campaigns/worst.txt"
"#,
        )
        .expect("parses");
        let c = m.campaign.expect("spec");
        assert_eq!(c.schedules, 24);
        assert_eq!(c.max_faults, 4);
        assert_eq!(c.horizon, Some(30_000));
        assert_eq!(c.search_seed, 99);
        assert_eq!(c.replay.as_deref(), Some("campaigns/worst.txt"));
    }

    #[test]
    fn campaign_mode_rejects_foreign_sections() {
        let base = "name = \"c\"\nmode = \"campaign\"\n[topology]\nkind = \"path\"\nn = 4\n";
        for (extra, why) in [
            (
                "[[faults]]\nat = 100\nkind = \"crash\"\nnode = 0\n",
                "explicit faults",
            ),
            (
                "[[churn]]\nat_round = 2\naction = \"link_down\"\na = 0\nb = 1\n",
                "churn",
            ),
            ("[assertions]\nconverged_by = 10\n", "converged_by"),
            ("[assertions]\nagreement = true\n", "agreement"),
            ("[assertions]\nreconverges = true\n", "reconverges"),
            ("[modelcheck]\ndepth = 8\n", "modelcheck table"),
            ("[report]\nconvergence = false\n", "convergence off"),
            ("[campaign]\nschedules = 0\n", "zero schedules"),
            ("[campaign]\nmax_faults = 0\n", "zero max_faults"),
        ] {
            let input = format!("{base}{extra}");
            assert!(
                ScenarioManifest::parse(&input).is_err(),
                "campaign manifest with {why} must be rejected"
            );
        }
        // [campaign] outside campaign mode is rejected
        assert!(ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[campaign]\nschedules = 4\n"
        )
        .is_err());
        // count keys share the uniform error shape
        let err = ScenarioManifest::parse(&format!("{base}[campaign]\nschedules = 2.5\n"))
            .expect_err("float schedules")
            .0;
        assert!(
            err.contains("[campaign]: `schedules`: expected non-negative integer"),
            "got `{err}`"
        );
    }

    #[test]
    fn pair_corrupted_start_parses() {
        let m = ScenarioManifest::parse(
            r#"
name = "mc-pairs"
mode = "modelcheck"
[topology]
kind = "complete"
n = 3
[modelcheck]
start = "pair-corrupted"
[modelcheck.faults]
drops = 1
[assertions]
reconverges = true
"#,
        )
        .expect("parses");
        assert_eq!(m.modelcheck.expect("spec").start, StartSpec::PairCorrupted);
        // resilience accounting is simulation-only
        let err = ScenarioManifest::parse(
            "name = \"mc\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 3\n[report]\nresilience = true\n",
        )
        .expect_err("mc resilience").0;
        assert!(err.contains("simulation-only"), "got `{err}`");
    }
}
