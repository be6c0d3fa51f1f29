//! The scenario manifest schema (v1) and its TOML loader.
//!
//! A manifest declares *one* workload for the GRP conformance harness: how
//! the topology comes to be (generator or mobility + radio), the protocol
//! and simulator parameters, an optional fault plan and churn schedule, the
//! predicates the run must satisfy, and the golden trace digests pinned by
//! the regression suite. See `docs/SCENARIOS.md` for the narrative
//! documentation of every field.
//!
//! Where the library already has a type for a table, the manifest holds
//! that type: [`GraphGenerator`] for `[topology]`, [`GrpConfig`] for
//! `[protocol]`, [`ScheduledFault`] for each `[[faults]]` entry,
//! [`ContentionConfig`] for the contention channel and [`ExploreConfig`]
//! for the explorer's half of `[modelcheck]`. Their defaults are the
//! manifest's defaults.

use crate::toml::{self, FromValue, ParseError, Table, Value};
use dyngraph::{GraphGenerator, NodeId};
use grp_core::GrpConfig;
use modelcheck::{ExploreConfig, FaultBudget};
use netsim::{ContentionConfig, FaultKind, Region, ScheduledFault, SimTime};
use std::collections::BTreeSet;
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

/// Either an explicit generator or a mobility + radio pair.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    Explicit(GraphGenerator),
    Spatial {
        mobility: MobilitySpec,
        radio: RadioSpec,
        /// The medium layered on the radio geometry, the `[radio] model`
        /// key: `None` for `"bernoulli"` (the default, per-link iid loss
        /// from the radio kind), or the `"contention"` channel's parameters
        /// (`docs/CHANNELS.md`).
        channel: Option<ContentionConfig>,
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

/// The `[modelcheck]` table (`mode = "modelcheck"` only): where the
/// explorer starts, and its bounds and adversary budget
/// (`[modelcheck.faults]`). The run sets `explore.seed` to its own seed.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelCheckSpec {
    /// Starting configurations to explore from.
    pub start: StartSpec,
    /// Synchronous warm-up rounds allowed to reach the legitimate base.
    pub warmup_rounds: usize,
    pub explore: ExploreConfig,
}

impl Default for ModelCheckSpec {
    fn default() -> Self {
        ModelCheckSpec {
            start: StartSpec::default(),
            warmup_rounds: 64,
            explore: ExploreConfig::default(),
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
    pub protocol: GrpConfig,
    pub sim: SimSpec,
    pub report: ReportSpec,
    /// Present iff `mode = "modelcheck"` (defaulted when the table is
    /// absent).
    pub modelcheck: Option<ModelCheckSpec>,
    /// Present iff `mode = "campaign"` (defaulted when the table is
    /// absent).
    pub campaign: Option<CampaignSpec>,
    pub faults: Vec<ScheduledFault>,
    pub churn: Vec<ChurnSpec>,
    pub assertions: AssertionSpec,
    pub golden: GoldenSpec,
}

impl ScenarioManifest {
    /// A `mode = "simulate"` manifest of `rounds` rounds running `protocol`
    /// on `workload`; every other field is the parser's default (seed 1,
    /// default timing, no faults, churn or assertions). This is how the
    /// experiments describe a run in code.
    pub fn simulate(
        name: impl Into<String>,
        workload: WorkloadSpec,
        protocol: GrpConfig,
        rounds: u64,
    ) -> Self {
        ScenarioManifest {
            name: name.into(),
            description: String::new(),
            mode: RunMode::Simulate,
            workload,
            protocol,
            sim: SimSpec {
                rounds,
                ..SimSpec::default()
            },
            report: ReportSpec::default(),
            modelcheck: None,
            campaign: None,
            faults: Vec::new(),
            churn: Vec::new(),
            assertions: AssertionSpec::default(),
            golden: GoldenSpec::default(),
        }
    }

    /// Load from a TOML string.
    pub fn parse(input: &str) -> Result<Self, ManifestError> {
        toml::parse(input)
            .and_then(|doc| Self::from_root(Table::root(&doc, "manifest")))
            .map_err(|e| ManifestError(e.to_string()))
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

    fn from_root(mut root: Table) -> Result<Self, ParseError> {
        let schema = root.or("schema", SCHEMA_VERSION)?;
        if schema != SCHEMA_VERSION {
            let message = format!(
                "unsupported schema version {schema} (this runner understands {SCHEMA_VERSION})"
            );
            return Err(root.error("schema", message));
        }
        let name = root.req("name")?;
        let description = root.or("description", String::new())?;
        let mode_name = root.select("mode", Some("simulate"))?;
        let mode = match mode_name {
            "simulate" => RunMode::Simulate,
            "modelcheck" => RunMode::ModelCheck,
            "campaign" => RunMode::Campaign,
            other => {
                let message = format!(
                    "unknown `mode` `{other}` (expected \"simulate\", \"modelcheck\" or \"campaign\")"
                );
                return Err(root.error("mode", message));
            }
        };

        let workload = parse_workload(&mut root)?;
        let spatial = matches!(workload, WorkloadSpec::Spatial { .. });
        if spatial && mode == RunMode::ModelCheck {
            let message = "mode = \"modelcheck\" requires an explicit [topology]; spatial \
                 workloads cannot be exhaustively explored";
            return Err(root.error("mode", message));
        }
        if spatial && root.has("churn") {
            let message = "churn schedules require an explicit [topology]; spatial \
                 topologies are owned by the radio model";
            return Err(root.error("churn", message));
        }
        let protocol = parse_protocol(root.sub("protocol")?)?;
        let sim = parse_sim(root.sub("sim")?)?;
        let report = parse_report(root.sub("report")?, mode)?;
        // The timed schedules are simulation-only: the other modes do not
        // read them, so `finish` rejects them.
        let (mut faults, mut churn) = (Vec::new(), Vec::new());
        if mode == RunMode::Simulate {
            for t in root.array("faults")? {
                faults.push(parse_fault(t, spatial)?);
            }
            churn = parse_churn_schedule(root.array("churn")?, &workload)?;
        }
        let assertions = parse_assertions(root.sub("assertions")?, mode_name, &report)?;
        let modelcheck = match mode {
            RunMode::ModelCheck => Some(parse_modelcheck(root.sub("modelcheck")?)?),
            RunMode::Simulate | RunMode::Campaign => None,
        };
        let campaign = match mode {
            RunMode::Campaign => Some(parse_campaign(root.sub("campaign")?)?),
            RunMode::Simulate | RunMode::ModelCheck => None,
        };
        let mut golden = root.sub("golden")?;
        let digests: Vec<String> = golden.or("digests", Vec::new())?;
        if !digests.is_empty() && digests.len() != sim.seeds.len() {
            let message = format!(
                "`digests` has {} entries but [sim] seeds has {} — they must align",
                digests.len(),
                sim.seeds.len()
            );
            return Err(golden.error("digests", message));
        }
        golden.finish()?;
        root.finish()?;

        Ok(ScenarioManifest {
            name,
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
            golden: GoldenSpec { digests },
        })
    }
}

/// A length (`width`, `side`, `range`, …): a finite number above 0.
struct Length(f64);

impl FromValue<'_> for Length {
    const WHAT: &'static str = "finite number above 0";
    fn from_value(value: &Value) -> Result<Self, &'static str> {
        let x = value.as_float().filter(|x| x.is_finite() && *x > 0.0);
        x.map(Length).ok_or(Self::WHAT)
    }
}

/// A step, speed, gap or radius: a finite number, 0 or above.
struct Extent(f64);

impl FromValue<'_> for Extent {
    const WHAT: &'static str = "finite number, 0 or above";
    fn from_value(value: &Value) -> Result<Self, &'static str> {
        let x = value.as_float().filter(|x| x.is_finite() && *x >= 0.0);
        x.map(Extent).ok_or(Self::WHAT)
    }
}

/// A count of lanes or blocks: an integer, 1 or above.
struct AtLeastOne(usize);

impl FromValue<'_> for AtLeastOne {
    const WHAT: &'static str = "integer, 1 or above";
    fn from_value(value: &Value) -> Result<Self, &'static str> {
        let n = usize::from_value(value).ok().filter(|&n| n >= 1);
        n.map(AtLeastOne).ok_or(Self::WHAT)
    }
}

/// `speed_min` and `speed_max`: extents, the first not above the second.
fn speeds(t: &mut Table) -> Result<(f64, f64), ParseError> {
    let min = t.req::<Extent>("speed_min")?.0;
    let max = t.req::<Extent>("speed_max")?.0;
    if min > max {
        let message = format!("`speed_max` ({max}) is below `speed_min` ({min})");
        return Err(t.error("speed_max", message));
    }
    Ok((min, max))
}

/// A loss or ratio: a number in [0, 1].
struct Probability(f64);

impl FromValue<'_> for Probability {
    const WHAT: &'static str = "probability in [0, 1]";
    fn from_value(value: &Value) -> Result<Self, &'static str> {
        let p = value.as_float().filter(|p| (0.0..=1.0).contains(p));
        p.map(Probability).ok_or(Self::WHAT)
    }
}

/// A node id (`node`, the `groups` of a partition) reads as a count.
impl FromValue<'_> for NodeId {
    const WHAT: &'static str = <u64 as FromValue>::WHAT;
    fn from_value(value: &Value) -> Result<Self, &'static str> {
        u64::from_value(value).map(NodeId)
    }
}

/// `[sim]` keys that selected between engine regimes until the engine kept
/// one: rejected by name, so an old manifest cannot silently change meaning.
const REMOVED_SIM_KEYS: [&str; 4] = [
    "rng_streams",
    "parallel_compute",
    "parallel_transport",
    "spatial_index",
];

/// The modes whose runs each assertion can judge: a modelcheck run has no
/// sampled timeline, and a campaign scores many runs, not one.
const ASSERTION_MODES: [(&str, &[&str]); 11] = [
    ("converged_by", &["simulate"]),
    ("max_rounds", &["simulate", "campaign"]),
    ("view_continuity", &["simulate"]),
    ("min_delivery_ratio", &["simulate"]),
    ("agreement", &["simulate", "modelcheck"]),
    ("safety", &["simulate", "modelcheck"]),
    ("maximality", &["simulate", "modelcheck"]),
    ("legitimate", &["simulate", "modelcheck"]),
    ("min_groups", &["simulate", "modelcheck"]),
    ("max_groups", &["simulate", "modelcheck"]),
    ("reconverges", &["modelcheck"]),
];

fn parse_workload(root: &mut Table) -> Result<WorkloadSpec, ParseError> {
    let (mobility, radio) = (root.has("mobility"), root.has("radio"));
    if root.has("topology") {
        if mobility || radio {
            let message = "[topology] is mutually exclusive with [mobility]/[radio]";
            return Err(root.error("topology", message));
        }
        return parse_topology(root.sub("topology")?).map(WorkloadSpec::Explicit);
    }
    if !(mobility && radio) {
        let key = if mobility { "mobility" } else { "radio" };
        let message = "missing workload: provide [topology], or both [mobility] and [radio]";
        return Err(root.error(key, message));
    }
    let mobility = parse_mobility(root.sub("mobility")?)?;
    let (radio, channel) = parse_radio(root.sub("radio")?)?;
    Ok(WorkloadSpec::Spatial {
        mobility,
        radio,
        channel,
    })
}

fn unknown(t: &Table, key: &str, value: &str) -> ParseError {
    t.error(key, format!("unknown {key} `{value}`"))
}

fn parse_topology(mut t: Table) -> Result<GraphGenerator, ParseError> {
    let spec = match t.select("kind", None)? {
        "path" => GraphGenerator::Path { n: t.req("n")? },
        "ring" => GraphGenerator::Ring { n: t.req("n")? },
        "grid" => GraphGenerator::Grid {
            rows: t.req("rows")?,
            cols: t.req("cols")?,
        },
        "complete" => GraphGenerator::Complete { n: t.req("n")? },
        "star" => GraphGenerator::Star { n: t.req("n")? },
        "clustered" => GraphGenerator::Clustered {
            clusters: t.req("clusters")?,
            cluster_size: t.req("cluster_size")?,
        },
        "erdos_renyi" => GraphGenerator::ErdosRenyi {
            n: t.req("n")?,
            p: t.req::<Probability>("p")?.0,
        },
        "random_geometric" => GraphGenerator::RandomGeometric {
            n: t.req("n")?,
            side: t.req::<Length>("side")?.0,
            radius: t.req::<Extent>("radius")?.0,
        },
        "edges" => GraphGenerator::Edges(parse_edges(&mut t)?),
        other => return Err(unknown(&t, "kind", other)),
    };
    t.finish()?;
    Ok(spec)
}

/// `edges = [[a, b], …]`: a non-empty list of id pairs without self-loops.
fn parse_edges(t: &mut Table) -> Result<Vec<(u64, u64)>, ParseError> {
    let pairs: Vec<Vec<u64>> = t.req("edges")?;
    if pairs.is_empty() {
        return Err(t.error("edges", "`edges` must not be empty"));
    }
    (1..)
        .zip(&pairs)
        .map(|(i, pair)| match pair[..] {
            [a, b] if a != b => Ok((a, b)),
            [a, _] => Err(t.error("edges", format!("`edges` #{i}: [{a}, {a}] is a self-loop"))),
            _ => Err(t.error("edges", format!("`edges` #{i}: expected a pair [a, b]"))),
        })
        .collect()
}

fn parse_mobility(mut t: Table) -> Result<MobilitySpec, ParseError> {
    let spec = match t.select("kind", None)? {
        "stationary_line" => MobilitySpec::StationaryLine {
            n: t.req("n")?,
            spacing: t.req::<Length>("spacing")?.0,
        },
        "stationary_uniform" => MobilitySpec::StationaryUniform {
            n: t.req("n")?,
            width: t.req::<Length>("width")?.0,
            height: t.req::<Length>("height")?.0,
        },
        "random_walk" => MobilitySpec::RandomWalk {
            n: t.req("n")?,
            width: t.req::<Length>("width")?.0,
            height: t.req::<Length>("height")?.0,
            max_step: t.req::<Extent>("max_step")?.0,
        },
        "waypoint" => {
            let (speed_min, speed_max) = speeds(&mut t)?;
            MobilitySpec::Waypoint {
                n: t.req("n")?,
                width: t.req::<Length>("width")?.0,
                height: t.req::<Length>("height")?.0,
                speed_min,
                speed_max,
            }
        }
        "highway" => {
            let (speed_min, speed_max) = speeds(&mut t)?;
            MobilitySpec::Highway {
                n: t.req("n")?,
                lanes: t.req::<AtLeastOne>("lanes")?.0,
                road_length: t.req::<Length>("road_length")?.0,
                initial_gap: t.req::<Extent>("initial_gap")?.0,
                speed_min,
                speed_max,
            }
        }
        "city_grid" => {
            let (speed_min, speed_max) = speeds(&mut t)?;
            MobilitySpec::CityGrid {
                n: t.req("n")?,
                blocks: t.req::<AtLeastOne>("blocks")?.0,
                block_size: t.req::<Length>("block_size")?.0,
                speed_min,
                speed_max,
                light_period: t.req("light_period")?,
            }
        }
        "mixed_highway" => {
            let (speed_min, speed_max) = speeds(&mut t)?;
            MobilitySpec::MixedHighway {
                n_roadside: t.req("n_roadside")?,
                rsu_spacing: t.req::<Length>("rsu_spacing")?.0,
                rsu_setback: t.or("rsu_setback", Extent(8.0))?.0,
                n: t.req("n")?,
                lanes: t.req::<AtLeastOne>("lanes")?.0,
                road_length: t.req::<Length>("road_length")?.0,
                initial_gap: t.req::<Extent>("initial_gap")?.0,
                speed_min,
                speed_max,
            }
        }
        other => return Err(unknown(&t, "kind", other)),
    };
    t.finish()?;
    Ok(spec)
}

/// `[radio]`: the geometry (`kind`) and the medium layered on it (`model`).
fn parse_radio(mut t: Table) -> Result<(RadioSpec, Option<ContentionConfig>), ParseError> {
    let radio = match t.select("kind", None)? {
        "unit_disk" => RadioSpec::UnitDisk {
            range: t.req::<Length>("range")?.0,
        },
        "lossy_disk" => RadioSpec::LossyDisk {
            range: t.req::<Length>("range")?.0,
            loss: t.req::<Probability>("loss")?.0,
        },
        "distance_loss" => RadioSpec::DistanceLoss {
            range: t.req::<Length>("range")?.0,
            edge_loss: t.req::<Probability>("edge_loss")?.0,
        },
        other => return Err(unknown(&t, "kind", other)),
    };
    let channel = match t.select("model", Some("bernoulli"))? {
        "bernoulli" => None,
        "contention" => {
            let d = ContentionConfig::new(radio.range());
            Some(ContentionConfig {
                base_loss: t.or("base_loss", Probability(d.base_loss))?.0,
                load_loss: t.or("load_loss", Probability(d.load_loss))?.0,
                max_loss: t.or("max_loss", Probability(d.max_loss))?.0,
                window: t.or("window", d.window)?,
                jitter: t.or("jitter", d.jitter)?,
                hidden_terminal: t.or("hidden_terminal", d.hidden_terminal)?,
                ..d
            })
        }
        other => {
            let message =
                format!("unknown model `{other}` (expected \"bernoulli\" or \"contention\")");
            return Err(t.error("model", message));
        }
    };
    t.finish()?;
    Ok((radio, channel))
}

fn parse_report(mut t: Table, mode: RunMode) -> Result<ReportSpec, ParseError> {
    let d = ReportSpec::default();
    let report = ReportSpec {
        convergence: t.or("convergence", d.convergence)?,
        continuity: t.or("continuity", d.continuity)?,
        resilience: t.or("resilience", d.resilience)?,
    };
    let conflict = match (mode, report.convergence, report.resilience) {
        (RunMode::ModelCheck, _, true) => Some((
            "resilience",
            "`resilience = true` is simulation-only — the model checker has no \
             per-round recovery timeline",
        )),
        (_, false, true) => Some((
            "resilience",
            "`resilience = true` requires `convergence = true` — recovery is timed \
             against the legitimacy verdict stream",
        )),
        (RunMode::Campaign, false, _) => Some((
            "convergence",
            "mode = \"campaign\" scores schedules on the legitimacy verdict stream \
             — `convergence = false` is not allowed",
        )),
        _ => None,
    };
    if let Some((key, message)) = conflict {
        return Err(t.error(key, message));
    }
    t.finish()?;
    Ok(report)
}

fn parse_campaign(mut t: Table) -> Result<CampaignSpec, ParseError> {
    let d = CampaignSpec::default();
    let spec = CampaignSpec {
        schedules: t.or("schedules", d.schedules)?,
        max_faults: t.or("max_faults", d.max_faults)?,
        horizon: t.opt("horizon")?,
        search_seed: t.or("search_seed", d.search_seed)?,
        replay: t.opt("replay")?,
    };
    for (key, value) in [
        ("schedules", spec.schedules),
        ("max_faults", spec.max_faults),
    ] {
        if value == 0 {
            return Err(t.error(key, format!("`{key}` must be at least 1")));
        }
    }
    t.finish()?;
    Ok(spec)
}

fn parse_modelcheck(mut t: Table) -> Result<ModelCheckSpec, ParseError> {
    let d = ModelCheckSpec::default();
    let start = match t.opt("start")? {
        None => d.start,
        Some("legitimate") => StartSpec::Legitimate,
        Some("corrupted") => StartSpec::Corrupted,
        Some("pair-corrupted") => StartSpec::PairCorrupted,
        Some(_) => {
            let message = "`start` must be \"legitimate\", \"corrupted\" or \"pair-corrupted\"";
            return Err(t.error("start", message));
        }
    };
    let mut faults = t.sub("faults")?;
    let (e, b) = (d.explore, d.explore.budget);
    let (depth, max_states) = (t.or("depth", e.depth)?, t.or("max_states", e.max_states)?);
    let warmup_rounds = t.or("warmup_rounds", d.warmup_rounds)?;
    let explore = ExploreConfig {
        depth,
        max_states,
        walks: t.or("walks", e.walks)?,
        walk_depth: t.or("walk_depth", e.walk_depth)?,
        budget: FaultBudget {
            max_drops: faults.or("drops", b.max_drops)?,
            max_duplicates: faults.or("duplicates", b.max_duplicates)?,
            max_crashes: faults.or("crashes", b.max_crashes)?,
        },
        ..e
    };
    faults.finish()?;
    t.finish()?;
    Ok(ModelCheckSpec {
        start,
        warmup_rounds,
        explore,
    })
}

fn parse_protocol(mut t: Table) -> Result<GrpConfig, ParseError> {
    let d = GrpConfig::default();
    let spec = GrpConfig {
        dmax: t.or("dmax", d.dmax)?,
        naive_compatibility: t.or("naive_compatibility", d.naive_compatibility)?,
        disable_quarantine: t.or("disable_quarantine", d.disable_quarantine)?,
    };
    if spec.dmax == 0 {
        return Err(t.error("dmax", "`dmax` must be at least 1"));
    }
    t.finish()?;
    Ok(spec)
}

fn parse_sim(mut t: Table) -> Result<SimSpec, ParseError> {
    for key in REMOVED_SIM_KEYS {
        if t.has(key) {
            let message = format!("`{key}` was removed — the engine has one regime");
            return Err(t.error(key, message));
        }
    }
    let d = SimSpec::default();
    let seeds = match t.opt::<Vec<u64>>("seeds")? {
        Some(seeds) if seeds.is_empty() => {
            return Err(t.error("seeds", "`seeds` must not be empty"))
        }
        Some(seeds) => seeds,
        None => vec![t.or("seed", d.seeds[0])?],
    };
    let spec = SimSpec {
        seeds,
        rounds: t.or("rounds", d.rounds)?,
        send_period: t.or("send_period", d.send_period)?,
        compute_period: t.or("compute_period", d.compute_period)?,
        mobility_period: t.or("mobility_period", d.mobility_period)?,
        delivery_delay: t.or("delivery_delay", d.delivery_delay)?,
        loss: t.or("loss", Probability(d.loss))?.0,
        stagger_phases: t.or("stagger_phases", d.stagger_phases)?,
    };
    // a zero period re-arms its timer at the same instant forever
    for (key, value) in [
        ("send_period", spec.send_period),
        ("compute_period", spec.compute_period),
        ("mobility_period", spec.mobility_period),
    ] {
        if value == 0 {
            return Err(t.error(key, format!("`{key}` must be at least 1")));
        }
    }
    t.finish()?;
    Ok(spec)
}

fn parse_fault(mut t: Table, spatial: bool) -> Result<ScheduledFault, ParseError> {
    let at = SimTime(t.req("at")?);
    let kind = match t.select("kind", None)? {
        "crash" => FaultKind::Crash(t.req("node")?),
        "restart" => FaultKind::Restart(t.req("node")?),
        "restart_stale" => FaultKind::RestartStale(t.req("node")?),
        "corrupt" => FaultKind::CorruptState(t.req("node")?),
        "corrupt_message" => FaultKind::CorruptMessage(t.req("node")?),
        "loss_burst" => FaultKind::LossBurst {
            duration: t.req("duration")?,
        },
        "partition" => FaultKind::Partition {
            groups: t.req("groups")?,
        },
        "heal" => FaultKind::Heal,
        // RegionBlackout silences nodes by position — meaningless on an
        // explicit topology, so fail loudly instead of running an inert fault.
        "region_blackout" if !spatial => {
            let message = "`region_blackout` requires a spatial workload ([mobility]+[radio]) \
                 — explicit topologies have no positions";
            return Err(t.error("kind", message));
        }
        "region_blackout" => FaultKind::RegionBlackout {
            region: Region {
                min_x: t.req("min_x")?,
                min_y: t.req("min_y")?,
                max_x: t.req("max_x")?,
                max_y: t.req("max_y")?,
            },
            duration: t.req("duration")?,
        },
        other => return Err(unknown(&t, "kind", other)),
    };
    // the checks campaign-file lines pass too
    kind.validate().map_err(|e| t.error(e.key, e.message))?;
    t.finish()?;
    Ok(ScheduledFault::new(at, kind))
}

/// The `[[churn]]` tables, in schedule order: by round, then file order.
/// Every id an action names must be a node of the topology or one an
/// earlier `node_join` added, and no action may link a node to itself.
fn parse_churn_schedule(
    tables: Vec<Table>,
    workload: &WorkloadSpec,
) -> Result<Vec<ChurnSpec>, ParseError> {
    let mut schedule = Vec::with_capacity(tables.len());
    for mut t in tables {
        schedule.push((parse_churn(&mut t)?, t));
    }
    schedule.sort_by_key(|(c, _)| c.at_round);
    // churn requires an explicit topology, checked before this is called
    let WorkloadSpec::Explicit(generator) = workload else {
        return Ok(Vec::new());
    };
    let mut joined = BTreeSet::new();
    schedule
        .into_iter()
        .map(|(spec, t)| {
            check_churn_ids(&spec.action, &t, generator, &mut joined)?;
            t.finish()?;
            Ok(spec)
        })
        .collect()
}

fn parse_churn(t: &mut Table) -> Result<ChurnSpec, ParseError> {
    let at_round = t.req("at_round")?;
    let action = match t.select("action", None)? {
        "link_up" => ChurnAction::LinkUp {
            a: t.req("a")?,
            b: t.req("b")?,
        },
        "link_down" => ChurnAction::LinkDown {
            a: t.req("a")?,
            b: t.req("b")?,
        },
        "node_join" => ChurnAction::NodeJoin {
            node: t.req("node")?,
            links: t.or("links", Vec::new())?,
        },
        "node_leave" => ChurnAction::NodeLeave {
            node: t.req("node")?,
        },
        other => return Err(unknown(t, "action", other)),
    };
    Ok(ChurnSpec { at_round, action })
}

/// Check one action's ids against the topology `generator` builds and
/// the nodes `joined` so far, then add the node a `node_join` brings.
fn check_churn_ids(
    action: &ChurnAction,
    t: &Table,
    generator: &GraphGenerator,
    joined: &mut BTreeSet<u64>,
) -> Result<(), ParseError> {
    let known = |id: u64| generator.has_node(NodeId(id)) || joined.contains(&id);
    let unknown = |key: &str, id: u64| {
        let message = format!(
            "`{key}`: node {id} is neither in the topology nor added by an earlier `node_join`"
        );
        Err(t.error(key, message))
    };
    match *action {
        ChurnAction::LinkUp { a, b } | ChurnAction::LinkDown { a, b } => {
            if a == b {
                return Err(t.error("b", format!("`a` = `b` = {a} is a self-loop")));
            }
            for (key, id) in [("a", a), ("b", b)] {
                if !known(id) {
                    return unknown(key, id);
                }
            }
        }
        ChurnAction::NodeJoin { node, ref links } => {
            for &peer in links {
                if peer == node {
                    return Err(t.error("links", format!("`links` names node {node} itself")));
                }
                if !known(peer) {
                    return unknown("links", peer);
                }
            }
            joined.insert(node);
        }
        ChurnAction::NodeLeave { node } if !known(node) => return unknown("node", node),
        ChurnAction::NodeLeave { .. } => {}
    }
    Ok(())
}

fn parse_assertions(
    mut t: Table,
    mode: &str,
    report: &ReportSpec,
) -> Result<AssertionSpec, ParseError> {
    for (key, modes) in ASSERTION_MODES {
        if t.has(key) && !modes.contains(&mode) {
            let message = format!(
                "`{key}` cannot be checked in mode = \"{mode}\" (only in {})",
                modes.join(", ")
            );
            return Err(t.error(key, message));
        }
    }
    let spec = AssertionSpec {
        converged_by: t.opt("converged_by")?,
        max_rounds: t.opt("max_rounds")?,
        view_continuity: t.opt::<Probability>("view_continuity")?.map(|p| p.0),
        agreement: t.opt("agreement")?,
        safety: t.opt("safety")?,
        maximality: t.opt("maximality")?,
        legitimate: t.opt("legitimate")?,
        min_groups: t.opt("min_groups")?,
        max_groups: t.opt("max_groups")?,
        min_delivery_ratio: t.opt::<Probability>("min_delivery_ratio")?.map(|p| p.0),
        reconverges: t.opt("reconverges")?,
    };
    // A disabled probe has no output for the assertion to read; reject the
    // conflict here instead of panicking in the runner.
    for (key, probe, on) in [
        ("converged_by", "convergence", report.convergence),
        ("view_continuity", "continuity", report.continuity),
    ] {
        if t.has(key) && !on {
            let message = format!(
                "`{key}` reads the probe that [report] `{probe} = false` disables \
                 — enable it or drop the assertion"
            );
            return Err(t.error(key, message));
        }
    }
    t.finish()?;
    Ok(spec)
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
        // a [protocol] table without `dmax` defaults it like an absent table
        let m = ScenarioManifest::parse(&format!(
            "{MINIMAL}[protocol]\nnaive_compatibility = true\n"
        ))
        .expect("parses");
        assert_eq!(m.protocol.dmax, 3);
    }

    #[test]
    fn simulate_is_the_minimal_manifest_in_code() {
        let parsed = ScenarioManifest::parse(
            "name = \"e\"\n[topology]\nkind = \"path\"\nn = 4\n[protocol]\ndmax = 2\n[sim]\nrounds = 30\n",
        )
        .expect("parses");
        let built = ScenarioManifest::simulate(
            "e",
            WorkloadSpec::Explicit(GraphGenerator::Path { n: 4 }),
            GrpConfig::new(2),
            30,
        );
        assert_eq!(built, parsed);
    }

    #[test]
    fn edge_list_topology_parses() {
        let m = ScenarioManifest::parse(
            "name = \"e\"\n[topology]\nkind = \"edges\"\nedges = [[1, 3], [3, 8],\n  [1, 14]]\n",
        )
        .expect("parses");
        assert_eq!(
            m.workload,
            WorkloadSpec::Explicit(GraphGenerator::Edges(vec![(1, 3), (3, 8), (1, 14)]))
        );
        assert_eq!(m.workload.node_count(), 4);
    }

    /// A typo must not silently fall back to the default: every table
    /// rejects a key it does not read, naming line, table and key.
    #[test]
    fn unknown_keys_are_rejected_in_every_table() {
        let spatial =
            "name = \"k\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 5.0\n";
        for (input, expected) in [
            (
                format!("{MINIMAL}[sim]\nrouns = 3\n"),
                "line 9: [sim]: unknown key `rouns`",
            ),
            (
                format!("{MINIMAL}[protocol]\ndmax = 3\ndisable_quarantin = true\n"),
                "line 10: [protocol]: unknown key `disable_quarantin`",
            ),
            (
                format!("{spatial}[radio]\nkind = \"unit_disk\"\nrange = 6.0\nrnage = 7.0\n"),
                "line 9: [radio]: unknown key `rnage` for kind = \"unit_disk\", model = \"bernoulli\"",
            ),
            (
                format!("{MINIMAL}[assertions]\nconverged_bye = 10\n"),
                "line 9: [assertions]: unknown key `converged_bye`",
            ),
            (
                format!("{MINIMAL}[[faults]]\nat = 100\nkind = \"crash\"\nnode = 0\nnoed = 1\n"),
                "line 12: [[faults]] #1: unknown key `noed` for kind = \"crash\"",
            ),
            (
                format!("{MINIMAL}[[churn]]\nat_round = 2\naction = \"node_leave\"\nnode = 0\nlnks = [1]\n"),
                "line 12: [[churn]] #1: unknown key `lnks` for action = \"node_leave\"",
            ),
            (
                format!("{spatial}wdith = 9.0\n[radio]\nkind = \"unit_disk\"\nrange = 6.0\n"),
                "line 6: [mobility]: unknown key `wdith` for kind = \"stationary_line\"",
            ),
            (
                format!("{MINIMAL}sdie = 4.0\n"),
                "line 8: [topology]: unknown key `sdie` for kind = \"path\"",
            ),
            (
                format!("{MINIMAL}[report]\nresiliance = true\n"),
                "line 9: [report]: unknown key `resiliance`",
            ),
            (
                format!("{MINIMAL}[golden]\ndigest = []\n"),
                "line 9: [golden]: unknown key `digest`",
            ),
            (
                format!("bogus_key = true\n{MINIMAL}"),
                "line 1: manifest: unknown key `bogus_key` for mode = \"simulate\"",
            ),
            (
                format!("mode = \"campaign\"\n{MINIMAL}[campaign]\nschedule = 4\n"),
                "line 10: [campaign]: unknown key `schedule`",
            ),
            (
                format!("mode = \"modelcheck\"\n{MINIMAL}[modelcheck]\ndepht = 4\n"),
                "line 10: [modelcheck]: unknown key `depht`",
            ),
            (
                format!("mode = \"modelcheck\"\n{MINIMAL}[modelcheck.faults]\ndorps = 1\n"),
                "line 10: [modelcheck.faults]: unknown key `dorps`",
            ),
        ] {
            let err = ScenarioManifest::parse(&input).expect_err(expected).0;
            assert_eq!(err, expected);
        }
    }

    /// The legal keys of a table are the keys its `kind` (`model`,
    /// `action`, `mode`) reads, not the union over every kind: a key that
    /// belongs to another kind would otherwise be ignored, and the run
    /// would not be the workload the manifest describes.
    #[test]
    fn keys_a_kind_does_not_read_are_rejected() {
        let spatial =
            "name = \"k\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 5.0\n";
        for (input, expected) in [
            (
                format!("{spatial}[radio]\nkind = \"unit_disk\"\nrange = 6.0\nloss = 0.9\n"),
                "line 9: [radio]: unknown key `loss` for kind = \"unit_disk\", model = \"bernoulli\"",
            ),
            (
                format!("{MINIMAL}side = 3.0\n"),
                "line 8: [topology]: unknown key `side` for kind = \"path\"",
            ),
            (
                "name = \"g\"\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\nn = 4\n".to_string(),
                "line 6: [topology]: unknown key `n` for kind = \"grid\"",
            ),
            (
                format!("{MINIMAL}[[faults]]\nat = 100\nkind = \"crash\"\nnode = 0\nduration = 50\n"),
                "line 12: [[faults]] #1: unknown key `duration` for kind = \"crash\"",
            ),
            (
                format!("{MINIMAL}[[faults]]\nat = 100\nkind = \"heal\"\nnode = 0\n"),
                "line 11: [[faults]] #1: unknown key `node` for kind = \"heal\"",
            ),
            (
                format!("{MINIMAL}[[churn]]\nat_round = 2\naction = \"link_down\"\na = 0\nb = 1\nlinks = [2]\n"),
                "line 13: [[churn]] #1: unknown key `links` for action = \"link_down\"",
            ),
            (
                format!("{spatial}[radio]\nkind = \"unit_disk\"\nrange = 6.0\nmodel = \"bernoulli\"\nwindow = 250\n"),
                "line 10: [radio]: unknown key `window` for kind = \"unit_disk\", model = \"bernoulli\"",
            ),
            (
                format!("{MINIMAL}[modelcheck]\ndepth = 8\n"),
                "line 8: manifest: unknown key `modelcheck` for mode = \"simulate\"",
            ),
        ] {
            let err = ScenarioManifest::parse(&input).expect_err(expected).0;
            assert_eq!(err, expected);
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
                format!("line 9: [sim]: `{key}` was removed — the engine has one regime")
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
        assert_eq!(m.faults[1].kind, FaultKind::LossBurst { duration: 2000 });
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
                channel: None,
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
        assert_eq!(*channel, Some(ContentionConfig::new(45.0)));

        let tuned = format!(
            "{base}base_loss = 0.01\nload_loss = 0.05\nmax_loss = 0.9\nwindow = 500\njitter = 6\nhidden_terminal = false\n"
        );
        let m = ScenarioManifest::parse(&tuned).expect("parses");
        let WorkloadSpec::Spatial { channel, .. } = &m.workload else {
            panic!("spatial workload expected");
        };
        assert_eq!(
            *channel,
            Some(ContentionConfig {
                range: 45.0,
                base_loss: 0.01,
                load_loss: 0.05,
                max_loss: 0.9,
                window: 500,
                jitter: 6,
                hidden_terminal: false,
            })
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
            err.to_string().contains(
                "unknown key `load_loss` for kind = \"unit_disk\", model = \"bernoulli\""
            ),
            "{err}"
        );
        // out-of-range probability
        let err = ScenarioManifest::parse(&manifest("model = \"contention\"\nmax_loss = 1.5\n"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("[radio]: `max_loss`: expected probability in [0, 1]"),
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

    /// Every typed key, wherever it lives, reports the same located error
    /// shape on a malformed value: ``line N: {table}: `{key}`: expected
    /// {type}``. One case per validation site; counts are read at their
    /// field's width, probabilities in [0, 1].
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
                "[[faults]] #1: `at`: expected non-negative integer",
            ),
            // [[churn]] links entry, float-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 3\n[[churn]]\nat_round = 1\naction = \"node_join\"\nnode = 9\nlinks = [0, 1.5]",
                "[[churn]] #1: `links`: expected non-negative integer",
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
            // u32 counts reject what would wrap (2^32 + 1 used to read as 1)
            (
                "name = \"x\"\nmode = \"campaign\"\n[topology]\nkind = \"path\"\nn = 2\n[campaign]\nschedules = 4294967297",
                "[campaign]: `schedules`: expected non-negative integer below 2^32",
            ),
            (
                "name = \"x\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck]\nwalks = 4294967296",
                "[modelcheck]: `walks`: expected non-negative integer below 2^32",
            ),
            // dmax 0 would have the protocol clamp to 1 while its judge used 0
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[protocol]\ndmax = 0",
                "[protocol]: `dmax` must be at least 1",
            ),
            // a zero timer period would re-arm at the same instant forever
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4\n[sim]\nsend_period = 0",
                "[sim]: `send_period` must be at least 1",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4\n[sim]\ncompute_period = 0",
                "[sim]: `compute_period` must be at least 1",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4\n[sim]\nmobility_period = 0",
                "[sim]: `mobility_period` must be at least 1",
            ),
            // every loss and ratio is a probability
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[sim]\nloss = 1.5",
                "[sim]: `loss`: expected probability in [0, 1]",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"erdos_renyi\"\nn = 4\np = 1.5",
                "[topology]: `p`: expected probability in [0, 1]",
            ),
            // an edge list names distinct ids in pairs, and at least one
            (
                "name = \"x\"\n[topology]\nkind = \"edges\"\nedges = [[0, 1], [2, 2]]",
                "[topology]: `edges` #2: [2, 2] is a self-loop",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"edges\"\nedges = [[0, 1, 2]]",
                "[topology]: `edges` #1: expected a pair [a, b]",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"edges\"\nedges = [[0, -1]]",
                "[topology]: `edges`: expected non-negative integer",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"edges\"\nedges = []",
                "[topology]: `edges` must not be empty",
            ),
            (
                "name = \"x\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 5.0\n[radio]\nkind = \"lossy_disk\"\nrange = 6.0\nloss = -0.1",
                "[radio]: `loss`: expected probability in [0, 1]",
            ),
            (
                "name = \"x\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 5.0\n[radio]\nkind = \"distance_loss\"\nrange = 6.0\nedge_loss = 2",
                "[radio]: `edge_loss`: expected probability in [0, 1]",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[assertions]\nview_continuity = 1.2",
                "[assertions]: `view_continuity`: expected probability in [0, 1]",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[assertions]\nmin_delivery_ratio = -1",
                "[assertions]: `min_delivery_ratio`: expected probability in [0, 1]",
            ),
        ];
        for (input, expected) in cases {
            let err = ScenarioManifest::parse(input).expect_err(expected).0;
            assert!(
                err.starts_with("line ") && err.contains(expected),
                "expected a located error containing `{expected}`, got `{err}`"
            );
        }
    }

    /// Every rule on a geometry key, one row each: a value the mobility,
    /// radio or generator code cannot use is a located error, not a panic
    /// (`random_walk width = -10`) or a silently meaningless run
    /// (`lanes = 0`).
    #[test]
    fn geometry_keys_report_one_uniform_error_shape() {
        let radio = "[radio]\nkind = \"unit_disk\"\nrange = 10.0";
        let line = "kind = \"stationary_line\"\nn = 3\nspacing = 5.0";
        let uniform = "kind = \"stationary_uniform\"\nn = 3\nwidth = 9.0\nheight = 9.0";
        let walk = "kind = \"random_walk\"\nn = 3\nwidth = 9.0\nheight = 9.0\nmax_step = 1.0";
        let waypoint =
            "kind = \"waypoint\"\nn = 3\nwidth = 9.0\nheight = 9.0\nspeed_min = 1.0\nspeed_max = 2.0";
        let highway = "kind = \"highway\"\nn = 3\nlanes = 2\nroad_length = 90.0\n\
                       initial_gap = 5.0\nspeed_min = 1.0\nspeed_max = 2.0";
        let city = "kind = \"city_grid\"\nn = 3\nblocks = 2\nblock_size = 50.0\n\
                    speed_min = 1.0\nspeed_max = 2.0\nlight_period = 10";
        let mixed = "kind = \"mixed_highway\"\nn_roadside = 2\nrsu_spacing = 40.0\n\
                     rsu_setback = 8.0\nn = 3\nlanes = 2\nroad_length = 90.0\n\
                     initial_gap = 5.0\nspeed_min = 1.0\nspeed_max = 2.0";
        // (mobility body, key = value replacing its line, expected)
        let mobility_cases: &[(&str, &str, &str)] = &[
            (
                line,
                "spacing = -3.0",
                "`spacing`: expected finite number above 0",
            ),
            (
                uniform,
                "width = 0.0",
                "`width`: expected finite number above 0",
            ),
            (
                uniform,
                "height = -1",
                "`height`: expected finite number above 0",
            ),
            (
                walk,
                "width = -10.0",
                "`width`: expected finite number above 0",
            ),
            (
                walk,
                "max_step = -1.0",
                "`max_step`: expected finite number, 0 or above",
            ),
            (
                waypoint,
                "speed_min = -1.0",
                "`speed_min`: expected finite number, 0 or above",
            ),
            (
                waypoint,
                "speed_min = 3.0",
                "`speed_max` (2) is below `speed_min` (3)",
            ),
            (
                highway,
                "lanes = 0",
                "`lanes`: expected integer, 1 or above",
            ),
            (
                highway,
                "road_length = 0",
                "`road_length`: expected finite number above 0",
            ),
            (
                highway,
                "initial_gap = -5.0",
                "`initial_gap`: expected finite number, 0 or above",
            ),
            (
                highway,
                "speed_max = -2.0",
                "`speed_max`: expected finite number, 0 or above",
            ),
            (city, "blocks = 0", "`blocks`: expected integer, 1 or above"),
            (
                city,
                "block_size = -50.0",
                "`block_size`: expected finite number above 0",
            ),
            (
                city,
                "speed_max = 0.5",
                "`speed_max` (0.5) is below `speed_min` (1)",
            ),
            (
                mixed,
                "rsu_spacing = 0.0",
                "`rsu_spacing`: expected finite number above 0",
            ),
            (
                mixed,
                "rsu_setback = -8.0",
                "`rsu_setback`: expected finite number, 0 or above",
            ),
        ];
        for &(body, replacement, expected) in mobility_cases {
            let key = replacement.split(" =").next().unwrap();
            let body: Vec<&str> = body
                .lines()
                .map(|l| {
                    if l.starts_with(&format!("{key} =")) {
                        replacement
                    } else {
                        l
                    }
                })
                .collect();
            let input = format!("name = \"x\"\n[mobility]\n{}\n{radio}", body.join("\n"));
            expect_located(&input, &format!("[mobility]: {expected}"));
        }
        let other_cases: &[(&str, &str)] = &[
            (
                "[topology]\nkind = \"random_geometric\"\nn = 5\nside = -1.0\nradius = 2.0",
                "[topology]: `side`: expected finite number above 0",
            ),
            (
                "[topology]\nkind = \"random_geometric\"\nn = 5\nside = 10.0\nradius = -2.0",
                "[topology]: `radius`: expected finite number, 0 or above",
            ),
            (
                "[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 5.0\n[radio]\nkind = \"unit_disk\"\nrange = -5.0",
                "[radio]: `range`: expected finite number above 0",
            ),
            (
                "[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 5.0\n[radio]\nkind = \"unit_disk\"\nrange = 0.0\nmodel = \"contention\"",
                "[radio]: `range`: expected finite number above 0",
            ),
        ];
        for (body, expected) in other_cases {
            expect_located(&format!("name = \"x\"\n{body}"), expected);
        }
    }

    fn expect_located(input: &str, expected: &str) {
        let err = ScenarioManifest::parse(input).expect_err(expected).0;
        assert!(
            err.starts_with("line ") && err.contains(expected),
            "expected a located error containing `{expected}`, got `{err}`"
        );
    }

    /// A churn action names only nodes that exist by its round: the
    /// topology's, or one an earlier `node_join` added — whatever the
    /// tables' file order — and never links a node to itself.
    #[test]
    fn churn_names_only_known_nodes() {
        let path4 = "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4";
        let churn = |tables: &[&str]| {
            let tables: Vec<String> = tables.iter().map(|t| format!("[[churn]]\n{t}")).collect();
            format!("{path4}\n{}", tables.join("\n"))
        };
        let unknown = "is neither in the topology nor added by an earlier `node_join`";
        let cases: &[(&[&str], String)] = &[
            (
                &["at_round = 1\naction = \"link_up\"\na = 0\nb = 77"],
                format!("[[churn]] #1: `b`: node 77 {unknown}"),
            ),
            (
                &["at_round = 1\naction = \"link_down\"\na = 2\nb = 2"],
                "[[churn]] #1: `a` = `b` = 2 is a self-loop".to_string(),
            ),
            (
                &["at_round = 1\naction = \"node_leave\"\nnode = 42"],
                format!("[[churn]] #1: `node`: node 42 {unknown}"),
            ),
            (
                &["at_round = 1\naction = \"node_join\"\nnode = 9\nlinks = [9, 0]"],
                "[[churn]] #1: `links` names node 9 itself".to_string(),
            ),
            (
                &["at_round = 1\naction = \"node_join\"\nnode = 9\nlinks = [0, 55]"],
                format!("[[churn]] #1: `links`: node 55 {unknown}"),
            ),
            // the join comes later in the schedule than the link naming it
            (
                &[
                    "at_round = 3\naction = \"node_join\"\nnode = 9\nlinks = [0]",
                    "at_round = 2\naction = \"link_up\"\na = 9\nb = 1",
                ],
                format!("[[churn]] #2: `a`: node 9 {unknown}"),
            ),
        ];
        for (tables, expected) in cases {
            expect_located(&churn(tables), expected);
        }
        // a join earlier in the schedule than in the file, then its links
        let m = ScenarioManifest::parse(&churn(&[
            "at_round = 5\naction = \"link_up\"\na = 9\nb = 3",
            "at_round = 2\naction = \"node_join\"\nnode = 9\nlinks = [0]",
            "at_round = 6\naction = \"node_leave\"\nnode = 9",
        ]))
        .expect("parses");
        let rounds: Vec<u64> = m.churn.iter().map(|c| c.at_round).collect();
        assert_eq!(rounds, [2, 5, 6]);
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
        assert_eq!(spec.start, StartSpec::Legitimate);
        assert_eq!(spec.warmup_rounds, 20);
        assert_eq!(
            spec.explore,
            ExploreConfig {
                depth: 32,
                max_states: 5000,
                budget: FaultBudget {
                    max_drops: 1,
                    max_duplicates: 2,
                    max_crashes: 1,
                },
                walks: 4,
                walk_depth: 64,
                seed: 1,
            }
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
        let ids = |ids: &[u64]| ids.iter().copied().map(NodeId).collect::<Vec<_>>();
        let kinds: Vec<FaultKind> = m.faults.into_iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [
                FaultKind::Partition {
                    groups: vec![ids(&[0, 1, 2]), ids(&[3, 4, 5])],
                },
                FaultKind::CorruptMessage(NodeId(3)),
                FaultKind::Heal,
                FaultKind::RestartStale(NodeId(2)),
            ]
        );

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
            FaultKind::RegionBlackout { duration: 1000, .. }
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

    /// `[[faults]]` tables and campaign files speak one vocabulary: every
    /// fault kind, written either way, parses to the same `ScheduledFault`.
    #[test]
    fn fault_tables_parse_like_campaign_file_lines() {
        let spatial = "name = \"f\"\n[mobility]\nkind = \"stationary_line\"\nn = 5\nspacing = 5.0\n[radio]\nkind = \"unit_disk\"\nrange = 6.0\n";
        let cases = [
            ("kind = \"crash\"\nnode = 2", "crash 2"),
            ("kind = \"restart\"\nnode = 2", "restart 2"),
            ("kind = \"restart_stale\"\nnode = 1", "restart_stale 1"),
            ("kind = \"corrupt\"\nnode = 3", "corrupt 3"),
            ("kind = \"corrupt_message\"\nnode = 4", "corrupt_message 4"),
            ("kind = \"loss_burst\"\nduration = 1500", "loss_burst 1500"),
            (
                "kind = \"partition\"\ngroups = [[0, 1], [2, 3, 4]]",
                "partition 0,1|2,3,4",
            ),
            ("kind = \"heal\"", "heal"),
            (
                "kind = \"region_blackout\"\nmin_x = 0.0\nmin_y = -2.5\nmax_x = 12.5\nmax_y = 2.5\nduration = 800",
                "region_blackout 0 -2.5 12.5 2.5 800",
            ),
        ];
        for (table, line) in cases {
            let manifest = format!("{spatial}[[faults]]\nat = 4200\n{table}\n");
            let m = ScenarioManifest::parse(&manifest).expect(line);
            let (_, faults) = crate::parse_campaign_file(&format!("4200 {line}\n")).expect(line);
            assert_eq!(m.faults, faults, "{line}");
        }
        // ...and reject the same faults with the same message
        let rejected = [
            (
                "kind = \"partition\"\ngroups = [[1, 2, 3]]",
                "partition 1,2,3",
            ),
            ("kind = \"partition\"\ngroups = []", "partition"),
            (
                "kind = \"region_blackout\"\nmin_x = 5.0\nmin_y = 0.0\nmax_x = 1.0\nmax_y = 1.0\nduration = 100",
                "region_blackout 5 0 1 1 100",
            ),
            (
                "kind = \"region_blackout\"\nmin_x = -1e999\nmin_y = 0.0\nmax_x = 1.0\nmax_y = 1.0\nduration = 100",
                "region_blackout NaN 0 1 1 100",
            ),
        ];
        for (table, line) in rejected {
            let manifest = format!("{spatial}[[faults]]\nat = 0\n{table}\n");
            let from_table = ScenarioManifest::parse(&manifest).expect_err(line).0;
            let from_line = crate::parse_campaign_file(&format!("0 {line}\n")).expect_err(line);
            let message = from_line
                .strip_prefix("line 1: ")
                .unwrap_or_else(|| panic!("`{from_line}` names no line"));
            assert!(
                from_table.starts_with("line "),
                "`{from_table}` names no line"
            );
            assert!(
                from_table.ends_with(message),
                "`{line}`: the table says `{from_table}`, the line `{from_line}`"
            );
        }
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
