//! `mode = "campaign"` — adversarial fault-schedule search and replay.
//!
//! A campaign answers the robustness question the fixed `[[faults]]` plans
//! cannot: *which* schedule of transient faults hurts this workload most?
//! The searcher samples `schedules` random fault plans from a seeded RNG,
//! runs each one with resilience accounting
//! ([`grp_core::observers::ResilienceProbe`]), scores the outcome, and
//! keeps the worst offender, whose outcome becomes the seed's. The
//! worst schedule can be written to a campaign file (`--emit-campaign`) and
//! checked in; a manifest with `[campaign] replay = "…"` then re-executes
//! exactly that schedule forever, pinning the recorded score and the golden
//! trace digest against regressions.
//!
//! Determinism: every schedule is derived from
//! `search_seed ⊕ mix(run seed) ⊕ index` through its own `ChaCha8Rng`, and
//! every run goes through the runner's one simulate core — the function a
//! `mode = "simulate"` seed runs through ([`build_simulator`] →
//! [`drive_manifest`](crate::runner::drive_manifest)) — so same manifest +
//! same seed ⇒ byte-identical campaign digest.
//!
//! Campaign-file format (see `docs/FAULTS.md`): `#` comment lines (the
//! emitter records the manifest name, seed and score), then one fault per
//! line as `<at-tick> <fault>`, where `<fault>` is the textual
//! [`FaultKind`] form (`Display` ↔ `FromStr` round-trip exactly).

use crate::manifest::{CampaignSpec, ScenarioManifest};
use crate::runner::{build_simulator, simulate, AssertionResult, RunOutcome};
use dyngraph::NodeId;
use grp_core::observers::{ResilienceStats, SnapshotRecorder};
use netsim::{CanonicalHasher, FaultKind, ScheduledFault, SimTime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::str::FromStr;

/// Odd multiplier splitting the run seed away from the search seed so two
/// `[sim] seeds` never explore correlated schedule sequences.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// How bad one schedule was, ordered worst-last: the derived lexicographic
/// `Ord` compares unrecovered faults first, then rounds spent outside the
/// legitimate predicate, then the slowest single recovery, then the mean
/// (scaled ×1000 to stay integral — scores must be exactly reproducible,
/// so no floats anywhere in the ordering).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CampaignScore {
    /// Faults the run ended without recovering from.
    pub unrecovered: u64,
    /// Observed rounds that were not legitimate.
    pub disrupted_rounds: u64,
    /// Slowest recovery, in rounds (0 when nothing recovered).
    pub max_mttr: u64,
    /// Mean recovery time in milli-rounds (0 when nothing recovered).
    pub mean_mttr_milli: u64,
}

impl CampaignScore {
    /// Fold a resilience report into a comparable score.
    pub fn of(stats: &ResilienceStats) -> Self {
        CampaignScore {
            unrecovered: stats.unrecovered() as u64,
            disrupted_rounds: stats.rounds_observed - stats.legitimate_rounds,
            max_mttr: stats.max_mttr_rounds().unwrap_or(0),
            mean_mttr_milli: stats
                .mean_mttr_rounds()
                .map(|m| (m * 1000.0).round() as u64)
                .unwrap_or(0),
        }
    }
}

impl fmt::Display for CampaignScore {
    /// The textual form recorded in campaign files and result artifacts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unrecovered={} disrupted={} max_mttr={} mean_mttr_milli={}",
            self.unrecovered, self.disrupted_rounds, self.max_mttr, self.mean_mttr_milli
        )
    }
}

impl FromStr for CampaignScore {
    type Err = String;

    /// Parse the `Display` form back (campaign-file `# score` line): each
    /// of the four fields exactly once, in any order.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut score = CampaignScore::default();
        // one bit per field already set
        let mut seen = 0u8;
        for token in s.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("score: expected `key=value`, got `{token}`"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("score: `{key}`: bad count `{value}`"))?;
            let (field, bit) = match key {
                "unrecovered" => (&mut score.unrecovered, 1),
                "disrupted" => (&mut score.disrupted_rounds, 2),
                "max_mttr" => (&mut score.max_mttr, 4),
                "mean_mttr_milli" => (&mut score.mean_mttr_milli, 8),
                other => return Err(format!("score: unknown field `{other}`")),
            };
            if seen & bit != 0 {
                return Err(format!("score: duplicate field `{key}`"));
            }
            seen |= bit;
            *field = value;
        }
        match seen.count_ones() {
            4 => Ok(score),
            fields => Err(format!("score: expected 4 fields, got {fields}")),
        }
    }
}

/// One sampled schedule's verdict, kept for the report and the digest.
#[derive(Clone, Debug)]
pub struct ScheduleSummary {
    /// Index in sampling order (also the RNG stream selector).
    pub index: u32,
    /// The schedule in campaign-file line form (`<at> <fault>`), sorted by
    /// firing time.
    pub lines: Vec<String>,
    /// How bad it was.
    pub score: CampaignScore,
}

/// What a campaign run produced: every sampled schedule's score plus the
/// worst offender (in replay mode, the single replayed schedule).
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The replayed campaign file's path, when `[campaign] replay` was set.
    pub replay: Option<String>,
    /// Every evaluated schedule, in sampling order.
    pub schedules: Vec<ScheduleSummary>,
    /// Index of the worst schedule (ties keep the earliest).
    pub worst_index: u32,
    /// The worst schedule's score.
    pub worst_score: CampaignScore,
    /// The worst schedule, in campaign-file line form.
    pub worst_lines: Vec<String>,
}

impl CampaignReport {
    /// The report on `schedules`, whose worst is the one at `worst_index`.
    fn new(replay: Option<String>, schedules: Vec<ScheduleSummary>, worst_index: u32) -> Self {
        let worst = &schedules[worst_index as usize];
        CampaignReport {
            replay,
            worst_index,
            worst_score: worst.score,
            worst_lines: worst.lines.clone(),
            schedules,
        }
    }
}

/// The score of a run of the simulate core: its resilience accounting,
/// which a campaign always composes.
fn score_of(run: &RunOutcome) -> CampaignScore {
    run.resilience
        .as_ref()
        .map(CampaignScore::of)
        .unwrap_or_default()
}

/// Render a schedule in campaign-file line form, sorted by firing time.
fn schedule_lines(faults: &[ScheduledFault]) -> Vec<String> {
    faults
        .iter()
        .map(|f| format!("{} {}", f.at.ticks(), f.kind))
        .collect()
}

/// Sample one adversarial schedule. Every draw comes from `rng` alone, so
/// the schedule is a pure function of the stream seed. `region_blackout`
/// is deliberately absent from the catalogue — its coordinates only mean
/// something for one specific mobility layout, while campaign files must
/// replay against any workload.
fn sample_schedule(
    rng: &mut ChaCha8Rng,
    node_ids: &[NodeId],
    max_faults: u32,
    horizon: u64,
) -> Vec<ScheduledFault> {
    let n = node_ids.len();
    let count = rng.gen_range(1..=max_faults.max(1));
    let mut faults: Vec<ScheduledFault> = (0..count)
        .map(|_| {
            let at = SimTime(rng.gen_range(0..horizon.max(1)));
            let roll = rng.gen_range(0..8u32);
            let victim = node_ids[rng.gen_range(0..n)];
            let kind = match roll {
                0 => FaultKind::Crash(victim),
                1 => FaultKind::Restart(victim),
                2 => FaultKind::RestartStale(victim),
                3 => FaultKind::CorruptState(victim),
                4 => FaultKind::CorruptMessage(victim),
                5 => FaultKind::LossBurst {
                    duration: rng.gen_range(1..=(horizon / 4).max(1)),
                },
                6 if n >= 2 => {
                    let pivot = rng.gen_range(1..n);
                    FaultKind::Partition {
                        groups: vec![node_ids[..pivot].to_vec(), node_ids[pivot..].to_vec()],
                    }
                }
                6 => FaultKind::LossBurst {
                    duration: (horizon / 4).max(1),
                },
                _ => FaultKind::Heal,
            };
            ScheduledFault { at, kind }
        })
        .collect();
    // stable sort: equal firing times keep sampling order
    faults.sort_by_key(|f| f.at);
    faults
}

/// The search half: sample every schedule and run it through the simulate
/// core, keeping each one's summary and the worst run's outcome and
/// recorder. Returns `(summaries, worst_index, worst_run)`; the worst is
/// picked by strict `>`, so ties keep the earliest index.
fn search(
    manifest: &ScenarioManifest,
    seed: u64,
    spec: &CampaignSpec,
    horizon: u64,
) -> (Vec<ScheduleSummary>, u32, (RunOutcome, SnapshotRecorder)) {
    let node_ids = build_simulator(manifest, seed).node_ids();
    let mut summaries: Vec<ScheduleSummary> = Vec::with_capacity(spec.schedules as usize);
    let mut worst: Option<(u32, (RunOutcome, SnapshotRecorder))> = None;
    for index in 0..spec.schedules {
        let stream = spec.search_seed ^ seed.wrapping_mul(SEED_MIX) ^ index as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(stream);
        let faults = sample_schedule(&mut rng, &node_ids, spec.max_faults, horizon);
        let run = simulate(manifest, seed, &faults);
        let score = score_of(&run.0);
        let is_worse = worst
            .as_ref()
            .is_none_or(|(at, _)| score > summaries[*at as usize].score);
        summaries.push(ScheduleSummary {
            index,
            lines: schedule_lines(&faults),
            score,
        });
        if is_worse {
            worst = Some((index, run));
        }
    }
    // detlint::allow(D004): `[campaign] schedules >= 1` is validated at parse time
    let (worst_index, worst_run) = worst.expect("schedules >= 1 is validated at parse time");
    (summaries, worst_index, worst_run)
}

/// The campaign horizon in ticks: explicit `[campaign] horizon`, or the
/// whole simulated run (`rounds × compute_period`).
fn horizon_of(manifest: &ScenarioManifest, spec: &CampaignSpec) -> u64 {
    spec.horizon
        .unwrap_or_else(|| {
            manifest
                .sim
                .rounds
                .saturating_mul(manifest.sim.compute_period)
        })
        .max(1)
}

/// Render the worst schedule as a campaign file: `#` header lines carrying
/// the provenance and the recorded score, then one `<at> <fault>` line per
/// fault. [`parse_campaign_file`] reads it back; the recorded score is the
/// replay contract.
pub fn render_campaign_file(
    manifest_name: &str,
    seed: u64,
    score: &CampaignScore,
    lines: &[String],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# campaign {manifest_name} seed={seed}\n"));
    out.push_str(&format!("# score {score}\n"));
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Parse a campaign file: the recorded `# score` header (if present) and
/// the fault schedule, in file order.
pub fn parse_campaign_file(
    text: &str,
) -> Result<(Option<CampaignScore>, Vec<ScheduledFault>), String> {
    let mut score = None;
    let mut faults = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(rest) = comment.trim().strip_prefix("score ") {
                score = Some(
                    rest.parse::<CampaignScore>()
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?,
                );
            }
            continue;
        }
        let (at, kind) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("line {}: expected `<at> <fault>`", lineno + 1))?;
        let at: u64 = at
            .parse()
            .map_err(|_| format!("line {}: bad firing time `{at}`", lineno + 1))?;
        let kind = kind
            .parse::<FaultKind>()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        faults.push(ScheduledFault {
            at: SimTime(at),
            kind,
        });
    }
    Ok((score, faults))
}

/// Run the search and render the worst schedule as a campaign file — the
/// `--emit-campaign` path. Ignores `[campaign] replay`, so re-emitting
/// from a replay manifest regenerates the file it pins (CI diffs the two
/// to catch drift). Uses the manifest's first seed.
pub fn emit_worst_case(manifest: &ScenarioManifest) -> (CampaignReport, String) {
    let spec = manifest.campaign.clone().unwrap_or_default();
    let seed = manifest.sim.seeds.first().copied().unwrap_or(0);
    let (summaries, worst_index, _) = search(manifest, seed, &spec, horizon_of(manifest, &spec));
    let report = CampaignReport::new(None, summaries, worst_index);
    let file = render_campaign_file(
        &manifest.name,
        seed,
        &report.worst_score,
        &report.worst_lines,
    );
    (report, file)
}

/// Execute one seed in `mode = "campaign"`: search for the worst schedule
/// (or replay a pinned one) through the simulate core; the worst run's
/// outcome is the seed's outcome, with the campaign section added. The
/// digest section folds every sampled schedule's textual form and score
/// plus the worst run's full trace, so the `[golden]` pin freezes the
/// entire search verdict, not just the final state.
pub(crate) fn run_campaign_seed(
    manifest: &ScenarioManifest,
    seed: u64,
    hasher: &mut CanonicalHasher,
) -> RunOutcome {
    let spec = manifest.campaign.clone().unwrap_or_default();
    let mut assertions = Vec::new();

    let (summaries, worst_index, (mut run, recorder)) = match &spec.replay {
        Some(path) => {
            let (recorded, faults) = match std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{path}`: {e}"))
                .and_then(|text| parse_campaign_file(&text))
            {
                Ok(parsed) => parsed,
                Err(err) => {
                    assertions.push(AssertionResult::new(
                        "campaign_replay",
                        "a parseable campaign file",
                        err,
                        false,
                    ));
                    (None, Vec::new())
                }
            };
            let run = simulate(manifest, seed, &faults);
            let score = score_of(&run.0);
            // the replay contract: the pinned file's recorded score must
            // reproduce exactly — a drift here means the engine's fault
            // semantics (or the probe's accounting) changed
            let expected = recorded
                .map(|s| s.to_string())
                .unwrap_or_else(|| "a recorded `# score` header".to_string());
            assertions.push(AssertionResult::new(
                "campaign_replay",
                &expected,
                score.to_string(),
                recorded == Some(score),
            ));
            let summary = ScheduleSummary {
                index: 0,
                lines: schedule_lines(&faults),
                score,
            };
            (vec![summary], 0, run)
        }
        None => search(manifest, seed, &spec, horizon_of(manifest, &spec)),
    };

    let report = CampaignReport::new(spec.replay, summaries, worst_index);

    // the campaign digest section: every schedule's textual faults and
    // score in sampling order, the worst pick, then the worst run's full
    // engine trace and per-round views
    hasher.begin_list("campaign");
    hasher.feed_str(if report.replay.is_some() {
        "replay"
    } else {
        "search"
    });
    hasher.feed_u64(report.schedules.len() as u64);
    for summary in &report.schedules {
        hasher.feed_u64(summary.index as u64);
        hasher.feed_u64(summary.lines.len() as u64);
        for line in &summary.lines {
            hasher.feed_str(line);
        }
        feed_score(hasher, &summary.score);
    }
    hasher.feed_u64(report.worst_index as u64);
    feed_score(hasher, &report.worst_score);
    hasher.end_list();
    recorder.feed_trace_digest(hasher);
    recorder.feed_views_digest(hasher);

    run.assertions = assertions;
    run.campaign = Some(report);
    run
}

fn feed_score(hasher: &mut CanonicalHasher, score: &CampaignScore) {
    hasher.feed_u64(score.unrecovered);
    hasher.feed_u64(score.disrupted_rounds);
    hasher.feed_u64(score.max_mttr);
    hasher.feed_u64(score.mean_mttr_milli);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{RunMode, ScenarioManifest};
    use crate::runner::run_seed;

    fn campaign_manifest(extra: &str) -> ScenarioManifest {
        let toml = format!(
            r#"
name = "campaign-test"
mode = "campaign"

[topology]
kind = "path"
n = 4

[protocol]
dmax = 2

[sim]
rounds = 30
seeds = [7]

[campaign]
schedules = 3
max_faults = 4
{extra}
"#
        );
        ScenarioManifest::parse(&toml).expect("manifest parses")
    }

    #[test]
    fn score_orders_lexicographically_and_round_trips() {
        let worse = CampaignScore {
            unrecovered: 1,
            disrupted_rounds: 0,
            max_mttr: 0,
            mean_mttr_milli: 0,
        };
        let better = CampaignScore {
            unrecovered: 0,
            disrupted_rounds: 99,
            max_mttr: 50,
            mean_mttr_milli: 50_000,
        };
        assert!(worse > better, "unrecovered dominates every other field");
        let text = worse.to_string();
        assert_eq!(text.parse::<CampaignScore>().unwrap(), worse);
        assert!("unrecovered=1 disrupted=2"
            .parse::<CampaignScore>()
            .is_err());
        assert!("unrecovered=x disrupted=0 max_mttr=0 mean_mttr_milli=0"
            .parse::<CampaignScore>()
            .is_err());
        // a repeated field is not a missing one, however often it repeats
        let repeated = "unrecovered=1 unrecovered=1 unrecovered=1 unrecovered=1";
        assert_eq!(
            repeated.parse::<CampaignScore>(),
            Err("score: duplicate field `unrecovered`".to_string())
        );
        let long = vec!["max_mttr=3"; 256].join(" ");
        assert_eq!(
            long.parse::<CampaignScore>(),
            Err("score: duplicate field `max_mttr`".to_string())
        );
    }

    #[test]
    fn sampled_schedules_are_deterministic_and_sorted() {
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let s1 = sample_schedule(&mut a, &nodes, 6, 10_000);
        let s2 = sample_schedule(&mut b, &nodes, 6, 10_000);
        assert_eq!(s1, s2, "same stream seed ⇒ identical schedule");
        assert!(!s1.is_empty() && s1.len() <= 6);
        assert!(
            s1.windows(2).all(|w| w[0].at <= w[1].at),
            "schedules are sorted by firing time"
        );
    }

    #[test]
    fn campaign_file_round_trips_through_parse() {
        let lines = vec![
            "100 crash 2".to_string(),
            "250 partition 0,1|2,3".to_string(),
            "900 heal".to_string(),
        ];
        let score = CampaignScore {
            unrecovered: 0,
            disrupted_rounds: 12,
            max_mttr: 7,
            mean_mttr_milli: 4_500,
        };
        let file = render_campaign_file("demo", 7, &score, &lines);
        let (recorded, faults) = parse_campaign_file(&file).expect("file parses");
        assert_eq!(recorded, Some(score));
        assert_eq!(schedule_lines(&faults), lines);

        assert!(parse_campaign_file("12 exploded 3").is_err());
        assert!(parse_campaign_file("nonsense").is_err());
        for score in [
            "# score unrecovered=1 unrecovered=1 unrecovered=1 unrecovered=1".to_string(),
            format!("# score {}", vec!["disrupted=0"; 256].join(" ")),
        ] {
            let err = parse_campaign_file(&format!("{score}\n100 crash 2\n")).unwrap_err();
            assert!(err.starts_with("line 1: score: duplicate field"), "{err}");
        }
        let (none, empty) = parse_campaign_file("# just a comment\n\n").unwrap();
        assert_eq!(none, None);
        assert!(empty.is_empty());
    }

    #[test]
    fn search_is_deterministic_and_picks_the_max_score() {
        let manifest = campaign_manifest("");
        let a = run_seed(&manifest, 7, None);
        let b = run_seed(&manifest, 7, None);
        assert_eq!(a.digest.to_hex(), b.digest.to_hex());
        let report = a.campaign.expect("campaign report present");
        assert_eq!(report.schedules.len(), 3);
        let max = report.schedules.iter().map(|s| s.score).max().unwrap();
        assert_eq!(report.worst_score, max);
        assert_eq!(
            report.schedules[report.worst_index as usize].score,
            report.worst_score
        );
        assert!(a.resilience.is_some(), "campaign always reports resilience");
    }

    #[test]
    fn emitted_worst_case_replays_to_the_recorded_score() {
        let manifest = campaign_manifest("");
        let (report, file) = emit_worst_case(&manifest);

        let dir = std::env::temp_dir().join("grp-campaign-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("worst_case_roundtrip.txt");
        std::fs::write(&path, &file).expect("write campaign file");

        let replay_manifest = campaign_manifest(&format!("replay = {:?}", path.to_string_lossy()));
        let outcome = run_seed(&replay_manifest, 7, None);
        let replay_check = outcome
            .assertions
            .iter()
            .find(|a| a.name == "campaign_replay")
            .expect("replay assertion present");
        assert!(
            replay_check.pass,
            "replay must reproduce the recorded score: expected {}, observed {}",
            replay_check.expected, replay_check.observed
        );
        assert_eq!(
            outcome.campaign.as_ref().unwrap().worst_score,
            report.worst_score
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A campaign has no run path of its own: its worst run observes what
    /// a simulate run of the worst schedule, with resilience on, observes.
    #[test]
    fn worst_run_equals_a_simulate_run_of_its_schedule() {
        let text = r#"
name = "campaign-grid"
mode = "campaign"
[topology]
kind = "grid"
rows = 2
cols = 3
[protocol]
dmax = 2
[sim]
rounds = 40
seeds = [5]
[campaign]
schedules = 6
max_faults = 4
"#;
        let manifest = ScenarioManifest::parse(text).expect("campaign parses");
        let (report, file) = emit_worst_case(&manifest);
        let campaign = run_seed(&manifest, 5, None);
        assert_eq!(
            campaign.campaign.expect("report").worst_lines,
            report.worst_lines
        );

        let simulate_text = text
            .replace("mode = \"campaign\"", "mode = \"simulate\"")
            .replace(
                "[campaign]\nschedules = 6\nmax_faults = 4\n",
                "[report]\nresilience = true\n",
            );
        let mut simulate = ScenarioManifest::parse(&simulate_text).expect("simulate parses");
        assert_eq!(simulate.mode, RunMode::Simulate);
        let (recorded, faults) = parse_campaign_file(&file).expect("campaign file parses");
        assert_eq!(recorded, Some(report.worst_score));
        assert!(!faults.is_empty());
        // the worst schedule becomes the simulate run's `[[faults]]` plan
        simulate.faults = faults;
        let run = run_seed(&simulate, 5, None);

        assert_eq!(run.final_snapshot, campaign.final_snapshot);
        assert_eq!(run.stats, campaign.stats);
        assert_eq!(run.converged_round, campaign.converged_round);
        assert_eq!(run.continuity, campaign.continuity);
        assert_eq!(run.resilience, campaign.resilience);
        assert_eq!(run.nodes, campaign.nodes);
        let resilience = run.resilience.as_ref().expect("resilience on");
        assert_eq!(CampaignScore::of(resilience), report.worst_score);
        assert!(!resilience.faults.is_empty(), "the schedule's faults fired");
    }

    #[test]
    fn replay_of_a_missing_file_fails_the_replay_assertion() {
        let manifest = campaign_manifest(r#"replay = "/nonexistent/campaign.txt""#);
        let outcome = run_seed(&manifest, 7, None);
        assert!(!outcome.pass);
        assert!(outcome
            .assertions
            .iter()
            .any(|a| a.name == "campaign_replay" && !a.pass));
    }
}
