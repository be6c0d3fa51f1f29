//! The `result.json` artifact (schema v1).
//!
//! One document per scenario, covering every seed the manifest declares.
//! The layout is stable and insertion-ordered so CI artifacts diff cleanly;
//! see `docs/SCENARIOS.md` for the field-by-field contract.

use crate::campaign::{CampaignReport, CampaignScore};
use crate::json::Json;
use crate::manifest::ScenarioManifest;
use crate::runner::{run_scenario_with, McReport, RunOutcome, ScenarioOutcome};
use grp_core::observers::ResilienceStats;
use grp_core::predicates::OmegaPartition;
use std::io;
use std::path::{Path, PathBuf};

/// Result document schema version.
pub const RESULT_SCHEMA_VERSION: i64 = 1;

fn modelcheck_to_json(mc: &McReport) -> Json {
    Json::object()
        .with("start", mc.start.as_str())
        .with("all_converged", mc.all_converged)
        .with("total_visited", mc.total_visited)
        .with(
            "cases",
            Json::Array(
                mc.cases
                    .iter()
                    .map(|c| {
                        Json::object()
                            .with("node", c.node)
                            .with("partner", c.partner)
                            .with("variant", c.variant.as_str())
                            .with("outcome", c.outcome.as_str())
                            .with("converged", c.converged)
                            .with("visited", c.visited)
                            .with("goal_states", c.goal_states)
                            .with("max_depth", c.max_depth)
                            .with("trace_len", c.trace_len)
                    })
                    .collect(),
            ),
        )
}

fn resilience_to_json(stats: &ResilienceStats) -> Json {
    Json::object()
        .with("rounds_observed", stats.rounds_observed)
        .with("legitimate_rounds", stats.legitimate_rounds)
        .with("availability", stats.availability())
        .with("mean_mttr_rounds", stats.mean_mttr_rounds())
        .with("max_mttr_rounds", stats.max_mttr_rounds())
        .with("unrecovered", stats.unrecovered())
        .with(
            "recovery_histogram",
            Json::Array(
                stats
                    .recovery_histogram()
                    .iter()
                    .map(|&c| Json::Int(c as i64))
                    .collect(),
            ),
        )
        .with(
            "faults",
            Json::Array(
                stats
                    .faults
                    .iter()
                    .map(|f| {
                        Json::object()
                            .with("kind", f.kind.as_str())
                            .with("at", f.at.ticks())
                            .with("injected_after_round", f.injected_after_round)
                            .with("rounds_to_recover", f.rounds_to_recover)
                    })
                    .collect(),
            ),
        )
}

fn score_to_json(score: &CampaignScore) -> Json {
    Json::object()
        .with("unrecovered", score.unrecovered)
        .with("disrupted_rounds", score.disrupted_rounds)
        .with("max_mttr", score.max_mttr)
        .with("mean_mttr_milli", score.mean_mttr_milli)
}

fn campaign_to_json(report: &CampaignReport) -> Json {
    Json::object()
        .with("replay", report.replay.clone())
        .with("worst_index", report.worst_index as u64)
        .with("worst_score", score_to_json(&report.worst_score))
        .with(
            "worst_schedule",
            Json::Array(
                report
                    .worst_lines
                    .iter()
                    .map(|l| Json::from(l.as_str()))
                    .collect(),
            ),
        )
        .with(
            "schedules",
            Json::Array(
                report
                    .schedules
                    .iter()
                    .map(|s| {
                        Json::object()
                            .with("index", s.index as u64)
                            .with("score", score_to_json(&s.score))
                            .with(
                                "faults",
                                Json::Array(
                                    s.lines.iter().map(|l| Json::from(l.as_str())).collect(),
                                ),
                            )
                    })
                    .collect(),
            ),
        )
}

fn run_to_json(run: &RunOutcome, golden: Option<&String>) -> Json {
    // one partition of the final configuration feeds every `final` field
    let last = OmegaPartition::of(&run.final_snapshot);
    let dmax_groups: Vec<Json> = last
        .iter()
        .map(|g| Json::Array(g.iter().map(|n| Json::Int(n.raw() as i64)).collect()))
        .collect();
    let mut doc = Json::object()
        .with("seed", run.seed)
        .with("rounds", run.rounds)
        .with("nodes", run.nodes)
        .with("digest", run.digest.to_hex())
        .with("golden_digest", golden.cloned())
        .with("digest_match", golden.map(|g| g == &run.digest.to_hex()))
        .with("converged_round", run.converged_round)
        .with(
            "final",
            Json::object()
                .with("agreement", last.agreement())
                .with("groups", last.group_count())
                .with("mean_group_size", last.mean_group_size())
                .with("group_members", Json::Array(dmax_groups)),
        )
        .with(
            "continuity",
            Json::object()
                .with("transitions", run.continuity.transitions)
                .with("pi_t_held", run.continuity.pi_t_held)
                .with("pi_c_held_given_pi_t", run.continuity.pi_c_held_given_pi_t)
                .with("view_continuity", run.continuity.view_continuity()),
        )
        .with(
            "stats",
            Json::object()
                .with("broadcasts", run.stats.broadcasts)
                .with("attempted", run.stats.attempted)
                .with("delivered", run.stats.delivered)
                .with("dropped", run.stats.dropped)
                .with("delivered_bytes", run.stats.delivered_bytes)
                .with("delivery_ratio", run.stats.delivery_ratio()),
        )
        .with(
            "assertions",
            Json::Array(
                run.assertions
                    .iter()
                    .map(|a| {
                        Json::object()
                            .with("name", a.name.as_str())
                            .with("expected", a.expected.as_str())
                            .with("observed", a.observed.as_str())
                            .with("pass", a.pass)
                    })
                    .collect(),
            ),
        );
    // each extra section exists only when its mode/toggle produced it
    // (`[report] resilience`, `mode = "modelcheck"`, `mode = "campaign"`),
    // so historical simulation documents keep their exact byte layout
    if let Some(stats) = &run.resilience {
        doc = doc.with("resilience", resilience_to_json(stats));
    }
    if let Some(mc) = &run.modelcheck {
        doc = doc.with("modelcheck", modelcheck_to_json(mc));
    }
    if let Some(report) = &run.campaign {
        doc = doc.with("campaign", campaign_to_json(report));
    }
    doc.with("pass", run.pass)
}

/// Render the scenario outcome as the result.json document.
pub fn to_json(outcome: &ScenarioOutcome) -> Json {
    let manifest = &outcome.manifest;
    Json::object()
        .with("schema", RESULT_SCHEMA_VERSION)
        .with("scenario", manifest.name.as_str())
        .with("description", manifest.description.as_str())
        .with("dmax", manifest.protocol.dmax)
        .with(
            "runs",
            Json::Array(
                outcome
                    .runs
                    .iter()
                    .enumerate()
                    .map(|(i, run)| run_to_json(run, manifest.golden.digests.get(i)))
                    .collect(),
            ),
        )
        .with("pass", outcome.pass)
}

/// Incremental `result.json` emission: the header goes out on
/// construction, each run as it completes, the verdict on [`finish`].
/// The bytes are identical to `to_json(&outcome).pretty()` for the same
/// runs — a contract the golden-suite tests pin — so consumers cannot
/// tell which path produced an artifact. The win is that a long multi-seed
/// scenario leaves a useful partial document behind if the process dies
/// mid-suite, and never buffers more than one run.
///
/// [`finish`]: ResultWriter::finish
pub struct ResultWriter<W: io::Write> {
    out: W,
    runs_written: usize,
}

impl<W: io::Write> ResultWriter<W> {
    /// Write the document header (everything before the first run).
    pub fn new(mut out: W, manifest: &ScenarioManifest) -> io::Result<Self> {
        let mut head = String::from("{\n");
        for (key, value) in [
            ("schema", Json::Int(RESULT_SCHEMA_VERSION)),
            ("scenario", Json::from(manifest.name.as_str())),
            ("description", Json::from(manifest.description.as_str())),
            ("dmax", Json::from(manifest.protocol.dmax)),
        ] {
            head.push_str("  ");
            head.push_str(&Json::from(key).render(1));
            head.push_str(": ");
            head.push_str(&value.render(1));
            head.push_str(",\n");
        }
        head.push_str("  \"runs\": [");
        out.write_all(head.as_bytes())?;
        Ok(ResultWriter {
            out,
            runs_written: 0,
        })
    }

    /// Append one run, exactly as the batch renderer would place it.
    pub fn write_run(&mut self, run: &RunOutcome, golden: Option<&String>) -> io::Result<()> {
        let separator = if self.runs_written == 0 {
            "\n    "
        } else {
            ",\n    "
        };
        self.out.write_all(separator.as_bytes())?;
        self.out
            .write_all(run_to_json(run, golden).render(2).as_bytes())?;
        self.runs_written += 1;
        Ok(())
    }

    /// Close the runs array, write the overall verdict, and hand the sink
    /// back (flushed).
    pub fn finish(mut self, pass: bool) -> io::Result<W> {
        let tail = if self.runs_written == 0 {
            // matches the batch renderer's compact empty array
            format!("],\n  \"pass\": {}\n}}\n", Json::Bool(pass).render(1))
        } else {
            format!("\n  ],\n  \"pass\": {}\n}}\n", Json::Bool(pass).render(1))
        };
        self.out.write_all(tail.as_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Run a manifest, streaming each seed's run into `out` the moment it
/// completes. Returns the full outcome alongside the sink.
pub fn stream_scenario<W: io::Write>(
    manifest: &ScenarioManifest,
    out: W,
) -> io::Result<(ScenarioOutcome, W)> {
    let mut writer = Some(ResultWriter::new(out, manifest)?);
    let mut write_err: Option<io::Error> = None;
    let outcome = run_scenario_with(manifest, |i, run| {
        if let (Some(w), None) = (writer.as_mut(), write_err.as_ref()) {
            if let Err(e) = w.write_run(run, manifest.golden.digests.get(i)) {
                write_err = Some(e);
            }
        }
    });
    if let Some(e) = write_err {
        return Err(e);
    }
    let out = writer
        .take()
        // detlint::allow(D004): the closure above only borrows the writer
        .expect("writer is only taken here")
        .finish(outcome.pass)?;
    Ok((outcome, out))
}

/// Execute the manifest and stream `<out_dir>/<scenario-name>.result.json`
/// per seed as the runs complete, creating the directory.
pub fn write_result_streaming(
    manifest: &ScenarioManifest,
    out_dir: &Path,
) -> io::Result<(PathBuf, ScenarioOutcome)> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{}.result.json", manifest.name));
    let file = std::fs::File::create(&path)?;
    let (outcome, _file) = stream_scenario(manifest, io::BufWriter::new(file))?;
    Ok((path, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ScenarioManifest;
    use crate::runner::run_scenario;

    #[test]
    fn result_document_has_the_contract_fields() {
        let manifest = ScenarioManifest::parse(
            r#"
name = "result-demo"
[sim]
rounds = 20
seeds = [1, 2]
[topology]
kind = "path"
n = 3
[assertions]
agreement = true
"#,
        )
        .unwrap();
        let outcome = run_scenario(&manifest);
        let text = to_json(&outcome).pretty();
        for field in [
            "\"schema\": 1",
            "\"scenario\": \"result-demo\"",
            "\"runs\":",
            "\"digest\":",
            "\"converged_round\":",
            "\"view_continuity\":",
            "\"delivery_ratio\":",
            "\"assertions\":",
            "\"pass\":",
        ] {
            assert!(text.contains(field), "missing {field} in:\n{text}");
        }
        // two seeds ⇒ two runs
        assert_eq!(outcome.runs.len(), 2);
    }

    /// The streaming writer and the batch renderer are byte-for-byte
    /// interchangeable — on multi-seed simulation documents and on
    /// model-check documents with their extra section.
    #[test]
    fn streamed_document_is_byte_identical_to_batch() {
        for text in [
            r#"
name = "stream-sim"
[sim]
rounds = 15
seeds = [1, 2, 3]
[topology]
kind = "path"
n = 3
[assertions]
agreement = true
"#,
            r#"
name = "stream-mc"
mode = "modelcheck"
[protocol]
dmax = 2
[topology]
kind = "complete"
n = 3
[assertions]
reconverges = true
"#,
            r#"
name = "stream-campaign"
mode = "campaign"
[protocol]
dmax = 2
[topology]
kind = "path"
n = 3
[sim]
rounds = 20
seeds = [1, 2]
[campaign]
schedules = 2
max_faults = 3
"#,
        ] {
            let manifest = ScenarioManifest::parse(text).unwrap();
            let (outcome, streamed) = stream_scenario(&manifest, Vec::new()).expect("streams");
            let streamed = String::from_utf8(streamed).unwrap();
            assert_eq!(
                streamed,
                to_json(&outcome).pretty(),
                "{}: streamed bytes diverge from the batch renderer",
                manifest.name
            );
        }
    }

    #[test]
    fn result_document_carries_the_modelcheck_section_only_in_mc_mode() {
        let mc = ScenarioManifest::parse(
            r#"
name = "mc-result"
mode = "modelcheck"
[protocol]
dmax = 2
[topology]
kind = "complete"
n = 3
[assertions]
reconverges = true
"#,
        )
        .unwrap();
        let text = to_json(&run_scenario(&mc)).pretty();
        for field in [
            "\"modelcheck\":",
            "\"start\": \"corrupted\"",
            "\"all_converged\": true",
            "\"variant\":",
            "\"visited\":",
        ] {
            assert!(text.contains(field), "missing {field} in:\n{text}");
        }

        let sim = ScenarioManifest::parse(
            "name = \"sim-result\"\n[sim]\nrounds = 10\n[topology]\nkind = \"path\"\nn = 2\n",
        )
        .unwrap();
        let text = to_json(&run_scenario(&sim)).pretty();
        assert!(
            !text.contains("\"modelcheck\""),
            "simulation documents must keep their historical layout"
        );
    }

    /// `[report] resilience = true` adds the resilience section to a
    /// simulation document; `mode = "campaign"` adds both the resilience
    /// and the campaign sections. Plain documents carry neither.
    #[test]
    fn result_document_carries_resilience_and_campaign_sections_when_enabled() {
        let resilient = ScenarioManifest::parse(
            r#"
name = "res-result"
[sim]
rounds = 20
[topology]
kind = "path"
n = 3
[report]
resilience = true
[[faults]]
at = 2000
kind = "crash"
node = 1
"#,
        )
        .unwrap();
        let text = to_json(&run_scenario(&resilient)).pretty();
        for field in [
            "\"resilience\":",
            "\"availability\":",
            "\"recovery_histogram\":",
            "\"kind\": \"crash 1\"",
        ] {
            assert!(text.contains(field), "missing {field} in:\n{text}");
        }
        assert!(!text.contains("\"campaign\""));

        let campaign = ScenarioManifest::parse(
            r#"
name = "campaign-result"
mode = "campaign"
[protocol]
dmax = 2
[topology]
kind = "path"
n = 3
[sim]
rounds = 20
[campaign]
schedules = 2
max_faults = 3
"#,
        )
        .unwrap();
        let text = to_json(&run_scenario(&campaign)).pretty();
        for field in [
            "\"resilience\":",
            "\"campaign\":",
            "\"worst_index\":",
            "\"worst_score\":",
            "\"worst_schedule\":",
            "\"disrupted_rounds\":",
        ] {
            assert!(text.contains(field), "missing {field} in:\n{text}");
        }

        let plain = ScenarioManifest::parse(
            "name = \"plain-result\"\n[sim]\nrounds = 10\n[topology]\nkind = \"path\"\nn = 2\n",
        )
        .unwrap();
        let text = to_json(&run_scenario(&plain)).pretty();
        assert!(
            !text.contains("\"resilience\"") && !text.contains("\"campaign\""),
            "plain documents must keep their historical layout"
        );
    }

    #[test]
    fn write_result_creates_the_artifact() {
        let manifest = ScenarioManifest::parse(
            r#"
name = "result-write"
[sim]
rounds = 10
[topology]
kind = "path"
n = 2
"#,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("scenarios-result-test");
        let (path, outcome) = write_result_streaming(&manifest, &dir).expect("writes");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"scenario\": \"result-write\""));
        assert_eq!(body, to_json(&outcome).pretty());
        std::fs::remove_file(path).ok();
    }
}
