//! Golden-trace regression suite: every manifest under `tests/scenarios/`
//! (workspace root) runs headlessly; its assertions must pass and its
//! digest must match the pinned golden value for every seed.
//!
//! To re-pin after an intentional behaviour change:
//!
//! ```text
//! cargo run --release -p scenarios --bin scenario-runner -- \
//!     --suite tests/scenarios --update-golden
//! ```

use scenarios::manifest::{RunMode, ScenarioManifest};
use scenarios::{
    discover_manifests, run_seed, suite_dir, to_json, write_result_streaming, ResultWriter,
};
use std::path::Path;

fn load_suite() -> Vec<(std::path::PathBuf, ScenarioManifest)> {
    let dir = suite_dir();
    let paths =
        discover_manifests(&dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    assert!(
        paths.len() >= 10,
        "the curated suite must hold at least 10 scenarios, found {} in {}",
        paths.len(),
        dir.display()
    );
    paths
        .into_iter()
        .map(|p| {
            let m = ScenarioManifest::load(&p).unwrap_or_else(|e| panic!("{e}"));
            (p, m)
        })
        .collect()
}

/// Node count above which a manifest only executes in release builds: the
/// XL stress scenarios (s13's 10k nodes) are sized for the optimised
/// engine, and an unoptimised debug run would dominate `cargo test`. The
/// CI scenario-conformance job runs the full suite in release, so their
/// pinned digests are still enforced on every push.
const DEBUG_NODE_CEILING: usize = 5_000;

/// The same idea for model-check manifests, keyed on the declared
/// `max_states` bound: mc03's ~33k-state star exploration takes ~30s
/// unoptimised. Smaller checks still run (and pin) in debug.
const DEBUG_STATE_CEILING: usize = 100_000;

fn debug_skip(manifest: &ScenarioManifest) -> Option<String> {
    if !cfg!(debug_assertions) {
        return None;
    }
    if manifest.workload.node_count() > DEBUG_NODE_CEILING {
        return Some(format!(
            "{} nodes > {DEBUG_NODE_CEILING}",
            manifest.workload.node_count()
        ));
    }
    if manifest.mode == RunMode::ModelCheck {
        let bound = manifest
            .modelcheck
            .as_ref()
            .map(|s| s.explore.max_states)
            .unwrap_or_default();
        if bound > DEBUG_STATE_CEILING {
            return Some(format!("max_states {bound} > {DEBUG_STATE_CEILING}"));
        }
    }
    None
}

#[test]
fn every_scenario_is_pinned_and_passes() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario-results");
    let mut failures = Vec::new();
    for (path, manifest) in load_suite() {
        assert!(
            !manifest.golden.digests.is_empty(),
            "{}: no [golden] digests pinned — run the scenario-runner with --update-golden",
            path.display()
        );
        if let Some(why) = debug_skip(&manifest) {
            eprintln!(
                "skipping {} in debug build ({why}); \
                 the release scenario suite still pins it",
                manifest.name,
            );
            continue;
        }
        let (artifact, outcome) =
            write_result_streaming(&manifest, &out_dir).expect("write result.json");
        assert!(artifact.exists());
        // the streaming result writer must reproduce the batch renderer's
        // bytes exactly, on every golden manifest
        let streamed = {
            let mut w = ResultWriter::new(Vec::new(), &manifest).expect("header");
            for (i, run) in outcome.runs.iter().enumerate() {
                w.write_run(run, manifest.golden.digests.get(i)).unwrap();
            }
            String::from_utf8(w.finish(outcome.pass).unwrap()).unwrap()
        };
        assert_eq!(
            streamed,
            to_json(&outcome).pretty(),
            "{}: streamed result.json diverges from the batch renderer",
            manifest.name
        );
        for run in &outcome.runs {
            for a in run.assertions.iter().filter(|a| !a.pass) {
                failures.push(format!(
                    "{} seed={}: {} expected {} observed {}",
                    manifest.name, run.seed, a.name, a.expected, a.observed
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "scenario failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn suite_covers_the_advertised_workload_families() {
    let suite = load_suite();
    let text: String = suite
        .iter()
        .map(|(p, _)| std::fs::read_to_string(p).unwrap())
        .collect();
    for family in [
        "kind = \"path\"",
        "kind = \"grid\"",
        "kind = \"random_walk\"",
        "kind = \"highway\"",
        "kind = \"city_grid\"",
        "kind = \"mixed_highway\"",
        "model = \"contention\"",
        "action = \"link_down\"",
        "action = \"node_join\"",
        "kind = \"crash\"",
        "kind = \"loss_burst\"",
        "kind = \"partition\"",
        "kind = \"heal\"",
        "kind = \"restart_stale\"",
        "kind = \"corrupt_message\"",
        "kind = \"region_blackout\"",
        "resilience = true",
        "mode = \"modelcheck\"",
        "start = \"pair-corrupted\"",
        "mode = \"campaign\"",
    ] {
        assert!(text.contains(family), "suite lost its `{family}` coverage");
    }
}

/// The new contention-channel scenarios are as reproducible as everything
/// else: two executions of the same manifest + seed give byte-identical
/// digests, even though the channel adds per-cell load and hidden-terminal
/// state of its own.
#[test]
fn contention_scenarios_are_deterministic() {
    for file in [
        "s15_city_grid_contention.toml",
        "s17_mixed_highway_rsu.toml",
    ] {
        let manifest = ScenarioManifest::load(&suite_dir().join(file))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let seed = manifest.sim.seeds[0];
        let first = run_seed(&manifest, seed, None);
        let second = run_seed(&manifest, seed, None);
        assert_eq!(
            first.digest, second.digest,
            "{file}: contention channel broke digest determinism"
        );
        assert_eq!(first.stats, second.stats);
    }
}

/// The campaign replay (s19) is as deterministic as everything else, and
/// its `campaign_replay` assertion really checks the pinned file's
/// recorded score against the fresh run.
#[test]
fn campaign_replay_is_deterministic_and_checks_the_recorded_score() {
    let path = suite_dir().join("s19_worst_campaign.toml");
    let manifest = ScenarioManifest::load(&path).expect("s19 loads");
    let seed = manifest.sim.seeds[0];
    let first = run_seed(&manifest, seed, None);
    let second = run_seed(&manifest, seed, None);
    assert_eq!(
        first.digest, second.digest,
        "campaign replay broke digest determinism"
    );
    let replay = first
        .assertions
        .iter()
        .find(|a| a.name == "campaign_replay")
        .expect("replay manifests always evaluate the campaign_replay assertion");
    assert!(
        replay.pass,
        "the pinned worst-case schedule no longer reproduces its recorded \
         score: expected {}, observed {}",
        replay.expected, replay.observed
    );
    let report = first.campaign.expect("campaign section present");
    assert_eq!(
        report
            .replay
            .as_deref()
            .map(Path::new)
            .and_then(Path::file_name),
        Some("worst_case.txt".as_ref())
    );
    assert!(
        !report.worst_lines.is_empty(),
        "the pinned campaign file must carry at least one fault"
    );
}

#[test]
fn determinism_same_seed_identical_digest_and_snapshot() {
    let path = suite_dir().join("s01_stationary_line.toml");
    let manifest = ScenarioManifest::load(&path).expect("s01 loads");
    let seed = manifest.sim.seeds[0];

    let first = run_seed(&manifest, seed, None);
    let second = run_seed(&manifest, seed, None);
    assert_eq!(
        first.digest, second.digest,
        "same manifest + same seed must give byte-identical digests"
    );
    assert_eq!(
        first.final_snapshot, second.final_snapshot,
        "same manifest + same seed must give identical final SystemSnapshots"
    );
    assert_eq!(first.converged_round, second.converged_round);
    assert_eq!(first.stats, second.stats);

    let other = run_seed(&manifest, seed + 1, None);
    assert_ne!(
        first.digest, other.digest,
        "a different seed must perturb the observable trace"
    );
}

#[test]
fn determinism_holds_for_a_spatial_scenario_too() {
    let path = suite_dir().join("s11_highway.toml");
    let manifest = ScenarioManifest::load(&path).expect("s11 loads");
    let seed = manifest.sim.seeds[0];
    let a = run_seed(&manifest, seed, None);
    let b = run_seed(&manifest, seed, None);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.final_snapshot, b.final_snapshot);
    assert_ne!(a.digest, run_seed(&manifest, seed + 99, None).digest);
}
