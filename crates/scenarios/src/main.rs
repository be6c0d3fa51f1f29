//! `scenario-runner` — execute scenario manifests headlessly.
//!
//! ```text
//! scenario-runner [--out DIR] [--jobs N] [--update-golden] MANIFEST.toml...
//! scenario-runner --suite [DIR]     # run every manifest in DIR (default tests/scenarios)
//! ```
//!
//! Each scenario writes `<out>/<name>.result.json` (default
//! `results/scenarios/`) and prints a one-line verdict per run. Exit code 0
//! iff every assertion of every scenario passed.
//!
//! Manifests execute on up to `--jobs` worker threads (default: the
//! machine's available parallelism). Every scenario owns its RNG streams,
//! so the digests — and the printed report, which is flushed in suite
//! order after the workers finish — are byte-identical for any job count.
//!
//! `--update-golden` re-pins the golden digests: the `[golden]` table of
//! each manifest is rewritten in place with the digests of this execution,
//! and every other line of the file is kept. Stale-digest mismatches are
//! expected while re-pinning, but a manifest with a failing *behavioural*
//! assertion is left untouched and fails the process — a broken run is
//! never silently pinned over.
//!
//! `--emit-campaign FILE` takes exactly one `mode = "campaign"` manifest,
//! runs the worst-schedule search (ignoring any `[campaign] replay` pin)
//! and writes the worst schedule to FILE in campaign-file form. CI
//! regenerates the checked-in file this way and diffs the two, so the
//! pinned worst case can never silently drift from what the searcher finds.

#![forbid(unsafe_code)]

use scenarios::{
    discover_manifests, emit_worst_case, passes_ignoring_golden, run_suite, suite_dir, RunMode,
    ScenarioManifest, ScenarioOutcome,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results/scenarios");
    let mut update_golden = false;
    let mut use_suite = false;
    let mut emit_campaign: Option<PathBuf> = None;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut manifests: Vec<PathBuf> = Vec::new();

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--out requires a directory argument");
                    return ExitCode::from(2);
                };
                out_dir = PathBuf::from(dir);
            }
            "--jobs" => {
                let parsed = iter.next().and_then(|v| v.parse::<usize>().ok());
                let Some(n) = parsed.filter(|&n| n >= 1) else {
                    eprintln!("--jobs requires a positive integer argument");
                    return ExitCode::from(2);
                };
                jobs = n;
            }
            "--update-golden" => update_golden = true,
            "--suite" => use_suite = true,
            "--emit-campaign" => {
                let Some(file) = iter.next() else {
                    eprintln!("--emit-campaign requires an output file argument");
                    return ExitCode::from(2);
                };
                emit_campaign = Some(PathBuf::from(file));
            }
            "--help" | "-h" => {
                println!(
                    "usage: scenario-runner [--out DIR] [--jobs N] [--update-golden] [--suite [DIR] | MANIFEST.toml...]\n       scenario-runner --emit-campaign FILE MANIFEST.toml"
                );
                return ExitCode::SUCCESS;
            }
            other => manifests.push(PathBuf::from(other)),
        }
    }

    if use_suite {
        let dir = manifests.pop().unwrap_or_else(suite_dir);
        match discover_manifests(&dir) {
            Ok(found) if !found.is_empty() => manifests = found,
            Ok(_) => {
                eprintln!("no manifests found under {}", dir.display());
                return ExitCode::from(2);
            }
            Err(err) => {
                eprintln!("cannot list {}: {err}", dir.display());
                return ExitCode::from(2);
            }
        }
    }
    if manifests.is_empty() {
        eprintln!("no manifests given (try --suite)");
        return ExitCode::from(2);
    }

    if let Some(file) = emit_campaign {
        return match emit_campaign_file(&manifests, &file) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("{err}");
                ExitCode::from(2)
            }
        };
    }

    let mut all_pass = true;
    for report in run_suite(&manifests, &out_dir, jobs) {
        report.print();
        let path = &report.path;
        let Some(outcome) = report.outcome else {
            all_pass = false;
            continue;
        };
        if update_golden {
            match repin(path, &outcome) {
                Ok(()) => println!("     pinned {} golden digest(s)", outcome.runs.len()),
                Err(err) => {
                    eprintln!("{err}");
                    all_pass = false;
                }
            }
        } else if !outcome.pass {
            all_pass = false;
        }
    }

    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--emit-campaign` path: run the worst-schedule search for exactly
/// one campaign manifest and write the campaign file.
fn emit_campaign_file(manifests: &[PathBuf], file: &PathBuf) -> Result<(), String> {
    let [path] = manifests else {
        return Err("--emit-campaign takes exactly one manifest".to_string());
    };
    let manifest = ScenarioManifest::load(path).map_err(|e| e.to_string())?;
    if manifest.mode != RunMode::Campaign {
        return Err(format!(
            "{}: --emit-campaign needs `mode = \"campaign\"`",
            path.display()
        ));
    }
    let (report, rendered) = emit_worst_case(&manifest);
    std::fs::write(file, &rendered).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!(
        "wrote {} (worst schedule #{} of {}: {})",
        file.display(),
        report.worst_index,
        report.schedules.len(),
        report.worst_score
    );
    Ok(())
}

/// Re-pin one manifest's golden digests. The old pinned digest is allowed
/// to mismatch, but a run with a failing behavioural assertion must not be
/// pinned over: the file is then left as it was.
fn repin(path: &Path, outcome: &ScenarioOutcome) -> Result<(), String> {
    if !passes_ignoring_golden(outcome) {
        return Err(format!(
            "not pinning {}: {} has failing behavioural assertions",
            path.display(),
            outcome.manifest.name
        ));
    }
    let digests: Vec<String> = outcome.runs.iter().map(|r| r.digest.to_hex()).collect();
    std::fs::read_to_string(path)
        .and_then(|original| std::fs::write(path, with_golden(&original, &digests)))
        .map_err(|err| format!("cannot update golden digests in {}: {err}", path.display()))
}

/// `manifest` with its `[golden]` table replaced by one pinning `digests`,
/// or with that table appended when there is none. The table is found by a
/// line-anchored header match, so `[golden]` in a comment or a string is
/// never mistaken for it. It runs to the next table header (the next line
/// opening with `[`: a digest list holds only strings) or EOF. Every line
/// outside it is kept, including the comments and blank lines that lead
/// into the next table.
fn with_golden(manifest: &str, digests: &[String]) -> String {
    let quoted: Vec<String> = digests.iter().map(|d| format!("\"{d}\"")).collect();
    let table = format!("[golden]\ndigests = [\n    {}\n]\n", quoted.join(",\n    "));
    let lines: Vec<&str> = manifest.split_inclusive('\n').collect();
    let Some(start) = lines.iter().position(|line| line.trim() == "[golden]") else {
        return format!("{}\n\n{table}", manifest.trim_end());
    };
    let body = &lines[start + 1..];
    let next_header = body
        .iter()
        .position(|line| line.trim_start().starts_with('['))
        .unwrap_or(body.len());
    let end = body[..next_header]
        .iter()
        .rposition(|line| !line.trim().is_empty() && !line.trim_start().starts_with('#'))
        .map_or(0, |last| last + 1);
    let before = lines[..start].concat();
    let after = body[end..].concat();
    let after = if after.trim().is_empty() { "" } else { &after };
    format!("{}\n\n{table}{after}", before.trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED_THEN_ASSERTIONS: &str = "name = \"repin\"\n\n[topology]\nkind = \"path\"\nn = 4\n\n[sim]\nrounds = 10\n\n[golden]\ndigests = [\n    \"00\"\n]\n\n# kept\n[assertions]\nmax_groups = MAX\n";

    fn manifest_file(name: &str, text: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "scenario-runner-{}-{name}.toml",
            std::process::id()
        ));
        std::fs::write(&path, text).expect("temp manifest written");
        path
    }

    #[test]
    fn repin_replaces_only_the_golden_table() {
        let text = PINNED_THEN_ASSERTIONS.replace("MAX", "4");
        let path = manifest_file("keeps-tables", &text);
        let outcome = scenarios::run_scenario(&ScenarioManifest::load(&path).expect("loads"));
        repin(&path, &outcome).expect("a passing run is pinned");
        let updated = std::fs::read_to_string(&path).expect("manifest readable");
        std::fs::remove_file(&path).ok();
        let digest = outcome.runs[0].digest.to_hex();
        let expected = text.replace("\"00\"", &format!("\"{digest}\""));
        assert_eq!(updated, expected);
        // appended when absent; a trailing table keeps the old layout
        let head = "name = \"x\"\n";
        let pinned = with_golden(head, &["ab".into()]);
        assert_eq!(
            pinned,
            "name = \"x\"\n\n[golden]\ndigests = [\n    \"ab\"\n]\n"
        );
        assert_eq!(
            with_golden(&pinned, &["cd".into()]),
            pinned.replace("ab", "cd")
        );
    }

    #[test]
    fn repin_leaves_a_failing_manifest_untouched() {
        let text = PINNED_THEN_ASSERTIONS.replace("MAX", "0");
        let path = manifest_file("refuses", &text);
        let outcome = scenarios::run_scenario(&ScenarioManifest::load(&path).expect("loads"));
        let err = repin(&path, &outcome).expect_err("max_groups = 0 fails");
        let after = std::fs::read_to_string(&path).expect("manifest readable");
        std::fs::remove_file(&path).ok();
        assert!(err.contains("failing behavioural assertions"), "{err}");
        assert_eq!(after, text);
    }
}
