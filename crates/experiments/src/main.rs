//! `grp-experiments` — regenerate every table and figure of the evaluation.
//!
//! ```text
//! grp-experiments [--quick] [--out DIR] [all | e1 e2 … e10]
//! ```
//!
//! Each experiment prints its tables/series to stdout and, when `--out` is
//! given (default `results/`), writes one markdown file per experiment.
//! Scenario manifests run through `scenario-runner` (`docs/SCENARIOS.md`).

use experiments::{run_experiment, ExperimentOutput, Scale, ALL_EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--out requires a directory argument");
                    return ExitCode::from(2);
                };
                out_dir = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                println!("usage: grp-experiments [--quick] [--out DIR] [all | e1 … e10]");
                return ExitCode::SUCCESS;
            }
            other => requested.push(other.to_string()),
        }
    }
    if requested.is_empty() || requested.iter().any(|r| r == "all") {
        requested = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let mut outputs: Vec<ExperimentOutput> = Vec::new();
    for id in &requested {
        eprintln!("running {id} ({scale:?}) …");
        match run_experiment(id, scale) {
            Some(output) => {
                println!("{}", output.to_markdown());
                outputs.push(output);
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::from(2);
            }
        }
    }
    match experiments::report::write_results(&outputs, &out_dir) {
        Ok(paths) => {
            eprintln!(
                "wrote {} result files under {}",
                paths.len(),
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("failed to write results: {err}");
            ExitCode::FAILURE
        }
    }
}
