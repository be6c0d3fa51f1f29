//! CLI for the determinism linter. `--check` is the CI gate; `--rng-audit`
//! prints the RNG draw-site inventory, and `--baseline FILE` turns
//! that inventory into a second gate: sites not present in the checked-in
//! baseline fail the run by name.

#![forbid(unsafe_code)]

use detlint::audit::{new_sites, parse_baseline, render, rng_audit, serialize_baseline};
use detlint::config::Config;
use detlint::scan::run_check;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
detlint — determinism linter for this repository

USAGE:
    detlint [--check] [--rng-audit] [--baseline FILE [--update-baseline]]
            [--root DIR] [--config FILE]

MODES:
    (default) / --check   lint all first-party sources; exit 1 on findings
    --rng-audit           inventory RNG draw/handoff sites; exit 0
    --rng-audit --baseline FILE
                          compare the inventory against FILE; exit 1 naming
                          every site the baseline does not cover (line
                          numbers may drift; path/kind/detail may not)
    --rng-audit --baseline FILE --update-baseline
                          rewrite FILE from the current inventory

OPTIONS:
    --root DIR            repository root to scan (default: .)
    --config FILE         config path (default: <root>/detlint.toml)
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut audit_mode = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--rng-audit" => audit_mode = true,
            "--baseline" => match args.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage_error("--baseline needs a value"),
            },
            "--update-baseline" => update_baseline = true,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage_error("--config needs a value"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if baseline_path.is_some() && !audit_mode {
        return usage_error("--baseline only applies to --rng-audit");
    }
    if update_baseline && baseline_path.is_none() {
        return usage_error("--update-baseline needs --baseline FILE");
    }

    let config_path = config_path.unwrap_or_else(|| root.join("detlint.toml"));
    let cfg = match Config::load(&config_path) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if audit_mode {
        let sites = match rng_audit(&root, &cfg) {
            Ok(sites) => sites,
            Err(e) => {
                eprintln!("detlint: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(baseline_path) = baseline_path else {
            print!("{}", render(&sites));
            return ExitCode::SUCCESS;
        };
        if update_baseline {
            let header = "\
# RNG consumption baseline — the sites `detlint --rng-audit` is\n\
# allowed to find, one `path fn#rank kind detail` line each: keyed by\n\
# the enclosing fn and the site's rank in it, not by line. CI fails on\n\
# any site not listed here (matched on path/kind/detail).\n\
# Regenerate after an intentional change with:\n\
#   cargo run -p detlint -- --rng-audit --baseline rng-audit.baseline --update-baseline\n";
            let body = format!("{header}{}", serialize_baseline(&sites));
            return match std::fs::write(&baseline_path, body) {
                Ok(()) => {
                    println!(
                        "detlint: wrote {} site(s) to {}",
                        sites.len(),
                        baseline_path.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("detlint: cannot write {}: {e}", baseline_path.display());
                    ExitCode::FAILURE
                }
            };
        }
        let baseline = match std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))
            .and_then(|text| parse_baseline(&text))
        {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("detlint: {e}");
                return ExitCode::FAILURE;
            }
        };
        let fresh = new_sites(&sites, &baseline);
        if fresh.is_empty() {
            println!(
                "detlint: rng audit clean — {} site(s), all covered by {}",
                sites.len(),
                baseline_path.display()
            );
            return ExitCode::SUCCESS;
        }
        for s in &fresh {
            println!("NEW {}:{} {} {}", s.path, s.line, s.kind, s.detail);
        }
        println!(
            "detlint: {} RNG site(s) not in {} — check each draws from a per-node \
             stream (netsim::NodeStreams) or a seeded constructor RNG, then \
             regenerate the baseline with --update-baseline",
            fresh.len(),
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    }

    match run_check(&root, &cfg) {
        Ok((findings, scanned)) => {
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("detlint: clean — {scanned} files, 0 findings");
                ExitCode::SUCCESS
            } else {
                println!("detlint: {} finding(s) in {scanned} files", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("detlint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("detlint: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}
