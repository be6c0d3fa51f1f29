//! grp-bench — five pinned workloads, three end-to-end metrics, a traced
//! per-layer run. See `README.md` beside this package.

mod api;
mod bench;
mod child;
mod expected;
mod json;
mod metrics;
mod probes;
mod procfs;
mod stats;
mod trace;
mod workload;

use bench::Options;
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  grp-bench run [--seed N] [--quick] [--out FILE] [--update-expected]
      every workload: the untraced runs, one traced run, the probes
  grp-bench compare OLD.json NEW.json
      deltas against the bounds, exact equality on counters; exit 1 outside them
  grp-bench selfcheck
      `run` twice, then `compare` the two
  grp-bench --workload NAME --seed N --seconds S --trace 0|1
      one workload, one JSON object on the last line (the BENCHMARK.json contract)";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    /// Flags listed in `switches` take no value.
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => args.flags.push((name.to_string(), None)),
                Some(name) => {
                    let value = iter.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), Some(value.clone())));
                }
                None => args.words.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: `{v}` is not a number"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?.ok_or(format!("--{name} is required"))
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn save(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn failed_runs(doc: &Json) -> i64 {
    doc.get("runs_failed").and_then(Json::as_i64).unwrap_or(-1)
}

/// `Ok(true)` when the command's verdict is good.
fn dispatch(raw: &[String]) -> Result<bool, String> {
    match raw.first().map(String::as_str) {
        Some("child") => {
            let args = Args::parse(&raw[1..], &[])?;
            args.only(&["manifest", "result", "setup-repeats", "trace"])?;
            let manifest = PathBuf::from(args.value("manifest").ok_or("--manifest is required")?);
            let result = PathBuf::from(args.value("result").ok_or("--result is required")?);
            let record = match args.value("trace") {
                Some(trace) => child::run_traced(&manifest, &result, Path::new(trace))?,
                None => child::run_untraced(&manifest, &result, args.required("setup-repeats")?)?,
            };
            child::emit(&record);
            Ok(true)
        }
        Some("run") => {
            let args = Args::parse(&raw[1..], &["quick", "update-expected"])?;
            args.only(&["seed", "quick", "out", "update-expected"])?;
            let opts = Options {
                seed: args.number("seed")?.unwrap_or(workload::DEFAULT_SEED),
                quick: args.switch("quick"),
            };
            let doc = bench::run_all(opts, args.switch("update-expected"))?;
            let out = args
                .value("out")
                .map_or_else(|| bench::out_dir().join("result.json"), PathBuf::from);
            save(&out, &doc)?;
            Ok(failed_runs(&doc) == 0)
        }
        Some("compare") => {
            let args = Args::parse(&raw[1..], &[])?;
            args.only(&[])?;
            let [old, new] = args.words.as_slice() else {
                return Err("compare takes OLD.json NEW.json".to_string());
            };
            bench::compare(&load(old)?, &load(new)?)
        }
        Some("selfcheck") => {
            Args::parse(&raw[1..], &[])?.only(&[])?;
            let opts = Options {
                seed: workload::DEFAULT_SEED,
                quick: false,
            };
            let mut docs = Vec::new();
            for name in ["selfcheck-a.json", "selfcheck-b.json"] {
                let doc = bench::run_all(opts, false)?;
                save(&bench::out_dir().join(name), &doc)?;
                docs.push(doc);
            }
            bench::compare(&docs[0], &docs[1])
        }
        Some(flag) if flag.starts_with("--") => {
            let args = Args::parse(raw, &[])?;
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let name = args.value("workload").ok_or("--workload is required")?;
            let workload = workload::find(name).ok_or_else(|| {
                let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (known: {})", known.join(", "))
            })?;
            let traced = match args.required::<u8>("trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            bench::drive(
                workload,
                args.required("seed")?,
                args.required("seconds")?,
                traced,
            )?;
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

/// The commands that measure run on one CPU: this program, its children and
/// the pace kernel, one after the other on the same core. With more than one
/// CPU the engine hands every event bucket to freshly spawned worker
/// threads, and on a few cores of a shared host that measures the host's
/// scheduler (README, Noise). Starts this program again under `taskset` and
/// returns how that ended; `None` when there is nothing to do.
fn on_one_cpu(raw: &[String]) -> Result<Option<ExitCode>, String> {
    let measures = match raw.first().map(String::as_str) {
        Some("run" | "selfcheck") => true,
        Some(first) => first.starts_with("--"),
        None => false,
    };
    if !measures || std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        return Ok(None);
    }
    let cpu = procfs::last_allowed_cpu().ok_or("cannot read the CPUs this process may use")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let status = std::process::Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(raw)
        .status()
        .map_err(|e| format!("cannot start taskset, which pins the measurement to one CPU: {e}"))?;
    // a child ended by a signal has no code: report it as an error of ours
    Ok(Some(ExitCode::from(status.code().map_or(2, |c| c as u8))))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let ended = on_one_cpu(&raw).and_then(|pinned| match pinned {
        Some(code) => Ok(code),
        // exit code 1 when the command's verdict is bad
        None => dispatch(&raw).map(|good| ExitCode::from(u8::from(!good))),
    });
    match ended {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
