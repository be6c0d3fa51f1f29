//! Hostile inputs: byte-level mutations of every suite manifest, of the
//! pinned campaign file and of a checked-in model-checker trace — a
//! flipped byte, a deleted byte, a duplicated line, a truncation — must
//! either parse or fail with an error that names its line. Never a panic.
//! A small simulated manifest that parses must also build and run.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scenarios::{
    build_simulator, discover_manifests, parse_campaign_file, suite_dir, RunMode, ScenarioManifest,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const MUTATIONS_PER_MANIFEST: usize = 100;
const MUTATIONS_PER_FILE: usize = 1_000;
/// Byte-level mutations per manifest in the build test, beside its
/// value-level ones.
const BUILT_MUTATIONS_PER_MANIFEST: usize = 20;
/// The values every numeric `key = v` line is rewritten to.
const HOSTILE_VALUES: [&str; 4] = ["0", "-1", "0.0", "-1.0"];

fn mutate(text: &[u8], rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut bytes = text.to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..4u32) {
        0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        1 => {
            bytes.remove(at);
        }
        2 => {
            let start = bytes[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let end =
                (bytes[at..].iter().position(|&b| b == b'\n')).map_or(bytes.len(), |i| at + i + 1);
            let line = bytes[start..end].to_vec();
            bytes.splice(end..end, line);
        }
        _ => bytes.truncate(at),
    }
    bytes
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Parse `count` mutations of the file at `path`: each must come back
/// `Ok` or as an error starting `line `. Returns (parsed, rejected).
fn mutate_and_parse<T>(
    path: &Path,
    count: usize,
    rng: &mut ChaCha8Rng,
    parse: impl Fn(&str) -> Result<T, String>,
) -> (usize, usize) {
    let text = std::fs::read(path).expect("input reads");
    let (mut ok, mut rejected) = (0, 0);
    for _ in 0..count {
        let input = String::from_utf8_lossy(&mutate(&text, rng)).into_owned();
        match parse(&input) {
            Ok(_) => ok += 1,
            Err(e) => {
                assert!(
                    e.starts_with("line "),
                    "{}: unlocated `{e}` for\n{input}",
                    path.display()
                );
                rejected += 1;
            }
        }
    }
    (ok, rejected)
}

#[test]
fn mutated_manifests_parse_or_name_a_line() {
    let paths = discover_manifests(&suite_dir()).expect("suite lists");
    assert!(
        paths.len() * MUTATIONS_PER_MANIFEST >= 2_000,
        "{} manifests",
        paths.len()
    );
    let mut rng = ChaCha8Rng::seed_from_u64(0x4057_11e5);
    let (mut ok, mut rejected) = (0, 0);
    for path in &paths {
        let (o, r) = mutate_and_parse(path, MUTATIONS_PER_MANIFEST, &mut rng, |input| {
            ScenarioManifest::parse(input).map_err(|e| e.0)
        });
        ok += o;
        rejected += r;
    }
    // both outcomes occur, so neither arm is vacuous
    assert!(ok > 0 && rejected > 0, "{ok} parsed, {rejected} rejected");
}

#[test]
fn mutated_campaign_files_parse_or_name_a_line() {
    let path = repo_file("tests/campaigns/worst_case.txt");
    let mut rng = ChaCha8Rng::seed_from_u64(0xca4b_a165);
    let (ok, rejected) = mutate_and_parse(&path, MUTATIONS_PER_FILE, &mut rng, parse_campaign_file);
    assert!(ok > 0 && rejected > 0, "{ok} parsed, {rejected} rejected");
}

#[test]
fn mutated_modelcheck_traces_parse_or_name_a_line() {
    let path = repo_file("crates/modelcheck/tests/data/path5_dmax2_sync.trace");
    let mut rng = ChaCha8Rng::seed_from_u64(0x7ace_f11e);
    let (ok, rejected) =
        mutate_and_parse(&path, MUTATIONS_PER_FILE, &mut rng, modelcheck::parse_trace);
    assert!(ok > 0 && rejected > 0, "{ok} parsed, {rejected} rejected");
}

/// Every rewrite of one numeric `key = v` line of `text` to each of
/// [`HOSTILE_VALUES`].
fn value_mutations(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let value = value.split('#').next().unwrap_or("").trim();
        let numeric = value.parse::<f64>().is_ok() || value.replace('_', "").parse::<i64>().is_ok();
        if !numeric || key.trim().is_empty() || key.trim_start().starts_with('#') {
            continue;
        }
        for hostile in HOSTILE_VALUES {
            let mut mutated = lines.clone();
            let rewritten = format!("{} = {hostile}", key.trim_end());
            mutated[i] = &rewritten;
            out.push(mutated.join("\n"));
        }
    }
    out
}

/// Small enough to build and run one round of in a debug test: at most
/// 200 nodes and at most 64 timer periods to a round.
fn small_simulation(m: &ScenarioManifest) -> bool {
    let sim = &m.sim;
    let fastest = sim.send_period.min(sim.mobility_period);
    m.mode == RunMode::Simulate
        && m.workload.node_count() <= 200
        && sim.compute_period / fastest <= 64
}

/// Byte- and value-level mutations of every small simulated suite
/// manifest: each parses to a manifest that builds and runs a round, or
/// fails with a located error. Geometry the mobility and radio models
/// cannot use (`width = -1`, `range = 0`) used to pass the parser and
/// panic in `build_simulator`.
#[test]
fn mutated_manifests_that_parse_build_and_run() {
    let paths = discover_manifests(&suite_dir()).expect("suite lists");
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0_11d5);
    let (mut built, mut rejected) = (0, 0);
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("manifest reads");
        match ScenarioManifest::parse(&text) {
            Ok(original) if small_simulation(&original) => {}
            _ => continue,
        }
        let bytes = (0..BUILT_MUTATIONS_PER_MANIFEST)
            .map(|_| String::from_utf8_lossy(&mutate(text.as_bytes(), &mut rng)).into_owned());
        for input in value_mutations(&text).into_iter().chain(bytes) {
            let m = match ScenarioManifest::parse(&input) {
                Ok(m) => m,
                Err(e) => {
                    assert!(
                        e.0.starts_with("line "),
                        "{}: unlocated `{}` for\n{input}",
                        path.display(),
                        e.0
                    );
                    rejected += 1;
                    continue;
                }
            };
            if !small_simulation(&m) {
                continue;
            }
            let run = catch_unwind(AssertUnwindSafe(|| build_simulator(&m, 0).run_rounds(1)));
            assert!(
                run.is_ok(),
                "{}: a parsed manifest panicked:\n{input}",
                path.display()
            );
            built += 1;
        }
    }
    assert!(
        built > 0 && rejected > 0,
        "{built} built, {rejected} rejected"
    );
}
