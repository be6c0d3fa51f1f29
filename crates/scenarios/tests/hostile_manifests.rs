//! Hostile inputs: byte-level mutations of every suite manifest, of the
//! pinned campaign file and of a checked-in model-checker trace — a
//! flipped byte, a deleted byte, a duplicated line, a truncation — must
//! either parse or fail with an error that names its line. Never a panic.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scenarios::{discover_manifests, parse_campaign_file, suite_dir, ScenarioManifest};
use std::path::{Path, PathBuf};

const MUTATIONS_PER_MANIFEST: usize = 100;
const MUTATIONS_PER_FILE: usize = 1_000;

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
