//! Hostile inputs: byte-level mutations of every suite manifest — a
//! flipped byte, a deleted byte, a duplicated line, a truncation — must
//! either parse or fail with an error that names its line. Never a panic.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scenarios::{discover_manifests, suite_dir, ScenarioManifest};

const MUTATIONS_PER_MANIFEST: usize = 100;

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
        let text = std::fs::read(path).expect("manifest reads");
        for _ in 0..MUTATIONS_PER_MANIFEST {
            let input = String::from_utf8_lossy(&mutate(&text, &mut rng)).into_owned();
            match ScenarioManifest::parse(&input) {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert!(
                        e.0.starts_with("line "),
                        "{}: unlocated `{e}` for\n{input}",
                        path.display()
                    );
                    rejected += 1;
                }
            }
        }
    }
    // both outcomes occur, so neither arm is vacuous
    assert!(ok > 0 && rejected > 0, "{ok} parsed, {rejected} rejected");
}
