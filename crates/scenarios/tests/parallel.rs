//! Suite-parallelism determinism: running manifests on N workers must be
//! observationally identical to running them sequentially — same buffered
//! reports, same digests, same `result.json` artifact bytes.

use scenarios::{run_suite, suite_dir};
use std::path::{Path, PathBuf};

fn small_manifests() -> Vec<PathBuf> {
    // two cheap scenarios keep this meaningful in debug builds
    vec![
        suite_dir().join("s01_stationary_line.toml"),
        suite_dir().join("s10_random_walk.toml"),
    ]
}

fn read_artifacts(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("artifact dir exists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&path).expect("artifact readable"),
            )
        })
        .collect();
    files.sort();
    files
}

/// Run `manifests` on one worker and on `jobs` workers (artifacts under
/// `<tag>-seq`/`<tag>-par`) and assert the two runs are indistinguishable.
fn assert_parallel_equals_sequential(manifests: &[PathBuf], jobs: usize, tag: &str) {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let seq_dir = base.join(format!("{tag}-seq"));
    let par_dir = base.join(format!("{tag}-par"));

    let sequential = run_suite(manifests, &seq_dir, 1);
    let parallel = run_suite(manifests, &par_dir, jobs);

    let order: Vec<&PathBuf> = parallel.iter().map(|r| &r.path).collect();
    assert_eq!(
        order,
        manifests.iter().collect::<Vec<_>>(),
        "reports must come back in input order"
    );
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(parallel.iter()) {
        assert_eq!(s.path, p.path, "suite order must be preserved");
        // stdout embeds the out-dir path in the `wrote ...` line; compare
        // the report with both paths normalised away
        let normalise = |text: &str, dir: &Path| text.replace(&dir.display().to_string(), "<out>");
        assert_eq!(
            normalise(&s.stdout, &seq_dir),
            normalise(&p.stdout, &par_dir),
            "buffered reports must be byte-identical"
        );
        assert_eq!(s.stderr, p.stderr);
        let (so, po) = (
            s.outcome.as_ref().expect("sequential outcome"),
            p.outcome.as_ref().expect("parallel outcome"),
        );
        assert_eq!(so.pass, po.pass);
        for (sr, pr) in so.runs.iter().zip(po.runs.iter()) {
            assert_eq!(
                sr.digest, pr.digest,
                "digests must not depend on worker scheduling"
            );
        }
    }
    assert_eq!(
        read_artifacts(&seq_dir),
        read_artifacts(&par_dir),
        "result.json artifacts must be byte-identical"
    );
}

#[test]
fn parallel_suite_equals_sequential_suite() {
    assert_parallel_equals_sequential(&small_manifests(), 4, "suite");
}

/// More manifests than workers: each worker claims several, and the
/// reports still come back in input order with identical artifacts.
#[test]
fn more_manifests_than_workers_keep_input_order() {
    let manifests = [
        "s10_random_walk.toml",
        "s01_stationary_line.toml",
        "s03_clustered.toml",
    ]
    .map(|name| suite_dir().join(name));
    assert_parallel_equals_sequential(&manifests, 2, "oversubscribed");
}
