//! The fixture corpus: every rule has a known-bad snippet asserted to
//! fire and an allow-annotated twin asserted to pass — the linter's
//! sensitivity and its suppression channel are both pinned. The final
//! tests run detlint against the repository itself: the tree must be
//! clean under `detlint.toml`, and the RNG audit must see the simulator's
//! draw sites.

use detlint::audit::{render, rng_audit};
use detlint::lexer::tokenize;
use detlint::rules::{lint_file, FileScope, RuleId};
use detlint::{run_check, Config};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as if it lived on a fully determinism-scoped library
/// path (D001 and D004 both armed).
fn lint(name: &str) -> Vec<detlint::Finding> {
    let scope = FileScope {
        rel_path: "crates/demo/src/lib.rs",
        d001: true,
        d004: true,
    };
    lint_file(scope, &tokenize(&fixture(name)))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn every_bad_fixture_fires_exactly_its_rule() {
    for (name, rule) in [
        ("d001_bad.rs", RuleId::D001),
        ("d002_bad.rs", RuleId::D002),
        ("d003_bad.rs", RuleId::D003),
        ("d004_bad.rs", RuleId::D004),
        ("d005_bad.rs", RuleId::D005),
    ] {
        let findings = lint(name);
        assert_eq!(
            findings.len(),
            1,
            "{name}: expected one finding, got {findings:?}"
        );
        assert_eq!(findings[0].rule, rule, "{name}: wrong rule: {findings:?}");
    }
}

#[test]
fn every_allow_annotated_twin_passes() {
    for name in [
        "d001_allowed.rs",
        "d002_allowed.rs",
        "d003_allowed.rs",
        "d004_allowed.rs",
        "d005_allowed.rs",
    ] {
        let findings = lint(name);
        assert!(
            findings.is_empty(),
            "{name}: expected clean, got {findings:?}"
        );
    }
}

/// The twins differ from their bad siblings only by the annotation — so a
/// suppression that stops matching (rule id typo, lost reason) re-fires.
#[test]
fn twins_are_the_bad_snippet_plus_one_annotation() {
    for rule in ["d001", "d002", "d003", "d004", "d005"] {
        let bad = fixture(&format!("{rule}_bad.rs"));
        let allowed = fixture(&format!("{rule}_allowed.rs"));
        let extra: Vec<&str> = allowed
            .lines()
            .filter(|l| !bad.lines().any(|b| b == *l))
            .collect();
        assert_eq!(extra.len(), 1, "{rule}: twin must add exactly one line");
        assert!(
            extra[0].trim_start().starts_with("// detlint::allow("),
            "{rule}: the added line must be the annotation, got {:?}",
            extra[0]
        );
    }
}

/// The repository itself is clean under its own configuration — the same
/// invocation CI gates on.
#[test]
fn repo_is_clean_under_detlint_toml() {
    let root = repo_root();
    let cfg = Config::load(&root.join("detlint.toml")).expect("detlint.toml parses");
    let (findings, files) = run_check(&root, &cfg).expect("scan succeeds");
    assert!(
        files > 100,
        "scan saw only {files} files — include paths wrong?"
    );
    let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "repo has findings:\n{}",
        report.join("\n")
    );
}

/// `--rng-audit` sees the simulator: the contention channel draws from the
/// stream it is handed and the report says so.
#[test]
fn rng_audit_inventories_the_simulator() {
    let root = repo_root();
    let cfg = Config::load(&root.join("detlint.toml")).expect("detlint.toml parses");
    let sites = rng_audit(&root, &cfg).expect("audit succeeds");
    assert!(
        sites.len() >= 50,
        "audit found only {} sites — paths or detection regressed",
        sites.len()
    );
    assert!(
        sites
            .iter()
            .any(|s| s.path == "crates/netsim/src/channel.rs"),
        "the contention channel's gen_bool draw is missing from the inventory"
    );
    let report = render(&sites);
    assert!(
        report.contains("draw") && report.contains("handoff"),
        "{report}"
    );
}
