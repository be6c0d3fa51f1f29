//! Repo walking and per-file scope classification.
//!
//! The walk is deterministic (directory entries sorted by name) so report
//! order, and therefore CI output, is stable across machines — the linter
//! holds itself to the contract it enforces.

use crate::config::Config;
use crate::lexer::tokenize;
use crate::rules::{lint_file, FileScope, Finding};
use std::path::{Path, PathBuf};

/// Collect every first-party `.rs` file under the configured roots,
/// repo-relative with `/` separators, sorted.
pub fn source_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    for include in &cfg.include {
        let dir = root.join(include);
        if dir.is_file() {
            push_if_rs(&mut files, root, &dir, cfg);
        } else if dir.is_dir() {
            walk(root, &dir, cfg, &mut files)?;
        }
        // a missing include root is not an error: `tests/` may not exist
        // in a fixture tree
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(root, &path);
        if cfg
            .exclude
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, cfg, out)?;
        } else {
            push_if_rs(out, root, &path, cfg);
        }
    }
    Ok(())
}

fn push_if_rs(out: &mut Vec<String>, root: &Path, path: &Path, cfg: &Config) {
    let rel = rel_path(root, path);
    if path.extension().is_some_and(|e| e == "rs")
        && !cfg
            .exclude
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{ex}/")))
    {
        out.push(rel);
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn under_any(rel: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
}

/// Lint every configured source file under `root`. Findings come back in
/// (path, line) order.
pub fn run_check(root: &Path, cfg: &Config) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = source_files(root, cfg)?;
    let mut findings = Vec::new();
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        let tokens = tokenize(&text);
        let scope = FileScope {
            rel_path: rel,
            d001: under_any(rel, &cfg.d001_paths),
            d004: under_any(rel, &cfg.d004_library_paths),
        };
        findings.extend(lint_file(scope, &tokens));
    }
    Ok((findings, files.len()))
}
