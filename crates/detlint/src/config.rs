//! `detlint.toml` — path-level scoping for the determinism rules.
//!
//! The config answers exactly two questions the rules cannot answer from
//! a single file's tokens: *which* paths are determinism-critical (D001),
//! and *which* paths count as library code for the unwrap/expect budget
//! (D004).
//! Everything else — the suppression syntax, the rule logic — is fixed in
//! code so the contract cannot be quietly widened from config.
//!
//! The file is parsed and read with the same TOML-subset parser and
//! [`Table`] reader the scenario manifests use ([`scenarios::toml`]), so
//! the linter and the manifests share one grammar, one unknown-key rule
//! and one set of parser bugs.

use scenarios::toml::{self, ParseError, Table};
use std::path::Path;

/// Parsed `detlint.toml`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Directories (repo-relative) scanned for first-party sources.
    pub include: Vec<String>,
    /// Path prefixes excluded from the scan (vendor, fixtures, target).
    pub exclude: Vec<String>,
    /// D001 scope: path prefixes of determinism-critical code.
    pub d001_paths: Vec<String>,
    /// D004 scope: path prefixes whose `src/` counts as library code.
    pub d004_library_paths: Vec<String>,
    /// `--rng-audit` scope: path prefixes inventoried for RNG draw sites.
    pub rng_audit_paths: Vec<String>,
}

/// A config-loading failure, with enough context to fix the file.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "detlint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ParseError> for ConfigError {
    fn from(e: ParseError) -> Self {
        ConfigError(e.to_string())
    }
}

impl Config {
    /// Load and validate a config file.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        Config::parse(&text)
    }

    /// Parse config text. Unknown tables or keys are errors: a typo in a
    /// scoping key must not silently widen or narrow the contract.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let doc = toml::parse(text)?;
        let mut root = Table::root(&doc, "top level");
        let mut scan = root.sub("scan")?;
        let mut rules = root.sub("rules")?;
        let mut rng_audit = root.sub("rng_audit")?;
        root.finish()?;
        // only D001/D004 take config; D002, D003 and D005 are unconditional
        let (d001, d004) = (rules.sub("D001")?, rules.sub("D004")?);
        rules.finish()?;
        let cfg = Config {
            include: scan.req("include")?,
            exclude: scan.or("exclude", Vec::new())?,
            d001_paths: rule_list(d001, "paths")?,
            d004_library_paths: rule_list(d004, "library_paths")?,
            rng_audit_paths: rng_audit.or("paths", Vec::new())?,
        };
        scan.finish()?;
        rng_audit.finish()?;
        if cfg.include.is_empty() {
            return Err(ConfigError(
                "`scan.include` must name at least one root".into(),
            ));
        }
        Ok(cfg)
    }
}

/// The one list a `[rules.Dxxx]` table holds; it is required.
fn rule_list(mut rule: Table, key: &str) -> Result<Vec<String>, ConfigError> {
    let list = rule.req(key)?;
    rule.finish()?;
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        [scan]
        include = ["crates"]
        exclude = ["crates/detlint/tests/fixtures"]

        [rules.D001]
        paths = ["crates/netsim/src"]

        [rules.D004]
        library_paths = ["crates/netsim/src"]

        [rng_audit]
        paths = ["crates/netsim/src"]
    "#;

    #[test]
    fn minimal_config_parses() {
        let cfg = Config::parse(MINIMAL).unwrap();
        assert_eq!(cfg.include, ["crates"]);
        assert_eq!(cfg.d004_library_paths, ["crates/netsim/src"]);
        assert_eq!(cfg.rng_audit_paths, ["crates/netsim/src"]);
    }

    #[test]
    fn unknown_rule_table_is_rejected() {
        // D002 is unconditional, so it takes no table either
        for id in ["D009", "D002"] {
            let bad = format!("{MINIMAL}\n[rules.{id}]\npaths = [\"crates\"]\n");
            let err = Config::parse(&bad).unwrap_err();
            assert!(err.0.contains(id), "{err}");
        }
    }

    #[test]
    fn typoed_key_is_rejected_not_ignored() {
        let bad = MINIMAL.replace("library_paths", "libary_paths");
        assert!(Config::parse(&bad).is_err());
    }

    #[test]
    fn missing_scan_include_is_rejected() {
        let bad = MINIMAL.replace("include", "includes");
        assert!(Config::parse(&bad).is_err());
    }
}
