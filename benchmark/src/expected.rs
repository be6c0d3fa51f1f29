//! `expected.json`: per workload, the trace digest and the exact counters
//! of the full profile at the default seed. A speed-up must leave every
//! simulated statistic identical; this is where that is checked. The file
//! is compiled in, so a run checks against the pins of the commit it was
//! built from.

use crate::json::Json;
use std::path::PathBuf;

pub struct Expected(Json);

/// Counters compare as numbers (`1` and `1.0` are the same count).
pub fn same(a: &Json, b: &Json) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

impl Expected {
    pub fn embedded() -> Expected {
        Expected::parse(include_str!("../expected.json")).expect("expected.json is valid")
    }

    /// Nothing pinned yet, for the seed the pins are taken at.
    pub fn empty(seed: u64) -> Expected {
        Expected(
            Json::object()
                .with("schema", 1i64)
                .with("seed", seed)
                .with("workloads", Json::object()),
        )
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text)?;
        if doc.get("workloads").is_none() {
            return Err("expected.json: no `workloads` object".to_string());
        }
        Ok(Expected(doc))
    }

    pub fn path() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
    }

    pub fn render(&self) -> String {
        self.0.pretty()
    }

    /// The seed the pins hold for.
    #[cfg(test)]
    fn seed(&self) -> Option<i64> {
        self.0.get("seed").and_then(Json::as_i64)
    }

    fn entry(&self, workload: &str) -> Option<&Json> {
        self.0.at(&format!("workloads/{workload}"))
    }

    /// Every way an observed run differs from its pin; empty when it
    /// matches or nothing is pinned. A run is checked on the counters it
    /// produced — an untraced run sees fewer than a traced one.
    pub fn mismatches(
        &self,
        workload: &str,
        digest: &str,
        counters: &[(String, Json)],
    ) -> Vec<String> {
        let Some(entry) = self.entry(workload) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let pinned = entry.get("digest").and_then(Json::as_str).unwrap_or("");
        if pinned != digest {
            out.push(format!("digest {digest} != pinned {pinned}"));
        }
        for (name, value) in counters {
            match entry.at(&format!("counters/{name}")) {
                Some(pin) if same(pin, value) => {}
                Some(pin) => out.push(format!(
                    "{name} = {} != pinned {}",
                    value.compact(),
                    pin.compact()
                )),
                None => out.push(format!("{name} = {} is not pinned", value.compact())),
            }
        }
        out
    }

    /// Pin (or re-pin) one workload.
    pub fn pin(&mut self, workload: &str, digest: &str, counters: &[(String, Json)]) {
        let mut pinned = Json::object();
        for (name, value) in counters {
            pinned.set(name, value.clone());
        }
        let entry = Json::object()
            .with("digest", digest)
            .with("counters", pinned);
        let mut workloads = self.0.get("workloads").cloned().unwrap_or(Json::object());
        workloads.set(workload, entry);
        self.0.set("workloads", workloads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Vec<(String, Json)> {
        vec![
            ("engine.events".to_string(), Json::Int(394_704)),
            ("protocol.view_continuity".to_string(), Json::Float(0.9375)),
            ("protocol.converged_round".to_string(), Json::Int(-1)),
        ]
    }

    #[test]
    fn pins_round_trip_through_the_file_and_catch_any_drift() {
        let mut expected = Expected::empty(2010);
        // nothing pinned: nothing to mismatch
        assert!(expected.mismatches("drift", "ab", &counters()).is_empty());

        expected.pin("drift", "abcd", &counters());
        let reread = Expected::parse(&expected.render()).unwrap();
        assert_eq!(reread.seed(), Some(2010));
        assert!(reread.entry("drift").is_some());
        assert!(reread.entry("metropolis").is_none());
        assert!(reread.mismatches("drift", "abcd", &counters()).is_empty());
        // a subset of the counters is still a match
        assert!(reread
            .mismatches("drift", "abcd", &counters()[..1])
            .is_empty());

        assert_eq!(reread.mismatches("drift", "ffff", &counters()).len(), 1);
        let mut drifted = counters();
        drifted[0].1 = Json::Int(394_705);
        drifted.push(("engine.new_counter".to_string(), Json::Int(1)));
        let found = reread.mismatches("drift", "abcd", &drifted);
        assert_eq!(found.len(), 2, "{found:?}");
    }

    #[test]
    fn the_committed_file_pins_every_workload_at_the_default_seed() {
        let expected = Expected::embedded();
        assert_eq!(
            expected.seed(),
            Some(crate::workload::DEFAULT_SEED as i64),
            "the pins are for another seed"
        );
        for w in &crate::workload::WORKLOADS {
            assert!(expected.entry(w.name).is_some(), "{} is not pinned", w.name);
        }
    }
}
