//! `expected.json`: per workload and seed, the trace digest and the exact
//! counters. A speed-up must leave every simulated statistic identical;
//! this is where that is checked. The file is compiled in, so a run checks
//! against the pins of the commit it was built from.

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

    fn entry(&self, workload: &str, seed: u64) -> Option<&Json> {
        self.0.at(&format!("workloads/{workload}/{seed}"))
    }

    /// Is anything pinned for this workload and seed?
    #[cfg(test)]
    fn pins(&self, workload: &str, seed: u64) -> bool {
        self.entry(workload, seed).is_some()
    }

    /// Every way an observed run differs from its pin; empty when it
    /// matches or nothing is pinned. A run is checked on the counters it
    /// produced — an untraced run sees fewer than a traced one.
    pub fn mismatches(
        &self,
        workload: &str,
        seed: u64,
        digest: &str,
        counters: &[(String, Json)],
    ) -> Vec<String> {
        let Some(entry) = self.entry(workload, seed) else {
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

    /// Pin (or re-pin) one workload and seed.
    pub fn pin(&mut self, workload: &str, seed: u64, digest: &str, counters: &[(String, Json)]) {
        let mut pinned = Json::object();
        for (name, value) in counters {
            pinned.set(name, value.clone());
        }
        let entry = Json::object()
            .with("digest", digest)
            .with("counters", pinned);
        let mut workloads = self.0.get("workloads").cloned().unwrap_or(Json::object());
        let mut seeds = workloads.get(workload).cloned().unwrap_or(Json::object());
        seeds.set(&seed.to_string(), entry);
        workloads.set(workload, seeds);
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
        let mut expected = Expected::parse("{\"schema\": 1, \"workloads\": {}}").unwrap();
        assert!(!expected.pins("drift", 2010));
        // nothing pinned: nothing to mismatch
        assert!(expected
            .mismatches("drift", 2010, "ab", &counters())
            .is_empty());

        expected.pin("drift", 2010, "abcd", &counters());
        let reread = Expected::parse(&expected.render()).unwrap();
        assert!(reread.pins("drift", 2010));
        assert!(!reread.pins("drift", 2011));
        assert!(reread
            .mismatches("drift", 2010, "abcd", &counters())
            .is_empty());
        // a subset of the counters is still a match
        assert!(reread
            .mismatches("drift", 2010, "abcd", &counters()[..1])
            .is_empty());

        assert_eq!(
            reread.mismatches("drift", 2010, "ffff", &counters()).len(),
            1
        );
        let mut drifted = counters();
        drifted[0].1 = Json::Int(394_705);
        drifted.push(("engine.new_counter".to_string(), Json::Int(1)));
        let found = reread.mismatches("drift", 2010, "abcd", &drifted);
        assert_eq!(found.len(), 2, "{found:?}");
    }

    #[test]
    fn the_committed_file_pins_every_workload_at_the_default_seed() {
        let expected = Expected::embedded();
        for w in &crate::workload::WORKLOADS {
            assert!(
                expected.pins(w.name, crate::workload::DEFAULT_SEED),
                "{} is not pinned",
                w.name
            );
        }
    }
}
