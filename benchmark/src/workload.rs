//! The five workloads: templates under `workloads/`, filled from a seed.
//! The program under test only ever sees the generated manifest text.

/// The seed `expected.json` pins digests and counters for.
pub const DEFAULT_SEED: u64 = 2010;

pub struct Workload {
    pub name: &'static str,
    template: &'static str,
    /// Template parameters as `(key, full, quick)`; quick is ~1/20 of the
    /// full work.
    params: &'static [(&'static str, &'static str, &'static str)],
    /// `parse` + `build_simulator` repeats in the timed set-up block, as
    /// `(full, quick)`; full is chosen so the block takes ≥ 0.3 s on the
    /// reference box.
    setup_repeats: (u32, u32),
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "metropolis",
        template: include_str!("../workloads/metropolis.toml.in"),
        params: &[
            ("n", "10000", "1000"),
            ("side", "2800.0", "885.4"),
            ("rounds", "6", "1"),
        ],
        setup_repeats: (8, 10),
    },
    Workload {
        name: "drift",
        template: include_str!("../workloads/drift.toml.in"),
        params: &[
            ("n", "10000", "1000"),
            ("side", "5600.0", "1770.9"),
            ("rounds", "8", "1"),
        ],
        setup_repeats: (7, 10),
    },
    Workload {
        name: "concourse",
        template: include_str!("../workloads/concourse.toml.in"),
        params: &[
            ("n", "150", "50"),
            ("side", "430.0", "248.3"),
            ("rounds", "30", "8"),
        ],
        setup_repeats: (600, 200),
    },
    Workload {
        name: "archipelago",
        template: include_str!("../workloads/archipelago.toml.in"),
        params: &[("clusters", "30", "6"), ("rounds", "40", "20")],
        setup_repeats: (800, 250),
    },
    Workload {
        name: "campaign",
        template: include_str!("../workloads/campaign.toml.in"),
        params: &[("schedules", "120", "6"), ("rounds", "20", "20")],
        setup_repeats: (3500, 500),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the generator's own stream, so the inputs depend on nothing
/// but the seed (and not on any RNG the program under test may change).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// A template parameter that is a whole number.
    fn count(&self, key: &str, quick: bool) -> u64 {
        self.params
            .iter()
            .find(|(k, _, _)| *k == key)
            .and_then(|&(_, full, small)| if quick { small } else { full }.parse().ok())
            .unwrap_or_else(|| panic!("workload {}: `{key}` is not a count", self.name))
    }

    pub fn setup_repeats(&self, quick: bool) -> u32 {
        if quick {
            self.setup_repeats.1
        } else {
            self.setup_repeats.0
        }
    }

    /// The manifest text for `seed`. Same seed, same text.
    pub fn manifest(&self, seed: u64, quick: bool) -> String {
        let mut stream = seed ^ 0x6772_702d_6265_6e63; // "grp-benc"
        let mut text = self.template.replace("{{seed}}", &seed.to_string());
        for &(key, full, small) in self.params {
            text = text.replace(&format!("{{{{{key}}}}}"), if quick { small } else { full });
        }
        if text.contains("{{search_seed}}") {
            // TOML integers are signed: keep the search seed below 2^63
            let search_seed = splitmix(&mut stream) >> 1;
            text = text.replace("{{search_seed}}", &search_seed.to_string());
        }
        if text.contains("{{bridges}}") {
            text = text.replace("{{bridges}}", &self.cut_bridges(quick));
        }
        if text.contains("{{faults}}") {
            let faults = self.fault_plan(&mut stream, quick);
            text = text.replace("{{faults}}", &faults);
        }
        assert!(
            !text.contains("{{"),
            "workload {}: unfilled template parameter",
            self.name
        );
        text
    }

    /// Cut every second bridge of the clique chain at round 0: islands of
    /// two cliques. (`clustered` joins clique c-1's last node to clique c's
    /// first.)
    fn cut_bridges(&self, quick: bool) -> String {
        const CLUSTER_SIZE: u64 = 5;
        (1..self.count("clusters", quick))
            .filter(|c| c % 2 == 0)
            .map(|c| {
                let first = c * CLUSTER_SIZE;
                format!(
                    "[[churn]]\nat_round = 0\naction = \"link_down\"\na = {}\nb = {first}\n\n",
                    first - 1
                )
            })
            .collect()
    }

    /// One three-round loss burst in the first half of the run, then a
    /// crash wave of n/15 distinct handsets that restart together an eighth
    /// of the run later. Times and victims come from the seed.
    fn fault_plan(&self, stream: &mut u64, quick: bool) -> String {
        const ROUND: u64 = 1000; // the default compute period, in ticks
        let n = self.count("n", quick);
        let rounds = self.count("rounds", quick);
        let horizon = rounds * ROUND;
        let burst_at = horizon / 5 + splitmix(stream) % (horizon / 5);
        let crash_at = horizon / 2 + splitmix(stream) % (horizon / 10);
        let restart_at = crash_at + (rounds / 8).max(2) * ROUND;
        let mut victims: Vec<u64> = Vec::new();
        while (victims.len() as u64) < (n / 15).max(1) {
            let v = splitmix(stream) % n;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims.sort_unstable();
        let mut out = format!(
            "[[faults]]\nat = {burst_at}\nkind = \"loss_burst\"\nduration = {}\n\n",
            3 * ROUND
        );
        for (at, kind) in [(crash_at, "crash"), (restart_at, "restart")] {
            for v in &victims {
                out.push_str(&format!(
                    "[[faults]]\nat = {at}\nkind = \"{kind}\"\nnode = {v}\n\n"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ScenarioManifest;

    #[test]
    fn every_workload_generates_a_parseable_manifest_from_a_seed() {
        for w in &WORKLOADS {
            for quick in [false, true] {
                let text = w.manifest(DEFAULT_SEED, quick);
                assert_eq!(text, w.manifest(DEFAULT_SEED, quick), "{}", w.name);
                assert_ne!(text, w.manifest(DEFAULT_SEED + 1, quick), "{}", w.name);
                let manifest = ScenarioManifest::parse(&text)
                    .unwrap_or_else(|e| panic!("{} (quick={quick}): {e}\n{text}", w.name));
                assert_eq!(manifest.name, w.name);
                assert_eq!(manifest.sim.seeds, vec![DEFAULT_SEED]);
            }
        }
    }

    /// The manifests leave every engine-regime key of `[sim]` at its
    /// default: that is what users get, and those keys are slated to go.
    /// So `[sim]` may hold the seed and the timing, nothing else.
    #[test]
    fn manifests_set_only_seed_and_timing_in_the_sim_section() {
        const ALLOWED: [&str; 4] = ["seed", "rounds", "send_period", "mobility_period"];
        for w in &WORKLOADS {
            let text = w.manifest(DEFAULT_SEED, false);
            let keys: Vec<&str> = text
                .lines()
                .skip_while(|line| line.trim() != "[sim]")
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .filter_map(|line| line.split_once('=').map(|(key, _)| key.trim()))
                .collect();
            assert!(!keys.is_empty(), "{}: no [sim] section", w.name);
            for key in keys {
                assert!(ALLOWED.contains(&key), "{} sets [sim] {key}", w.name);
            }
        }
    }
}
