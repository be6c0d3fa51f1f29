//! Every metric the benchmark prints, by name, with its unit. `README.md`
//! has the glossary; `BENCHMARK.json` repeats this table (a test keeps the
//! two in step).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// A simulated statistic or work count: identical on every run of one
    /// (workload, seed), pinned in `expected.json`, compared for equality.
    pub exact: bool,
}

/// A host-time measurement (or a value derived from one): noisy.
const fn measured(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: true,
    }
}

/// By how much of the old median an end-to-end metric may get worse before
/// `compare` fails: two full `run`s, each nine interleaved repetitions per
/// workload over minutes. `BENCHMARK.json` gives the driver wider bounds,
/// because the driver measures one workload for one 25 s window at a time,
/// which resolves less (`README.md`, Noise); a test holds them to at least
/// this one and at most the 0.25 the driver's contract allows.
pub const BOUND: f64 = 0.10;

/// Measured once per untraced run and reported as the median of the runs;
/// the two times calibrated by the pace kernel (`bench::Pace`).
pub const END_TO_END: [Metric; 3] = [
    measured("wall_s", "s"),
    measured("setup_s", "s"),
    measured("peak_rss_mb", "MiB"),
];

pub const PER_LAYER: [Metric; 45] = [
    measured("scenarios.parse_s", "s"),
    measured("scenarios.build_s", "s"),
    measured("scenarios.result_write_s", "s"),
    exact("scenarios.result_bytes", "bytes"),
    measured("campaign.search_s", "s"),
    exact("campaign.schedules", "count"),
    measured("campaign.ms_per_schedule", "ms"),
    measured("engine.drive_s", "s"),
    exact("engine.events", "count"),
    measured("engine.us_per_event", "us"),
    exact("engine.broadcasts", "count"),
    exact("engine.link_attempts", "count"),
    exact("engine.delivered", "count"),
    exact("engine.dropped", "count"),
    exact("engine.delivered_bytes", "bytes"),
    exact("engine.node_ticks", "count"),
    exact("engine.topology_changes", "count"),
    exact("engine.faults_applied", "count"),
    measured("engine.net_s", "s"),
    measured("engine.us_per_link_attempt", "us"),
    measured("engine.us_per_node_tick", "us"),
    measured("channel.bernoulli_link_ns", "ns"),
    measured("channel.contention_link_ns", "ns"),
    measured("channel.delivery_ratio", "ratio"),
    measured("protocol.on_message_ns", "ns"),
    measured("protocol.on_compute_ns", "ns"),
    measured("protocol.on_send_ns", "ns"),
    measured("protocol.est_s", "s"),
    measured("protocol.bytes_per_message", "bytes"),
    exact("protocol.converged_round", "rounds"),
    exact("protocol.groups_final", "count"),
    exact("protocol.view_continuity", "ratio"),
    exact("protocol.availability", "ratio"),
    exact("protocol.max_mttr_rounds", "rounds"),
    measured("observers.round_end_s", "s"),
    exact("observers.rounds", "count"),
    measured("observers.us_per_node_round", "us"),
    measured("digest.fold_s", "s"),
    measured("digest.sha_mb_per_s", "MB/s"),
    measured("proc.cpu_s", "s"),
    measured("proc.cpu_over_wall", "ratio"),
    measured("proc.ctx_switches", "count"),
    measured("trace.overhead", "ratio"),
    measured("calib.kernel_s", "s"),
    measured("calib.pace_s", "s"),
];

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the repository root declares, for the driver,
    /// exactly the workloads and metrics this program prints.
    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Array(items)) = doc.get(key) else {
                panic!("BENCHMARK.json: no `{key}` list");
            };
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (text("name"), text("unit"))
                })
                .collect()
        };
        let pairs = |names: Vec<(&str, &str)>| -> Vec<(String, String)> {
            names
                .into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            declared("end_to_end"),
            pairs(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
        );
        assert_eq!(
            declared("per_layer"),
            pairs(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
        );
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let known: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, known);
        assert_eq!(doc.at("paths/0").and_then(Json::as_str), Some("benchmark"));
        // the driver's single window resolves less than two full runs,
        // never more; 0.25 is the most its contract allows
        let Some(Json::Array(end_to_end)) = doc.get("end_to_end") else {
            panic!("BENCHMARK.json: no `end_to_end` list");
        };
        for metric in end_to_end {
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            assert!((BOUND..=0.25).contains(&bound), "{}", metric.compact());
        }
    }
}
