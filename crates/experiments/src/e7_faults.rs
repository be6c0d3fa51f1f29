//! E7 (Figure 4) — recovery from transient faults.
//!
//! Self-stabilization means the protocol recovers from an *arbitrary*
//! configuration. Starting from a converged system, the experiment injects
//! three kinds of transient faults — corruption of a fraction of the nodes'
//! local state, a crash-and-restart of a fraction of the nodes, and a radio
//! blackout — and measures how many rounds the system needs to be legitimate
//! again. After each round the snapshot's verdict goes into a
//! `ConvergenceDetector`, which finds the first 3-round legitimate window.

use crate::e1_convergence::sized_rgg;
use crate::report::{ExperimentOutput, Summary, Table};
use crate::runner::{convergence_budget, grp_manifest, Scale};
use grp_core::predicates::SystemSnapshot;
use grp_core::ConvergenceDetector;
use netsim::{FaultKind, ScheduledFault, SimTime};
use scenarios::build_simulator;

#[derive(Clone, Copy, Debug)]
enum FaultScenario {
    Corrupt { fraction: f64 },
    CrashRestart { fraction: f64 },
    Blackout { rounds: u64 },
}

impl FaultScenario {
    fn label(&self) -> String {
        match self {
            FaultScenario::Corrupt { fraction } => {
                format!("corrupt {:.0}% of nodes", fraction * 100.0)
            }
            FaultScenario::CrashRestart { fraction } => {
                format!("crash+restart {:.0}% of nodes", fraction * 100.0)
            }
            FaultScenario::Blackout { rounds } => format!("radio blackout of {rounds} rounds"),
        }
    }
}

/// Converge, inject, and return the number of rounds needed to be
/// legitimate again (None if the budget was not enough).
fn recovery_rounds(scenario: FaultScenario, n: usize, dmax: usize, seed: u64) -> Option<usize> {
    let warmup = convergence_budget(n, dmax);
    let mut sim = build_simulator(&grp_manifest("e7", sized_rgg(n), dmax, warmup), seed);
    sim.run_rounds(warmup as u64);

    let ids = sim.node_ids();
    let victims = |fraction: f64| -> Vec<dyngraph::NodeId> {
        let count = ((ids.len() as f64 * fraction).ceil() as usize).max(1);
        ids.iter().copied().take(count).collect()
    };
    let now = sim.now();
    match scenario {
        FaultScenario::Corrupt { fraction } => {
            let faults: Vec<ScheduledFault> = victims(fraction)
                .into_iter()
                .map(|v| ScheduledFault::new(now + 1, FaultKind::CorruptState(v)))
                .collect();
            sim.schedule_faults(faults);
        }
        FaultScenario::CrashRestart { fraction } => {
            let mut faults = Vec::new();
            for v in victims(fraction) {
                faults.push(ScheduledFault::new(now + 1, FaultKind::Crash(v)));
                faults.push(ScheduledFault::new(
                    SimTime(now.ticks() + 3_000),
                    FaultKind::Restart(v),
                ));
            }
            sim.schedule_faults(faults);
        }
        FaultScenario::Blackout { rounds } => {
            sim.schedule_faults(vec![ScheduledFault::new(
                now + 1,
                FaultKind::LossBurst {
                    duration: rounds * 1_000,
                },
            )]);
        }
    }

    let budget = 2 * convergence_budget(n, dmax);
    // judge each round's snapshot as it closes, keeping only the verdicts;
    // the early exit fires on the first 3-round legitimate window
    let mut detector = ConvergenceDetector::new(dmax);
    for _ in 0..budget {
        sim.run_rounds(1);
        detector.record(&SystemSnapshot::from_simulator(&sim));
        if let Some(start) = detector.first_stable_run(3) {
            return Some(start + 1);
        }
    }
    None
}

/// Run the experiment at the given scale.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut output = ExperimentOutput::new(
        "e7",
        "Rounds to re-stabilise after transient faults injected into a converged system",
    );
    let n = scale.pick(12, 30);
    let dmax = 3;
    let seeds = scale.seeds();
    let scenarios = vec![
        FaultScenario::Corrupt { fraction: 0.25 },
        FaultScenario::Corrupt { fraction: 1.0 },
        FaultScenario::CrashRestart { fraction: 0.25 },
        FaultScenario::Blackout {
            rounds: scale.pick(3, 5),
        },
    ];

    let mut table = Table::new(
        "Recovery time (rounds) by fault scenario",
        &["fault", "recovered runs", "rounds (mean ± std [min, max])"],
    );
    for scenario in &scenarios {
        let results: Vec<Option<usize>> = seeds
            .iter()
            .map(|&seed| recovery_rounds(*scenario, n, dmax, seed))
            .collect();
        let recovered: Vec<f64> = results.iter().filter_map(|r| r.map(|v| v as f64)).collect();
        let summary = Summary::of(&recovered);
        table.push(vec![
            scenario.label(),
            format!("{}/{}", recovered.len(), results.len()),
            summary.display_compact(),
        ]);
    }
    output.notes.push(format!(
        "n = {n}, Dmax = {dmax}; recovery = 3 consecutive legitimate snapshots"
    ));
    output.tables.push(table);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_of_one_node_recovers() {
        let r = recovery_rounds(FaultScenario::Corrupt { fraction: 0.1 }, 8, 3, 1);
        assert!(
            r.is_some(),
            "system failed to recover from a single corruption"
        );
    }

    #[test]
    fn quick_run_has_one_row_per_scenario() {
        let out = run(Scale::Quick);
        assert_eq!(out.tables[0].row_count(), 4);
    }

    /// The GrpNode corrupt hook used via Simulator must be reachable from
    /// the simulator API as well.
    #[test]
    fn direct_corruption_is_visible_in_snapshot() {
        let mut sim = build_simulator(&grp_manifest("e7", sized_rgg(6), 3, 30), 2);
        sim.run_rounds(30);
        let before = SystemSnapshot::from_simulator(&sim);
        assert!(before.agreement());
        let victim = sim.node_ids()[0];
        sim.protocol_mut(victim)
            .expect("victim exists")
            .corrupt(&[dyngraph::NodeId(999_999)], 7);
        let after = SystemSnapshot::from_simulator(&sim);
        assert!(!after.agreement(), "ghost member must break agreement");
    }
}
