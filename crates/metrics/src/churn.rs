//! View-churn and continuity accounting.
//!
//! Experiments E4 and E5 compare, between consecutive configuration
//! snapshots, how the topological predicate ΠT, the continuity predicate ΠC
//! and the raw number of view removals evolve. The accumulator keeps the
//! running totals an experiment needs to print one row per parameter value.

use grp_core::predicates::{pi_c_violations, pi_t_violations, view_removals, SystemSnapshot};

/// Running totals over a sequence of consecutive snapshot pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnAccumulator {
    /// Number of snapshot transitions observed.
    pub transitions: u64,
    /// Transitions during which ΠT held (the topology change preserved the
    /// distance bound inside every group).
    pub pi_t_held: u64,
    /// Transitions during which ΠC held (no node left any group).
    pub pi_c_held: u64,
    /// Transitions where ΠT held but ΠC did not — Proposition 14 rules
    /// these out for GRP (`docs/SCENARIOS.md` lists where the reproduction
    /// still counts some).
    pub best_effort_violations: u64,
    /// Total number of (node, lost member) pairs across all transitions.
    pub total_view_removals: u64,
}

impl ChurnAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        ChurnAccumulator::default()
    }

    /// Account one transition between two consecutive snapshots.
    pub fn record(&mut self, prev: &SystemSnapshot, next: &SystemSnapshot, dmax: usize) {
        self.transitions += 1;
        let t_ok = pi_t_violations(prev, next, dmax) == 0;
        let c_ok = pi_c_violations(prev, next) == 0;
        if t_ok {
            self.pi_t_held += 1;
        }
        if c_ok {
            self.pi_c_held += 1;
        }
        if t_ok && !c_ok {
            self.best_effort_violations += 1;
        }
        self.total_view_removals += view_removals(prev, next) as u64;
    }

    /// Fraction of transitions during which ΠT held.
    pub fn pi_t_rate(&self) -> f64 {
        rate(self.pi_t_held, self.transitions)
    }

    /// Fraction of transitions during which ΠC held.
    pub fn pi_c_rate(&self) -> f64 {
        rate(self.pi_c_held, self.transitions)
    }

    /// Mean number of view removals per transition.
    pub fn removals_per_transition(&self) -> f64 {
        if self.transitions == 0 {
            0.0
        } else {
            self.total_view_removals as f64 / self.transitions as f64
        }
    }

    /// Merge another accumulator (e.g. from a replica run) into this one.
    pub fn merge(&mut self, other: &ChurnAccumulator) {
        self.transitions += other.transitions;
        self.pi_t_held += other.pi_t_held;
        self.pi_c_held += other.pi_c_held;
        self.best_effort_violations += other.best_effort_violations;
        self.total_view_removals += other.total_view_removals;
    }
}

fn rate(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        1.0
    } else {
        num as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;
    use dyngraph::{Graph, NodeId, TopologyEvent};
    use netsim::View;
    use std::collections::BTreeMap;

    fn views(spec: &[(u64, &[u64])]) -> BTreeMap<NodeId, View> {
        spec.iter()
            .map(|&(v, members)| (NodeId(v), members.iter().map(|&m| NodeId(m)).collect()))
            .collect()
    }

    fn snap(topology: Graph, spec: &[(u64, &[u64])]) -> SystemSnapshot {
        SystemSnapshot::new(topology, views(spec))
    }

    #[test]
    fn stable_transition_counts_as_continuous() {
        let s = snap(
            path(3),
            &[(0, &[0, 1, 2]), (1, &[0, 1, 2]), (2, &[0, 1, 2])],
        );
        let mut acc = ChurnAccumulator::new();
        acc.record(&s, &s.clone(), 2);
        assert_eq!(acc.transitions, 1);
        assert_eq!(acc.pi_t_rate(), 1.0);
        assert_eq!(acc.pi_c_rate(), 1.0);
        assert_eq!(acc.best_effort_violations, 0);
        assert_eq!(acc.removals_per_transition(), 0.0);
    }

    #[test]
    fn link_loss_breaks_pi_t_and_allows_pi_c_violation() {
        let before = snap(
            path(3),
            &[(0, &[0, 1, 2]), (1, &[0, 1, 2]), (2, &[0, 1, 2])],
        );
        let broken = path(3).apply(TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
        let after = SystemSnapshot::new(broken, views(&[(0, &[0, 1]), (1, &[0, 1]), (2, &[2])]));
        let mut acc = ChurnAccumulator::new();
        acc.record(&before, &after, 2);
        assert_eq!(acc.pi_t_held, 0);
        assert_eq!(acc.pi_c_held, 0);
        assert_eq!(
            acc.best_effort_violations, 0,
            "ΠT broken, so no best-effort violation"
        );
        assert!(acc.total_view_removals > 0);
    }

    #[test]
    fn best_effort_violation_is_detected() {
        // the topology does not change, but a node vanishes from the views:
        // that is precisely what Proposition 14 forbids
        let before = snap(
            path(3),
            &[(0, &[0, 1, 2]), (1, &[0, 1, 2]), (2, &[0, 1, 2])],
        );
        let after = snap(path(3), &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2])]);
        let mut acc = ChurnAccumulator::new();
        acc.record(&before, &after, 2);
        assert_eq!(acc.best_effort_violations, 1);
    }

    #[test]
    fn merge_adds_counters() {
        let s = snap(path(2), &[(0, &[0, 1]), (1, &[0, 1])]);
        let mut a = ChurnAccumulator::new();
        a.record(&s, &s.clone(), 1);
        let mut b = ChurnAccumulator::new();
        b.record(&s, &s.clone(), 1);
        b.merge(&a);
        assert_eq!(b.transitions, 2);
        assert_eq!(b.pi_c_held, 2);
    }

    #[test]
    fn empty_accumulator_rates_default_to_one() {
        let acc = ChurnAccumulator::new();
        assert_eq!(acc.pi_t_rate(), 1.0);
        assert_eq!(acc.pi_c_rate(), 1.0);
        assert_eq!(acc.removals_per_transition(), 0.0);
    }
}
