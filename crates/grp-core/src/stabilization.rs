//! Convergence detection.
//!
//! Self-stabilization is a property of execution *suffixes*: after the last
//! fault or topology change, the system must reach, in finite time, a suffix
//! in which the legitimacy predicate `ΠA ∧ ΠS ∧ ΠM` holds forever. On a
//! finite experiment we approximate "forever" by "for the rest of the
//! recorded execution" (and, for online decisions, by `k` consecutive
//! legitimate snapshots).

use crate::predicates::SystemSnapshot;

/// Records a sequence of snapshots and answers convergence questions.
#[derive(Clone, Debug)]
pub struct ConvergenceDetector {
    dmax: usize,
    legitimacy: Vec<bool>,
}

impl ConvergenceDetector {
    /// A detector for the given diameter bound.
    pub fn new(dmax: usize) -> Self {
        ConvergenceDetector {
            dmax,
            legitimacy: Vec::new(),
        }
    }

    /// The diameter bound used for the legitimacy predicate.
    pub fn dmax(&self) -> usize {
        self.dmax
    }

    /// Record one snapshot (typically once per compute round).
    pub fn record(&mut self, snapshot: &SystemSnapshot) {
        self.legitimacy.push(snapshot.legitimate(self.dmax));
    }

    /// Record a pre-computed legitimacy verdict (lets experiments avoid
    /// evaluating the predicates twice).
    pub fn record_verdict(&mut self, legitimate: bool) {
        self.legitimacy.push(legitimate);
    }

    /// Number of snapshots recorded.
    pub fn len(&self) -> usize {
        self.legitimacy.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.legitimacy.is_empty()
    }

    /// Was the last recorded snapshot legitimate?
    pub fn is_currently_legitimate(&self) -> bool {
        self.legitimacy.last().copied().unwrap_or(false)
    }

    /// The index of the first snapshot from which *every* recorded snapshot
    /// is legitimate (the beginning of the closed legitimate suffix), if the
    /// execution ends legitimate.
    pub fn convergence_round(&self) -> Option<usize> {
        if !self.is_currently_legitimate() {
            return None;
        }
        let mut start = self.legitimacy.len() - 1;
        while start > 0 && self.legitimacy[start - 1] {
            start -= 1;
        }
        Some(start)
    }

    /// The first index from which at least `k` consecutive snapshots are
    /// legitimate — an online stability criterion.
    pub fn first_stable_run(&self, k: usize) -> Option<usize> {
        if k == 0 {
            return Some(0);
        }
        let mut run = 0;
        for (i, &ok) in self.legitimacy.iter().enumerate() {
            if ok {
                run += 1;
                if run >= k {
                    return Some(i + 1 - k);
                }
            } else {
                run = 0;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector_from(bits: &[bool]) -> ConvergenceDetector {
        let mut d = ConvergenceDetector::new(3);
        for &b in bits {
            d.record_verdict(b);
        }
        d
    }

    #[test]
    fn convergence_round_finds_suffix_start() {
        let d = detector_from(&[false, false, true, true, true]);
        assert_eq!(d.convergence_round(), Some(2));
        assert!(d.is_currently_legitimate());
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn no_convergence_when_last_snapshot_is_illegitimate() {
        let d = detector_from(&[true, true, false]);
        assert_eq!(d.convergence_round(), None);
        assert!(!d.is_currently_legitimate());
    }

    #[test]
    fn empty_detector_has_no_convergence() {
        let d = ConvergenceDetector::new(2);
        assert!(d.is_empty());
        assert_eq!(d.convergence_round(), None);
        assert_eq!(d.dmax(), 2);
    }

    #[test]
    fn legitimate_from_the_start() {
        let d = detector_from(&[true, true, true]);
        assert_eq!(d.convergence_round(), Some(0));
    }

    #[test]
    fn first_stable_run_requires_k_consecutive() {
        let d = detector_from(&[true, false, true, true, false, true, true, true]);
        assert_eq!(d.first_stable_run(1), Some(0));
        assert_eq!(d.first_stable_run(2), Some(2));
        assert_eq!(d.first_stable_run(3), Some(5));
        assert_eq!(d.first_stable_run(4), None);
        assert_eq!(d.first_stable_run(0), Some(0));
    }
}
