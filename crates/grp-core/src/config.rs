//! Protocol parameters.

/// Configuration of a GRP node.
///
/// `dmax` is the applicative constant of the paper: the maximal admissible
/// distance between two members of the same group, fixed for the whole
/// execution by the application that requested the group service. The two
/// ablation switches exist only for the evaluation (experiments E9 and E10)
/// and default to the faithful behaviour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrpConfig {
    /// Maximal admissible group diameter `Dmax` (≥ 1).
    pub dmax: usize,
    /// E10 ablation: use the naive `s(listv) + s(list) ≤ Dmax + 1` test
    /// instead of the full `compatibleList` condition of Proposition 13,
    /// losing the short-cut optimisation that lets overlapping groups merge.
    pub naive_compatibility: bool,
    /// E9 ablation: disable the quarantine mechanism (newcomers enter views
    /// immediately), exposing the view regressions quarantine prevents.
    pub disable_quarantine: bool,
}

impl GrpConfig {
    /// Faithful configuration with the given `Dmax`.
    pub fn new(dmax: usize) -> Self {
        GrpConfig {
            dmax: dmax.max(1),
            naive_compatibility: false,
            disable_quarantine: false,
        }
    }

    /// Ablated configuration using the naive compatibility test (E10).
    pub fn with_naive_compatibility(mut self) -> Self {
        self.naive_compatibility = true;
        self
    }

    /// Ablated configuration without quarantine (E9).
    pub fn without_quarantine(mut self) -> Self {
        self.disable_quarantine = true;
        self
    }

    /// The quarantine duration, in compute rounds, imposed on newcomers.
    pub fn quarantine_rounds(&self) -> u32 {
        if self.disable_quarantine {
            0
        } else {
            self.dmax as u32
        }
    }
}

impl Default for GrpConfig {
    fn default() -> Self {
        GrpConfig::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_faithful() {
        let c = GrpConfig::default();
        assert_eq!(c.dmax, 3);
        assert!(!c.naive_compatibility);
        assert!(!c.disable_quarantine);
        assert_eq!(c.quarantine_rounds(), 3);
    }

    #[test]
    fn dmax_is_at_least_one() {
        assert_eq!(GrpConfig::new(0).dmax, 1);
    }

    #[test]
    fn ablations_toggle_behaviour() {
        let c = GrpConfig::new(2)
            .with_naive_compatibility()
            .without_quarantine();
        assert!(c.naive_compatibility);
        assert!(c.disable_quarantine);
        assert_eq!(c.quarantine_rounds(), 0);
    }
}
