//! Summary statistics over replicated measurements.

/// Summary of a set of samples (mean, spread, quantiles).
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub p50: f64,
    pub p95: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise a slice of samples. Returns a zeroed summary for an empty
    /// slice (count = 0).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            max: sorted[count - 1],
        }
    }

    /// Summarise an iterator of integer samples.
    pub fn of_counts<I: IntoIterator<Item = usize>>(samples: I) -> Summary {
        let as_f64: Vec<f64> = samples.into_iter().map(|x| x as f64).collect();
        Summary::of(&as_f64)
    }

    /// Compact human-readable rendering ("mean ± std [min, max]").
    pub fn display_compact(&self) -> String {
        format!(
            "{:.2} ± {:.2} [{:.2}, {:.2}]",
            self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// Nearest-rank percentile on an already sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn basic_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert!((s.std_dev - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_pick_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
    }

    #[test]
    fn of_counts_converts_integers() {
        let s = Summary::of_counts(vec![2usize, 4, 6]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn compact_display_contains_mean_and_bounds() {
        let s = Summary::of(&[1.0, 3.0]);
        let text = s.display_compact();
        assert!(text.contains("2.00"));
        assert!(text.contains("1.00"));
        assert!(text.contains("3.00"));
    }
}
