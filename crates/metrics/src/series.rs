//! Per-round time series, used by the "figure" experiments.

use crate::stats::Summary;

/// A named sequence of (round, value) points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    pub name: String,
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Empty series with a name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, round: u64, value: f64) {
        self.points.push((round, value));
    }

    /// The recorded points, in insertion order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Summary statistics over the values.
    pub fn summary(&self) -> Summary {
        let values: Vec<f64> = self.points.iter().map(|&(_, v)| v).collect();
        Summary::of(&values)
    }

    /// The first round at which the value reached `target` and never left
    /// the closed interval `[target - tolerance, target + tolerance]`
    /// afterwards — used to read convergence times off a series.
    pub fn settled_at(&self, target: f64, tolerance: f64) -> Option<u64> {
        let ok = |v: f64| (v - target).abs() <= tolerance;
        let mut candidate = None;
        for &(round, value) in &self.points {
            if ok(value) {
                if candidate.is_none() {
                    candidate = Some(round);
                }
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// Render as CSV lines (`round,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,value\n");
        for &(r, v) in &self.points {
            out.push_str(&format!("{r},{v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut s = TimeSeries::new("groups");
        assert!(s.is_empty());
        s.push(0, 5.0);
        s.push(1, 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last_value(), Some(3.0));
        assert_eq!(s.points()[0], (0, 5.0));
    }

    #[test]
    fn settled_at_requires_staying_in_band() {
        let mut s = TimeSeries::new("x");
        for (r, v) in [(0, 5.0), (1, 2.0), (2, 1.0), (3, 1.0), (4, 1.0)] {
            s.push(r, v);
        }
        assert_eq!(s.settled_at(1.0, 0.0), Some(2));
        // a later excursion resets the settling point
        s.push(5, 3.0);
        s.push(6, 1.0);
        assert_eq!(s.settled_at(1.0, 0.0), Some(6));
        assert_eq!(s.settled_at(0.0, 0.0), None);
    }

    #[test]
    fn summary_and_csv() {
        let mut s = TimeSeries::new("x");
        s.push(0, 1.0);
        s.push(1, 3.0);
        assert!((s.summary().mean - 2.0).abs() < 1e-12);
        let csv = s.to_csv();
        assert!(csv.starts_with("round,value"));
        assert!(csv.contains("1,3"));
    }
}
