//! Per-round time series, used by the "figure" experiments.

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
    fn csv_lists_every_point() {
        let mut s = TimeSeries::new("x");
        s.push(0, 1.0);
        s.push(1, 3.0);
        let csv = s.to_csv();
        assert!(csv.starts_with("round,value"));
        assert!(csv.contains("1,3"));
    }
}
