//! The one summary every repeated measurement is reported as: median,
//! fastest and slowest, with the sample count.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for an empty sample. An even count takes the mean of the two
    /// middle values as its median.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            min: sorted[0],
            median,
            max: sorted[n - 1],
            n,
        })
    }

    /// The median is the figure a metric is reported and compared as.
    pub fn to_json(self, unit: &str) -> Json {
        Json::object()
            .with("value", self.median)
            .with("unit", unit)
            .with("min", self.min)
            .with("max", self.max)
            .with("n", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_even_and_empty_samples() {
        assert_eq!(Summary::of(&[]), None);
        let odd = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((odd.median, odd.min, odd.max, odd.n), (3.0, 1.0, 5.0, 3));
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(
            (even.median, even.min, even.max, even.n),
            (2.5, 1.0, 4.0, 4)
        );
        let one = Summary::of(&[7.5]).unwrap();
        assert_eq!((one.median, one.min, one.max, one.n), (7.5, 7.5, 7.5, 1));
    }
}
