//! Simulated time.
//!
//! Time is a monotone counter of abstract *ticks*. The experiments use
//! 1 tick = 1 ms so that the default `τ2 = 250` / `τ1 = 1000` reproduce the
//! "send four times per compute period" regime the fair-channel hypothesis
//! assumes, but nothing in the simulator depends on the unit.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (ticks since the start of the run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference in ticks.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + 10;
        assert_eq!(t.ticks(), 10);
        let mut u = t;
        u += 5;
        assert_eq!(u - t, 5);
        assert_eq!(t - u, 0, "difference saturates");
        assert_eq!(u.since(t), 5);
        assert_eq!(t.since(u), 0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime(3) < SimTime(7));
        assert_eq!(SimTime(7).to_string(), "t7");
    }
}
