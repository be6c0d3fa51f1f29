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

    /// `ticks` later, or the last instant when that lies past it: the end
    /// of a span that may outlast time itself.
    pub fn saturating_add(self, ticks: u64) -> SimTime {
        SimTime(self.0.saturating_add(ticks))
    }
}

/// `ticks` later. Panics past the last instant (`u64::MAX` ticks) in every
/// build: a wrapped instant would land behind the event queue's present.
impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ticks: u64) -> SimTime {
        match self.0.checked_add(ticks) {
            Some(t) => SimTime(t),
            None => panic!("simulated time overflows: {self} + {ticks} ticks is past u64::MAX"),
        }
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ticks: u64) {
        *self = *self + ticks;
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
    #[should_panic(expected = "simulated time overflows: t18446744073709551615 + 1 ticks")]
    fn addition_past_the_last_instant_panics() {
        let _ = SimTime(u64::MAX) + 1;
    }

    #[test]
    fn saturating_addition_stops_at_the_last_instant() {
        assert_eq!(SimTime(5).saturating_add(u64::MAX), SimTime(u64::MAX));
        assert_eq!(SimTime(5).saturating_add(2), SimTime(7));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime(3) < SimTime(7));
        assert_eq!(SimTime(7).to_string(), "t7");
    }
}
