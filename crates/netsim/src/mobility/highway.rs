//! VANET highway (convoy) mobility.
//!
//! Vehicles drive along a one-dimensional road on parallel lanes, each with
//! its own speed. Differences in speed stretch and compress the convoy, so
//! links appear and disappear at a rate controlled by the speed spread —
//! exactly the dynamics that motivates the best-effort continuity property.
//! Vehicles that reach the end of the road wrap around (ring road), keeping
//! the number of nodes constant throughout an experiment.

use super::MobilityModel;
use crate::arena::{PositionTable, Positions};
use crate::rng::{NodeStreams, StreamTag};
use crate::space::Point;
use dyngraph::NodeId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Per-vehicle state, parallel to the position table.
#[derive(Clone, Copy, Debug)]
struct Vehicle {
    /// Distance per tick, fixed at construction.
    speed: f64,
    lane: usize,
    /// Travel coordinate along the road, in `[0, road_length)`.
    offset: f64,
}

impl Vehicle {
    /// Drive `dt` ticks along a ring road of `(length, lanes)`, moving one
    /// lane over when `changes_lane`.
    fn drive(&mut self, dt: u64, (road_length, lanes): (f64, usize), changes_lane: bool) {
        self.offset = (self.offset + self.speed * dt as f64) % road_length;
        if changes_lane {
            self.lane = (self.lane + 1) % lanes;
        }
    }
}

/// A convoy of vehicles on a multi-lane ring road.
#[derive(Clone, Debug)]
pub struct Highway {
    road_length: f64,
    lane_width: f64,
    lanes: usize,
    table: PositionTable,
    vehicles: Vec<Vehicle>,
}

/// Probability per advance that a vehicle changes lane.
const LANE_CHANGE_PROB: f64 = 0.01;

impl Highway {
    /// Create a convoy of `n` vehicles (ids 0..n) spread over `lanes` lanes,
    /// starting bunched with `initial_gap` metres between consecutive
    /// vehicles, speeds drawn uniformly in `speed_range`.
    pub fn new(
        n: usize,
        lanes: usize,
        road_length: f64,
        initial_gap: f64,
        speed_range: (f64, f64),
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let lanes = lanes.max(1);
        let (lo, hi) = speed_range;
        let vehicles: Vec<Vehicle> = (0..n)
            .map(|i| Vehicle {
                speed: if hi > lo { rng.gen_range(lo..=hi) } else { lo },
                lane: i % lanes,
                offset: (i as f64 * initial_gap) % road_length,
            })
            .collect();
        let mut model = Highway {
            road_length,
            lane_width: 4.0,
            lanes,
            table: (0..n).map(|i| (NodeId(i as u64), Point::ORIGIN)).collect(),
            vehicles,
        };
        model.refresh_positions();
        model
    }

    fn refresh_positions(&mut self) {
        let lane_width = self.lane_width;
        for (p, v) in self.table.split_mut().1.iter_mut().zip(&self.vehicles) {
            *p = Point::new(v.offset, v.lane as f64 * lane_width);
        }
    }

    /// Advance as part of a composing model ([`super::MixedHighway`]),
    /// which runs the convoy on local ids `0..n` but must address the
    /// streams the way the simulator sees the vehicles: slots shifted by `first_slot`, ids by `id_offset` — or a
    /// vehicle's draws would collide with whatever node occupies the
    /// unshifted id.
    pub(crate) fn advance_offset(
        &mut self,
        dt: u64,
        streams: &mut NodeStreams,
        first_slot: usize,
        id_offset: u64,
    ) {
        let road = (self.road_length, self.lanes);
        let ids = self.table.view().ids().iter();
        let public = ids.map(|id| NodeId(id.raw() + id_offset));
        let rngs = streams.lockstep(StreamTag::Mobility, first_slot, public);
        for (v, rng) in self.vehicles.iter_mut().zip(rngs) {
            v.drive(dt, road, rng.gen_bool(LANE_CHANGE_PROB));
        }
        self.refresh_positions();
    }
}

impl MobilityModel for Highway {
    fn positions(&self) -> Positions<'_> {
        self.table.view()
    }

    fn advance(&mut self, dt: u64, streams: &mut NodeStreams) {
        self.advance_offset(dt, streams, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn convoy_starts_spaced_by_gap() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = Highway::new(5, 1, 1000.0, 20.0, (0.01, 0.01), &mut rng);
        assert_eq!(m.positions().len(), 5);
        assert!((m.positions().points()[1].x - 20.0).abs() < 1e-9);
        assert!((m.positions().points()[4].x - 80.0).abs() < 1e-9);
    }

    #[test]
    fn vehicles_advance_and_wrap() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut m = Highway::new(2, 1, 100.0, 10.0, (1.0, 1.0), &mut rng);
        let mut streams = NodeStreams::new(1);
        m.advance(95, &mut streams);
        // vehicle 0 started at 0, speed 1.0/tick, after 95 ticks → 95
        assert!((m.positions().points()[0].x - 95.0).abs() < 1e-9);
        m.advance(10, &mut streams);
        // 105 % 100 = 5
        assert!((m.positions().points()[0].x - 5.0).abs() < 1e-9);
    }

    #[test]
    fn speed_spread_stretches_the_convoy() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut m = Highway::new(10, 1, 10000.0, 10.0, (0.1, 1.0), &mut rng);
        let spread = |m: &Highway| {
            let xs: Vec<f64> = m.positions().points().iter().map(|p| p.x).collect();
            let max = xs.iter().cloned().fold(f64::MIN, f64::max);
            let min = xs.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let before = spread(&m);
        m.advance(500, &mut NodeStreams::new(2));
        assert!(spread(&m) > before);
    }

    #[test]
    fn lanes_give_distinct_y_coordinates() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m = Highway::new(4, 2, 500.0, 15.0, (0.5, 0.5), &mut rng);
        let ys: std::collections::BTreeSet<i64> = m
            .positions()
            .points()
            .iter()
            .map(|p| (p.y * 10.0) as i64)
            .collect();
        assert_eq!(ys.len(), 2);
    }
}
