//! Manhattan city-grid mobility with traffic-light platooning.
//!
//! Vehicles drive along the streets of a square city grid — `blocks`
//! blocks per side, streets every `block_size` metres in both axes. A
//! global two-phase traffic-light cycle alternates right of way between
//! the horizontal and the vertical streets: while its axis is red, a
//! vehicle may advance only up to the next intersection, where it waits.
//! Queued vehicles are released together when their axis turns green, so
//! the model produces the *platooning waves* of an urban VANET — dense
//! clusters forming at intersections and dissolving down the street — the
//! workload that stresses a contention channel hardest.

use super::MobilityModel;
use crate::arena::{PositionTable, Positions};
use crate::rng::NodeStreams;
use crate::space::Point;
use dyngraph::NodeId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Which family of parallel streets a vehicle drives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Axis {
    /// Constant y, moving in x.
    Horizontal,
    /// Constant x, moving in y.
    Vertical,
}

/// Per-vehicle state.
#[derive(Clone, Copy, Debug)]
struct Vehicle {
    axis: Axis,
    /// Street index: the fixed coordinate is `street · block_size`.
    street: usize,
    /// Travel coordinate along the street, in `[0, side)`.
    offset: f64,
    /// +1.0 or −1.0.
    dir: f64,
    /// Distance per tick.
    speed: f64,
}

/// A city grid of streets with a global two-phase traffic-light cycle.
#[derive(Clone, Debug)]
pub struct CityGrid {
    block_size: f64,
    /// Side length of the (toroidal) city: `blocks · block_size`.
    side: f64,
    /// Half-cycle of the lights in ticks: horizontal streets have green
    /// during the first half, vertical streets during the second.
    light_period: u64,
    /// Elapsed model time, advanced by [`MobilityModel::advance`].
    time: u64,
    table: PositionTable,
    /// Per slot, parallel to `table`.
    vehicles: Vec<Vehicle>,
}

impl CityGrid {
    /// Lay out `n` vehicles (ids `0..n`) over a `blocks` × `blocks` grid of
    /// `block_size`-metre blocks. Street, axis, direction, initial offset
    /// and speed (uniform in `speed_range`) are drawn from `rng`, so the
    /// placement is reproducible per seed.
    pub fn new(
        n: usize,
        blocks: usize,
        block_size: f64,
        speed_range: (f64, f64),
        light_period: u64,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let blocks = blocks.max(1);
        assert!(
            block_size.is_finite() && block_size > 0.0,
            "block size must be finite and positive, got {block_size}"
        );
        let side = blocks as f64 * block_size;
        let mut model = CityGrid {
            block_size,
            side,
            light_period: light_period.max(1),
            time: 0,
            table: (0..n).map(|i| (NodeId(i as u64), Point::ORIGIN)).collect(),
            vehicles: Vec::with_capacity(n),
        };
        let (lo, hi) = speed_range;
        for _ in 0..n {
            let axis = if rng.gen_bool(0.5) {
                Axis::Horizontal
            } else {
                Axis::Vertical
            };
            // streets 0..=blocks exist, but street `blocks` coincides with
            // street 0 on the torus, so only 0..blocks are assigned
            let street = rng.gen_range(0..blocks);
            let offset = rng.gen_range(0.0..side);
            let dir = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let speed = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            model.vehicles.push(Vehicle {
                axis,
                street,
                offset,
                dir,
                speed,
            });
        }
        model.refresh_positions();
        model
    }

    /// Is the light green for `axis` at absolute `time`?
    fn green(&self, axis: Axis, time: u64) -> bool {
        let phase = (time / self.light_period) % 2;
        match axis {
            Axis::Horizontal => phase == 0,
            Axis::Vertical => phase == 1,
        }
    }

    /// The stop line the vehicle queues at when its axis is red: the next
    /// intersection in driving direction, minus a small standoff.
    fn stop_line(&self, v: &Vehicle) -> f64 {
        const STANDOFF: f64 = 1.0;
        let b = self.block_size;
        if v.dir > 0.0 {
            let next = (v.offset / b).floor() * b + b;
            (next - STANDOFF).max(v.offset)
        } else {
            let next = (v.offset / b).ceil() * b - b;
            let line = next + STANDOFF;
            if line > v.offset {
                v.offset
            } else {
                line
            }
        }
    }

    fn refresh_positions(&mut self) {
        let block_size = self.block_size;
        for (p, v) in self.table.split_mut().1.iter_mut().zip(&self.vehicles) {
            let fixed = v.street as f64 * block_size;
            *p = match v.axis {
                Axis::Horizontal => Point::new(v.offset, fixed),
                Axis::Vertical => Point::new(fixed, v.offset),
            };
        }
    }
}

impl MobilityModel for CityGrid {
    fn positions(&self) -> Positions<'_> {
        self.table.view()
    }

    /// The traffic-light kinematics are fully deterministic: no draws.
    fn advance(&mut self, dt: u64, _streams: &mut NodeStreams) {
        // the light phase is sampled once per tick (mobility ticks are much
        // shorter than a light half-cycle in any sensible configuration)
        let time = self.time;
        let side = self.side;
        for slot in 0..self.vehicles.len() {
            let v = self.vehicles[slot];
            let step = v.speed * dt as f64;
            let moved = if self.green(v.axis, time) {
                let mut next = v.offset + v.dir * step;
                next %= side;
                if next < 0.0 {
                    next += side;
                }
                next
            } else {
                // red: advance up to the stop line of the next intersection
                let line = self.stop_line(&v);
                if v.dir > 0.0 {
                    (v.offset + step).min(line)
                } else {
                    (v.offset - step).max(line)
                }
            };
            self.vehicles[slot].offset = moved;
        }
        self.time = self.time.saturating_add(dt);
        self.refresh_positions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn city(n: usize, seed: u64) -> CityGrid {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        CityGrid::new(n, 4, 100.0, (0.01, 0.02), 3000, &mut rng)
    }

    #[test]
    fn vehicles_sit_on_streets() {
        let m = city(40, 1);
        assert_eq!(m.positions().len(), 40);
        for p in m.positions().points() {
            let on_h = (p.y / 100.0).fract().abs() < 1e-9;
            let on_v = (p.x / 100.0).fract().abs() < 1e-9;
            assert!(on_h || on_v, "vehicle off-street at {p:?}");
            assert!(p.x >= 0.0 && p.x < 400.0 && p.y >= 0.0 && p.y < 400.0);
        }
    }

    #[test]
    fn red_axis_queues_at_the_stop_line() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut m = CityGrid::new(30, 4, 100.0, (0.05, 0.05), 3000, &mut rng);
        // phase 0: horizontal green, vertical red. After a long advance every
        // vertical vehicle has hit a stop line (offset just below a multiple
        // of the block size).
        m.advance(2999, &mut NodeStreams::new(2));
        let stopped = m
            .vehicles
            .iter()
            .filter(|v| v.axis == Axis::Vertical)
            .filter(|v| {
                let to_line = if v.dir > 0.0 {
                    ((v.offset / 100.0).floor() * 100.0 + 100.0) - v.offset
                } else {
                    v.offset - ((v.offset / 100.0).ceil() * 100.0 - 100.0)
                };
                // at the standoff, or closer if it started inside it
                to_line <= 1.0 + 1e-6
            })
            .count();
        let vertical = m
            .vehicles
            .iter()
            .filter(|v| v.axis == Axis::Vertical)
            .count();
        assert!(vertical > 0, "seeded layout has vertical vehicles");
        assert_eq!(stopped, vertical, "every red-axis vehicle queues");
    }

    #[test]
    fn green_axis_keeps_moving_and_wraps() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut m = CityGrid::new(30, 4, 100.0, (0.05, 0.05), u64::MAX / 4, &mut rng);
        let before: Vec<f64> = m
            .vehicles
            .iter()
            .filter(|v| v.axis == Axis::Horizontal)
            .map(|v| v.offset)
            .collect();
        m.advance(1000, &mut NodeStreams::new(3));
        let after: Vec<f64> = m
            .vehicles
            .iter()
            .filter(|v| v.axis == Axis::Horizontal)
            .map(|v| v.offset)
            .collect();
        assert!(
            before.iter().zip(&after).all(|(b, a)| b != a),
            "every green-axis vehicle advanced"
        );
        for a in &after {
            assert!(*a >= 0.0 && *a < 400.0, "wrapped into the torus");
        }
    }

    #[test]
    fn lights_alternate_between_axes() {
        let m = city(1, 4);
        assert!(m.green(Axis::Horizontal, 0));
        assert!(!m.green(Axis::Vertical, 0));
        assert!(!m.green(Axis::Horizontal, 3000));
        assert!(m.green(Axis::Vertical, 3000));
        assert!(m.green(Axis::Horizontal, 6000));
    }

    #[test]
    fn platoon_forms_then_releases() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // all vehicles same speed so a released platoon stays bunched
        let mut m = CityGrid::new(40, 2, 200.0, (0.06, 0.06), 4000, &mut rng);
        m.advance(4000, &mut NodeStreams::new(5)); // vertical axis queued; clock at the flip
        let vertical_points = |m: &CityGrid| -> Vec<Point> {
            let points = m.positions().points().iter();
            points
                .zip(&m.vehicles)
                .filter(|(_, v)| v.axis == Axis::Vertical)
                .map(|(&p, _)| p)
                .collect()
        };
        let queued = vertical_points(&m);
        assert!(!queued.is_empty());
        m.advance(500, &mut NodeStreams::new(5)); // now in the vertical-green half
        let moved = vertical_points(&m)
            .iter()
            .zip(queued.iter())
            .filter(|(now, then)| now.distance(then) > 1.0)
            .count();
        assert!(moved > 0, "the platoon releases on green");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = city(25, seed);
            m.advance(5000, &mut NodeStreams::new(99));
            m.positions().points().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
