//! Random waypoint mobility.
//!
//! Each node repeatedly picks a uniform destination in the arena and moves
//! towards it at its own constant speed; on arrival it immediately picks a
//! new destination (no pause time, the worst case for topology churn).

use super::{random_point, MobilityModel};
use crate::arena::{PositionTable, Positions};
use crate::rng::{NodeStreams, StreamTag};
use crate::space::Point;
use dyngraph::NodeId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Classical random-waypoint model in a rectangular arena.
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    width: f64,
    height: f64,
    table: PositionTable,
    /// Per slot, parallel to `table`: current destination and speed (in
    /// distance units per tick).
    targets: Vec<Point>,
    speeds: Vec<f64>,
}

impl RandomWaypoint {
    /// Place `n` nodes (ids 0..n) uniformly and assign per-node speeds.
    pub fn new(
        n: usize,
        width: f64,
        height: f64,
        speed_range: (f64, f64),
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let (lo, hi) = speed_range;
        let mut placed = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        let mut speeds = Vec::with_capacity(n);
        for i in 0..n {
            placed.push((NodeId(i as u64), random_point(rng, width, height)));
            speeds.push(if hi > lo { rng.gen_range(lo..=hi) } else { lo });
            targets.push(random_point(rng, width, height));
        }
        RandomWaypoint {
            width,
            height,
            table: placed.into_iter().collect(),
            targets,
            speeds,
        }
    }

    /// Move one node for `budget` distance units, drawing a new waypoint
    /// from `rng` at each arrival — a fast node may reach several within
    /// one tick. The number of draws depends only on this node's speed and
    /// distances, never on the rest of the population.
    fn travel(
        (width, height): (f64, f64),
        mut budget: f64,
        pos: &mut Point,
        target: &mut Point,
        rng: &mut ChaCha8Rng,
    ) {
        while budget > 0.0 {
            let d = pos.distance(target);
            if d <= budget {
                *pos = *target;
                budget -= d;
                *target = random_point(rng, width, height);
                if d == 0.0 {
                    break;
                }
            } else {
                *pos = pos.step_towards(target, budget);
                budget = 0.0;
            }
        }
    }
}

impl MobilityModel for RandomWaypoint {
    fn positions(&self) -> Positions<'_> {
        self.table.view()
    }

    fn advance(&mut self, dt: u64, streams: &mut NodeStreams) {
        let arena = (self.width, self.height);
        let (ids, points) = self.table.split_mut();
        let rngs = streams.lockstep(StreamTag::Mobility, 0, ids.iter().copied());
        let nodes = points.iter_mut().zip(&mut self.targets).zip(&self.speeds);
        for (((pos, target), speed), rng) in nodes.zip(rngs) {
            Self::travel(arena, speed * dt as f64, pos, target, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nodes_stay_in_arena() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut m = RandomWaypoint::new(20, 100.0, 50.0, (0.01, 0.05), &mut rng);
        let mut streams = NodeStreams::new(5);
        for _ in 0..50 {
            m.advance(100, &mut streams);
        }
        for p in m.positions().points() {
            assert!(p.x >= -1e-9 && p.x <= 100.0 + 1e-9);
            assert!(p.y >= -1e-9 && p.y <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn zero_speed_nodes_do_not_move() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut m = RandomWaypoint::new(5, 100.0, 50.0, (0.0, 0.0), &mut rng);
        let before = m.positions().points().to_vec();
        m.advance(1000, &mut NodeStreams::new(5));
        assert_eq!(m.positions().points(), before);
    }

    #[test]
    fn positive_speed_nodes_eventually_move() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut m = RandomWaypoint::new(5, 100.0, 50.0, (0.1, 0.2), &mut rng);
        let before = m.positions().points().to_vec();
        m.advance(500, &mut NodeStreams::new(9));
        let moved = m
            .positions()
            .points()
            .iter()
            .zip(&before)
            .any(|(p, was)| p.distance(was) > 1e-9);
        assert!(moved);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut m = RandomWaypoint::new(10, 50.0, 50.0, (0.05, 0.1), &mut rng);
            let mut streams = NodeStreams::new(seed);
            for _ in 0..20 {
                m.advance(50, &mut streams);
            }
            m.positions().points().to_vec()
        };
        assert_eq!(run(42), run(42));
    }
}
