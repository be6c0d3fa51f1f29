//! Bounded random-walk mobility.

use super::MobilityModel;
use crate::arena::{PositionTable, Positions};
use crate::rng::{NodeStreams, StreamTag};
use crate::space::Point;
use dyngraph::NodeId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Each node takes an independent random step of at most `max_step × dt`
/// per advance, reflected into the arena.
#[derive(Clone, Debug)]
pub struct RandomWalk {
    width: f64,
    height: f64,
    /// Maximum displacement per tick.
    max_step: f64,
    table: PositionTable,
}

impl RandomWalk {
    /// Place `n` nodes (ids 0..n) uniformly at random.
    pub fn new(n: usize, width: f64, height: f64, max_step: f64, rng: &mut ChaCha8Rng) -> Self {
        let placed = (0..n).map(|i| (NodeId(i as u64), super::random_point(rng, width, height)));
        Self::from_positions(placed, width, height, max_step)
    }

    /// Build from explicit positions.
    pub fn from_positions(
        positions: impl IntoIterator<Item = (NodeId, Point)>,
        width: f64,
        height: f64,
        max_step: f64,
    ) -> Self {
        RandomWalk {
            width,
            height,
            max_step,
            table: positions.into_iter().collect(),
        }
    }

    /// One node's step of at most `amplitude` per axis, drawn from `rng`
    /// and clamped into the `(width, height)` arena.
    fn step((width, height): (f64, f64), amplitude: f64, pos: &mut Point, rng: &mut ChaCha8Rng) {
        let dx = rng.gen_range(-amplitude..=amplitude);
        let dy = rng.gen_range(-amplitude..=amplitude);
        *pos = Point::new(pos.x + dx, pos.y + dy).clamp_to(width, height);
    }
}

impl MobilityModel for RandomWalk {
    fn positions(&self) -> Positions<'_> {
        self.table.view()
    }

    fn advance(&mut self, dt: u64, streams: &mut NodeStreams) {
        let (arena, amplitude) = ((self.width, self.height), self.max_step * dt as f64);
        let (ids, points) = self.table.split_mut();
        let rngs = streams.lockstep(StreamTag::Mobility, 0, ids.iter().copied());
        for (pos, rng) in points.iter_mut().zip(rngs) {
            Self::step(arena, amplitude, pos, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn walk_stays_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut m = RandomWalk::new(15, 30.0, 30.0, 0.5, &mut rng);
        let mut streams = NodeStreams::new(3);
        for _ in 0..100 {
            m.advance(10, &mut streams);
        }
        for p in m.positions().points() {
            assert!(p.x >= 0.0 && p.x <= 30.0);
            assert!(p.y >= 0.0 && p.y <= 30.0);
        }
    }

    #[test]
    fn zero_step_walk_is_static() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut m = RandomWalk::new(5, 30.0, 30.0, 0.0, &mut rng);
        let before = m.positions().points().to_vec();
        m.advance(100, &mut NodeStreams::new(3));
        assert_eq!(m.positions().points(), before);
    }
}
