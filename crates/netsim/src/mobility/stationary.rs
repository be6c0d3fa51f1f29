//! Nodes that never move.

use super::MobilityModel;
use crate::arena::{PositionTable, Positions};
use crate::rng::NodeStreams;
use crate::space::Point;
use dyngraph::NodeId;
use rand_chacha::ChaCha8Rng;

/// A static placement of nodes; `advance` is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Stationary {
    table: PositionTable,
}

impl Stationary {
    /// Build from explicit positions.
    pub fn new(positions: impl IntoIterator<Item = (NodeId, Point)>) -> Self {
        Stationary {
            table: positions.into_iter().collect(),
        }
    }

    /// Place `n` nodes (ids 0..n) on a line with the given spacing — a
    /// convenient way to obtain a path topology under a unit-disk radio.
    pub fn line(n: usize, spacing: f64) -> Self {
        Self::new((0..n).map(|i| (NodeId(i as u64), Point::new(i as f64 * spacing, 0.0))))
    }

    /// Place `n` nodes uniformly at random in a `width`×`height` rectangle.
    pub fn uniform(n: usize, width: f64, height: f64, rng: &mut ChaCha8Rng) -> Self {
        Self::new((0..n).map(|i| (NodeId(i as u64), super::random_point(rng, width, height))))
    }
}

impl MobilityModel for Stationary {
    fn positions(&self) -> Positions<'_> {
        self.table.view()
    }

    fn advance(&mut self, _dt: u64, _streams: &mut NodeStreams) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn line_spacing() {
        let m = Stationary::line(4, 10.0);
        assert_eq!(m.positions().len(), 4);
        assert_eq!(m.positions().get(NodeId(3)), Some(Point::new(30.0, 0.0)));
    }

    #[test]
    fn advance_is_a_noop() {
        let mut m = Stationary::line(3, 5.0);
        let before = m.positions().points().to_vec();
        m.advance(1000, &mut NodeStreams::new(0));
        assert_eq!(m.positions().points(), before);
    }

    #[test]
    fn uniform_is_within_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let m = Stationary::uniform(50, 20.0, 30.0, &mut rng);
        assert_eq!(m.positions().len(), 50);
        for p in m.positions().points() {
            assert!(p.x >= 0.0 && p.x <= 20.0);
            assert!(p.y >= 0.0 && p.y <= 30.0);
        }
    }
}
