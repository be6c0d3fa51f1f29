//! Vicinity (radio) models.
//!
//! The paper defines the *vicinity* of a node `v` as the region of space
//! from which a message can be received by `v`. The radio model turns node
//! positions into a topology and decides, per transmission, whether a given
//! neighbour actually receives the message (loss, collisions).

use crate::arena::Positions;
use crate::space::{Point, SpatialGrid};
use dyngraph::Graph;
use rand::{Rng, RngCore};

/// A radio / vicinity model.
///
/// ```
/// use netsim::radio::{RadioModel, UnitDisk};
/// use netsim::PositionTable;
/// use netsim::Point;
/// use dyngraph::NodeId;
///
/// let radio = UnitDisk::new(10.0);
/// assert!(radio.in_vicinity(Point::new(0.0, 0.0), Point::new(6.0, 0.0)));
/// assert_eq!(radio.max_range(), Some(10.0));
///
/// // three nodes on a line, 6 apart: a path topology (0–1, 1–2, not 0–2)
/// let positions: PositionTable = (0..3)
///     .map(|i| (NodeId(i), Point::new(6.0 * i as f64, 0.0)))
///     .collect();
/// let g = radio.topology(positions.view());
/// assert!(g.contains_edge(NodeId(0), NodeId(1)));
/// assert!(!g.contains_edge(NodeId(0), NodeId(2)));
/// ```
pub trait RadioModel {
    /// Can a transmission by `sender` be heard at `receiver`'s position?
    fn in_vicinity(&self, sender: Point, receiver: Point) -> bool;

    /// Per-reception loss decision (fading, collisions). Returns true when
    /// the message is successfully received. The default never loses.
    fn receives(&self, _rng: &mut dyn RngCore, _sender: Point, _receiver: Point) -> bool {
        true
    }

    /// An upper bound on the interaction distance: `in_vicinity` is false
    /// for every pair farther apart than this. `None` (the default) means
    /// no finite bound is known and neighbour discovery must fall back to
    /// the all-pairs scan. All disk models report their range.
    fn max_range(&self) -> Option<f64> {
        None
    }

    /// Build the communication topology implied by a set of positions: an
    /// undirected edge is present when each node is in the other's vicinity
    /// (the GRP algorithm only exploits symmetric links).
    ///
    /// When the model has a finite [`max_range`](RadioModel::max_range) the
    /// scan runs through a one-shot spatial grid in O(n · k); otherwise it
    /// falls back to [`topology_all_pairs`](RadioModel::topology_all_pairs).
    /// Both paths produce the identical graph: a [`Graph`] stores every
    /// adjacency row sorted, so the order in which links are found cannot
    /// leak into any digest.
    fn topology(&self, positions: Positions<'_>) -> Graph {
        match self.max_range() {
            Some(range) if range.is_finite() && range > 0.0 => {
                let mut grid = SpatialGrid::new(range);
                grid.rebuild(positions);
                self.grid_topology(&mut grid)
            }
            _ => self.topology_all_pairs(positions),
        }
    }

    /// The reference O(n²) topology scan. Kept public so benchmarks can
    /// measure the pre-index baseline and property tests can cross-check
    /// the grid path against it.
    fn topology_all_pairs(&self, positions: Positions<'_>) -> Graph {
        let points = positions.points();
        let mut pairs = Vec::new();
        for (i, &pa) in points.iter().enumerate() {
            for (j, &pb) in points.iter().enumerate().skip(i + 1) {
                if linked(self, pa, pb) {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        Graph::from_slot_pairs(positions.ids().to_vec(), &pairs)
    }

    /// The topology over an already-synchronised [`SpatialGrid`], whose
    /// slots it shares: only pairs in neighbouring cells are
    /// distance-tested. Requires a finite
    /// [`max_range`](RadioModel::max_range); the simulator guarantees this
    /// by construction.
    fn grid_topology(&self, grid: &mut SpatialGrid) -> Graph {
        grid.rebuild_topology(grid_range(self), |pa, pb| linked(self, pa, pb))
    }
}

/// The grid path's interaction bound: [`RadioModel::max_range`], which
/// it requires to be finite.
fn grid_range<R: RadioModel + ?Sized>(radio: &R) -> f64 {
    radio
        .max_range()
        // detlint::allow(D004): documented API precondition — the
        // simulator only routes bounded-range models through the grid
        .expect("the grid path requires a bounded-range radio model")
}

/// The link predicate of every topology: each position is in the other's
/// vicinity.
fn linked<R: RadioModel + ?Sized>(radio: &R, a: Point, b: Point) -> bool {
    radio.in_vicinity(a, b) && radio.in_vicinity(b, a)
}

/// One row of [`RadioModel::grid_topology`]'s graph, answered from the
/// grid's cells without building it: `slot`'s neighbours and their
/// positions, ascending by slot, into `found` (see
/// [`SpatialGrid::query_neighbors`]). Same precondition.
pub(crate) fn grid_neighbors(
    radio: &dyn RadioModel,
    grid: &SpatialGrid,
    slot: usize,
    found: &mut Vec<(u32, Point)>,
) {
    grid.query_neighbors(slot, grid_range(radio), |a, b| linked(radio, a, b), found);
}

/// Ideal unit-disk radio: a node hears every transmitter within `range`.
#[derive(Clone, Copy, Debug)]
pub struct UnitDisk {
    /// Vicinity radius in space units.
    pub range: f64,
}

impl UnitDisk {
    /// A unit-disk radio with the given vicinity radius.
    pub fn new(range: f64) -> Self {
        UnitDisk { range }
    }
}

impl RadioModel for UnitDisk {
    fn in_vicinity(&self, sender: Point, receiver: Point) -> bool {
        sender.distance(&receiver) <= self.range
    }

    fn max_range(&self) -> Option<f64> {
        Some(self.range)
    }
}

/// Unit-disk radio with distance-independent random loss, modelling
/// collisions and fading under the one-message-channel hypothesis.
#[derive(Clone, Copy, Debug)]
pub struct LossyDisk {
    /// Vicinity radius in space units.
    pub range: f64,
    /// Probability that an individual reception fails, in `[0, 1]`.
    pub loss: f64,
}

impl LossyDisk {
    /// A lossy disk radio; `loss` is clamped into `[0, 1]`.
    pub fn new(range: f64, loss: f64) -> Self {
        LossyDisk {
            range,
            loss: loss.clamp(0.0, 1.0),
        }
    }
}

impl RadioModel for LossyDisk {
    fn in_vicinity(&self, sender: Point, receiver: Point) -> bool {
        sender.distance(&receiver) <= self.range
    }

    fn receives(&self, rng: &mut dyn RngCore, _sender: Point, _receiver: Point) -> bool {
        !rng.gen_bool(self.loss)
    }

    fn max_range(&self) -> Option<f64> {
        Some(self.range)
    }
}

/// Unit-disk radio whose loss probability grows linearly from 0 at distance
/// 0 to `edge_loss` at the edge of the range — a crude path-loss model that
/// makes long links flakier than short ones, as in a real VANET.
#[derive(Clone, Copy, Debug)]
pub struct DistanceLossDisk {
    /// Vicinity radius in space units.
    pub range: f64,
    /// Loss probability at the edge of the range, in `[0, 1]`.
    pub edge_loss: f64,
}

impl DistanceLossDisk {
    /// A distance-proportional lossy radio; `edge_loss` is clamped into
    /// `[0, 1]`.
    pub fn new(range: f64, edge_loss: f64) -> Self {
        DistanceLossDisk {
            range,
            edge_loss: edge_loss.clamp(0.0, 1.0),
        }
    }
}

impl RadioModel for DistanceLossDisk {
    fn in_vicinity(&self, sender: Point, receiver: Point) -> bool {
        sender.distance(&receiver) <= self.range
    }

    fn receives(&self, rng: &mut dyn RngCore, sender: Point, receiver: Point) -> bool {
        let d = sender.distance(&receiver);
        if d > self.range {
            return false;
        }
        let p_loss = self.edge_loss * (d / self.range);
        !rng.gen_bool(p_loss.clamp(0.0, 1.0))
    }

    fn max_range(&self) -> Option<f64> {
        Some(self.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PositionTable;
    use dyngraph::NodeId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn positions(pts: &[(u64, f64, f64)]) -> PositionTable {
        pts.iter()
            .map(|&(id, x, y)| (NodeId(id), Point::new(x, y)))
            .collect()
    }

    #[test]
    fn unit_disk_topology_links_nodes_within_range() {
        let radio = UnitDisk::new(5.0);
        let pos = positions(&[(1, 0.0, 0.0), (2, 3.0, 0.0), (3, 20.0, 0.0)]);
        let g = radio.topology(pos.view());
        assert!(g.contains_edge(NodeId(1), NodeId(2)));
        assert!(!g.contains_edge(NodeId(1), NodeId(3)));
        assert!(!g.contains_edge(NodeId(2), NodeId(3)));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn unit_disk_never_loses() {
        let radio = UnitDisk::new(5.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(radio.receives(&mut rng, Point::ORIGIN, Point::new(1.0, 0.0)));
    }

    #[test]
    fn lossy_disk_loses_roughly_at_configured_rate() {
        let radio = LossyDisk::new(5.0, 0.3);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let trials = 5000;
        let mut ok = 0;
        for _ in 0..trials {
            if radio.receives(&mut rng, Point::ORIGIN, Point::new(1.0, 0.0)) {
                ok += 1;
            }
        }
        let rate = ok as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.05, "observed success rate {rate}");
    }

    #[test]
    fn lossy_disk_clamps_probability() {
        let radio = LossyDisk::new(5.0, 7.0);
        assert_eq!(radio.loss, 1.0);
        let radio = LossyDisk::new(5.0, -3.0);
        assert_eq!(radio.loss, 0.0);
    }

    #[test]
    fn grid_topology_equals_all_pairs_topology() {
        use rand::Rng;
        let radio = UnitDisk::new(7.5);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let pos: PositionTable = (0..120)
            .map(|i| {
                (
                    NodeId(i),
                    Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)),
                )
            })
            .collect();
        let brute = radio.topology_all_pairs(pos.view());
        let routed = radio.topology(pos.view());
        assert_eq!(brute, routed, "topology() routes through the grid");
        let mut grid = crate::space::SpatialGrid::new(7.5);
        grid.rebuild(pos.view());
        let via_grid = radio.grid_topology(&mut grid);
        assert_eq!(brute, via_grid);
        // per-node grid queries agree with the graph's rows
        let mut found = Vec::new();
        for slot in 0..grid.len() {
            grid_neighbors(&radio, &grid, slot, &mut found);
            let queried: Vec<u32> = found.iter().map(|&(j, _)| j).collect();
            assert_eq!(queried, brute.row(slot), "neighbours of slot {slot}");
        }
    }

    #[test]
    fn disk_models_report_their_range() {
        assert_eq!(UnitDisk::new(5.0).max_range(), Some(5.0));
        assert_eq!(LossyDisk::new(6.0, 0.1).max_range(), Some(6.0));
        assert_eq!(DistanceLossDisk::new(7.0, 0.2).max_range(), Some(7.0));
    }

    #[test]
    fn distance_loss_grows_with_distance() {
        let radio = DistanceLossDisk::new(10.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let trials = 4000;
        let mut near_ok = 0;
        let mut far_ok = 0;
        for _ in 0..trials {
            if radio.receives(&mut rng, Point::ORIGIN, Point::new(1.0, 0.0)) {
                near_ok += 1;
            }
            if radio.receives(&mut rng, Point::ORIGIN, Point::new(9.5, 0.0)) {
                far_ok += 1;
            }
        }
        assert!(near_ok > far_ok, "near {near_ok} vs far {far_ok}");
        // out of range is never received
        assert!(!radio.receives(&mut rng, Point::ORIGIN, Point::new(20.0, 0.0)));
    }
}
