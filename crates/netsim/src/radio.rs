//! The vicinity (radio) model.
//!
//! The paper defines the *vicinity* of a node `v` as the region of space
//! from which a message can be received by `v`. The radio answers that
//! geometric question only — which positions are in each other's vicinity —
//! and with it the topology; whether a given transmission then arrives
//! (loss, collisions) is the channel's decision ([`crate::channel`]).

use crate::space::{Point, SpatialGrid};
use dyngraph::{Graph, NodeId};

/// The unit-disk radio: a node hears every transmitter within `range`.
///
/// The range is finite and positive by construction, so every radio has a
/// bounded interaction distance and neighbour discovery always runs
/// through the spatial grid.
///
/// ```
/// use netsim::radio::UnitDisk;
/// use netsim::Point;
///
/// let radio = UnitDisk::new(10.0);
/// assert_eq!(radio.range(), 10.0);
/// assert!(radio.in_vicinity(Point::new(0.0, 0.0), Point::new(6.0, 0.0)));
/// assert!(!radio.in_vicinity(Point::new(0.0, 0.0), Point::new(12.0, 0.0)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitDisk {
    range: f64,
}

impl UnitDisk {
    /// A unit-disk radio with the given vicinity radius, which must be
    /// finite and positive.
    pub fn new(range: f64) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "radio range must be finite and positive, got {range}"
        );
        UnitDisk { range }
    }

    /// The vicinity radius in space units: `in_vicinity` is false for every
    /// pair farther apart than this.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Can a transmission by `sender` be heard at `receiver`'s position?
    /// The disk is symmetric — `Point::distance` is exactly symmetric — so
    /// this is also the link predicate of the topology: an undirected edge
    /// joins two nodes each in the other's vicinity.
    pub fn in_vicinity(&self, sender: Point, receiver: Point) -> bool {
        sender.distance(&receiver) <= self.range
    }

    /// The topology over an already-synchronised [`SpatialGrid`], whose
    /// slots it shares and whose nodes are `ids`: only pairs in
    /// neighbouring cells are distance-tested.
    pub(crate) fn grid_topology(&self, grid: &mut SpatialGrid, ids: &[NodeId]) -> Graph {
        grid.rebuild_topology(ids, self.range, |a, b| self.in_vicinity(a, b))
    }

    /// One row of [`grid_topology`](Self::grid_topology)'s graph, answered
    /// from the grid's cells without building it: `slot`'s neighbours and
    /// their positions, ascending by slot, into `found` (see
    /// [`SpatialGrid::query_neighbors`]).
    pub(crate) fn grid_neighbors(
        &self,
        grid: &SpatialGrid,
        slot: usize,
        found: &mut Vec<(u32, Point)>,
    ) {
        grid.query_neighbors(slot, self.range, |a, b| self.in_vicinity(a, b), found);
    }
}

/// The reference O(n²) topology scan, the oracle the grid paths are
/// checked against: every pair of positions, each in the other's vicinity.
#[cfg(test)]
pub(crate) fn topology_all_pairs(radio: &UnitDisk, positions: crate::Positions<'_>) -> Graph {
    let points = positions.points();
    let mut pairs = Vec::new();
    for (i, &pa) in points.iter().enumerate() {
        for (j, &pb) in points.iter().enumerate().skip(i + 1) {
            if radio.in_vicinity(pa, pb) && radio.in_vicinity(pb, pa) {
                pairs.push((i as u32, j as u32));
            }
        }
    }
    Graph::from_slot_pairs(positions.ids().to_vec(), &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PositionTable;
    use crate::channel::{Bernoulli, ChannelModel, DistanceLoss, LinkEnv, LinkOutcome};
    use crate::time::SimTime;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn positions(pts: &[(u64, f64, f64)]) -> PositionTable {
        pts.iter()
            .map(|&(id, x, y)| (NodeId(id), Point::new(x, y)))
            .collect()
    }

    /// The link from the origin to `receiver` under `radio`, with the
    /// Bernoulli channel's `loss_probability`.
    fn link_env(radio: &UnitDisk, receiver: Point, loss_probability: f64) -> LinkEnv<'_> {
        LinkEnv {
            now: SimTime(0),
            sender: NodeId(0),
            receiver: NodeId(1),
            sender_pos: Some(Point::ORIGIN),
            receiver_pos: Some(receiver),
            radio: Some(radio),
            loss_probability,
        }
    }

    /// The topology one grid pass builds over `pos`.
    fn grid_topology_of(radio: &UnitDisk, pos: &PositionTable) -> Graph {
        let mut grid = SpatialGrid::new(radio.range());
        grid.rebuild(pos.view().points());
        radio.grid_topology(&mut grid, pos.view().ids())
    }

    #[test]
    fn unit_disk_topology_links_nodes_within_range() {
        let radio = UnitDisk::new(5.0);
        let pos = positions(&[(1, 0.0, 0.0), (2, 3.0, 0.0), (3, 20.0, 0.0)]);
        let g = grid_topology_of(&radio, &pos);
        assert!(g.contains_edge(NodeId(1), NodeId(2)));
        assert!(!g.contains_edge(NodeId(1), NodeId(3)));
        assert!(!g.contains_edge(NodeId(2), NodeId(3)));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn unit_disk_rejects_an_unbounded_or_empty_range() {
        for range in [0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let built = std::panic::catch_unwind(|| UnitDisk::new(range));
            assert!(built.is_err(), "UnitDisk::new({range}) must panic");
        }
        assert_eq!(UnitDisk::new(f64::MIN_POSITIVE).range(), f64::MIN_POSITIVE);
    }

    /// The radio itself loses nothing: under a zero-loss channel every
    /// in-range link is delivered and no randomness is drawn.
    #[test]
    fn unit_disk_never_loses() {
        let radio = UnitDisk::new(5.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let env = link_env(&radio, Point::new(1.0, 0.0), 0.0);
        assert_eq!(Bernoulli.link(&mut rng, &env), LinkOutcome::DELIVERED);
        let mut fresh = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    /// A manifest's `lossy_disk` is a unit disk under the Bernoulli channel
    /// at its `loss`.
    #[test]
    fn lossy_disk_loses_roughly_at_configured_rate() {
        let radio = UnitDisk::new(5.0);
        let env = link_env(&radio, Point::new(1.0, 0.0), 0.3);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let trials = 5000;
        let ok = (0..trials)
            .filter(|_| Bernoulli.link(&mut rng, &env).received)
            .count();
        let rate = ok as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.05, "observed success rate {rate}");
    }

    /// A loss probability outside `[0, 1]` is clamped at the draw: above 1
    /// every link is lost, below 0 every link arrives.
    #[test]
    fn lossy_disk_clamps_probability() {
        let radio = UnitDisk::new(5.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let lost = link_env(&radio, Point::new(1.0, 0.0), 7.0);
        let kept = link_env(&radio, Point::new(1.0, 0.0), -3.0);
        for _ in 0..64 {
            assert_eq!(Bernoulli.link(&mut rng, &lost), LinkOutcome::LOST);
            assert_eq!(Bernoulli.link(&mut rng, &kept), LinkOutcome::DELIVERED);
        }
    }

    #[test]
    fn grid_topology_equals_all_pairs_topology() {
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
        let brute = topology_all_pairs(&radio, pos.view());
        let mut grid = SpatialGrid::new(7.5);
        grid.rebuild(pos.view().points());
        assert_eq!(brute, radio.grid_topology(&mut grid, pos.view().ids()));
        // per-node grid queries agree with the graph's rows
        let mut found = Vec::new();
        for slot in 0..grid.len() {
            radio.grid_neighbors(&grid, slot, &mut found);
            let queried: Vec<u32> = found.iter().map(|&(j, _)| j).collect();
            assert_eq!(queried, brute.row(slot), "neighbours of slot {slot}");
        }
    }

    #[test]
    fn disk_models_report_their_range() {
        assert_eq!(UnitDisk::new(5.0).range(), 5.0);
        assert_eq!(UnitDisk::new(7.0).range(), 7.0);
    }

    /// A manifest's `distance_loss` is a unit disk under the
    /// [`DistanceLoss`] channel: near links survive more often than far
    /// ones.
    #[test]
    fn distance_loss_grows_with_distance() {
        let radio = UnitDisk::new(10.0);
        let channel = DistanceLoss::new(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let near = link_env(&radio, Point::new(1.0, 0.0), 0.0);
        let far = link_env(&radio, Point::new(9.5, 0.0), 0.0);
        let trials = 4000;
        let mut near_ok = 0;
        let mut far_ok = 0;
        for _ in 0..trials {
            near_ok += usize::from(channel.link(&mut rng, &near).received);
            far_ok += usize::from(channel.link(&mut rng, &far).received);
        }
        assert!(near_ok > far_ok, "near {near_ok} vs far {far_ok}");
        // out of range is never received
        let out = link_env(&radio, Point::new(20.0, 0.0), 0.0);
        assert_eq!(channel.link(&mut rng, &out), LinkOutcome::LOST);
    }
}
