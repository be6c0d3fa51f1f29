//! The slot vocabulary shared by the whole engine.
//!
//! Every per-node array in this crate — the simulator's nodes, a mobility
//! model's positions, the per-node RNG stream columns, the spatial grid's
//! entries, the topology graph's rows — is ordered by ascending
//! [`NodeId`]; a node's index in such an array is its *slot*. Slot order
//! is therefore NodeId order, which is the canonical order of every trace:
//! determinism holds by construction, not by tree iteration. This module
//! holds what those arrays have in common: the id → slot lookup (shared
//! with `dyngraph`, whose graphs are slot-ordered too) and the slot-ordered
//! position table every mobility model stores and hands out.

use crate::space::Point;
pub use dyngraph::slot_of;
use dyngraph::NodeId;

/// "No slot": the id has no entry in the table in question.
pub const NO_SLOT: u32 = u32::MAX;

/// Slot-ordered view of node positions: `ids` ascends and `points[i]` is
/// the position of `ids[i]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Positions<'a> {
    ids: &'a [NodeId],
    points: &'a [Point],
}

impl<'a> Positions<'a> {
    /// View two parallel slices; the caller vouches that `ids` ascends
    /// strictly (a [`PositionTable`] does by construction).
    pub fn new(ids: &'a [NodeId], points: &'a [Point]) -> Self {
        assert_eq!(ids.len(), points.len(), "one point per id");
        Positions { ids, points }
    }

    /// The positioned ids, ascending.
    pub fn ids(&self) -> &'a [NodeId] {
        self.ids
    }

    /// The positions, in slot order.
    pub fn points(&self) -> &'a [Point] {
        self.points
    }

    /// Number of positioned nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is no node positioned?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// `(id, position)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Point)> + 'a {
        self.ids.iter().copied().zip(self.points.iter().copied())
    }

    /// Position of one node, if it has one.
    pub fn get(&self, id: NodeId) -> Option<Point> {
        slot_of(self.ids, id).map(|slot| self.points[slot])
    }
}

/// Owned slot-ordered positions: what a mobility model stores. Models with
/// further per-node state keep it in vectors parallel to this table. The
/// ids are fixed when the table is built — a spatial run's node set is the
/// mobility model's and lasts the whole run — and only the points move,
/// written in place through [`split_mut`](Self::split_mut).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PositionTable {
    ids: Vec<NodeId>,
    points: Vec<Point>,
}

impl FromIterator<(NodeId, Point)> for PositionTable {
    /// Any order in; a repeated id keeps its last position.
    fn from_iter<I: IntoIterator<Item = (NodeId, Point)>>(iter: I) -> Self {
        let mut pairs: Vec<(NodeId, Point)> = iter.into_iter().collect();
        pairs.sort_by_key(|&(id, _)| id);
        pairs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        let (ids, points) = pairs.into_iter().unzip();
        PositionTable { ids, points }
    }
}

impl PositionTable {
    /// The slot-ordered view handed to the simulator.
    pub fn view(&self) -> Positions<'_> {
        Positions::new(&self.ids, &self.points)
    }

    /// The ids beside their positions, the latter writable in place.
    pub fn split_mut(&mut self) -> (&[NodeId], &mut [Point]) {
        (&self.ids, &mut self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pts: &[(u64, f64, f64)]) -> PositionTable {
        pts.iter()
            .map(|&(id, x, y)| (NodeId(id), Point::new(x, y)))
            .collect()
    }

    #[test]
    fn slot_of_finds_contiguous_and_sparse_ids() {
        let dense: Vec<NodeId> = (0..5).map(NodeId).collect();
        assert_eq!(slot_of(&dense, NodeId(3)), Some(3));
        assert_eq!(slot_of(&dense, NodeId(5)), None);
        let sparse = [NodeId(1), NodeId(5), NodeId(7), NodeId(1_000_000)];
        assert_eq!(slot_of(&sparse, NodeId(1)), Some(0));
        assert_eq!(slot_of(&sparse, NodeId(1_000_000)), Some(3));
        assert_eq!(slot_of(&sparse, NodeId(2)), None);
    }

    #[test]
    fn position_table_sorts_and_tracks_slots() {
        let table = table(&[(7, 1.0, 1.0), (2, 0.0, 0.0), (7, 3.0, 3.0)]);
        assert_eq!(table.view().ids(), [NodeId(2), NodeId(7)]);
        assert_eq!(table.view().get(NodeId(7)), Some(Point::new(3.0, 3.0)));
        assert_eq!(table.view().get(NodeId(5)), None);
    }
}
