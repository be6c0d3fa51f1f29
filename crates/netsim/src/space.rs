//! Two-dimensional Euclidean space in which the nodes move, and the
//! uniform-grid spatial index used to make neighbour discovery O(n · k).

use crate::arena::{Positions, NO_SLOT};
use dyngraph::{Graph, NodeId};
use std::ops::Range;

/// A position in the plane (metres, but the unit is arbitrary).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Move `step` towards `target`, stopping exactly at the target when it
    /// is closer than `step`.
    pub fn step_towards(&self, target: &Point, step: f64) -> Point {
        let d = self.distance(target);
        if d <= step || d == 0.0 {
            return *target;
        }
        let ratio = step / d;
        Point {
            x: self.x + (target.x - self.x) * ratio,
            y: self.y + (target.y - self.y) * ratio,
        }
    }

    /// Clamp the point into the rectangle [0, width] × [0, height].
    pub fn clamp_to(&self, width: f64, height: f64) -> Point {
        Point {
            x: self.x.clamp(0.0, width),
            y: self.y.clamp(0.0, height),
        }
    }
}

/// Cell coordinates of a point.
type Cell = (i64, i64);

/// Cell coordinates of `p` on a uniform grid of square cells with side
/// `cell_size` — the bucketing convention shared by [`SpatialGrid`] and the
/// contention channel model ([`crate::channel::Contention`]), so both see
/// the same neighbourhoods.
///
/// ```
/// use netsim::space::{cell_index, Point};
/// assert_eq!(cell_index(10.0, Point::new(35.0, -0.1)), (3, -1));
/// ```
pub fn cell_index(cell_size: f64, p: Point) -> Cell {
    (
        (p.x / cell_size).floor() as i64,
        (p.y / cell_size).floor() as i64,
    )
}

/// Buffers the per-tick grid operations reuse instead of allocating.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Accepted pairs of the last topology rebuild.
    pairs: Vec<(u32, u32)>,
    /// Slots that changed cell during a sync, keyed by their new cell.
    moved: Vec<(Cell, u32)>,
    /// Every slot keyed by its cell, sorted: what the buckets are indexed
    /// from.
    sorted: Vec<(Cell, u32)>,
}

/// A uniform-grid spatial hash over node positions.
///
/// Nodes are bucketed into square cells of side `cell_size`; every pair of
/// nodes within distance `r` of each other lies in cells whose indices
/// differ by at most `ceil(r / cell_size)` on each axis, so range queries
/// only visit a constant-size neighbourhood of cells instead of all nodes.
///
/// The nodes live in slot order and the cells are flat arrays sorted by
/// cell then slot: the *entries* list every slot (and its position) so
/// that a cell's bucket is a contiguous, slot-ascending run, and the
/// occupied cells ascend with the buckets. The pair loop reaches a cell's
/// neighbour cells with cursors that only move forward over the buckets —
/// no keyed lookup — and memory is O(nodes) whatever box the coordinates
/// span. One node's neighbourhood is also answerable on its own
/// ([`query_neighbors`](Self::query_neighbors)), by galloping outward from
/// the node's bucket. The grid remembers the positions it was last
/// synchronised with, which enables two things the simulator relies on:
///
/// * [`SpatialGrid::sync`] updates incrementally — a steady-state tick is
///   a zip over two slices with in-place position writes, and the nodes
///   that crossed a cell boundary are merged back into the sorted entries
///   in one pass — and reports whether anything changed, so a stationary
///   tick leaves the topology as it is;
/// * entry order is a pure function of the positions, so every result (and
///   downstream trace digest) is independent of update history.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    cell_size: f64,
    /// The indexed nodes, ascending: `ids[slot]`.
    ids: Vec<NodeId>,
    /// `points[slot]`, as of the last sync.
    points: Vec<Point>,
    /// `cell_of[slot]`, the cell `points[slot]` falls in.
    cell_of: Vec<Cell>,
    /// Every slot, sorted by cell then slot.
    entry_slots: Vec<u32>,
    /// `points` in entry order: `entry_points[i]` is where
    /// `entry_slots[i]` stands, so a bucket scan reads contiguous memory.
    entry_points: Vec<Point>,
    /// Bucket `k` is entries `starts[k]..starts[k + 1]`; one trailing
    /// entry holds the entry count.
    starts: Vec<u32>,
    /// `cells[k]`, the cell of bucket `k`: the occupied cells, ascending,
    /// in one compact array for searches to probe.
    cells: Vec<Cell>,
    /// `bucket_of[slot]`: the bucket holding the slot, where a query
    /// starts its search, and the slot's entry index.
    bucket_of: Vec<(u32, u32)>,
    /// Occupied buckets per column of the occupied span, rounded down:
    /// how far a query guesses the next column's window lies.
    stride: usize,
    scratch: Scratch,
}

impl PartialEq for SpatialGrid {
    fn eq(&self, other: &Self) -> bool {
        // scratch is derived state, not identity
        self.cell_size == other.cell_size
            && self.ids == other.ids
            && self.points == other.points
            && self.entry_slots == other.entry_slots
            && self.cells == other.cells
            && self.starts == other.starts
    }
}

impl SpatialGrid {
    /// An empty grid with the given cell side. The caller must pass a
    /// finite, strictly positive size (the radio range is the natural
    /// choice: then one ring of neighbouring cells covers the vicinity).
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be finite and positive, got {cell_size}"
        );
        SpatialGrid {
            cell_size,
            ids: Vec::new(),
            points: Vec::new(),
            cell_of: Vec::new(),
            entry_slots: Vec::new(),
            entry_points: Vec::new(),
            starts: vec![0],
            cells: Vec::new(),
            bucket_of: Vec::new(),
            stride: 0,
            scratch: Scratch::default(),
        }
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the grid empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed nodes and their positions, in slot order.
    pub fn positions(&self) -> Positions<'_> {
        Positions::new(&self.ids, &self.points)
    }

    /// Recompute the entries, the buckets and `bucket_of` from
    /// `scratch.sorted` and `points`.
    fn index_buckets(&mut self) {
        let sorted = &self.scratch.sorted;
        self.entry_slots.clear();
        self.entry_slots
            .extend(sorted.iter().map(|&(_, slot)| slot));
        self.entry_points.clear();
        let points = sorted.iter().map(|&(_, slot)| self.points[slot as usize]);
        self.entry_points.extend(points);
        self.starts.clear();
        self.cells.clear();
        self.bucket_of.resize(sorted.len(), (0, 0));
        for (i, &(cell, slot)) in sorted.iter().enumerate() {
            if self.cells.last() != Some(&cell) {
                self.starts.push(i as u32);
                self.cells.push(cell);
            }
            self.bucket_of[slot as usize] = (self.cells.len() as u32 - 1, i as u32);
        }
        self.starts.push(sorted.len() as u32);
        self.stride = match (self.cells.first(), self.cells.last()) {
            (Some(first), Some(last)) => {
                let columns = last.0.abs_diff(first.0).saturating_add(1);
                usize::try_from(self.cells.len() as u64 / columns).unwrap_or(0)
            }
            _ => 0,
        };
    }

    /// Drop everything and re-index `positions` from scratch.
    pub fn rebuild(&mut self, positions: Positions<'_>) {
        assert!(
            positions.len() < NO_SLOT as usize,
            "spatial grid indexes fewer than u32::MAX nodes"
        );
        let cell_size = self.cell_size;
        self.ids.clear();
        self.ids.extend_from_slice(positions.ids());
        self.points.clear();
        self.points.extend_from_slice(positions.points());
        self.cell_of.clear();
        self.cell_of
            .extend(self.points.iter().map(|&p| cell_index(cell_size, p)));
        let sorted = &mut self.scratch.sorted;
        sorted.clear();
        sorted.extend(self.cell_of.iter().copied().zip(0u32..));
        sorted.sort_unstable();
        self.index_buckets();
    }

    /// Bring the grid in line with `positions` and report whether any
    /// position differed from the tracked state (i.e. the topology may
    /// have changed); `false` means the tick was a guaranteed no-op.
    ///
    /// The steady-state case — identical node set, some nodes moved — is a
    /// zip over the two point slices; the nodes that crossed a cell
    /// boundary are then merged back into place in one pass over the
    /// entries. Node churn (join/leave) re-indexes from scratch.
    pub fn sync(&mut self, positions: Positions<'_>) -> bool {
        if self.ids != positions.ids() {
            self.rebuild(positions);
            return true;
        }
        let cell_size = self.cell_size;
        let mut changed = false;
        let mut moved = std::mem::take(&mut self.scratch.moved);
        moved.clear();
        let tracked = self.points.iter_mut().zip(&mut self.cell_of);
        for (slot, ((old, cell), &new)) in tracked.zip(positions.points()).enumerate() {
            if *old != new {
                *old = new;
                changed = true;
                let to = cell_index(cell_size, new);
                if *cell != to {
                    *cell = to;
                    moved.push((to, slot as u32));
                } else {
                    let (_, entry) = self.bucket_of[slot];
                    self.entry_points[entry as usize] = new;
                }
            }
        }
        if !moved.is_empty() {
            moved.sort_unstable();
            let merged = &mut self.scratch.sorted;
            merged.clear();
            let mut arriving = moved.iter().copied().peekable();
            for (k, &cell) in self.cells.iter().enumerate() {
                let run = self.starts[k] as usize..self.starts[k + 1] as usize;
                for &slot in &self.entry_slots[run] {
                    if self.cell_of[slot as usize] != cell {
                        continue; // the slot left this cell
                    }
                    let entry = (cell, slot);
                    while let Some(next) = arriving.next_if(|&next| next < entry) {
                        merged.push(next);
                    }
                    merged.push(entry);
                }
            }
            merged.extend(arriving);
            self.index_buckets();
        }
        self.scratch.moved = moved;
        changed
    }

    /// How many cells a radius spans on each axis (at least one).
    fn reach(&self, radius: f64) -> i64 {
        ((radius / self.cell_size).ceil() as i64).max(1)
    }

    /// The first bucket whose cell is not below `target` (the bucket count
    /// when there is none), found by galloping from bucket `from` in
    /// whichever direction the answer lies and then bisecting the last
    /// stride: O(log d) probes for an answer `d` buckets away, all near
    /// `from`, where a search over every bucket would touch cold memory.
    fn seek(&self, from: usize, target: Cell) -> usize {
        let cells = &self.cells;
        let from = from.min(cells.len());
        // the answer lies in lo..=hi
        let (lo, hi) = if from < cells.len() && cells[from] < target {
            let (mut lo, mut step) = (from + 1, 1);
            let hi = loop {
                let probe = from + step;
                if probe >= cells.len() {
                    break cells.len();
                }
                if cells[probe] >= target {
                    break probe;
                }
                lo = probe + 1;
                step *= 2;
            };
            (lo, hi)
        } else {
            let (mut hi, mut step) = (from, 1);
            let lo = loop {
                if step > from {
                    break 0;
                }
                let probe = from - step;
                if cells[probe] < target {
                    break probe + 1;
                }
                hi = probe;
                step *= 2;
            };
            (lo, hi)
        };
        lo + cells[lo..hi].partition_point(|&cell| cell < target)
    }

    /// The neighbours of `slot` within `radius` under `accept`, answered
    /// from the cells alone: every other slot of the cells within
    /// `ceil(radius / cell_size)` rings of `slot`'s cell for which
    /// `accept(position of slot, its position)` holds, into `found` as
    /// `(slot, position)`, ascending by slot. Given the radius and the
    /// symmetric predicate [`rebuild_topology`](Self::rebuild_topology)
    /// is given, that is exactly the row of `slot` in the graph it builds,
    /// in the same order, without building the graph. `found` is cleared
    /// first and left empty for an unknown slot.
    ///
    /// The occupied columns in reach are visited in order. Each column's
    /// window of rows is found by galloping from `slot`'s own bucket,
    /// shifted by one column's worth of buckets per column away, so the
    /// probes stay near the answer.
    pub fn query_neighbors(
        &self,
        slot: usize,
        radius: f64,
        mut accept: impl FnMut(Point, Point) -> bool,
        found: &mut Vec<(u32, Point)>,
    ) {
        found.clear();
        let Some(&(home, entry)) = self.bucket_of.get(slot) else {
            return;
        };
        let here = self.entry_points[entry as usize];
        let (cx, cy) = self.cells[home as usize];
        let reach = self.reach(radius);
        let (low, high) = (cy.saturating_sub(reach), cy.saturating_add(reach));
        let last = cx.saturating_add(reach);
        let guess = |column: i64| {
            let shift = column.saturating_sub(cx).saturating_mul(self.stride as i64);
            (home as i64).saturating_add(shift).max(0) as usize
        };
        let first = cx.saturating_sub(reach);
        let mut k = self.seek(guess(first), (first, low));
        while let Some(&(column, row)) = self.cells.get(k) {
            if column > last {
                break;
            }
            if row < low {
                k = self.seek(k, (column, low));
                continue;
            }
            if row > high {
                match column.checked_add(1) {
                    Some(next) if column < last => k = self.seek(guess(next), (next, low)),
                    _ => break,
                }
                continue;
            }
            let run = self.starts[k] as usize..self.starts[k + 1] as usize;
            let entries = self.entry_slots[run.clone()].iter();
            for (&other, &at) in entries.zip(&self.entry_points[run]) {
                if other as usize != slot && accept(here, at) {
                    found.push((other, at));
                }
            }
            k += 1;
        }
        found.sort_unstable_by_key(|&(other, _)| other);
    }

    /// Visit every unordered candidate *slot* pair exactly once: all pairs
    /// co-located in a cell neighbourhood of `ceil(radius / cell_size)`
    /// rings. Pairs farther apart than `radius` may be visited (the caller
    /// re-checks distances); pairs within `radius` are never missed.
    fn for_each_candidate_slot_pair<F: FnMut(u32, Point, u32, Point)>(
        &self,
        radius: f64,
        mut f: F,
    ) {
        let buckets = self.cells.len();
        if buckets == 0 {
            return;
        }
        let key = |k: usize| self.cells[k];
        let bucket = |k: usize| self.starts[k] as usize..self.starts[k + 1] as usize;
        let (slots, points) = (&self.entry_slots, &self.entry_points);
        let mut cross = |here: Range<usize>, there: Range<usize>| {
            for (&a, &pa) in slots[here.clone()].iter().zip(&points[here]) {
                for (&b, &pb) in slots[there.clone()].iter().zip(&points[there.clone()]) {
                    f(a, pa, b, pb);
                }
            }
        };
        let reach = self.reach(radius);
        // Each pair is visited from its earlier cell, so only "later"
        // cells are paired: the rows above in this column, and the rows
        // within reach in the next `reach` columns. Cells ascend by
        // (column, row), so the first cell of each such window only ever
        // moves forward as the walk proceeds: one cursor per column offset
        // (none past the last occupied column).
        let span = key(buckets - 1).0.saturating_sub(key(0).0);
        let mut cursors = vec![0usize; reach.min(span) as usize];
        for k in 0..buckets {
            let (cx, cy) = key(k);
            let here = bucket(k);
            for a in here.clone() {
                cross(a..a + 1, a + 1..here.end);
            }
            let mut j = k + 1;
            while j < buckets && key(j).0 == cx && key(j).1.saturating_sub(cy) <= reach {
                cross(here.clone(), bucket(j));
                j += 1;
            }
            let (low, high) = (cy.saturating_sub(reach), cy.saturating_add(reach));
            for (dx, cursor) in (1i64..).zip(&mut cursors) {
                let Some(column) = cx.checked_add(dx) else {
                    break;
                };
                while *cursor < buckets && key(*cursor) < (column, low) {
                    *cursor += 1;
                }
                let mut j = *cursor;
                while j < buckets && key(j) <= (column, high) {
                    cross(here.clone(), bucket(j));
                    j += 1;
                }
            }
        }
    }

    /// The symmetric-link topology over the indexed nodes: an edge is
    /// present when `accept(pa, pb)` holds for the candidate pair. Grid
    /// slot is graph slot (both ascend by NodeId), so the accepted slot
    /// pairs go straight into [`Graph::from_slot_pairs`] — no global edge
    /// sort, and the result is content-identical to what a brute-force
    /// all-pairs scan with the same accept predicate produces. The
    /// simulator calls this once per observation boundary, not once per
    /// mobility tick.
    pub fn rebuild_topology(
        &mut self,
        radius: f64,
        mut accept: impl FnMut(Point, Point) -> bool,
    ) -> Graph {
        let mut pairs = std::mem::take(&mut self.scratch.pairs);
        pairs.clear();
        self.for_each_candidate_slot_pair(radius, |a, pa, b, pb| {
            if accept(pa, pb) {
                pairs.push((a, b));
            }
        });
        let graph = Graph::from_slot_pairs(self.ids.clone(), &pairs);
        self.scratch.pairs = pairs;
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PositionTable;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn step_towards_moves_and_stops_at_target() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let mid = a.step_towards(&b, 4.0);
        assert!((mid.x - 4.0).abs() < 1e-12);
        let there = a.step_towards(&b, 50.0);
        assert_eq!(there, b);
        // zero distance: stays put
        assert_eq!(a.step_towards(&a, 1.0), a);
    }

    #[test]
    fn clamp_keeps_point_in_bounds() {
        let p = Point::new(-3.0, 12.0).clamp_to(10.0, 10.0);
        assert_eq!(p, Point::new(0.0, 10.0));
    }

    fn grid_positions(pts: &[(u64, f64, f64)]) -> PositionTable {
        pts.iter()
            .map(|&(id, x, y)| (NodeId(id), Point::new(x, y)))
            .collect()
    }

    fn candidate_pairs(grid: &SpatialGrid, radius: f64) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::new();
        grid.for_each_candidate_slot_pair(radius, |a, _, b, _| {
            let (a, b) = (grid.ids[a as usize], grid.ids[b as usize]);
            pairs.push((a.min(b), a.max(b)));
        });
        pairs.sort();
        pairs
    }

    #[test]
    fn grid_covers_all_close_pairs_exactly_once() {
        let pos = grid_positions(&[
            (1, 0.5, 0.5),
            (2, 0.6, 0.6),   // same cell as 1
            (3, 1.5, 0.5),   // adjacent cell
            (4, 10.0, 10.0), // far away
        ]);
        let mut grid = SpatialGrid::new(1.0);
        grid.rebuild(pos.view());
        let pairs = candidate_pairs(&grid, 1.0);
        assert!(pairs.contains(&(NodeId(1), NodeId(2))));
        assert!(pairs.contains(&(NodeId(1), NodeId(3))));
        assert!(pairs.contains(&(NodeId(2), NodeId(3))));
        assert!(!pairs.iter().any(|&(a, b)| a == NodeId(4) || b == NodeId(4)));
        // uniqueness
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(pairs, dedup);
    }

    #[test]
    fn sync_reports_changes_and_matches_rebuild() {
        let mut pos = grid_positions(&[(1, 0.0, 0.0), (2, 5.0, 5.0), (3, 9.0, 1.0)]);
        let mut grid = SpatialGrid::new(2.5);
        assert!(grid.sync(pos.view()), "first sync populates the grid");
        assert!(!grid.sync(pos.view()), "unchanged positions are a no-op");

        // move one node across a cell boundary: the incremental path
        let _ = pos.upsert(NodeId(1), Point::new(4.9, 0.0));
        assert!(grid.sync(pos.view()));
        let mut fresh = SpatialGrid::new(2.5);
        fresh.rebuild(pos.view());
        assert_eq!(grid, fresh, "incremental sync equals a full rebuild");

        // drop one, add one: churn re-indexes
        pos.remove(NodeId(2));
        let _ = pos.upsert(NodeId(7), Point::new(1.0, 8.0));
        assert!(grid.sync(pos.view()));
        fresh.rebuild(pos.view());
        assert_eq!(grid, fresh);
    }

    #[test]
    fn sync_detects_intra_cell_moves() {
        let mut pos = grid_positions(&[(1, 0.1, 0.1)]);
        let mut grid = SpatialGrid::new(100.0);
        grid.sync(pos.view());
        let _ = pos.upsert(NodeId(1), Point::new(0.2, 0.1)); // same cell, new position
        assert!(
            grid.sync(pos.view()),
            "a move within a cell still changes positions"
        );
        assert_eq!(grid.positions().get(NodeId(1)), Some(Point::new(0.2, 0.1)));
        assert_eq!(grid.positions().get(NodeId(9)), None);
    }

    #[test]
    fn rebuild_topology_equals_pairwise_filter() {
        let pos = grid_positions(&[(1, 0.0, 0.0), (2, 3.0, 0.0), (3, 3.0, 3.5), (4, 50.0, 50.0)]);
        let mut grid = SpatialGrid::new(4.0);
        grid.rebuild(pos.view());
        let g = grid.rebuild_topology(4.0, |a, b| a.distance(&b) <= 4.0);
        assert!(g.contains_edge(NodeId(1), NodeId(2)));
        assert!(g.contains_edge(NodeId(2), NodeId(3)));
        assert!(!g.contains_edge(NodeId(1), NodeId(3))); // distance ~4.6
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn reach_scales_with_radius_over_cell_size() {
        // radius 3 with cell size 1: candidates must span 3 rings
        let pos = grid_positions(&[(1, 0.5, 0.5), (2, 3.4, 0.5)]);
        let mut grid = SpatialGrid::new(1.0);
        grid.rebuild(pos.view());
        let pairs = candidate_pairs(&grid, 3.0);
        assert_eq!(pairs, vec![(NodeId(1), NodeId(2))]);
    }

    /// The guard against a bounding-box-sized cell table: two clusters
    /// 10⁹ units apart span ~10¹⁸ cells of side 1, and the grid still
    /// stores one entry per node and one boundary per occupied cell.
    #[test]
    fn cell_storage_is_linear_in_nodes_not_in_the_bounding_box() {
        let far = 1.0e9;
        let pos: PositionTable = (0..40u64)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { far };
                (
                    NodeId(i),
                    Point::new(base + i as f64 * 0.3, base - i as f64 * 0.3),
                )
            })
            .collect();
        let mut grid = SpatialGrid::new(1.0);
        grid.rebuild(pos.view());
        assert_eq!(grid.entry_slots.len(), 40);
        assert_eq!(grid.entry_points.len(), 40);
        assert_eq!(grid.bucket_of.len(), 40);
        assert!(grid.cells.len() <= 40);
        assert!(grid.starts.len() <= 41);
        assert_eq!(grid.cell_of.len(), 40);
        let g = grid.rebuild_topology(1.0, |a, b| a.distance(&b) <= 1.0);
        assert!(g.contains_edge(NodeId(0), NodeId(2)), "0.85 apart");
        assert!(g.contains_edge(NodeId(1), NodeId(3)));
        assert!(!g.contains_edge(NodeId(0), NodeId(1)), "a billion apart");
    }
}
