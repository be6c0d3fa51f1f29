//! Property tests for the spatial-hash neighbour discovery: the flat-cell
//! grid must be observationally identical to the brute-force all-pairs scan
//! for arbitrary position sets, radii and cell sizes — negative
//! coordinates, cells much smaller than the radius, coincident nodes and
//! clusters a billion units apart included — and incremental `sync` must
//! leave the grid in exactly the state a from-scratch rebuild produces.
//! The per-node neighbour query must return, for every node, exactly the
//! graph's row, in the same order, with the tracked positions.

use dyngraph::{Graph, NodeId};
use netsim::radio::UnitDisk;
use netsim::space::SpatialGrid;
use netsim::Point;
use netsim::{PositionTable, Positions};
use proptest::prelude::*;

/// The brute-force oracle: every pair of positions, linked when each is in
/// the other's vicinity.
fn all_pairs(radio: &UnitDisk, positions: Positions<'_>) -> Graph {
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

/// For every slot: the grid query equals the brute-force graph's row, slot
/// for slot, and each returned position is the one the grid tracks for
/// that slot.
fn assert_queries_equal_rows(
    grid: &SpatialGrid,
    range: f64,
    brute: &Graph,
) -> Result<(), TestCaseError> {
    let radio = UnitDisk::new(range);
    let linked = |a, b| radio.in_vicinity(a, b) && radio.in_vicinity(b, a);
    let points = grid.points();
    let mut found = Vec::new();
    for (slot, &node) in brute.ids().iter().enumerate() {
        grid.query_neighbors(slot, range, linked, &mut found);
        let slots: Vec<u32> = found.iter().map(|&(j, _)| j).collect();
        prop_assert_eq!(
            &slots[..],
            brute.row(slot),
            "query ≠ all-pairs row of {:?}",
            node
        );
        for &(j, at) in &found {
            prop_assert_eq!(at, points[j as usize], "stale position for slot {}", j);
        }
    }
    grid.query_neighbors(points.len(), range, linked, &mut found);
    prop_assert!(found.is_empty(), "an unknown slot has no neighbours");
    Ok(())
}

fn positions_of(pts: impl IntoIterator<Item = (f64, f64)>) -> PositionTable {
    pts.into_iter()
        .enumerate()
        .map(|(i, (x, y))| (NodeId(i as u64), Point::new(x, y)))
        .collect()
}

/// Grid topology ≡ all-pairs topology, slot for slot, and the per-node
/// query agrees with its rows.
fn assert_grid_equals_brute_force(
    pos: &PositionTable,
    range: f64,
    cell: f64,
) -> Result<(), TestCaseError> {
    let radio = UnitDisk::new(range);
    let brute = all_pairs(&radio, pos.view());
    let mut grid = SpatialGrid::new(cell);
    grid.rebuild(pos.view().points());
    let via_grid = grid.rebuild_topology(pos.view().ids(), range, |a, b| {
        radio.in_vicinity(a, b) && radio.in_vicinity(b, a)
    });
    prop_assert_eq!(&brute, &via_grid);
    assert_queries_equal_rows(&grid, range, &brute)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random position sets on both sides of the origin, across cell sizes
    /// decoupled from the radio range: from a tenth of it (reach 10) to
    /// three times it.
    #[test]
    fn grid_topology_equals_brute_force(
        pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..70),
        range in 1.0f64..60.0,
        cell_scale in 0.1f64..3.0,
    ) {
        assert_grid_equals_brute_force(&positions_of(pts), range, range * cell_scale)?;
    }

    /// Coincident nodes: every node sits on one of a few shared points, so
    /// buckets hold duplicates and zero-distance pairs.
    #[test]
    fn duplicate_positions_are_all_linked(
        sites in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..6),
        picks in proptest::collection::vec(0usize..6, 2..40),
        range in 0.5f64..15.0,
        cell_scale in 0.4f64..2.0,
    ) {
        let pts = picks.iter().map(|&i| sites[i % sites.len()]);
        assert_grid_equals_brute_force(&positions_of(pts), range, range * cell_scale)?;
    }

    /// Two clusters 10⁹ units apart: cell coordinates span a box no dense
    /// table could cover, and links never cross the gap.
    #[test]
    fn far_apart_clusters_stay_separate(
        near in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..25),
        far in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..25),
        range in 2.0f64..20.0,
        cell_scale in 0.4f64..2.0,
    ) {
        let gap = 1.0e9;
        let split = near.len() as u64;
        let pts = near.into_iter().chain(far.into_iter().map(|(x, y)| (x + gap, y - gap)));
        let pos = positions_of(pts);
        assert_grid_equals_brute_force(&pos, range, range * cell_scale)?;
        let g = all_pairs(&UnitDisk::new(range), pos.view());
        for (a, b) in g.edges() {
            prop_assert_eq!(a.raw() < split, b.raw() < split, "edge {:?}-{:?} spans the gap", a, b);
        }
    }

    /// A chain of incremental syncs (moves of varying amplitude, including
    /// cell-boundary crossings and excursions below zero) leaves the grid
    /// equal to a from-scratch rebuild, and its topology and per-node
    /// queries equal to brute force, at every step.
    #[test]
    fn incremental_sync_matches_fresh_rebuild(
        pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..40),
        steps in proptest::collection::vec(
            proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..40),
            1..6,
        ),
        cell in 2.0f64..40.0,
        range in 2.0f64..40.0,
    ) {
        let mut pos = positions_of(pts);
        let radio = UnitDisk::new(range);
        let mut grid = SpatialGrid::new(cell);
        grid.rebuild(pos.view().points());
        for deltas in steps {
            let (_, points) = pos.split_mut();
            for (i, (dx, dy)) in deltas.iter().enumerate() {
                let p = &mut points[i % points.len()];
                *p = Point::new((p.x + dx).clamp(-50.0, 50.0), (p.y + dy).clamp(-50.0, 50.0));
            }
            grid.sync(pos.view().points());
            let mut fresh = SpatialGrid::new(cell);
            fresh.rebuild(pos.view().points());
            prop_assert_eq!(&grid, &fresh, "synced grid diverged from rebuild");
            let incremental = grid.rebuild_topology(pos.view().ids(), range, |a, b| {
                radio.in_vicinity(a, b) && radio.in_vicinity(b, a)
            });
            let brute = all_pairs(&radio, pos.view());
            prop_assert_eq!(&incremental, &brute);
            assert_queries_equal_rows(&grid, range, &brute)?;
        }
    }
}
