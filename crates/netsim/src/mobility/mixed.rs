//! Mixed stationary + highway mobility: roadside units along a convoy.
//!
//! A VANET is rarely vehicles-only: fixed roadside units (RSUs) line the
//! road and act as stable group anchors while the convoy streams past. This
//! model composes a [`Stationary`] line of RSUs with a [`Highway`] convoy:
//! RSUs take ids `0..n_roadside` and sit at regular intervals on the far
//! side of the road; vehicles take ids `n_roadside..n_roadside + n`.
//! Links between an RSU and the convoy churn at the full relative speed of
//! the vehicles — the mixed workload the paper's group service must ride
//! through — while RSU–RSU links (when in range) never move.

use super::{Highway, MobilityModel};
use crate::arena::{PositionTable, Positions};
use crate::rng::NodeStreams;
use crate::space::Point;
use dyngraph::NodeId;
use rand_chacha::ChaCha8Rng;

/// Roadside units interleaved with a highway convoy.
#[derive(Clone, Debug)]
pub struct MixedHighway {
    /// Ids below this are roadside units; at or above are vehicles. It is
    /// also the first vehicle's slot.
    first_vehicle: u64,
    /// The convoy, running with its own local ids `0..n`; public ids are
    /// shifted by `first_vehicle`.
    convoy: Highway,
    /// Every node's position, handed to the simulator: the roadside
    /// slots, then the convoy's (every RSU id sorts before every vehicle
    /// id). Built once; an advance rewrites the vehicle slots in place.
    table: PositionTable,
}

impl MixedHighway {
    /// `n_roadside` RSUs every `rsu_spacing` metres at `y = −rsu_setback`
    /// (just off the road), plus a [`Highway`] convoy of `n` vehicles —
    /// same parameters as [`Highway::new`]. RSUs repeat along the ring
    /// road, so the convoy is never out of infrastructure range for long.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n_roadside: usize,
        rsu_spacing: f64,
        rsu_setback: f64,
        n: usize,
        lanes: usize,
        road_length: f64,
        initial_gap: f64,
        speed_range: (f64, f64),
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let first_vehicle = n_roadside as u64;
        let convoy = Highway::new(n, lanes, road_length, initial_gap, speed_range, rng);
        let roadside = (0..n_roadside).map(|i| {
            let at = Point::new((i as f64 * rsu_spacing) % road_length, -rsu_setback);
            (NodeId(i as u64), at)
        });
        let vehicles = convoy.positions().iter();
        let table = roadside
            .chain(vehicles.map(|(id, p)| (NodeId(id.raw() + first_vehicle), p)))
            .collect();
        MixedHighway {
            first_vehicle,
            convoy,
            table,
        }
    }
}

impl MobilityModel for MixedHighway {
    fn positions(&self) -> Positions<'_> {
        self.table.view()
    }

    fn advance(&mut self, dt: u64, streams: &mut NodeStreams) {
        // address the convoy's streams by the public vehicle slots and ids
        let first_slot = self.first_vehicle as usize;
        self.convoy
            .advance_offset(dt, streams, first_slot, self.first_vehicle);
        let (_, points) = self.table.split_mut();
        points[first_slot..].copy_from_slice(self.convoy.positions().points());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mixed(seed: u64) -> MixedHighway {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        MixedHighway::new(4, 250.0, 8.0, 6, 2, 1000.0, 25.0, (0.5, 1.0), &mut rng)
    }

    #[test]
    fn id_spaces_are_disjoint_and_complete() {
        let m = mixed(1);
        assert_eq!(m.positions().ids(), (0..10).map(NodeId).collect::<Vec<_>>());
        assert_eq!(m.first_vehicle, 4);
        let (roadside, vehicles) = m.positions().points().split_at(4);
        assert!(roadside.iter().all(|p| p.y == -8.0), "RSUs take ids 0..4");
        assert_eq!(vehicles, m.convoy.positions().points(), "vehicles 4..10");
    }

    #[test]
    fn rsus_stay_put_while_the_convoy_moves() {
        let mut m = mixed(2);
        let rsu_before = m.positions().get(NodeId(0)).unwrap();
        let veh_before = m.positions().get(NodeId(7)).unwrap();
        m.advance(200, &mut NodeStreams::new(9));
        assert_eq!(m.positions().get(NodeId(0)).unwrap(), rsu_before);
        assert_ne!(m.positions().get(NodeId(7)).unwrap(), veh_before);
    }

    #[test]
    fn rsus_sit_off_the_road() {
        let m = mixed(3);
        for i in 0..4u64 {
            assert_eq!(m.positions().get(NodeId(i)).unwrap().y, -8.0);
        }
        for i in 4..10u64 {
            assert!(
                m.positions().get(NodeId(i)).unwrap().y >= 0.0,
                "lanes are at y >= 0"
            );
        }
    }
}
