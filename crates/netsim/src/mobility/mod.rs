//! Mobility models.
//!
//! A mobility model owns the node positions — one slot-ordered
//! [`PositionTable`](crate::arena::PositionTable), with any further
//! per-node state in vectors parallel to it — and advances them by a time
//! step; the simulator then asks the radio for the implied topology. The
//! node set is the one the model is built with and is fixed for the run:
//! nodes join and leave only in explicit-topology mode (a manifest's
//! `[[churn]]`), and a crash fault silences a node without removing it.
//! Six models are provided:
//!
//! * [`Stationary`] — nodes never move (fixed topologies / stabilization
//!   experiments);
//! * [`RandomWaypoint`] — the classical MANET benchmark model;
//! * [`RandomWalk`] — independent bounded random steps;
//! * [`Highway`] — a VANET-style convoy: lanes of vehicles with per-vehicle
//!   speeds on a one-dimensional road, the emblematic scenario that
//!   motivates the Dynamic Group Service;
//! * [`CityGrid`] — Manhattan streets with a two-phase traffic-light cycle
//!   producing platooning waves at intersections;
//! * [`MixedHighway`] — fixed roadside units composed with a [`Highway`]
//!   convoy streaming past them.

mod city_grid;
mod highway;
mod mixed;
mod stationary;
mod walk;
mod waypoint;

pub use city_grid::CityGrid;
pub use highway::Highway;
pub use mixed::MixedHighway;
pub use stationary::Stationary;
pub use walk::RandomWalk;
pub use waypoint::RandomWaypoint;

use crate::arena::Positions;
use crate::rng::NodeStreams;
use crate::space::Point;
use rand_chacha::ChaCha8Rng;

/// A model that owns and advances node positions; it moves its nodes but
/// never adds or removes one.
pub trait MobilityModel {
    /// Current position of every node, in slot (ascending NodeId) order.
    fn positions(&self) -> Positions<'_>;

    /// Advance all positions by `dt` ticks. Every draw a node's motion
    /// needs must come from that node's own
    /// [`StreamTag::Mobility`](crate::rng::StreamTag::Mobility) stream —
    /// addressed by the node's slot in [`positions`](Self::positions) — so
    /// a trajectory is a pure function of `(run_seed, node_id)` and the
    /// model's deterministic state, never of how many *other* nodes exist
    /// or move.
    fn advance(&mut self, dt: u64, streams: &mut NodeStreams);
}

/// Helper shared by the models: uniformly random point in a rectangle.
pub(crate) fn random_point(rng: &mut ChaCha8Rng, width: f64, height: f64) -> Point {
    use rand::Rng;
    Point::new(rng.gen_range(0.0..=width), rng.gen_range(0.0..=height))
}
