//! # dyngraph — dynamic graph substrate
//!
//! This crate provides the graph-theoretic substrate used by the GRP
//! reproduction: immutable undirected graphs in compressed sparse row form, the
//! topology events that move one configuration's graph to the next, the
//! distance and diameter computations the Dynamic Group Service
//! specification relies on (including distances restricted to an induced
//! subgraph, `d_X(u, v)`), and topology generators used by the experiments.
//!
//! The crate is intentionally dependency-light and deterministic: nodes
//! and every adjacency row are stored sorted, so all iteration orders are
//! a function of the graph alone and simulations and experiments are
//! reproducible from a seed.
//!
//! ## Quick example
//!
//! ```
//! use dyngraph::{Graph, NodeId, TopologyEvent};
//!
//! let a = NodeId(1);
//! let b = NodeId(2);
//! let c = NodeId(3);
//! let g = Graph::from_edges([], [(a, b), (b, c)]);
//! assert_eq!(g.distance(a, c), Some(2));
//! assert_eq!(g.diameter(), Some(2));
//! // a graph never changes in place: an event yields the next one
//! let g = g.apply(TopologyEvent::LinkUp(a, c));
//! assert_eq!(g.diameter(), Some(1));
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod dynamic;
pub mod generators;
pub mod graph;
pub mod id;

pub use algo::bfs::{bfs_distances, bfs_order, distance};
pub use algo::components::{connected_components, is_connected, same_component};
pub use algo::diameter::{diameter, eccentricity, radius};
pub use algo::subgraph::{
    induced_subgraph, restricted_diameter, subgraph_diameter, subgraph_distance,
};
pub use dynamic::TopologyEvent;
pub use generators::GraphGenerator;
pub use graph::Graph;
pub use id::{slot_of, NodeId};
