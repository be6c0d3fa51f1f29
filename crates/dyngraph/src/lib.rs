//! # dyngraph — dynamic graph substrate
//!
//! This crate provides the graph-theoretic substrate used by the GRP
//! reproduction: plain undirected graphs with set-based adjacency, the
//! topology events that move one configuration's graph to the next, the
//! distance and diameter computations the Dynamic Group Service
//! specification relies on (including distances restricted to an induced
//! subgraph, `d_X(u, v)`), topology generators used by the experiments, and
//! a `Partition` type with the disjointness/coverage checks needed by the
//! agreement predicate.
//!
//! The crate is intentionally dependency-light and deterministic: all
//! iteration orders are stable (BTree-based adjacency) so that simulations
//! and experiments are reproducible from a seed.
//!
//! ## Quick example
//!
//! ```
//! use dyngraph::{Graph, NodeId};
//!
//! let mut g = Graph::new();
//! let a = NodeId(1);
//! let b = NodeId(2);
//! let c = NodeId(3);
//! g.add_edge(a, b);
//! g.add_edge(b, c);
//! assert_eq!(g.distance(a, c), Some(2));
//! assert_eq!(g.diameter(), Some(2));
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod dynamic;
pub mod generators;
pub mod graph;
pub mod id;
pub mod partition;

pub use algo::bfs::{bfs_distances, bfs_order, distance};
pub use algo::components::{connected_components, is_connected, same_component};
pub use algo::diameter::{diameter, eccentricity, radius};
pub use algo::subgraph::{
    induced_subgraph, restricted_diameter, subgraph_diameter, subgraph_distance,
};
pub use dynamic::TopologyEvent;
pub use generators::GraphGenerator;
pub use graph::Graph;
pub use id::NodeId;
pub use partition::Partition;
