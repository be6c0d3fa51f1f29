//! Undirected graph with set-based adjacency.
//!
//! A configuration of the distributed system has exactly one topology
//! (Section 2 of the paper); `Graph` is that topology. Communication links
//! in the model are oriented (u may hear v while v does not hear u), but the
//! GRP algorithm only ever *uses* symmetric links — asymmetric links are
//! filtered by the mark mechanism — so the substrate keeps an undirected
//! graph and lets the radio model of `netsim` introduce asymmetry explicitly
//! when needed.

use crate::id::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// An undirected graph over [`NodeId`]s with deterministic iteration order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph {
            adjacency: BTreeMap::new(),
        }
    }

    /// Graph containing `nodes` and no edges.
    pub fn with_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut g = Graph::new();
        for n in nodes {
            g.add_node(n);
        }
        g
    }

    /// Add an isolated node (no-op if it already exists).
    pub fn add_node(&mut self, node: NodeId) {
        self.adjacency.entry(node).or_default();
    }

    /// Bulk-build a graph from complete, sorted adjacency lists: the outer
    /// iterator ascends by node, each inner iterator ascends and names the
    /// node's full neighbourhood, and edges appear in both endpoints'
    /// lists. Neighbour lists stream straight into the BTree bulk build
    /// without intermediate vectors, which is substantially cheaper than
    /// per-edge `add_edge` inserts — this is the hot constructor of the
    /// spatial-index topology rebuild. The result is content-identical to
    /// the incremental build; debug builds assert the symmetry contract.
    pub fn from_sorted_adjacency_iter<I, N>(adjacency: I) -> Self
    where
        I: Iterator<Item = (NodeId, N)>,
        N: Iterator<Item = NodeId>,
    {
        let graph = Graph {
            adjacency: adjacency
                .map(|(node, neighbours)| {
                    let set: BTreeSet<NodeId> = neighbours.filter(|&n| n != node).collect();
                    (node, set)
                })
                .collect(),
        };
        debug_assert!(
            graph.adjacency.iter().all(|(&node, neighbours)| {
                neighbours.iter().all(|n| {
                    graph
                        .adjacency
                        .get(n)
                        .is_some_and(|back| back.contains(&node))
                })
            }),
            "adjacency lists must be symmetric"
        );
        graph
    }

    /// Remove a node and all its incident edges. Returns true if it existed.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        if self.adjacency.remove(&node).is_none() {
            return false;
        }
        for neighbours in self.adjacency.values_mut() {
            neighbours.remove(&node);
        }
        true
    }

    /// Add an undirected edge, inserting endpoints if necessary.
    /// Self-loops are ignored (the communication model has none).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            self.add_node(a);
            return;
        }
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
    }

    /// Remove an edge. Returns true if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let mut removed = false;
        if let Some(s) = self.adjacency.get_mut(&a) {
            removed |= s.remove(&b);
        }
        if let Some(s) = self.adjacency.get_mut(&b) {
            removed |= s.remove(&a);
        }
        removed
    }

    /// Does the graph contain this node?
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.adjacency.contains_key(&node)
    }

    /// Does the graph contain the undirected edge (a, b)?
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency
            .get(&a)
            .map(|s| s.contains(&b))
            .unwrap_or(false)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Iterator over nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency.keys().copied()
    }

    /// All nodes collected into a vector (ascending id order).
    pub fn node_vec(&self) -> Vec<NodeId> {
        self.nodes().collect()
    }

    /// Iterator over undirected edges, each reported once with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency.iter().flat_map(|(&a, nbrs)| {
            nbrs.iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Neighbours of a node (empty iterator if the node is absent).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency
            .get(&node)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Degree of a node (0 if absent).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency.get(&node).map(|s| s.len()).unwrap_or(0)
    }

    /// Average degree over all nodes (0 for the empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.node_count() as f64
    }

    /// Shortest-path distance in hops, `None` if unreachable or missing.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        crate::algo::bfs::distance(self, from, to)
    }

    /// Graph diameter (max finite eccentricity); `None` for an empty graph,
    /// and `None` if the graph is disconnected.
    pub fn diameter(&self) -> Option<usize> {
        crate::algo::diameter::diameter(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn add_edge_creates_endpoints() {
        let mut g = Graph::new();
        g.add_edge(n(1), n(2));
        assert!(g.contains_node(n(1)));
        assert!(g.contains_node(n(2)));
        assert!(g.contains_edge(n(1), n(2)));
        assert!(g.contains_edge(n(2), n(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = Graph::new();
        g.add_edge(n(1), n(1));
        assert!(g.contains_node(n(1)));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(n(1)), 0);
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let mut g = Graph::new();
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        assert!(g.remove_node(n(2)));
        assert!(!g.contains_edge(n(1), n(2)));
        assert!(!g.contains_edge(n(2), n(3)));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.remove_node(n(2)));
    }

    #[test]
    fn remove_edge_keeps_nodes() {
        let mut g = Graph::new();
        g.add_edge(n(1), n(2));
        assert!(g.remove_edge(n(1), n(2)));
        assert!(!g.remove_edge(n(1), n(2)));
        assert!(g.contains_node(n(1)));
        assert!(g.contains_node(n(2)));
    }

    #[test]
    fn edges_are_reported_once() {
        let mut g = Graph::new();
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.add_edge(n(1), n(3));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(n(1), n(2)), (n(1), n(3)), (n(2), n(3))]);
    }

    #[test]
    fn degree_and_mean_degree() {
        let mut g = Graph::new();
        g.add_edge(n(1), n(2));
        g.add_edge(n(1), n(3));
        assert_eq!(g.degree(n(1)), 2);
        assert_eq!(g.degree(n(2)), 1);
        assert_eq!(g.degree(n(99)), 0);
        assert!((g.mean_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distance_and_diameter_on_path() {
        let mut g = Graph::new();
        for i in 0..5 {
            g.add_edge(n(i), n(i + 1));
        }
        assert_eq!(g.distance(n(0), n(5)), Some(5));
        assert_eq!(g.distance(n(2), n(2)), Some(0));
        assert_eq!(g.diameter(), Some(5));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let mut g = Graph::new();
        g.add_edge(n(1), n(2));
        g.add_node(n(3));
        assert_eq!(g.distance(n(1), n(3)), None);
        assert_eq!(g.diameter(), None);
    }
}
