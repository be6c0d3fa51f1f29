//! Undirected graph in compressed sparse row (CSR) form.
//!
//! A configuration of the distributed system has exactly one topology
//! (Section 2 of the paper); `Graph` is that topology. Communication links
//! in the model are oriented (u may hear v while v does not hear u), but the
//! GRP algorithm only ever *uses* symmetric links — asymmetric links are
//! filtered by the mark mechanism — so the substrate keeps an undirected
//! graph; `netsim`'s unit-disk radio is symmetric, so no link is lost.
//!
//! A graph is immutable once built. Its nodes ascend, and a node's index
//! among them is its *slot*; each node's row lists its neighbours' slots,
//! ascending. Slot order is NodeId order, so every iteration order is a
//! function of the graph alone.

use crate::dynamic::TopologyEvent;
use crate::id::{slot_of, NodeId};

/// An undirected graph over [`NodeId`]s with deterministic iteration order.
///
/// Rows ascend and hold no duplicates or self-loops, so two graphs are
/// equal exactly when they have the same nodes and edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// The nodes, ascending: `ids[slot]`.
    ids: Vec<NodeId>,
    /// Slot `i`'s row is `targets[offsets[i]..offsets[i + 1]]`; n + 1
    /// entries.
    offsets: Vec<u32>,
    /// Every row's neighbour slots, row after row.
    targets: Vec<u32>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            ids: Vec::new(),
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// The graph over `nodes` and the endpoints of `edges`, linked by
    /// `edges`. Repeated edges (in either orientation) count once and
    /// self-loops only insert their node: the communication model has
    /// neither.
    ///
    /// ```
    /// use dyngraph::{Graph, NodeId};
    ///
    /// let g = Graph::from_edges([NodeId(9)], [(NodeId(2), NodeId(1)), (NodeId(1), NodeId(2))]);
    /// assert_eq!(g.node_vec(), vec![NodeId(1), NodeId(2), NodeId(9)]);
    /// assert_eq!(g.edges().collect::<Vec<_>>(), vec![(NodeId(1), NodeId(2))]);
    /// ```
    pub fn from_edges(
        nodes: impl IntoIterator<Item = NodeId>,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut ids: Vec<NodeId> = nodes.into_iter().collect();
        ids.extend(edges.iter().flat_map(|&(a, b)| [a, b]));
        ids.sort_unstable();
        ids.dedup();
        // every endpoint is in `ids`, so the search always hits
        let slot = |id: NodeId| ids.binary_search(&id).unwrap_or_default() as u32;
        let mut pairs: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (slot(a.min(b)), slot(a.max(b))))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        Graph::from_slot_pairs(ids, &pairs)
    }

    /// The graph over `ids` (ascending, distinct) whose edges are `pairs`,
    /// given by slot: each unordered pair at most once, no self-loops.
    /// This is the one CSR fill every graph is built by — a counting sort
    /// by slot (degrees, prefix sums, scatter), then one sort per row —
    /// and the hot constructor of the spatial-index topology rebuild.
    pub fn from_slot_pairs(ids: Vec<NodeId>, pairs: &[(u32, u32)]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        let n = ids.len();
        assert!(n < u32::MAX as usize, "fewer than u32::MAX nodes");
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in pairs {
            debug_assert!(a != b && (a as usize) < n && (b as usize) < n);
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // `offsets[i]` serves as row i's write cursor, ending at the start
        // of row i + 1; one shift restores the row starts afterwards
        let mut targets = vec![0u32; 2 * pairs.len()];
        for &(a, b) in pairs {
            targets[offsets[a as usize] as usize] = b;
            offsets[a as usize] += 1;
            targets[offsets[b as usize] as usize] = a;
            offsets[b as usize] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        debug_assert!(
            (0..n).all(|i| targets[offsets[i] as usize..offsets[i + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])),
            "each unordered pair at most once"
        );
        Graph {
            ids,
            offsets,
            targets,
        }
    }

    /// The graph one topology event turns this one into: a link appears
    /// (inserting its endpoints) or disappears, a node joins isolated (no
    /// change if it exists) or leaves with its links. Every event rebuilds
    /// the whole graph from its already-sorted node and edge lists, which
    /// suits explicit-mode churn: a handful of events per run.
    pub fn apply(&self, event: TopologyEvent) -> Graph {
        let (nodes, edges) = (self.nodes(), self.edges());
        match event {
            TopologyEvent::LinkUp(a, b) => Graph::from_edges(nodes, edges.chain([(a, b)])),
            TopologyEvent::LinkDown(a, b) => {
                let cut = (a.min(b), a.max(b));
                Graph::from_edges(nodes, edges.filter(|&e| e != cut))
            }
            TopologyEvent::NodeJoin(n) => Graph::from_edges(nodes.chain([n]), edges),
            TopologyEvent::NodeLeave(n) => Graph::from_edges(
                nodes.filter(|&m| m != n),
                edges.filter(|&(a, b)| a != n && b != n),
            ),
        }
    }

    /// The nodes, ascending: a node's index here is its slot.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Slot of `node`, if it is in the graph.
    pub fn slot_of(&self, node: NodeId) -> Option<usize> {
        slot_of(&self.ids, node)
    }

    /// Neighbour slots of `slot`, ascending; empty for an unknown slot.
    pub fn row(&self, slot: usize) -> &[u32] {
        match (self.offsets.get(slot), self.offsets.get(slot + 1)) {
            (Some(&from), Some(&to)) => &self.targets[from as usize..to as usize],
            _ => &[],
        }
    }

    /// Neighbour slots of `node`, ascending; empty if it is absent.
    fn row_of(&self, node: NodeId) -> &[u32] {
        self.slot_of(node).map_or(&[], |slot| self.row(slot))
    }

    /// Does the graph contain this node?
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.slot_of(node).is_some()
    }

    /// Does the graph contain the undirected edge (a, b)?
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.slot_of(b)
            .is_some_and(|b| self.row_of(a).binary_search(&(b as u32)).is_ok())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Iterator over nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }

    /// All nodes collected into a vector (ascending id order).
    pub fn node_vec(&self) -> Vec<NodeId> {
        self.ids.clone()
    }

    /// Iterator over undirected edges, each reported once with `a < b`,
    /// ascending.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.ids.iter().enumerate().flat_map(move |(slot, &a)| {
            let row = self.row(slot);
            let later = row.partition_point(|&j| (j as usize) <= slot);
            row[later..].iter().map(move |&j| (a, self.ids[j as usize]))
        })
    }

    /// Neighbours of a node (empty iterator if the node is absent).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.row_of(node).iter().map(|&j| self.ids[j as usize])
    }

    /// Degree of a node (0 if absent).
    pub fn degree(&self, node: NodeId) -> usize {
        self.row_of(node).len()
    }

    /// Average degree over all nodes (0 for the empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.ids.is_empty() {
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

    fn graph(edges: &[(u64, u64)]) -> Graph {
        Graph::from_edges([], edges.iter().map(|&(a, b)| (n(a), n(b))))
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.diameter(), None);
        assert_eq!(g, Graph::from_edges([], []));
    }

    #[test]
    fn an_edge_creates_its_endpoints() {
        let g = graph(&[(1, 2)]);
        assert!(g.contains_node(n(1)));
        assert!(g.contains_node(n(2)));
        assert!(g.contains_edge(n(1), n(2)));
        assert!(g.contains_edge(n(2), n(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let g = graph(&[(1, 1), (3, 2), (2, 3), (2, 3)]);
        assert!(g.contains_node(n(1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(n(1)), 0);
        assert_eq!(g, graph(&[(2, 3), (1, 1)]));
    }

    #[test]
    fn node_leave_removes_incident_edges() {
        let g = graph(&[(1, 2), (2, 3)]).apply(TopologyEvent::NodeLeave(n(2)));
        assert!(!g.contains_edge(n(1), n(2)));
        assert!(!g.contains_edge(n(2), n(3)));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.apply(TopologyEvent::NodeLeave(n(2))), g);
    }

    #[test]
    fn link_down_keeps_nodes() {
        let g = graph(&[(1, 2)]).apply(TopologyEvent::LinkDown(n(2), n(1)));
        assert_eq!(g.edge_count(), 0);
        assert!(g.contains_node(n(1)));
        assert!(g.contains_node(n(2)));
        assert_eq!(g.apply(TopologyEvent::LinkDown(n(1), n(2))), g);
    }

    #[test]
    fn link_up_and_node_join_insert_nodes() {
        let g = graph(&[(1, 2)]).apply(TopologyEvent::LinkUp(n(3), n(1)));
        assert_eq!(g, graph(&[(1, 2), (1, 3)]));
        let g = g.apply(TopologyEvent::NodeJoin(n(0)));
        assert_eq!(g.node_vec(), vec![n(0), n(1), n(2), n(3)]);
        assert_eq!(g.apply(TopologyEvent::NodeJoin(n(2))), g);
    }

    #[test]
    fn slots_index_the_ascending_ids() {
        let g = graph(&[(10, 30), (20, 30)]);
        assert_eq!(g.ids(), &[n(10), n(20), n(30)]);
        assert_eq!(g.slot_of(n(30)), Some(2));
        assert_eq!(g.slot_of(n(1)), None);
        assert_eq!(g.row(2), &[0, 1]);
        assert_eq!(g.row(3), &[] as &[u32]);
    }

    #[test]
    fn edges_are_reported_once() {
        let g = graph(&[(2, 3), (1, 3), (1, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(n(1), n(2)), (n(1), n(3)), (n(2), n(3))]);
    }

    #[test]
    fn degree_and_mean_degree() {
        let g = graph(&[(1, 2), (1, 3)]);
        assert_eq!(g.degree(n(1)), 2);
        assert_eq!(g.degree(n(2)), 1);
        assert_eq!(g.degree(n(99)), 0);
        assert!((g.mean_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distance_and_diameter_on_path() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(g.distance(n(0), n(5)), Some(5));
        assert_eq!(g.distance(n(2), n(2)), Some(0));
        assert_eq!(g.diameter(), Some(5));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let g = Graph::from_edges([n(3)], [(n(1), n(2))]);
        assert_eq!(g.distance(n(1), n(3)), None);
        assert_eq!(g.diameter(), None);
    }
}
