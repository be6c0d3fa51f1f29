//! Connected components.

use crate::algo::bfs::bfs_order;
use crate::graph::Graph;
use crate::id::NodeId;
use std::collections::BTreeSet;

/// The connected components of the graph, each as a sorted set of nodes.
/// Components are returned sorted by their smallest member for determinism.
pub fn connected_components(graph: &Graph) -> Vec<BTreeSet<NodeId>> {
    let mut remaining: BTreeSet<NodeId> = graph.nodes().collect();
    let mut components = Vec::new();
    while let Some(&start) = remaining.iter().next() {
        let comp: BTreeSet<NodeId> = bfs_order(graph, start).into_iter().collect();
        for n in &comp {
            remaining.remove(n);
        }
        components.push(comp);
    }
    components
}

/// True when the graph is non-empty and all nodes are mutually reachable.
/// The empty graph is considered connected (vacuously).
pub fn is_connected(graph: &Graph) -> bool {
    connected_components(graph).len() <= 1
}

/// True when both nodes exist and belong to the same connected component.
pub fn same_component(graph: &Graph, a: NodeId, b: NodeId) -> bool {
    crate::algo::bfs::distance(graph, a, b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::new();
        assert!(is_connected(&g));
        assert!(connected_components(&g).is_empty());
    }

    #[test]
    fn two_components_are_found() {
        let g = Graph::from_edges([], [(n(1), n(2)), (n(3), n(4))]);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps[0].contains(&n(1)) && comps[0].contains(&n(2)));
        assert!(comps[1].contains(&n(3)) && comps[1].contains(&n(4)));
        assert!(!is_connected(&g));
        assert!(same_component(&g, n(1), n(2)));
        assert!(!same_component(&g, n(1), n(3)));
    }

    #[test]
    fn isolated_nodes_are_singleton_components() {
        let g = Graph::from_edges([n(1), n(2)], []);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn single_component_graph() {
        let g = Graph::from_edges([], [(n(1), n(2)), (n(2), n(3))]);
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).len(), 1);
    }
}
