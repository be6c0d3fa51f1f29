//! Breadth-first search distances.

use crate::graph::Graph;
use crate::id::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// All hop distances from `source` to reachable nodes (including `source`
/// itself at distance 0). Nodes that are unreachable do not appear in the
/// returned map. Returns an empty map when `source` is not in the graph.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> BTreeMap<NodeId, usize> {
    let mut dist = BTreeMap::new();
    if !graph.contains_node(source) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist.insert(source, 0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        for v in graph.neighbors(u) {
            if let std::collections::btree_map::Entry::Vacant(slot) = dist.entry(v) {
                slot.insert(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Nodes in breadth-first visit order from `source`.
pub fn bfs_order(graph: &Graph, source: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    if !graph.contains_node(source) {
        return order;
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut queue = VecDeque::new();
    seen.insert(source);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for v in graph.neighbors(u) {
            if seen.insert(v) {
                queue.push_back(v);
            }
        }
    }
    order
}

/// Shortest-path hop distance between two nodes, `None` if either node is
/// missing or they are in different connected components.
pub fn distance(graph: &Graph, from: NodeId, to: NodeId) -> Option<usize> {
    if !graph.contains_node(from) || !graph.contains_node(to) {
        return None;
    }
    if from == to {
        return Some(0);
    }
    bfs_distances(graph, from).get(&to).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyEvent;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn path(len: u64) -> Graph {
        Graph::from_edges([], (0..len).map(|i| (n(i), n(i + 1))))
    }

    #[test]
    fn distances_on_a_path() {
        let g = path(4);
        let d = bfs_distances(&g, n(0));
        assert_eq!(d[&n(0)], 0);
        assert_eq!(d[&n(4)], 4);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn missing_source_yields_empty_map() {
        let g = path(2);
        assert!(bfs_distances(&g, n(77)).is_empty());
        assert!(bfs_order(&g, n(77)).is_empty());
        assert_eq!(distance(&g, n(77), n(0)), None);
        assert_eq!(distance(&g, n(0), n(77)), None);
    }

    #[test]
    fn unreachable_nodes_absent() {
        let g = path(2).apply(TopologyEvent::NodeJoin(n(50)));
        let d = bfs_distances(&g, n(0));
        assert!(!d.contains_key(&n(50)));
        assert_eq!(distance(&g, n(0), n(50)), None);
    }

    #[test]
    fn bfs_order_starts_at_source_and_visits_all_reachable() {
        let g = path(3);
        let order = bfs_order(&g, n(1));
        assert_eq!(order[0], n(1));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let g = path(3);
        assert_eq!(distance(&g, n(2), n(2)), Some(0));
    }

    #[test]
    fn distance_on_cycle_takes_shorter_arc() {
        let g = Graph::from_edges([], (0..6u64).map(|i| (n(i), n((i + 1) % 6))));
        assert_eq!(distance(&g, n(0), n(3)), Some(3));
        assert_eq!(distance(&g, n(0), n(5)), Some(1));
    }
}
