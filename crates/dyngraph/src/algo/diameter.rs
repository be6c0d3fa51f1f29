//! Eccentricity, radius and diameter.
//!
//! The safety property ΠS of the Dynamic Group Service bounds the *diameter*
//! of each group's induced subgraph by `Dmax`; these helpers compute exact
//! diameters with one BFS per node (the graphs in the experiments are small
//! enough — a group never exceeds `Dmax + 1` hops across).

use crate::algo::bfs::bfs_distances;
use crate::graph::Graph;
use crate::id::NodeId;

/// Eccentricity of `node`: the maximum distance from `node` to any node
/// reachable from it. `None` if the node is absent, and `None` when some
/// node of the graph is unreachable from `node` (infinite eccentricity).
pub fn eccentricity(graph: &Graph, node: NodeId) -> Option<usize> {
    if !graph.contains_node(node) {
        return None;
    }
    let dist = bfs_distances(graph, node);
    if dist.len() != graph.node_count() {
        return None;
    }
    dist.values().copied().max()
}

/// Diameter of the graph: the maximum eccentricity. `None` for the empty
/// graph and for disconnected graphs (infinite diameter).
pub fn diameter(graph: &Graph) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut any = false;
    for v in graph.nodes() {
        any = true;
        match eccentricity(graph, v) {
            Some(e) => best = Some(best.map_or(e, |b| b.max(e))),
            None => return None,
        }
    }
    if any {
        best
    } else {
        None
    }
}

/// Radius of the graph: the minimum eccentricity. `None` for empty or
/// disconnected graphs.
pub fn radius(graph: &Graph) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut any = false;
    for v in graph.nodes() {
        any = true;
        match eccentricity(graph, v) {
            Some(e) => best = Some(best.map_or(e, |b| b.min(e))),
            None => return None,
        }
    }
    if any {
        best
    } else {
        None
    }
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
    fn path_diameter_and_radius() {
        let g = path(4); // 5 nodes
        assert_eq!(diameter(&g), Some(4));
        assert_eq!(radius(&g), Some(2));
        assert_eq!(eccentricity(&g, n(0)), Some(4));
        assert_eq!(eccentricity(&g, n(2)), Some(2));
    }

    #[test]
    fn single_node_has_zero_diameter() {
        let g = Graph::from_edges([n(1)], []);
        assert_eq!(diameter(&g), Some(0));
        assert_eq!(radius(&g), Some(0));
    }

    #[test]
    fn empty_graph_yields_none() {
        let g = Graph::new();
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
    }

    #[test]
    fn disconnected_graph_yields_none() {
        let g = path(2).apply(TopologyEvent::NodeJoin(n(10)));
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(eccentricity(&g, n(0)), None);
    }

    #[test]
    fn missing_node_eccentricity_is_none() {
        let g = path(2);
        assert_eq!(eccentricity(&g, n(42)), None);
    }

    #[test]
    fn complete_graph_diameter_is_one() {
        let g = Graph::from_edges(
            [],
            (0..5u64).flat_map(|i| ((i + 1)..5).map(move |j| (n(i), n(j)))),
        );
        assert_eq!(diameter(&g), Some(1));
        assert_eq!(radius(&g), Some(1));
    }
}
