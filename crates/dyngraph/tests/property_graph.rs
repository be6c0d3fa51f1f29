//! Property-based tests for the graph substrate invariants.

use dyngraph::generators::{erdos_renyi, random_geometric};
use dyngraph::{
    bfs_distances, connected_components, diameter, induced_subgraph, restricted_diameter,
    subgraph_diameter, subgraph_distance, Graph, NodeId, Partition,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a small random graph described by (n, edge list).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..24,
        proptest::collection::vec((0u64..24, 0u64..24), 0..120),
    )
        .prop_map(|(n, edges)| {
            let mut g = Graph::new();
            for i in 0..n {
                g.add_node(NodeId(i as u64));
            }
            for (a, b) in edges {
                let a = a % n as u64;
                let b = b % n as u64;
                if a != b {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BFS distances satisfy the triangle inequality over edges:
    /// |d(s,u) - d(s,v)| <= 1 for every edge (u,v) reachable from s.
    #[test]
    fn bfs_distance_lipschitz_over_edges(g in arb_graph()) {
        let Some(s) = g.nodes().next() else { return Ok(()); };
        let dist = bfs_distances(&g, s);
        for (u, v) in g.edges() {
            if let (Some(&du), Some(&dv)) = (dist.get(&u), dist.get(&v)) {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // an edge's endpoints are either both reachable or both not
                prop_assert!(!dist.contains_key(&u) && !dist.contains_key(&v));
            }
        }
    }

    /// Connected components form a partition of the node set.
    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let comps = connected_components(&g);
        let p = Partition::from_blocks(comps.clone());
        prop_assert!(p.is_partition_of(&g));
        // each component is internally connected: its induced subgraph has a diameter
        for comp in &comps {
            let sub = induced_subgraph(&g, comp);
            prop_assert!(diameter(&sub).is_some());
        }
    }

    /// Distance is symmetric in an undirected graph.
    #[test]
    fn distance_is_symmetric(g in arb_graph()) {
        let nodes: Vec<NodeId> = g.nodes().collect();
        for &u in nodes.iter().take(6) {
            for &v in nodes.iter().take(6) {
                prop_assert_eq!(g.distance(u, v), g.distance(v, u));
            }
        }
    }

    /// Restricting to a subgraph never shortens distances.
    #[test]
    fn subgraph_distance_dominates_full_distance(g in arb_graph(), keep in proptest::collection::btree_set(0u64..24, 1..24)) {
        let keep: BTreeSet<NodeId> = keep.into_iter().map(NodeId).filter(|n| g.contains_node(*n)).collect();
        for &u in keep.iter().take(5) {
            for &v in keep.iter().take(5) {
                if let Some(restricted) = subgraph_distance(&g, &keep, u, v) {
                    let full = g.distance(u, v).expect("restricted path is also a full path");
                    prop_assert!(full <= restricted);
                }
            }
        }
    }

    /// Dropping the members the graph does not have, the restricted-BFS
    /// kernel is the diameter of the materialised induced subgraph.
    #[test]
    fn restricted_kernel_is_the_induced_subgraph_diameter(g in arb_graph(), keep in proptest::collection::btree_set(0u64..24, 0..24)) {
        let keep: BTreeSet<NodeId> = keep.into_iter().map(NodeId).collect();
        let present: Vec<NodeId> = keep.iter().copied().filter(|&n| g.contains_node(n)).collect();
        let expected = diameter(&induced_subgraph(&g, &keep));
        prop_assert_eq!(restricted_diameter(&g, &present), expected);
        prop_assert_eq!(subgraph_diameter(&g, &keep), expected);
    }

    /// Keeping them, it is the largest `subgraph_distance` over all pairs
    /// (a node paired with itself included): `+∞` as soon as one is.
    #[test]
    fn restricted_kernel_is_the_max_pairwise_subgraph_distance(g in arb_graph(), keep in proptest::collection::btree_set(0u64..24, 1..24)) {
        let keep: BTreeSet<NodeId> = keep.into_iter().map(NodeId).collect();
        let members: Vec<NodeId> = keep.iter().copied().collect();
        let sub = induced_subgraph(&g, &keep);
        let mut expected = Some(0);
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i..] {
                // the pair distance itself, against a BFS of the materialised subgraph
                let materialised = bfs_distances(&sub, u).get(&v).copied();
                prop_assert_eq!(subgraph_distance(&g, &keep, u, v), materialised);
                expected = match (expected, materialised) {
                    (Some(best), Some(d)) => Some(best.max(d)),
                    _ => None,
                };
            }
        }
        prop_assert_eq!(restricted_diameter(&g, &members), expected);
    }

    /// Random geometric graphs are deterministic given a seed.
    #[test]
    fn rgg_deterministic(seed in 0u64..1000, n in 2usize..40) {
        let a = random_geometric(n, 10.0, 2.5, seed);
        let b = random_geometric(n, 10.0, 2.5, seed);
        prop_assert_eq!(a, b);
    }

    /// G(n, p) edge count is within [0, n(n-1)/2].
    #[test]
    fn gnp_edge_bounds(seed in 0u64..1000, n in 2usize..30, p in 0.0f64..1.0) {
        let g = erdos_renyi(n, p, seed);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
    }

    /// Diameter of a connected graph is bounded by n - 1 and is at least the
    /// eccentricity lower bound 1 when there is at least one edge.
    #[test]
    fn diameter_bounds(g in arb_graph()) {
        if let Some(d) = diameter(&g) {
            prop_assert!(d <= g.node_count().saturating_sub(1));
            if g.edge_count() > 0 && g.node_count() > 1 {
                prop_assert!(d >= 1);
            }
        }
    }
}
