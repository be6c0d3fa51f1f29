//! Property-based tests for the graph substrate invariants, and the CSR
//! `Graph` against a set-based adjacency model.

use dyngraph::generators::{erdos_renyi, random_geometric};
use dyngraph::{
    bfs_distances, connected_components, diameter, induced_subgraph, restricted_diameter,
    subgraph_diameter, subgraph_distance, Graph, NodeId, Partition, TopologyEvent,
};
use netsim::CanonicalHasher;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a small random graph described by (n, edge list).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..24,
        proptest::collection::vec((0u64..24, 0u64..24), 0..120),
    )
        .prop_map(|(n, edges)| {
            let nodes = (0..n as u64).map(NodeId);
            let edges = edges
                .into_iter()
                .map(|(a, b)| (NodeId(a % n as u64), NodeId(b % n as u64)));
            Graph::from_edges(nodes, edges)
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

/// The adjacency `Graph` replaced, kept here as the model its CSR is
/// checked against: node → neighbour set.
type Model = BTreeMap<NodeId, BTreeSet<NodeId>>;

fn model_link(model: &mut Model, a: NodeId, b: NodeId) {
    model.entry(a).or_default();
    model.entry(b).or_default();
    if a != b {
        model.entry(a).or_default().insert(b);
        model.entry(b).or_default().insert(a);
    }
}

fn model_apply(model: &mut Model, event: TopologyEvent) {
    match event {
        TopologyEvent::LinkUp(a, b) => model_link(model, a, b),
        TopologyEvent::LinkDown(a, b) => {
            for (x, y) in [(a, b), (b, a)] {
                if let Some(row) = model.get_mut(&x) {
                    row.remove(&y);
                }
            }
        }
        TopologyEvent::NodeJoin(n) => {
            model.entry(n).or_default();
        }
        TopologyEvent::NodeLeave(n) => {
            model.remove(&n);
            for row in model.values_mut() {
                row.remove(&n);
            }
        }
    }
}

fn model_edges(model: &Model) -> Vec<(NodeId, NodeId)> {
    let pairs = model
        .iter()
        .flat_map(|(&a, row)| row.iter().map(move |&b| (a, b)));
    pairs.filter(|&(a, b)| a < b).collect()
}

/// Hop distances from `from` over the model, by plain BFS.
fn model_distances(model: &Model, from: NodeId) -> BTreeMap<NodeId, usize> {
    let mut dist = BTreeMap::from([(from, 0)]);
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        for &v in &model[&u] {
            if !dist.contains_key(&v) {
                dist.insert(v, dist[&u] + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The bytes `CanonicalHasher::graph_encoding` must produce for the model.
fn model_encoding(model: &Model) -> Vec<u8> {
    let tag = CanonicalHasher::graph_encoding(&Graph::new())[0];
    let edges = model_edges(model);
    let mut out = vec![tag];
    out.extend_from_slice(&(model.len() as u64).to_le_bytes());
    for node in model.keys() {
        out.extend_from_slice(&node.raw().to_le_bytes());
    }
    out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for (a, b) in edges {
        out.extend_from_slice(&a.raw().to_le_bytes());
        out.extend_from_slice(&b.raw().to_le_bytes());
    }
    out
}

/// Every read of `g` — including the slot-level ones — agrees with the
/// model, for every node id in `0..probe` present or not; with `paths`,
/// so do the BFS-backed `distance` of every pair and `diameter`.
fn assert_matches_model(
    g: &Graph,
    model: &Model,
    probe: u64,
    paths: bool,
) -> Result<(), TestCaseError> {
    let nodes: Vec<NodeId> = model.keys().copied().collect();
    prop_assert_eq!(g.nodes().collect::<Vec<_>>(), nodes.clone());
    prop_assert_eq!(g.node_vec(), nodes.clone());
    prop_assert_eq!(g.ids(), &nodes[..]);
    prop_assert_eq!(g.node_count(), model.len());
    let edges = model_edges(model);
    prop_assert_eq!(g.edge_count(), edges.len());
    prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges.clone());
    let mean = if model.is_empty() {
        0.0
    } else {
        2.0 * edges.len() as f64 / model.len() as f64
    };
    prop_assert_eq!(g.mean_degree(), mean);
    let empty = BTreeSet::new();
    for a in (0..probe).map(NodeId) {
        let row = model.get(&a).unwrap_or(&empty);
        prop_assert_eq!(g.contains_node(a), model.contains_key(&a));
        prop_assert_eq!(g.slot_of(a), nodes.binary_search(&a).ok());
        prop_assert_eq!(g.neighbors(a).collect::<BTreeSet<_>>(), row.clone());
        prop_assert_eq!(
            g.neighbors(a).collect::<Vec<_>>(),
            row.iter().copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(g.degree(a), row.len());
        if let Some(slot) = g.slot_of(a) {
            let by_slot: Vec<NodeId> = g.row(slot).iter().map(|&j| nodes[j as usize]).collect();
            prop_assert_eq!(by_slot, row.iter().copied().collect::<Vec<_>>());
        }
        let reach = model.contains_key(&a).then(|| model_distances(model, a));
        for b in (0..probe).map(NodeId) {
            prop_assert_eq!(g.contains_edge(a, b), row.contains(&b));
            if paths {
                let expected = reach.as_ref().and_then(|d| d.get(&b).copied());
                prop_assert_eq!(g.distance(a, b), expected);
            }
        }
    }
    prop_assert_eq!(CanonicalHasher::graph_encoding(g), model_encoding(model));
    if !paths {
        return Ok(());
    }
    let eccentricities: Option<Vec<usize>> = nodes
        .iter()
        .map(|&u| {
            let d = model_distances(model, u);
            (d.len() == model.len()).then(|| d.values().copied().max().unwrap_or(0))
        })
        .collect();
    let diameter = eccentricities.and_then(|e| e.into_iter().max());
    prop_assert_eq!(g.diameter(), diameter);
    Ok(())
}

fn arb_event() -> impl Strategy<Value = TopologyEvent> {
    (0u8..4, 0u64..22, 0u64..22).prop_map(|(kind, a, b)| {
        let (a, b) = (NodeId(a), NodeId(b));
        match kind {
            0 => TopologyEvent::LinkUp(a, b),
            1 => TopologyEvent::LinkDown(a, b),
            2 => TopologyEvent::NodeJoin(a),
            _ => TopologyEvent::NodeLeave(a),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `from_edges` over edge lists with repeats (both orientations),
    /// self-loops and endpoints outside the listed nodes, then a random
    /// run of topology events, each applied to the graph and to the
    /// model: the two agree on every read after every step (on distances
    /// and the diameter, before the first event and after the last).
    #[test]
    fn csr_graph_matches_the_adjacency_model(
        n in 0u64..16,
        edges in proptest::collection::vec((0u64..20, 0u64..20), 0..60),
        events in proptest::collection::vec(arb_event(), 0..12),
    ) {
        let mut model = Model::new();
        for i in 0..n {
            model.entry(NodeId(i)).or_default();
        }
        for &(a, b) in &edges {
            model_link(&mut model, NodeId(a), NodeId(b));
        }
        let edges = edges.into_iter().map(|(a, b)| (NodeId(a), NodeId(b)));
        let mut g = Graph::from_edges((0..n).map(NodeId), edges);
        assert_matches_model(&g, &model, 24, true)?;
        for event in events {
            g = g.apply(event);
            model_apply(&mut model, event);
            assert_matches_model(&g, &model, 24, false)?;
        }
        assert_matches_model(&g, &model, 24, true)?;
    }
}
