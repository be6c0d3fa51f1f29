//! The group-wise predicates against the per-node / per-pair definitions.
//!
//! `grp_core::predicates` evaluates ΠS, ΠM, ΠT and ΠC once per *group* over
//! an array-backed restricted BFS, and prunes ΠM to group pairs joined by a
//! topology edge. The oracle in this file is the specification read
//! literally — `Ω_v` recomputed for every node, one materialised induced
//! subgraph and one map-backed BFS per node *pair* — and shares no code with
//! the shipped path beyond `Graph` itself. The generated configurations are
//! deliberately hostile: disagreeing views, a node missing from its own
//! view, views quoting ids nobody holds a view for, nodes without a view,
//! members the topology does not have (crashed ghosts), disconnected
//! groups and singletons.

use dyngraph::{
    bfs_distances, connected_components, diameter, induced_subgraph, Graph, NodeId, TopologyEvent,
};
use grp_core::predicates::{pi_c_violations, pi_t_violations, SystemSnapshot};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::{BTreeMap, BTreeSet};

/// Largest node population generated.
const MAX_NODES: usize = 12;

// ---------------------------------------------------------------- oracle

fn oracle_omega(s: &SystemSnapshot, v: NodeId) -> BTreeSet<NodeId> {
    let singleton = || [v].into_iter().collect::<BTreeSet<NodeId>>();
    let Some(view) = s.views.get(&v) else {
        return singleton();
    };
    if !view.contains(&v) {
        return singleton();
    }
    for member in view.iter() {
        match s.views.get(member) {
            Some(other) if **other == **view => {}
            _ => return singleton(),
        }
    }
    (**view).clone()
}

fn oracle_groups(s: &SystemSnapshot) -> Vec<BTreeSet<NodeId>> {
    let mut groups: Vec<BTreeSet<NodeId>> = Vec::new();
    let mut assigned: BTreeSet<NodeId> = BTreeSet::new();
    for v in s.nodes() {
        if assigned.contains(&v) {
            continue;
        }
        let omega = oracle_omega(s, v);
        assigned.extend(omega.iter().copied());
        groups.push(omega);
    }
    groups
}

fn oracle_agreement(s: &SystemSnapshot) -> bool {
    s.views.iter().all(|(v, view)| {
        view.contains(v)
            && view
                .iter()
                .all(|m| s.views.get(m).is_some_and(|other| **other == **view))
    })
}

/// `d_X(from, to)` on a freshly materialised induced subgraph.
fn oracle_distance(
    graph: &Graph,
    nodes: &BTreeSet<NodeId>,
    from: NodeId,
    to: NodeId,
) -> Option<usize> {
    if !nodes.contains(&from) || !nodes.contains(&to) {
        return None;
    }
    let sub = induced_subgraph(graph, nodes);
    if !sub.contains_node(from) || !sub.contains_node(to) {
        return None;
    }
    bfs_distances(&sub, from).get(&to).copied()
}

/// `∃ x ≠ y ∈ set : d_set(x, y) > dmax`, one induced subgraph per pair.
fn oracle_some_pair_exceeds(graph: &Graph, set: &BTreeSet<NodeId>, dmax: usize) -> bool {
    let members: Vec<NodeId> = set.iter().copied().collect();
    members.iter().enumerate().any(|(i, &x)| {
        members[i + 1..]
            .iter()
            .any(|&y| oracle_distance(graph, set, x, y).is_none_or(|d| d > dmax))
    })
}

fn oracle_safety(s: &SystemSnapshot, dmax: usize) -> bool {
    s.nodes().all(|v| {
        let omega = oracle_omega(s, v);
        match diameter(&induced_subgraph(&s.topology, &omega)) {
            Some(d) => d <= dmax,
            None => omega.len() <= 1,
        }
    })
}

fn oracle_maximality(s: &SystemSnapshot, dmax: usize) -> bool {
    let groups = oracle_groups(s);
    groups.iter().enumerate().all(|(i, a)| {
        groups[i + 1..].iter().all(|b| {
            let union: BTreeSet<NodeId> = a.union(b).copied().collect();
            oracle_some_pair_exceeds(&s.topology, &union, dmax)
        })
    })
}

fn oracle_pi_t_violations(prev: &SystemSnapshot, next: &SystemSnapshot, dmax: usize) -> usize {
    prev.nodes()
        .filter(|&v| oracle_some_pair_exceeds(&next.topology, &oracle_omega(prev, v), dmax))
        .count()
}

fn oracle_pi_c_violations(prev: &SystemSnapshot, next: &SystemSnapshot) -> usize {
    prev.nodes()
        .filter(|&v| !oracle_omega(prev, v).is_subset(&oracle_omega(next, v)))
        .count()
}

// ------------------------------------------------------------- generator

/// What one generated configuration is drawn from.
type ConfigSpec = (
    usize,           // nodes
    Vec<(u64, u64)>, // edges (mod nodes)
    Vec<u8>,         // intended group label per node
    u8,              // bit 0: groups are the connected components; bit 1: no view noise
    Vec<u8>,         // per-node view noise
    Vec<u8>,         // per-node: 0 = the topology does not have the node
);

fn arb_config() -> impl Strategy<Value = ConfigSpec> {
    (
        1usize..MAX_NODES + 1,
        proptest::collection::vec((0u64..12, 0u64..12), 0..30),
        proptest::collection::vec(0u8..4, MAX_NODES),
        0u8..4,
        proptest::collection::vec(0u8..24, MAX_NODES),
        proptest::collection::vec(0u8..8, MAX_NODES),
    )
}

fn id(i: usize) -> NodeId {
    NodeId(i as u64)
}

fn build((n, edges, labels, mode, noise, in_topology): ConfigSpec) -> SystemSnapshot {
    let edges = edges
        .into_iter()
        .map(|(a, b)| (NodeId(a % n as u64), NodeId(b % n as u64)));
    let full = Graph::from_edges((0..n).map(id), edges);
    let blocks: Vec<BTreeSet<NodeId>> = if mode & 1 == 1 {
        connected_components(&full)
    } else {
        (0u8..4)
            .map(|label| (0..n).filter(|&i| labels[i] == label).map(id).collect())
            .collect()
    };
    let quiet = mode & 2 == 2;
    let mut views = BTreeMap::new();
    for (i, &noise) in noise.iter().enumerate().take(n) {
        let mut view = blocks
            .iter()
            .find(|block| block.contains(&id(i)))
            .cloned()
            .expect("blocks cover the nodes");
        match if quiet { 0 } else { noise } {
            16 => {
                view.remove(&id(i));
            }
            17 => {
                view.insert(id((i + 1) % n));
            }
            18 => {
                view.insert(id(40 + i)); // an id nobody holds a view for
            }
            19 => view = [id(i)].into_iter().collect(),
            20 => continue, // a node with no view at all
            21 => view.clear(),
            _ => {}
        }
        views.insert(id(i), view);
    }
    let mut topology = full;
    for (i, _) in in_topology
        .iter()
        .enumerate()
        .take(n)
        .filter(|&(_, &p)| p == 0)
    {
        // its view, if any, is a ghost's
        topology = topology.apply(TopologyEvent::NodeLeave(id(i)));
    }
    SystemSnapshot::new(topology, views)
}

fn arb_snapshot() -> impl Strategy<Value = SystemSnapshot> {
    arb_config().prop_map(build)
}

/// A transition: the second configuration keeps the first's population,
/// links and intended groups, redraws the view noise and the ghosts, and
/// loses some links.
fn arb_transition() -> impl Strategy<Value = (SystemSnapshot, SystemSnapshot)> {
    (
        arb_config(),
        proptest::collection::vec(0u8..24, MAX_NODES),
        proptest::collection::vec(0u8..8, MAX_NODES),
        proptest::collection::vec(0u8..4, 30),
    )
        .prop_map(|(config, noise, in_topology, keep_edge)| {
            let (n, edges, labels, mode, _, _) = config.clone();
            let edges = edges
                .into_iter()
                .zip(keep_edge)
                .filter(|&(_, keep)| keep != 0)
                .map(|(edge, _)| edge)
                .collect();
            let next = (n, edges, labels, mode, noise, in_topology);
            (build(config), build(next))
        })
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn configuration_predicates_match_the_per_node_oracle(s in arb_snapshot(), dmax in 0usize..5) {
        prop_assert_eq!(s.groups(), oracle_groups(&s));
        for v in s.nodes() {
            prop_assert_eq!(s.omega(v), oracle_omega(&s, v));
        }
        prop_assert_eq!(s.agreement(), oracle_agreement(&s));
        prop_assert_eq!(s.safety(dmax), oracle_safety(&s, dmax));
        prop_assert_eq!(s.maximality(dmax), oracle_maximality(&s, dmax));
        prop_assert_eq!(
            s.legitimate(dmax),
            oracle_agreement(&s) && oracle_safety(&s, dmax) && oracle_maximality(&s, dmax)
        );
    }

    #[test]
    fn transition_predicates_match_the_per_node_oracle(pair in arb_transition(), dmax in 0usize..5) {
        let (prev, next) = pair;
        prop_assert_eq!(
            pi_t_violations(&prev, &next, dmax),
            oracle_pi_t_violations(&prev, &next, dmax)
        );
        prop_assert_eq!(pi_c_violations(&prev, &next), oracle_pi_c_violations(&prev, &next));
    }
}

/// The equalities above are only worth something if the generator reaches
/// both sides of every verdict and every hostile shape it advertises.
#[test]
fn generator_reaches_every_verdict_and_shape() {
    let mut rng = TestRng::deterministic("property_predicates::coverage");
    let strategy = arb_transition();
    let mut seen = BTreeSet::new();
    for _ in 0..512 {
        let (prev, next) = strategy.sample(&mut rng);
        let dmax = 2;
        seen.insert(format!("agreement={}", prev.agreement()));
        seen.insert(format!("safety={}", prev.safety(dmax)));
        seen.insert(format!("maximality={}", prev.maximality(dmax)));
        seen.insert(format!("legitimate={}", prev.legitimate(dmax)));
        seen.insert(format!("pi_t={}", pi_t_violations(&prev, &next, dmax) == 0));
        seen.insert(format!("pi_c={}", pi_c_violations(&prev, &next) == 0));
        for group in prev.groups() {
            let ghosts = group
                .iter()
                .filter(|&&m| !prev.topology.contains_node(m))
                .count();
            if ghosts > 0 {
                seen.insert(format!("ghost in a group of {}", group.len().min(2)));
            }
            if ghosts == 0 && diameter(&induced_subgraph(&prev.topology, &group)).is_none() {
                seen.insert("disconnected group".to_string());
            }
        }
        if prev
            .views
            .values()
            .any(|view| view.iter().any(|m| !prev.views.contains_key(m)))
        {
            seen.insert("view quotes an id without a view".to_string());
        }
        if prev.views.iter().any(|(v, view)| !view.contains(v)) {
            seen.insert("node missing from its own view".to_string());
        }
    }
    let expected: BTreeSet<String> = [
        "agreement=false",
        "agreement=true",
        "safety=false",
        "safety=true",
        "maximality=false",
        "maximality=true",
        "legitimate=false",
        "legitimate=true",
        "pi_t=false",
        "pi_t=true",
        "pi_c=false",
        "pi_c=true",
        "ghost in a group of 1",
        "ghost in a group of 2",
        "disconnected group",
        "view quotes an id without a view",
        "node missing from its own view",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let missing: Vec<&String> = expected.difference(&seen).collect();
    assert!(missing.is_empty(), "never generated: {missing:?}");
}
