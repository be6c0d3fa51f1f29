//! Induced subgraphs and restricted distances.
//!
//! The paper's formal specification relies on `d_X(u, v)`, the distance
//! between `u` and `v` in the subgraph induced by a node set `X` (the group
//! `Ω_v`), with `d_X(u, v) = +∞` when no such path exists. These helpers
//! implement that notion (`None` plays the role of `+∞`).
//!
//! Everything here that measures a distance runs on one kernel,
//! [`restricted_diameter`]: the members as a sorted slice, their internal
//! adjacency resolved once by binary search into flat arrays, and one
//! array-backed BFS per source. No induced [`Graph`] is built on the way —
//! [`induced_subgraph`] remains for callers that want the graph itself.
//!
//! Two rules for a member of `X` that is *absent from the graph* coexist,
//! and the predicates of the specification depend on both:
//!
//! * [`subgraph_diameter`] **drops** absent members (the induced subgraph
//!   simply does not contain them);
//! * [`subgraph_distance`] and the kernel treat an absent endpoint as
//!   **`+∞` from everything, itself included**.

use crate::graph::Graph;
use crate::id::NodeId;
use std::collections::BTreeSet;

/// The subgraph of `graph` induced by `nodes`: it keeps exactly the members
/// of `nodes` that exist in `graph` and every edge of `graph` whose two
/// endpoints are members (the paper's definition of a subgraph `H`).
pub fn induced_subgraph(graph: &Graph, nodes: &BTreeSet<NodeId>) -> Graph {
    let mut sub = Graph::new();
    for &n in nodes {
        if graph.contains_node(n) {
            sub.add_node(n);
        }
    }
    for &a in nodes {
        for b in graph.neighbors(a) {
            if nodes.contains(&b) {
                sub.add_edge(a, b);
            }
        }
    }
    sub
}

/// Distance of a member the BFS has not reached.
const UNREACHED: u32 = u32::MAX;

/// `graph` restricted to a sorted member slice, in local indices: member
/// `i`'s neighbours inside the restriction are
/// `targets[offsets[i]..offsets[i + 1]]`.
struct Restriction {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Restriction {
    /// Resolve the internal adjacency of `members` (ascending, distinct).
    /// A member absent from `graph` comes out isolated.
    fn new(graph: &Graph, members: &[NodeId]) -> Self {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted and distinct"
        );
        let mut offsets = Vec::with_capacity(members.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for &member in members {
            for neighbour in graph.neighbors(member) {
                if let Ok(local) = members.binary_search(&neighbour) {
                    targets.push(local as u32);
                }
            }
            offsets.push(targets.len() as u32);
        }
        Restriction { offsets, targets }
    }

    /// BFS from local index `source`, filling `dist` (one slot per member)
    /// and leaving the visit order in `queue`: `queue.len()` members were
    /// reached and the last of them is a farthest one.
    fn bfs(&self, source: u32, dist: &mut [u32], queue: &mut Vec<u32>) {
        dist.fill(UNREACHED);
        queue.clear();
        dist[source as usize] = 0;
        queue.push(source);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (from, to) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
            for &w in &self.targets[from as usize..to as usize] {
                if dist[w as usize] == UNREACHED {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push(w);
                }
            }
        }
    }
}

/// The largest restricted distance `max { d_X(u, v) : u, v ∈ X }` for
/// `X = members`, which must be ascending and distinct: the diameter of the
/// subgraph `members` induce, by one array-backed BFS per member.
///
/// `None` encodes `+∞` and also answers the empty set: the members do not
/// induce a connected subgraph, or some member is absent from `graph` (the
/// [`subgraph_distance`] rule — callers wanting the [`subgraph_diameter`]
/// rule filter absent members out first).
pub fn restricted_diameter(graph: &Graph, members: &[NodeId]) -> Option<usize> {
    if members.is_empty() || members.iter().any(|&m| !graph.contains_node(m)) {
        return None;
    }
    let restriction = Restriction::new(graph, members);
    let mut dist = vec![UNREACHED; members.len()];
    let mut queue = Vec::with_capacity(members.len());
    let mut diameter = 0;
    for source in 0..members.len() as u32 {
        restriction.bfs(source, &mut dist, &mut queue);
        if queue.len() < members.len() {
            return None;
        }
        let farthest = queue.last().map_or(0, |&w| dist[w as usize]);
        diameter = diameter.max(farthest);
    }
    Some(diameter as usize)
}

/// The members of `nodes` that exist in `graph`, ascending.
fn present_members(graph: &Graph, nodes: &BTreeSet<NodeId>) -> Vec<NodeId> {
    nodes
        .iter()
        .copied()
        .filter(|&n| graph.contains_node(n))
        .collect()
}

/// `d_X(u, v)`: shortest-path distance between `u` and `v` using only edges
/// whose endpoints both belong to `nodes`. `None` encodes `+∞` (either node
/// missing from the restriction or from the graph, or no path inside the
/// restriction).
pub fn subgraph_distance(
    graph: &Graph,
    nodes: &BTreeSet<NodeId>,
    from: NodeId,
    to: NodeId,
) -> Option<usize> {
    if !nodes.contains(&from) || !nodes.contains(&to) {
        return None;
    }
    let members = present_members(graph, nodes);
    let source = members.binary_search(&from).ok()?;
    let target = members.binary_search(&to).ok()?;
    let mut dist = vec![UNREACHED; members.len()];
    let mut queue = Vec::with_capacity(members.len());
    Restriction::new(graph, &members).bfs(source as u32, &mut dist, &mut queue);
    (dist[target] != UNREACHED).then_some(dist[target] as usize)
}

/// Diameter of the subgraph induced by `nodes`; `None` when the induced
/// subgraph is empty or disconnected (infinite diameter). Members of
/// `nodes` absent from `graph` are not part of the induced subgraph.
pub fn subgraph_diameter(graph: &Graph, nodes: &BTreeSet<NodeId>) -> Option<usize> {
    restricted_diameter(graph, &present_members(graph, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn set(ids: &[u64]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| n(i)).collect()
    }

    /// 0-1-2-3-4 path plus a chord 0-4.
    fn path_with_chord() -> Graph {
        let mut g = Graph::new();
        for i in 0..4u64 {
            g.add_edge(n(i), n(i + 1));
        }
        g.add_edge(n(0), n(4));
        g
    }

    #[test]
    fn induced_subgraph_keeps_only_internal_edges() {
        let g = path_with_chord();
        let sub = induced_subgraph(&g, &set(&[0, 1, 2]));
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(!sub.contains_edge(n(0), n(4)));
    }

    #[test]
    fn induced_subgraph_ignores_nodes_absent_from_graph() {
        let g = path_with_chord();
        let sub = induced_subgraph(&g, &set(&[0, 1, 99]));
        assert_eq!(sub.node_count(), 2);
        assert!(!sub.contains_node(n(99)));
    }

    #[test]
    fn restricted_distance_ignores_outside_shortcuts() {
        let g = path_with_chord();
        // Full graph: 0-4 distance 1 (chord). Restricted to {0,1,2,3}: chord
        // unusable and 4 not even in the restriction.
        assert_eq!(
            subgraph_distance(&g, &set(&[0, 1, 2, 3]), n(0), n(3)),
            Some(3)
        );
        assert_eq!(subgraph_distance(&g, &set(&[0, 1, 2, 3]), n(0), n(4)), None);
    }

    #[test]
    fn restricted_distance_is_infinite_when_disconnected() {
        let g = path_with_chord();
        assert_eq!(subgraph_distance(&g, &set(&[0, 2]), n(0), n(2)), None);
    }

    #[test]
    fn restricted_distance_to_self() {
        let g = path_with_chord();
        assert_eq!(subgraph_distance(&g, &set(&[2]), n(2), n(2)), Some(0));
    }

    #[test]
    fn subgraph_diameter_matches_restriction() {
        let g = path_with_chord();
        assert_eq!(subgraph_diameter(&g, &set(&[0, 1, 2, 3])), Some(3));
        // whole graph with chord: cycle of 5 → diameter 2
        assert_eq!(subgraph_diameter(&g, &set(&[0, 1, 2, 3, 4])), Some(2));
        // disconnected restriction
        assert_eq!(subgraph_diameter(&g, &set(&[0, 2])), None);
        // empty restriction
        assert_eq!(subgraph_diameter(&g, &BTreeSet::new()), None);
    }

    #[test]
    fn kernel_keeps_the_two_absent_member_rules_apart() {
        let g = path_with_chord();
        // the diameter rule drops the absent member…
        assert_eq!(subgraph_diameter(&g, &set(&[0, 1, 99])), Some(1));
        assert_eq!(subgraph_diameter(&g, &set(&[99])), None);
        // …the kernel (and the distance rule) put it at +∞, even from itself
        assert_eq!(restricted_diameter(&g, &[n(0), n(1), n(99)]), None);
        assert_eq!(restricted_diameter(&g, &[n(99)]), None);
        assert_eq!(subgraph_distance(&g, &set(&[99]), n(99), n(99)), None);
        // an absent bystander does not lengthen a distance between present nodes
        assert_eq!(
            subgraph_distance(&g, &set(&[0, 1, 99]), n(0), n(1)),
            Some(1)
        );
    }

    #[test]
    fn kernel_matches_the_set_based_diameter() {
        let g = path_with_chord();
        assert_eq!(restricted_diameter(&g, &[n(0), n(1), n(2), n(3)]), Some(3));
        assert_eq!(restricted_diameter(&g, &[n(2)]), Some(0));
        assert_eq!(restricted_diameter(&g, &[n(0), n(2)]), None);
        assert_eq!(restricted_diameter(&g, &[]), None);
    }
}
