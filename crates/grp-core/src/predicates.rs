//! The specification predicates of the Dynamic Group Service problem.
//!
//! Section 3 of the paper defines five predicates. On single configurations:
//!
//! * **ΠA (agreement)** — the views define a partition into disjoint
//!   subgraphs: `u, v` are in the same block iff `view_u = view_v` = that
//!   block;
//! * **ΠS (safety)** — every group `Ω_v` is connected and its diameter in
//!   the group-induced subgraph is at most `Dmax`;
//! * **ΠM (maximality)** — no two distinct groups could be merged without
//!   violating ΠS.
//!
//! On pairs of successive configurations:
//!
//! * **ΠT (topological)** — every pair of nodes that were in the same group
//!   is still within `Dmax` hops *inside the old group*, in the new
//!   topology;
//! * **ΠC (continuity)** — no node disappears from any group:
//!   `Ω_v(c_i) ⊆ Ω_v(c_{i+1})`.
//!
//! The best-effort requirement the paper proves (Prop. 14) is `ΠT ⇒ ΠC`;
//! experiment E4 checks it on every consecutive pair of snapshots.
//!
//! All of them but ΠA speak of *groups*, and that is how they are
//! evaluated: [`OmegaPartition`] resolves a configuration's groups once,
//! and each predicate then measures a group (or a pair of adjacent groups)
//! with one call of `dyngraph`'s restricted-BFS kernel. The per-node,
//! per-pair reading of the definitions is the oracle of
//! `tests/property_predicates.rs`.

use crate::node::GrpNode;
use dyngraph::{restricted_diameter, Graph, NodeId};
use netsim::{Simulator, View, ViewProtocol};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

impl ViewProtocol for GrpNode {
    fn view(&self) -> &View {
        GrpNode::view(self)
    }
}

/// A global snapshot of one configuration: the topology and every node's
/// view at that instant.
///
/// Both parts are shared, not copied: the graph is the simulator's `Arc`,
/// and each [`View`] is the node's own. Snapshots of consecutive rounds
/// hold the same allocations for whatever did not change, so retaining the
/// full history of a run (the observer pipeline's `SnapshotRecorder`)
/// costs one pointer clone per node and round.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSnapshot {
    pub topology: Arc<Graph>,
    pub views: BTreeMap<NodeId, View>,
}

impl SystemSnapshot {
    /// A configuration of `views` on `topology`.
    pub fn new(topology: impl Into<Arc<Graph>>, views: BTreeMap<NodeId, View>) -> Self {
        SystemSnapshot {
            topology: topology.into(),
            views,
        }
    }

    /// Capture the current configuration of a simulator running any
    /// [`ViewProtocol`] protocol: the simulator's topology handle and a
    /// clone of every active node's [`View`] handle.
    ///
    /// **Snapshot semantics:** only *active* nodes contribute a view. A
    /// crashed or departed node has no view in the paper's model, so its
    /// frozen protocol state must not enter the predicate checks.
    pub fn from_simulator<P>(sim: &Simulator<P>) -> Self
    where
        P: ViewProtocol,
    {
        let views = sim
            .protocols()
            .filter(|&(id, _)| sim.is_active(id))
            .map(|(id, p)| (id, p.view().clone()))
            .collect();
        SystemSnapshot::new(sim.topology_shared(), views)
    }

    /// The nodes of this configuration.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.views.keys().copied()
    }

    /// The group `Ω_v` of the paper: the view when the node belongs to it
    /// and every member agrees on it, the singleton `{v}` otherwise.
    pub fn omega(&self, v: NodeId) -> View {
        match self.views.get(&v) {
            Some(view) if view_is_agreed(&self.views, v, view) => view.clone(),
            _ => View::singleton(v),
        }
    }

    /// The distinct groups `{Ω_v}` of the configuration, ascending by
    /// smallest member.
    pub fn groups(&self) -> Vec<BTreeSet<NodeId>> {
        OmegaPartition::of(self).to_sets()
    }

    /// **ΠA**: every node belongs to its own view and all quoted members
    /// share exactly the same view (and exist). Stops at the first node
    /// that does not.
    pub fn agreement(&self) -> bool {
        self.views
            .iter()
            .all(|(&v, view)| view_is_agreed(&self.views, v, view))
    }

    /// **ΠS**: every group is connected with diameter at most `dmax` in the
    /// subgraph it induces on the topology.
    pub fn safety(&self, dmax: usize) -> bool {
        OmegaPartition::of(self).safety(&self.topology, dmax)
    }

    /// **ΠM**: for every pair of distinct groups, merging them would create
    /// a pair of nodes farther apart than `dmax` inside the merged subgraph.
    pub fn maximality(&self, dmax: usize) -> bool {
        OmegaPartition::of(self).maximality(&self.topology, dmax)
    }

    /// The legitimacy predicate of the Dynamic Group Service:
    /// `ΠA ∧ ΠS ∧ ΠM`, evaluated in that order: a configuration without
    /// agreement is rejected at the first disagreeing node, before any
    /// group is formed or measured.
    pub fn legitimate(&self, dmax: usize) -> bool {
        self.agreement() && OmegaPartition::of(self).legitimate(&self.topology, dmax)
    }

    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        OmegaPartition::of(self).group_count()
    }

    /// Mean group size.
    pub fn mean_group_size(&self) -> f64 {
        OmegaPartition::of(self).mean_group_size()
    }

    /// Largest group diameter measured in the current topology
    /// (`None` when some group is disconnected).
    pub fn max_group_diameter(&self) -> Option<usize> {
        let mut max_d = 0;
        for group in OmegaPartition::of(self).iter() {
            if group.len() > 1 {
                max_d = max_d.max(diameter_of_present(&self.topology, group)?);
            }
        }
        Some(max_d)
    }
}

/// Is `view` the agreed group of `v`: `v` belongs to it, and every member
/// it quotes exists and holds an equal view?
fn view_is_agreed(views: &BTreeMap<NodeId, View>, v: NodeId, view: &View) -> bool {
    view.contains(&v)
        && view
            .iter()
            .all(|member| views.get(member).is_some_and(|other| other == view))
}

/// Diameter of the subgraph `group` induces on `topology`, under the ΠS
/// rule for members the topology does not have (a crashed node's ghost):
/// they are dropped, not counted as unreachable.
fn diameter_of_present(topology: &Graph, group: &[NodeId]) -> Option<usize> {
    let present: Vec<NodeId> = group
        .iter()
        .copied()
        .filter(|&m| topology.contains_node(m))
        .collect();
    restricted_diameter(topology, &present)
}

/// `∃ x, y ∈ members : d_members(x, y) > dmax` — the ΠM/ΠT rule, under
/// which a member the topology does not have is at `+∞` from the others
/// (as is any member of a disconnected set).
fn exceeds_dmax(topology: &Graph, members: &[NodeId], dmax: usize) -> bool {
    restricted_diameter(topology, members).is_none_or(|d| d > dmax)
}

/// The Ω-partition of one configuration — every node's group `Ω_v`,
/// computed once — and the predicates of the specification evaluated per
/// *group*, which is how the paper defines them.
///
/// The partition depends on the views alone, so the topology is an
/// argument of each predicate: ΠS and ΠM measure the groups in the
/// configuration's own topology, ΠT measures them in the *next* one.
/// [`SystemSnapshot`]'s predicate methods and [`pi_t_violations`] /
/// [`pi_c_violations`] build one of these per call; a caller that asks
/// several questions of one configuration (the observer pipeline, the
/// scenario runner's assertions) builds it once and asks them here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OmegaPartition {
    /// The configuration's nodes, ascending.
    nodes: Vec<NodeId>,
    /// `group_of[i]` is the group of `nodes[i]`.
    group_of: Vec<usize>,
    /// Group `g` is `members[starts[g]..starts[g + 1]]`, ascending; groups
    /// are disjoint, cover `nodes` and ascend by smallest member.
    members: Vec<NodeId>,
    starts: Vec<usize>,
    agreement: bool,
}

impl OmegaPartition {
    /// Partition `snapshot`'s nodes into their groups `Ω_v`.
    pub fn of(snapshot: &SystemSnapshot) -> Self {
        const UNASSIGNED: usize = usize::MAX;
        let views = &snapshot.views;
        let nodes: Vec<NodeId> = views.keys().copied().collect();
        let mut group_of = vec![UNASSIGNED; nodes.len()];
        let mut members = Vec::with_capacity(nodes.len());
        let mut starts = vec![0];
        let mut agreement = true;
        for (i, (&v, view)) in views.iter().enumerate() {
            if group_of[i] != UNASSIGNED {
                continue;
            }
            let group = starts.len() - 1;
            if view_is_agreed(views, v, view) {
                // every member holds this very view: none is in a group yet
                for &member in view.iter() {
                    if let Ok(at) = nodes.binary_search(&member) {
                        group_of[at] = group;
                    }
                    members.push(member);
                }
            } else {
                agreement = false;
                group_of[i] = group;
                members.push(v);
            }
            starts.push(members.len());
        }
        OmegaPartition {
            nodes,
            group_of,
            members,
            starts,
            agreement,
        }
    }

    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The groups, each an ascending member slice, ascending by smallest
    /// member.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.group_count()).map(|index| self.group(index))
    }

    /// The groups as owned sets.
    pub fn to_sets(&self) -> Vec<BTreeSet<NodeId>> {
        self.iter()
            .map(|group| group.iter().copied().collect())
            .collect()
    }

    /// Index (in [`iter`](Self::iter) order) of the group `v` belongs to;
    /// `None` for a node the configuration does not have.
    fn group_index(&self, v: NodeId) -> Option<usize> {
        self.nodes
            .binary_search(&v)
            .ok()
            .map(|at| self.group_of[at])
    }

    /// Mean group size (0 for the empty configuration).
    pub fn mean_group_size(&self) -> f64 {
        if self.group_count() == 0 {
            return 0.0;
        }
        self.members.len() as f64 / self.group_count() as f64
    }

    /// **ΠA**: no node fell back to a singleton — every `Ω_v` is `v`'s own,
    /// agreed view.
    pub fn agreement(&self) -> bool {
        self.agreement
    }

    /// **ΠS**, once per group: connected with diameter at most `dmax` in
    /// the subgraph it induces on `topology`. A group none of whose members
    /// the topology has is safe only as a singleton (a crashed node's
    /// ghost holding its own view).
    pub fn safety(&self, topology: &Graph, dmax: usize) -> bool {
        self.iter()
            .all(|group| match diameter_of_present(topology, group) {
                Some(d) => d <= dmax,
                None => group.len() <= 1,
            })
    }

    /// **ΠM**: no two distinct groups could merge within `dmax`. Only the
    /// pairs joined by at least one topology edge are measured: the union
    /// of two groups with no edge between them is disconnected, which
    /// already puts two of its nodes farther apart than any `dmax`.
    pub fn maximality(&self, topology: &Graph, dmax: usize) -> bool {
        let mut joined: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (&a, &group_a) in self.nodes.iter().zip(&self.group_of) {
            for b in topology.neighbors(a).filter(|&b| a < b) {
                match self.group_index(b) {
                    Some(group_b) if group_b != group_a => {
                        joined.insert((group_a.min(group_b), group_a.max(group_b)));
                    }
                    _ => {}
                }
            }
        }
        joined.into_iter().all(|(i, j)| {
            let mut union = [self.group(i), self.group(j)].concat();
            union.sort_unstable();
            exceeds_dmax(topology, &union, dmax)
        })
    }

    /// `ΠA ∧ ΠS ∧ ΠM`, short-circuiting in that order.
    pub fn legitimate(&self, topology: &Graph, dmax: usize) -> bool {
        self.agreement && self.safety(topology, dmax) && self.maximality(topology, dmax)
    }

    /// Number of nodes whose group — a group of *this*, older partition —
    /// violates the ΠT condition in `next_topology`: some two of its
    /// members are no longer within `dmax` hops of each other using only
    /// members as relays. One measurement per group; all of a violating
    /// group's members count.
    pub fn pi_t_violations(&self, next_topology: &Graph, dmax: usize) -> usize {
        self.iter()
            .filter(|group| group.len() > 1 && exceeds_dmax(next_topology, group, dmax))
            .map(<[NodeId]>::len)
            .sum()
    }

    /// Number of nodes whose group lost at least one member between this,
    /// older partition and `next`. `Ω_v` keeps all of an old group exactly
    /// when `next` still puts every member of it in `v`'s group, so a group
    /// either survives whole or all of its members count.
    pub fn pi_c_violations(&self, next: &OmegaPartition) -> usize {
        self.iter()
            .filter(|group| {
                let Some((&first, rest)) = group.split_first() else {
                    return false;
                };
                match next.group_index(first) {
                    Some(target) => rest.iter().any(|&m| next.group_index(m) != Some(target)),
                    // `first` left the configuration: its Ω is now `{first}`
                    None => !rest.is_empty(),
                }
            })
            .map(<[NodeId]>::len)
            .sum()
    }

    fn group(&self, index: usize) -> &[NodeId] {
        &self.members[self.starts[index]..self.starts[index + 1]]
    }
}

/// **ΠT** on a pair of successive configurations: for every node, the
/// members of its *old* group are still pairwise within `dmax` hops in the
/// *new* topology, using only members of the old group as relays.
pub fn pi_t(prev: &SystemSnapshot, next: &SystemSnapshot, dmax: usize) -> bool {
    pi_t_violations(prev, next, dmax) == 0
}

/// Number of nodes whose old group violates the ΠT condition in the new
/// topology.
pub fn pi_t_violations(prev: &SystemSnapshot, next: &SystemSnapshot, dmax: usize) -> usize {
    OmegaPartition::of(prev).pi_t_violations(&next.topology, dmax)
}

/// **ΠC** on a pair of successive configurations: no node disappears from
/// any group (`Ω_v(c_i) ⊆ Ω_v(c_{i+1})` for every `v`).
pub fn pi_c(prev: &SystemSnapshot, next: &SystemSnapshot) -> bool {
    pi_c_violations(prev, next) == 0
}

/// Number of nodes whose group lost at least one member between the two
/// configurations.
pub fn pi_c_violations(prev: &SystemSnapshot, next: &SystemSnapshot) -> usize {
    OmegaPartition::of(prev).pi_c_violations(&OmegaPartition::of(next))
}

/// Total number of (node, lost member) pairs between two configurations —
/// the "view churn" metric of experiment E5.
pub fn view_removals(prev: &SystemSnapshot, next: &SystemSnapshot) -> usize {
    prev.views
        .iter()
        .map(|(v, before)| match next.views.get(v) {
            Some(after) => before.iter().filter(|m| !after.contains(m)).count(),
            None => before.len(),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;
    use dyngraph::TopologyEvent;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn views(spec: &[(u64, &[u64])]) -> BTreeMap<NodeId, View> {
        spec.iter()
            .map(|&(v, members)| (n(v), members.iter().map(|&m| n(m)).collect()))
            .collect()
    }

    fn snap(topology: Graph, spec: &[(u64, &[u64])]) -> SystemSnapshot {
        SystemSnapshot::new(topology, views(spec))
    }

    #[test]
    fn agreement_holds_for_consistent_views() {
        let s = snap(
            path(4),
            &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2, 3]), (3, &[2, 3])],
        );
        assert!(s.agreement());
        assert_eq!(s.group_count(), 2);
        assert_eq!(s.omega(n(0)), [n(0), n(1)].into_iter().collect());
    }

    #[test]
    fn agreement_fails_on_disagreeing_views() {
        let s = snap(path(3), &[(0, &[0, 1]), (1, &[1]), (2, &[2])]);
        assert!(!s.agreement());
        // the omega of 0 falls back to a singleton
        assert_eq!(s.omega(n(0)), [n(0)].into_iter().collect());
    }

    #[test]
    fn agreement_fails_when_node_missing_from_own_view() {
        let s = snap(path(2), &[(0, &[1]), (1, &[1])]);
        assert!(!s.agreement());
    }

    #[test]
    fn agreement_fails_when_view_quotes_nonexistent_node() {
        let s = snap(path(2), &[(0, &[0, 1, 9]), (1, &[0, 1, 9])]);
        assert!(!s.agreement());
    }

    #[test]
    fn safety_checks_group_diameter() {
        // path 0-1-2-3, both pairs grouped: diameters 1, fine for dmax 1
        let s = snap(
            path(4),
            &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2, 3]), (3, &[2, 3])],
        );
        assert!(s.safety(1));
        // one group of all four nodes: diameter 3
        let s = snap(
            path(4),
            &[
                (0, &[0, 1, 2, 3]),
                (1, &[0, 1, 2, 3]),
                (2, &[0, 1, 2, 3]),
                (3, &[0, 1, 2, 3]),
            ],
        );
        assert!(s.safety(3));
        assert!(!s.safety(2));
    }

    #[test]
    fn safety_rejects_disconnected_group() {
        // group {0, 2} has no internal edge on a path 0-1-2
        let s = snap(path(3), &[(0, &[0, 2]), (1, &[1]), (2, &[0, 2])]);
        assert!(!s.safety(5));
    }

    #[test]
    fn maximality_detects_mergeable_groups() {
        // path 0-1-2-3 with singleton groups everywhere: 0 and 1 could merge
        let s = snap(path(4), &[(0, &[0]), (1, &[1]), (2, &[2]), (3, &[3])]);
        assert!(!s.maximality(2));
        // whole path in one group: nothing left to merge
        let s = snap(
            path(4),
            &[
                (0, &[0, 1, 2, 3]),
                (1, &[0, 1, 2, 3]),
                (2, &[0, 1, 2, 3]),
                (3, &[0, 1, 2, 3]),
            ],
        );
        assert!(s.maximality(3));
        assert!(s.legitimate(3));
    }

    #[test]
    fn maximality_holds_when_groups_are_far_apart() {
        // path of 6, dmax 1: {0,1} and {4,5} cannot merge (distance), {2,3}
        // adjacent to both but any merge exceeds diameter 1
        let s = snap(
            path(6),
            &[
                (0, &[0, 1]),
                (1, &[0, 1]),
                (2, &[2, 3]),
                (3, &[2, 3]),
                (4, &[4, 5]),
                (5, &[4, 5]),
            ],
        );
        assert!(s.maximality(1));
        assert!(s.legitimate(1));
    }

    #[test]
    fn pi_t_and_pi_c_on_a_link_removal() {
        let before = snap(
            path(3),
            &[(0, &[0, 1, 2]), (1, &[0, 1, 2]), (2, &[0, 1, 2])],
        );
        // after: the link 1-2 disappears, 2 is unreachable within the group
        let broken = path(3).apply(TopologyEvent::LinkDown(n(1), n(2)));
        let after_topology_only = SystemSnapshot::new(broken.clone(), before.views.clone());
        assert!(!pi_t(&before, &after_topology_only, 2));
        assert!(pi_t_violations(&before, &after_topology_only, 2) > 0);

        // the protocol reacts by shrinking the views → ΠC is violated, which
        // is allowed because ΠT was violated first
        let after = snap(broken, &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2])]);
        assert!(!pi_c(&before, &after));
        assert_eq!(pi_c_violations(&before, &after), 3);
        // nodes 0 and 1 each lose member 2, node 2 loses members 0 and 1
        assert_eq!(view_removals(&before, &after), 4);
    }

    #[test]
    fn pi_t_holds_when_topology_change_preserves_distances() {
        let before = snap(
            path(3),
            &[(0, &[0, 1, 2]), (1, &[0, 1, 2]), (2, &[0, 1, 2])],
        );
        // adding a chord never hurts
        let richer = path(3).apply(TopologyEvent::LinkUp(n(0), n(2)));
        let after = SystemSnapshot::new(richer, before.views.clone());
        assert!(pi_t(&before, &after, 2));
        assert!(pi_c(&before, &after));
        assert_eq!(view_removals(&before, &after), 0);
    }

    #[test]
    fn a_ghost_singleton_is_safe() {
        // node 9 holds the view {9} but the topology does not have it (a
        // crashed node's ghost): ΠS drops absent members, so the group has
        // no diameter to exceed
        let s = snap(path(2), &[(0, &[0, 1]), (1, &[0, 1]), (9, &[9])]);
        assert!(s.agreement());
        assert!(s.safety(1));
        // the same rule keeps a group safe on the members that do exist
        let s = snap(path(2), &[(0, &[0]), (1, &[1, 9]), (9, &[1, 9])]);
        assert!(s.safety(0));
    }

    #[test]
    fn a_ghost_among_others_is_infinitely_far() {
        // groups {0} and {1, 9} touch along the edge 0-1; ΠM and ΠT put the
        // absent 9 at +∞ from everyone, so the union {0, 1, 9} cannot merge
        // (dropping 9, as ΠS does, would leave the mergeable {0, 1})…
        let s = snap(path(2), &[(0, &[0]), (1, &[1, 9]), (9, &[1, 9])]);
        assert!(s.maximality(1));
        let mergeable = snap(path(2), &[(0, &[0]), (1, &[1])]);
        assert!(!mergeable.maximality(1));
        // …and the old group {1, 9} is torn in any topology without 9
        assert_eq!(pi_t_violations(&s, &s, 5), 2);
        assert!(pi_c(&s, &s));
    }

    #[test]
    fn group_statistics() {
        let s = snap(
            path(4),
            &[(0, &[0, 1]), (1, &[0, 1]), (2, &[2, 3]), (3, &[2, 3])],
        );
        assert_eq!(s.group_count(), 2);
        assert!((s.mean_group_size() - 2.0).abs() < 1e-12);
        assert_eq!(s.max_group_diameter(), Some(1));
        // the groups partition the nodes: disjoint, and covering all of them
        let mut covered: Vec<NodeId> = OmegaPartition::of(&s).iter().flatten().copied().collect();
        covered.sort_unstable();
        assert_eq!(covered, s.topology.node_vec());
    }
}
