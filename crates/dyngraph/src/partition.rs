//! Partitions of a node set into groups.
//!
//! The agreement property ΠA states that the views define a partition of the
//! topology into disjoint subgraphs; [`Partition`] is the value-level object
//! the predicate checkers and the baselines manipulate.

use crate::algo::subgraph::subgraph_diameter;
use crate::graph::Graph;
use crate::id::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A partition of a set of nodes into named groups (blocks).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Partition {
    blocks: Vec<BTreeSet<NodeId>>,
}

impl Partition {
    /// Empty partition.
    pub fn new() -> Self {
        Partition { blocks: Vec::new() }
    }

    /// Build from blocks, dropping empty ones. Blocks are kept in a
    /// canonical order (sorted by smallest member) so two partitions with
    /// the same blocks compare equal.
    pub fn from_blocks<I: IntoIterator<Item = BTreeSet<NodeId>>>(blocks: I) -> Self {
        let mut blocks: Vec<BTreeSet<NodeId>> =
            blocks.into_iter().filter(|b| !b.is_empty()).collect();
        blocks.sort_by_key(|b| b.iter().next().copied());
        Partition { blocks }
    }

    /// Build the partition of `nodes` induced by a mapping node → group key.
    pub fn from_assignment(assignment: &BTreeMap<NodeId, u64>) -> Self {
        let mut by_key: BTreeMap<u64, BTreeSet<NodeId>> = BTreeMap::new();
        for (&node, &key) in assignment {
            by_key.entry(key).or_default().insert(node);
        }
        Partition::from_blocks(by_key.into_values())
    }

    /// Partition where every node is alone in its own group.
    pub fn singletons<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        Partition::from_blocks(nodes.into_iter().map(|n| {
            let mut s = BTreeSet::new();
            s.insert(n);
            s
        }))
    }

    /// The blocks (groups) of the partition.
    pub fn blocks(&self) -> &[BTreeSet<NodeId>] {
        &self.blocks
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// The group containing `node`, if any.
    pub fn group_of(&self, node: NodeId) -> Option<&BTreeSet<NodeId>> {
        self.blocks.iter().find(|b| b.contains(&node))
    }

    /// True when the two nodes are covered and in the same group.
    pub fn same_group(&self, a: NodeId, b: NodeId) -> bool {
        match (self.group_of(a), self.group_of(b)) {
            (Some(ga), Some(gb)) => std::ptr::eq(ga, gb) || ga == gb,
            _ => false,
        }
    }

    /// Are the blocks pairwise disjoint?
    pub fn is_disjoint(&self) -> bool {
        let mut seen = BTreeSet::new();
        for b in &self.blocks {
            for n in b {
                if !seen.insert(*n) {
                    return false;
                }
            }
        }
        true
    }

    /// Does the partition cover exactly the nodes of `graph`?
    pub fn covers(&self, graph: &Graph) -> bool {
        let covered: BTreeSet<NodeId> = self.blocks.iter().flatten().copied().collect();
        let nodes: BTreeSet<NodeId> = graph.nodes().collect();
        covered == nodes
    }

    /// Is this a valid partition of `graph` (disjoint and exactly covering)?
    pub fn is_partition_of(&self, graph: &Graph) -> bool {
        self.is_disjoint() && self.covers(graph)
    }

    /// Sizes of the groups, descending.
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.blocks.iter().map(|b| b.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Mean group size (0 for the empty partition).
    pub fn mean_group_size(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.node_count() as f64 / self.group_count() as f64
    }

    /// Number of singleton ("isolated") groups.
    pub fn singleton_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.len() == 1).count()
    }

    /// Diameters of each group's induced subgraph in `graph`
    /// (`None` = disconnected group).
    pub fn group_diameters(&self, graph: &Graph) -> Vec<Option<usize>> {
        self.blocks
            .iter()
            .map(|b| subgraph_diameter(graph, b))
            .collect()
    }

    /// True when every group's induced subgraph is connected and of diameter
    /// at most `dmax` (the safety property ΠS for a given partition).
    pub fn respects_diameter(&self, graph: &Graph, dmax: usize) -> bool {
        self.group_diameters(graph)
            .iter()
            .all(|d| matches!(d, Some(d) if *d <= dmax))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn set(ids: &[u64]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| n(i)).collect()
    }

    #[test]
    fn from_blocks_drops_empty_and_canonicalizes() {
        let p1 = Partition::from_blocks(vec![set(&[3, 4]), BTreeSet::new(), set(&[0, 1, 2])]);
        let p2 = Partition::from_blocks(vec![set(&[0, 1, 2]), set(&[3, 4])]);
        assert_eq!(p1, p2);
        assert_eq!(p1.group_count(), 2);
        assert_eq!(p1.node_count(), 5);
    }

    #[test]
    fn from_assignment_groups_by_key() {
        let mut asg = BTreeMap::new();
        asg.insert(n(0), 10);
        asg.insert(n(1), 10);
        asg.insert(n(2), 20);
        let p = Partition::from_assignment(&asg);
        assert_eq!(p.group_count(), 2);
        assert!(p.same_group(n(0), n(1)));
        assert!(!p.same_group(n(0), n(2)));
    }

    #[test]
    fn singletons_partition() {
        let p = Partition::singletons((0..4).map(n));
        assert_eq!(p.group_count(), 4);
        assert_eq!(p.singleton_count(), 4);
        assert!((p.mean_group_size() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjointness_and_coverage() {
        let g = path(4); // nodes 0..=3
        let good = Partition::from_blocks(vec![set(&[0, 1]), set(&[2, 3])]);
        assert!(good.is_disjoint());
        assert!(good.covers(&g));
        assert!(good.is_partition_of(&g));

        let overlapping = Partition::from_blocks(vec![set(&[0, 1]), set(&[1, 2, 3])]);
        assert!(!overlapping.is_disjoint());
        assert!(!overlapping.is_partition_of(&g));

        let incomplete = Partition::from_blocks(vec![set(&[0, 1])]);
        assert!(!incomplete.covers(&g));
    }

    #[test]
    fn group_lookup_and_sizes() {
        let p = Partition::from_blocks(vec![set(&[0, 1, 2]), set(&[3])]);
        assert_eq!(p.group_of(n(1)).unwrap().len(), 3);
        assert!(p.group_of(n(9)).is_none());
        assert_eq!(p.group_sizes(), vec![3, 1]);
        assert_eq!(p.singleton_count(), 1);
        assert!((p.mean_group_size() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_checks_on_path() {
        let g = path(6); // 0-1-2-3-4-5
        let p = Partition::from_blocks(vec![set(&[0, 1, 2]), set(&[3, 4, 5])]);
        assert_eq!(p.group_diameters(&g), vec![Some(2), Some(2)]);
        assert!(p.respects_diameter(&g, 2));
        assert!(!p.respects_diameter(&g, 1));

        // a disconnected group violates safety regardless of dmax
        let bad = Partition::from_blocks(vec![set(&[0, 2]), set(&[1, 3, 4, 5])]);
        assert!(!bad.respects_diameter(&g, 10));
    }

    #[test]
    fn same_group_requires_coverage() {
        let p = Partition::from_blocks(vec![set(&[0, 1])]);
        assert!(p.same_group(n(0), n(1)));
        assert!(!p.same_group(n(0), n(7)));
    }
}
