//! `GrpNode`'s flat bookkeeping — the id-sorted `NodeTable`s behind
//! `msgSetv`, the learnt priorities and the quarantine counters, the merges
//! `compute()` runs over them, and the set-free `compatibleList` — against
//! an in-test transcription of the `BTreeMap`/`BTreeSet` bookkeeping they
//! replaced ([`oracle`]).
//!
//! The two are driven in lockstep over random graphs of at most ten nodes
//! with random loss, and through hostile inputs: the same sender delivering
//! twice, forged messages whose priority tables quote the receiver and
//! contradict each other, in-flight `corrupt_message` ghosts, `corrupt`, and
//! every `enumerate_corruptions` state. After every step each node's view,
//! list, built message and canonical encoding must agree with the oracle's.

use dyngraph::NodeId;
use grp_core::ancestor_list::AncestorList;
use grp_core::checks::{compatible_list, naive_compatible_list};
use grp_core::marks::Mark;
use grp_core::priority::Priority;
use grp_core::{GrpConfig, GrpNode, PriorityInfo};
use netsim::{CanonicalHasher, Protocol, TraceDigest};
use oracle::{RefMessage, RefNode};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The bookkeeping `GrpNode` kept before its tables went flat, transcribed
/// line for line: `BTreeMap` tables, `BTreeSet` views and a set-building
/// `compatibleList`.
mod oracle {
    use dyngraph::NodeId;
    use grp_core::ancestor_list::AncestorList;
    use grp_core::checks::good_list;
    use grp_core::marks::Mark;
    use grp_core::priority::{group_priority, Priority};
    use grp_core::{GrpConfig, GrpMessage, PriorityInfo};
    use netsim::CanonicalHasher;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    fn core_len(list: &AncestorList, exclude: &BTreeSet<NodeId>) -> usize {
        let mut deepest = None;
        for i in 0..list.len() {
            if let Some(level) = list.level(i) {
                let has_content = level
                    .iter()
                    .any(|&(n, m)| !m.is_marked() && !exclude.contains(&n));
                if has_content {
                    deepest = Some(i);
                }
            }
        }
        deepest.map(|i| i + 1).unwrap_or(0)
    }

    fn received_exclusions(own_id: NodeId, own_list: &AncestorList) -> BTreeSet<NodeId> {
        let mut exclude = own_list.unmarked_nodes();
        exclude.insert(own_id);
        exclude
    }

    pub fn compatible_list(
        own_id: NodeId,
        own_list: &AncestorList,
        received: &AncestorList,
        dmax: usize,
    ) -> bool {
        let own_len = core_len(own_list, &BTreeSet::new());
        let recv_len = core_len(received, &received_exclusions(own_id, own_list));
        if own_len == 0 || recv_len == 0 {
            return true;
        }
        if own_len + recv_len <= dmax + 1 {
            return true;
        }
        let p = own_len - 1;
        let q = recv_len - 1;
        let sender_neighbours: BTreeSet<NodeId> = received.level_nodes(1);
        if sender_neighbours.is_empty() {
            return false;
        }
        for i in 0..=p {
            let our_level: BTreeSet<NodeId> = own_list
                .level(i)
                .map(|lvl| {
                    lvl.iter()
                        .filter(|(_, mark)| !mark.is_marked())
                        .map(|&(node, _)| node)
                        .collect()
                })
                .unwrap_or_default();
            if our_level.is_empty() {
                continue;
            }
            if our_level.is_subset(&sender_neighbours) {
                let via_far_side = p - i + 1 + q;
                let via_shortcut = i / 2 + q + 1;
                if via_far_side.min(via_shortcut) <= dmax {
                    return true;
                }
            }
        }
        false
    }

    pub fn naive_compatible_list(
        own_id: NodeId,
        own_list: &AncestorList,
        received: &AncestorList,
        dmax: usize,
    ) -> bool {
        let own_len = core_len(own_list, &BTreeSet::new());
        let recv_len = core_len(received, &received_exclusions(own_id, own_list));
        own_len == 0 || recv_len == 0 || own_len + recv_len <= dmax + 1
    }

    /// A broadcast with a `BTreeMap` priority table.
    #[derive(Clone, Debug, PartialEq)]
    pub struct RefMessage {
        pub sender: NodeId,
        pub list: AncestorList,
        pub priorities: BTreeMap<NodeId, PriorityInfo>,
        pub group_priority: Priority,
    }

    impl RefMessage {
        pub fn of(msg: &GrpMessage) -> Self {
            RefMessage {
                sender: msg.sender,
                list: (*msg.list).clone(),
                priorities: msg.priorities.iter().copied().collect(),
                group_priority: msg.group_priority,
            }
        }

        pub fn to_grp(&self) -> GrpMessage {
            GrpMessage {
                sender: self.sender,
                list: Arc::new(self.list.clone()),
                priorities: Arc::new(self.priorities.iter().map(|(&n, &i)| (n, i)).collect()),
                group_priority: self.group_priority,
            }
        }
    }

    #[derive(Clone, Debug)]
    pub struct RefNode {
        id: NodeId,
        config: GrpConfig,
        pub list: AncestorList,
        pub view: BTreeSet<NodeId>,
        msg_set: BTreeMap<NodeId, RefMessage>,
        quarantine: BTreeMap<NodeId, u32>,
        priority_value: u64,
        was_in_group: bool,
        known_priorities: BTreeMap<NodeId, PriorityInfo>,
    }

    impl RefNode {
        pub fn new(id: NodeId, config: GrpConfig) -> Self {
            let mut view = BTreeSet::new();
            view.insert(id);
            RefNode {
                id,
                config,
                list: AncestorList::singleton(id),
                view,
                msg_set: BTreeMap::new(),
                quarantine: BTreeMap::new(),
                priority_value: 0,
                was_in_group: false,
                known_priorities: BTreeMap::new(),
            }
        }

        fn priority(&self) -> Priority {
            Priority::new(self.priority_value, self.id)
        }

        fn in_group(&self) -> bool {
            self.view.len() > 1
        }

        fn group_priority(&self) -> Priority {
            let members = self.view.iter().map(|&m| {
                if m == self.id {
                    self.priority()
                } else {
                    self.known_priorities
                        .get(&m)
                        .map(|i| i.node)
                        .unwrap_or_else(|| Priority::new(u64::MAX, m))
                }
            });
            group_priority(members).unwrap_or_else(|| self.priority())
        }

        pub fn receive(&mut self, msg: RefMessage) {
            self.msg_set.insert(msg.sender, msg);
        }

        pub fn build_message(&self) -> RefMessage {
            let my_priority = self.priority();
            let my_group_priority = self.group_priority();
            let mut priorities = BTreeMap::new();
            for node in self.list.all_nodes() {
                let info = if node == self.id {
                    PriorityInfo::new(my_priority, my_group_priority)
                } else if let Some(&known) = self.known_priorities.get(&node) {
                    let group = if self.view.contains(&node) {
                        my_group_priority
                    } else {
                        known.group
                    };
                    PriorityInfo::new(known.node, group)
                } else {
                    PriorityInfo::solo(Priority::new(u64::MAX, node))
                };
                priorities.insert(node, info);
            }
            RefMessage {
                sender: self.id,
                list: self.list.clone(),
                priorities,
                group_priority: my_group_priority,
            }
        }

        pub fn on_round(&mut self) {
            self.compute();
            self.msg_set.clear();
        }

        fn compute(&mut self) {
            let dmax = self.config.dmax;
            self.absorb_priorities();
            let mut checked: BTreeMap<NodeId, AncestorList> = BTreeMap::new();
            for (&sender, msg) in &self.msg_set {
                let mut lu = msg.list.clone();
                lu.remove_marked_except(self.id);
                if !good_list(self.id, &lu, dmax) {
                    lu = AncestorList::marked_singleton(sender, Mark::Pending);
                } else if !self.view.contains(&sender) && !self.is_compatible(&lu) {
                    lu = AncestorList::marked_singleton(sender, Mark::Incompatible);
                }
                checked.insert(sender, lu);
            }
            let mut lv = AncestorList::singleton(self.id);
            for lu in checked.values() {
                lv = lv.ant(lu);
            }
            if lv.len() > dmax + 1 {
                let far_nodes = lv.level_nodes(dmax + 1);
                for w in far_nodes {
                    if self.far_node_has_priority(w) {
                        let providers: Vec<NodeId> = checked
                            .iter()
                            .filter(|(_, lu)| lu.level_contains(dmax, w))
                            .map(|(&u, _)| u)
                            .collect();
                        for u in providers {
                            checked
                                .insert(u, AncestorList::marked_singleton(u, Mark::Incompatible));
                        }
                    }
                }
                lv = AncestorList::singleton(self.id);
                for lu in checked.values() {
                    lv = lv.ant(lu);
                }
                lv.truncate(dmax + 1);
            }
            self.list = lv;
            self.update_quarantines();
            self.view = self
                .list
                .unmarked_nodes()
                .into_iter()
                .filter(|&x| x == self.id || self.quarantine.get(&x).copied().unwrap_or(0) == 0)
                .collect();
            self.view.insert(self.id);
            if self.was_in_group && !self.in_group() {
                self.priority_value = self.priority_value.saturating_add(1);
            }
            self.was_in_group = self.in_group();
        }

        fn is_compatible(&self, received: &AncestorList) -> bool {
            if self.config.naive_compatibility {
                naive_compatible_list(self.id, &self.list, received, self.config.dmax)
            } else {
                compatible_list(self.id, &self.list, received, self.config.dmax)
            }
        }

        fn far_node_has_priority(&self, w: NodeId) -> bool {
            if w == self.id {
                return false;
            }
            match self.known_priorities.get(&w) {
                Some(info) => {
                    if self.view.contains(&w) {
                        info.node.beats(&self.priority())
                    } else {
                        info.group.beats(&self.group_priority())
                    }
                }
                None => false,
            }
        }

        fn absorb_priorities(&mut self) {
            let own_id = self.id;
            for msg in self.msg_set.values() {
                for (&node, &info) in msg.priorities.iter() {
                    if node == own_id {
                        continue;
                    }
                    self.known_priorities.insert(node, info);
                }
            }
            for msg in self.msg_set.values() {
                if let Some(&self_info) = msg.priorities.get(&msg.sender) {
                    self.known_priorities.insert(msg.sender, self_info);
                }
            }
        }

        fn update_quarantines(&mut self) {
            let unmarked = self.list.unmarked_nodes();
            for &x in &unmarked {
                if x == self.id {
                    continue;
                }
                if self.view.contains(&x) {
                    self.quarantine.insert(x, 0);
                    continue;
                }
                match self.quarantine.get_mut(&x) {
                    Some(q) => {
                        if *q > 0 {
                            *q -= 1;
                        }
                    }
                    None => {
                        self.quarantine.insert(x, self.config.quarantine_rounds());
                    }
                }
            }
            let own_id = self.id;
            self.quarantine.retain(|n, q| {
                if unmarked.contains(n) {
                    return true;
                }
                if *n == own_id {
                    return false;
                }
                if *q > 0 {
                    *q -= 1;
                }
                *q > 0
            });
        }

        pub fn corrupt(&mut self, ghost_nodes: &[NodeId], scramble_priority: u64) {
            let mut levels: Vec<Vec<(NodeId, Mark)>> = vec![vec![(self.id, Mark::Clear)]];
            for (i, &g) in ghost_nodes.iter().enumerate() {
                let level = 1 + (i % (self.config.dmax + 2));
                while levels.len() <= level {
                    levels.push(Vec::new());
                }
                levels[level].push((g, Mark::Clear));
            }
            self.list = AncestorList::from_levels(levels);
            self.view = self.list.all_nodes();
            self.view.insert(self.id);
            for &g in ghost_nodes {
                self.quarantine.insert(g, 0);
            }
            self.priority_value = scramble_priority;
        }

        pub fn reboot(&mut self) {
            *self = RefNode::new(self.id, self.config.clone());
        }

        pub fn enumerate_corruptions(&self, universe: &[NodeId]) -> Vec<(String, RefNode)> {
            let mut variants = Vec::new();

            let ghost = NodeId(900_000 + self.id.raw());
            let mut ghosted = self.clone();
            let mut levels = ghosted.list.to_levels();
            while levels.len() < 2 {
                levels.push(Vec::new());
            }
            levels[1].push((ghost, Mark::Clear));
            levels[1].sort_unstable_by_key(|&(n, _)| n);
            ghosted.list = AncestorList::from_levels(levels);
            ghosted.view.insert(ghost);
            ghosted.quarantine.insert(ghost, 0);
            variants.push(("ghost-member".to_string(), ghosted));

            if let Some(&stranger) = universe
                .iter()
                .find(|&&u| u != self.id && !self.view.contains(&u))
            {
                let mut premature = self.clone();
                let mut levels = premature.list.to_levels();
                while levels.len() < 2 {
                    levels.push(Vec::new());
                }
                levels[1].push((stranger, Mark::Clear));
                levels[1].sort_unstable_by_key(|&(n, _)| n);
                premature.list = AncestorList::from_levels(levels);
                premature.view.insert(stranger);
                premature.quarantine.insert(stranger, 0);
                variants.push(("premature-member".to_string(), premature));
            }

            let mut weak = self.clone();
            weak.priority_value = 999;
            variants.push(("weak-priority".to_string(), weak));

            let mut single = self.clone();
            let levels = single
                .list
                .to_levels()
                .into_iter()
                .map(|level| {
                    level
                        .into_iter()
                        .map(|(node, mark)| {
                            let mark = if node == self.id { mark } else { Mark::Pending };
                            (node, mark)
                        })
                        .collect()
                })
                .collect();
            single.list = AncestorList::from_levels(levels);
            variants.push(("pending-marks".to_string(), single));

            variants
        }

        pub fn feed_canonical(&self, hasher: &mut CanonicalHasher) {
            hasher.begin_list("grp-node");
            hasher.feed_u64(self.id.raw());
            hasher.feed_u64(self.config.dmax as u64);
            hasher.feed_bool(self.config.naive_compatibility);
            hasher.feed_bool(self.config.disable_quarantine);
            feed_list(&self.list, hasher);
            hasher.feed_node_set(self.view.iter().copied());
            hasher.feed_u64(self.msg_set.len() as u64);
            for (&sender, msg) in &self.msg_set {
                hasher.feed_u64(sender.raw());
                feed_message_canonical(msg, hasher);
            }
            hasher.feed_u64(self.quarantine.len() as u64);
            for (&node, &q) in &self.quarantine {
                hasher.feed_u64(node.raw());
                hasher.feed_u64(q as u64);
            }
            hasher.feed_u64(self.priority_value);
            hasher.feed_bool(self.was_in_group);
            hasher.feed_u64(self.known_priorities.len() as u64);
            for (&node, info) in &self.known_priorities {
                hasher.feed_u64(node.raw());
                feed_priority_info(info, hasher);
            }
            hasher.end_list();
        }
    }

    pub fn feed_message_canonical(msg: &RefMessage, hasher: &mut CanonicalHasher) {
        hasher.begin_list("grp-msg");
        hasher.feed_u64(msg.sender.raw());
        feed_list(&msg.list, hasher);
        hasher.feed_u64(msg.priorities.len() as u64);
        for (&node, info) in msg.priorities.iter() {
            hasher.feed_u64(node.raw());
            feed_priority_info(info, hasher);
        }
        hasher.feed_u64(msg.group_priority.value);
        hasher.feed_u64(msg.group_priority.id.raw());
        hasher.end_list();
    }

    fn feed_list(list: &AncestorList, hasher: &mut CanonicalHasher) {
        let levels = list.to_levels();
        hasher.begin_list("alist");
        hasher.feed_u64(levels.len() as u64);
        for level in &levels {
            hasher.feed_u64(level.len() as u64);
            for &(node, mark) in level {
                hasher.feed_u64(node.raw());
                hasher.feed_u64(match mark {
                    Mark::Clear => 0,
                    Mark::Pending => 1,
                    Mark::Incompatible => 2,
                });
            }
        }
        hasher.end_list();
    }

    fn feed_priority_info(info: &PriorityInfo, hasher: &mut CanonicalHasher) {
        hasher.feed_u64(info.node.value);
        hasher.feed_u64(info.node.id.raw());
        hasher.feed_u64(info.group.value);
        hasher.feed_u64(info.group.id.raw());
    }
}

/// Ids drawn for hostile content: the graph's own nodes (≤ 10) plus a few
/// that exist nowhere.
const HOSTILE_IDS: u64 = 14;

fn mark_of(tag: u8) -> Mark {
    match tag {
        0 => Mark::Clear,
        1 => Mark::Pending,
        _ => Mark::Incompatible,
    }
}

/// A *raw* list: duplicates within and across levels, empty levels and
/// arbitrary marks all allowed, as `from_levels` admits them.
fn arb_raw_list() -> impl Strategy<Value = AncestorList> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..HOSTILE_IDS, 0u8..3), 0..4),
        0..5,
    )
    .prop_map(|levels| {
        AncestorList::from_levels(
            levels
                .into_iter()
                .map(|lvl| {
                    lvl.into_iter()
                        .map(|(id, tag)| (NodeId(id), mark_of(tag)))
                        .collect()
                })
                .collect(),
        )
    })
}

/// One step of a lockstep run.
#[derive(Clone, Debug)]
enum Step {
    /// `node` broadcasts; a neighbour `v` misses it when bit `v` of `loss`
    /// is set.
    Send {
        node: usize,
        loss: u16,
    },
    /// `node`'s compute timer fires.
    Compute {
        node: usize,
    },
    /// `from`'s current broadcast reaches `to` twice, adjacent or not.
    Duplicate {
        from: usize,
        to: usize,
    },
    /// A forged message reaches `to`: any sender id (the receiver's own
    /// included), any raw list, a priority table that may quote the
    /// receiver and contradict every other quote.
    Forge {
        to: usize,
        sender: u64,
        list: AncestorList,
        quotes: Vec<(u64, u64, u64, u64)>,
        group: (u64, u64),
    },
    /// `node` broadcasts and the message is corrupted in flight
    /// (`Protocol::corrupt_message`) before every neighbour gets it.
    CorruptInFlight {
        node: usize,
        seed: u64,
    },
    /// `GrpNode::corrupt` with arbitrary ghost ids (real nodes and the
    /// node's own id included).
    Corrupt {
        node: usize,
        ghosts: Vec<u64>,
        priority: u64,
    },
    /// Install one of `enumerate_corruptions`' states.
    Corruption {
        node: usize,
        pick: usize,
    },
    Reboot {
        node: usize,
    },
}

/// Sends and computes are listed twice so that ordinary traffic, which
/// forms the groups and the quarantines the hostile steps then disturb,
/// makes up half of a script.
fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..10, 0u16..u16::MAX, 0u16..u16::MAX)
            .prop_map(|(node, a, b)| Step::Send { node, loss: a & b }),
        (0usize..10, 0u16..u16::MAX, 0u16..u16::MAX)
            .prop_map(|(node, a, b)| Step::Send { node, loss: a & b }),
        (0usize..10).prop_map(|node| Step::Compute { node }),
        (0usize..10).prop_map(|node| Step::Compute { node }),
        (0usize..10, 0usize..10).prop_map(|(from, to)| Step::Duplicate { from, to }),
        (
            0usize..10,
            0u64..HOSTILE_IDS,
            arb_raw_list(),
            proptest::collection::vec(
                (0u64..HOSTILE_IDS, 0u64..4, 0u64..4, 0u64..HOSTILE_IDS),
                0..6
            ),
            (0u64..4, 0u64..HOSTILE_IDS),
        )
            .prop_map(|(to, sender, list, quotes, group)| Step::Forge {
                to,
                sender,
                list,
                quotes,
                group
            }),
        (0usize..10, 0u64..1_000).prop_map(|(node, seed)| Step::CorruptInFlight { node, seed }),
        (
            0usize..10,
            proptest::collection::vec(0u64..HOSTILE_IDS, 0..4),
            0u64..4
        )
            .prop_map(|(node, ghosts, priority)| Step::Corrupt {
                node,
                ghosts,
                priority
            }),
        (0usize..10, 0usize..4).prop_map(|(node, pick)| Step::Corruption { node, pick }),
        (0usize..10).prop_map(|node| Step::Reboot { node }),
    ]
}

/// A graph on `n` nodes, the config knobs and a script of steps.
#[derive(Clone, Debug)]
struct Run {
    n: usize,
    edges: Vec<(usize, usize)>,
    dmax: usize,
    naive: bool,
    no_quarantine: bool,
    steps: Vec<Step>,
}

fn arb_run() -> impl Strategy<Value = Run> {
    (
        2usize..11,
        proptest::collection::vec((0usize..10, 0usize..10), 0..20),
        1usize..4,
        (0u8..4, 0u8..4),
        proptest::collection::vec(arb_step(), 1..120),
    )
        .prop_map(|(n, pairs, dmax, (naive, quarantine), steps)| Run {
            n,
            edges: pairs
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .collect(),
            dmax,
            // the faithful configuration three times in four
            naive: naive == 0,
            no_quarantine: quarantine == 0,
            steps,
        })
}

fn digest(feed: impl FnOnce(&mut CanonicalHasher)) -> TraceDigest {
    let mut hasher = CanonicalHasher::new();
    feed(&mut hasher);
    hasher.finalize()
}

/// Every observable the two implementations share, node by node.
fn check_agree(nodes: &[GrpNode], refs: &[RefNode], after: &Step) -> TestCaseResult {
    for (node, reference) in nodes.iter().zip(refs) {
        let id = node.node_id();
        prop_assert_eq!(
            node.view(),
            &reference.view,
            "view of {} after {:?}",
            id,
            after
        );
        prop_assert_eq!(
            node.list(),
            &reference.list,
            "list of {} after {:?}",
            id,
            after
        );
        prop_assert_eq!(
            RefMessage::of(&node.build_message()),
            reference.build_message(),
            "message of {} after {:?}",
            id,
            after
        );
        prop_assert_eq!(
            digest(|h| node.feed_canonical(h)),
            digest(|h| reference.feed_canonical(h)),
            "canonical state of {} after {:?}",
            id,
            after
        );
    }
    Ok(())
}

fn neighbours(run: &Run, u: usize) -> Vec<usize> {
    let mut out: Vec<usize> = run
        .edges
        .iter()
        .filter_map(|&(a, b)| (a == u).then_some(b).or((b == u).then_some(a)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Run the script on both implementations, checking agreement after every
/// step; the `GrpNode`s as they end.
fn execute(run: &Run) -> Result<Vec<GrpNode>, TestCaseError> {
    let mut config = GrpConfig::new(run.dmax);
    config.naive_compatibility = run.naive;
    config.disable_quarantine = run.no_quarantine;
    let ids: Vec<NodeId> = (0..run.n as u64).map(NodeId).collect();
    let mut nodes: Vec<GrpNode> = ids
        .iter()
        .map(|&id| GrpNode::new(id, config.clone()))
        .collect();
    let mut refs: Vec<RefNode> = ids
        .iter()
        .map(|&id| RefNode::new(id, config.clone()))
        .collect();
    for step in &run.steps {
        match step {
            &Step::Send { node, loss } => {
                let u = node % run.n;
                let msg = nodes[u].message_for_send();
                let ref_msg = refs[u].build_message();
                for v in neighbours(run, u) {
                    if loss & (1 << v) == 0 {
                        nodes[v].receive(msg.clone());
                        refs[v].receive(ref_msg.clone());
                    }
                }
            }
            &Step::Compute { node } => {
                nodes[node % run.n].on_round();
                refs[node % run.n].on_round();
            }
            &Step::Duplicate { from, to } => {
                let (u, v) = (from % run.n, to % run.n);
                let msg = nodes[u].build_message();
                let ref_msg = refs[u].build_message();
                for _ in 0..2 {
                    nodes[v].receive(msg.clone());
                    refs[v].receive(ref_msg.clone());
                }
            }
            Step::Forge {
                to,
                sender,
                list,
                quotes,
                group,
            } => {
                let forged = RefMessage {
                    sender: NodeId(*sender),
                    list: list.clone(),
                    priorities: quotes
                        .iter()
                        .map(|&(node, value, group_value, group_id)| {
                            let node = NodeId(node);
                            let group = Priority::new(group_value, NodeId(group_id));
                            (node, PriorityInfo::new(Priority::new(value, node), group))
                        })
                        .collect(),
                    group_priority: Priority::new(group.0, NodeId(group.1)),
                };
                nodes[to % run.n].receive(forged.to_grp());
                refs[to % run.n].receive(forged);
            }
            &Step::CorruptInFlight { node, seed } => {
                let u = node % run.n;
                let mut msg = nodes[u].build_message();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                nodes[u].corrupt_message(&mut msg, &mut rng);
                let ref_msg = RefMessage::of(&msg);
                for v in neighbours(run, u) {
                    nodes[v].receive(msg.clone());
                    refs[v].receive(ref_msg.clone());
                }
            }
            Step::Corrupt {
                node,
                ghosts,
                priority,
            } => {
                let ghosts: Vec<NodeId> = ghosts.iter().map(|&g| NodeId(g)).collect();
                nodes[node % run.n].corrupt(&ghosts, *priority);
                refs[node % run.n].corrupt(&ghosts, *priority);
            }
            &Step::Corruption { node, pick } => {
                let u = node % run.n;
                let variants = nodes[u].enumerate_corruptions(&ids);
                let ref_variants = refs[u].enumerate_corruptions(&ids);
                let names: Vec<&String> = variants.iter().map(|(name, _)| name).collect();
                let ref_names: Vec<&String> = ref_variants.iter().map(|(name, _)| name).collect();
                prop_assert_eq!(names, ref_names);
                for ((_, variant), (_, ref_variant)) in variants.iter().zip(&ref_variants) {
                    check_agree(
                        std::slice::from_ref(variant),
                        std::slice::from_ref(ref_variant),
                        step,
                    )?;
                }
                let pick = pick % variants.len();
                nodes[u] = variants[pick].1.clone();
                refs[u] = ref_variants[pick].1.clone();
            }
            &Step::Reboot { node } => {
                nodes[node % run.n].reboot();
                refs[node % run.n].reboot();
            }
        }
        check_agree(&nodes, &refs, step)?;
    }
    Ok(nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The flat node and the `BTreeMap` oracle agree on every observable
    /// after every step of a random, partly hostile execution.
    #[test]
    fn flat_node_matches_btreemap_oracle(run in arb_run()) {
        execute(&run)?;
    }

    /// The set-free compatibility tests answer exactly as the set-building
    /// ones, on raw lists (cross-level duplicates, holes, any marks) and on
    /// the receiver's own id anywhere in either list.
    #[test]
    fn compatibility_tests_match_the_set_oracle(
        own in arb_raw_list(),
        received in arb_raw_list(),
        dmax in 1usize..6,
        me in 0u64..HOSTILE_IDS,
    ) {
        let me = NodeId(me);
        prop_assert_eq!(
            compatible_list(me, &own, &received, dmax),
            oracle::compatible_list(me, &own, &received, dmax)
        );
        prop_assert_eq!(
            naive_compatible_list(me, &own, &received, dmax),
            oracle::naive_compatible_list(me, &own, &received, dmax)
        );
    }
}

/// Lockstep runs only prove something if they reach the interesting
/// states: a connected graph run long enough to form groups, quarantine
/// newcomers and learn third-party priorities.
#[test]
fn lockstep_runs_reach_groups() {
    let run = Run {
        n: 6,
        edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)],
        dmax: 2,
        naive: false,
        no_quarantine: false,
        steps: (0..40)
            .flat_map(|r| {
                let sends = (0..6).map(|node| Step::Send { node, loss: 0 });
                sends.chain(std::iter::once(Step::Compute { node: r % 6 }))
            })
            .collect(),
    };
    let nodes = execute(&run).unwrap();
    assert!(nodes.iter().all(|node| node.in_group()), "groups formed");
    let msg = nodes[0].build_message();
    assert!(msg.priorities.len() > 2, "third-party priorities quoted");
}
