//! The per-node GRP state machine and its `compute()` procedure.
//!
//! A [`GrpNode`] holds exactly the state of Section 4.3: the ordered list of
//! ancestors' sets `listv`, the output view `viewv`, the set of messages
//! received since the last compute (`msgSetv`), the quarantine counters and
//! the node priority. The [`GrpNode::compute`] method is a line-by-line
//! transcription of the `compute()` pseudo-code (the line numbers quoted in
//! the comments refer to the paper's listing).
//!
//! The per-node tables — `msgSetv`, the learnt priorities and the
//! quarantine counters — are [`NodeTable`]s, flat vectors sorted by node
//! id: a compute round updates known ids in place and adds new ones in one
//! ordered merge, instead of inserting into trees.

use crate::ancestor_list::{AncestorList, MergeScratch};
use crate::checks::{compatible_list, good_list, naive_compatible_list};
use crate::config::GrpConfig;
use crate::marks::Mark;
use crate::message::{GrpMessage, PriorityInfo};
use crate::priority::{group_priority, Priority};
use crate::table::NodeTable;
use dyngraph::NodeId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One GRP protocol instance (the local algorithm of node `v`).
#[derive(Clone, Debug)]
pub struct GrpNode {
    id: NodeId,
    config: GrpConfig,
    /// `listv`: the ordered list of ancestors' sets computed at the last
    /// compute-timer expiration.
    list: AncestorList,
    /// `viewv`: the output of the protocol — the composition of the group as
    /// exposed to the application.
    view: BTreeSet<NodeId>,
    /// `msgSetv`: last message received from each neighbour since the last
    /// compute (only the most recent per sender is kept).
    msg_set: NodeTable<GrpMessage>,
    /// Quarantine counters of candidate members (rounds remaining before
    /// they may enter the view).
    quarantine: NodeTable<u32>,
    /// The logical-clock component of this node's priority ("oldness").
    /// Implemented as a membership-epoch counter: it advances when the node
    /// *leaves* a group (and stays frozen inside a group), so that nodes
    /// that joined long ago always beat recent arrivals, where a per-round
    /// increment would prevent convergence in lockstep executions.
    priority_value: u64,
    /// Was the node part of a group of two or more at the end of the last
    /// compute? Used to detect the in-group → alone transition.
    was_in_group: bool,
    /// Priorities learnt from received messages, per quoted node.
    known_priorities: NodeTable<PriorityInfo>,
    /// Number of compute-timer expirations so far (diagnostics).
    compute_count: u64,
    /// Reusable buffers for the `ant` folds of `compute()`.
    scratch: MergeScratch,
    /// The broadcast built at the first `Ts` expiration since the last
    /// state change; every input of [`build_message`](Self::build_message)
    /// only moves inside `compute()`/`corrupt()`/`reboot()`, so repeated
    /// sends within one compute period reuse the same `Arc`-shared payload.
    cached_message: Option<GrpMessage>,
}

impl GrpNode {
    /// A freshly booted node: alone in its own group.
    pub fn new(id: NodeId, config: GrpConfig) -> Self {
        let mut view = BTreeSet::new();
        view.insert(id);
        GrpNode {
            id,
            config,
            list: AncestorList::singleton(id),
            view,
            msg_set: NodeTable::new(),
            quarantine: NodeTable::new(),
            priority_value: 0,
            was_in_group: false,
            known_priorities: NodeTable::new(),
            compute_count: 0,
            scratch: MergeScratch::default(),
            cached_message: None,
        }
    }

    /// This node's identity.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The protocol configuration.
    pub fn config(&self) -> &GrpConfig {
        &self.config
    }

    /// The current output view (group composition exposed to applications).
    pub fn view(&self) -> &BTreeSet<NodeId> {
        &self.view
    }

    /// The current ordered list of ancestors' sets.
    pub fn list(&self) -> &AncestorList {
        &self.list
    }

    /// Number of compute rounds executed so far.
    pub fn compute_count(&self) -> u64 {
        self.compute_count
    }

    /// Is this node currently in a group of two or more members?
    pub fn in_group(&self) -> bool {
        self.view.len() > 1
    }

    /// This node's priority (the smaller, the stronger).
    pub fn priority(&self) -> Priority {
        Priority::new(self.priority_value, self.id)
    }

    /// The priority of this node's group: the minimum priority over the
    /// members of its view (its own priority when alone).
    pub fn group_priority(&self) -> Priority {
        let members = self.view.iter().map(|&m| {
            if m == self.id {
                self.priority()
            } else {
                self.known_priorities
                    .get(m)
                    .map(|i| i.node)
                    .unwrap_or_else(|| Priority::new(u64::MAX, m))
            }
        });
        group_priority(members).unwrap_or_else(|| self.priority())
    }

    /// Remaining quarantine of a candidate, if it is being tracked.
    pub fn quarantine_of(&self, node: NodeId) -> Option<u32> {
        self.quarantine.get(node).copied()
    }

    /// "Upon reception of a message msg sent by a node u: update message of
    /// u in msgSetv" — only the latest message per sender is kept.
    pub fn receive(&mut self, msg: GrpMessage) {
        self.msg_set.insert(msg.sender, msg);
    }

    /// "Upon Ts timer expiration: send(listv with priorities)" — build the
    /// broadcast for the neighbourhood.
    pub fn build_message(&self) -> GrpMessage {
        let my_priority = self.priority();
        let my_group_priority = self.group_priority();
        let info_of = |node: NodeId| {
            if node == self.id {
                PriorityInfo::new(my_priority, my_group_priority)
            } else if let Some(&known) = self.known_priorities.get(node) {
                // a view member shares our group priority; otherwise relay
                // what we learnt about its group
                let group = if self.view.contains(&node) {
                    my_group_priority
                } else {
                    known.group
                };
                PriorityInfo::new(known.node, group)
            } else {
                // quoted but of unknown priority: advertise the weakest
                // possible priority so it never wins an arbitration by error
                PriorityInfo::solo(Priority::new(u64::MAX, node))
            }
        };
        let priorities = self
            .list
            .entries()
            .map(|(node, _, _)| (node, info_of(node)))
            .collect();
        GrpMessage {
            sender: self.id,
            list: Arc::new(self.list.clone()),
            priorities: Arc::new(priorities),
            group_priority: my_group_priority,
        }
    }

    /// [`build_message`](Self::build_message) with caching: every input of
    /// the broadcast (list, view, priorities) only changes inside
    /// `compute()`, `corrupt()` or `reboot()`, so the sends between two
    /// compute expirations all share one `Arc`-backed message instead of
    /// re-deriving the priority table each time. The simulator adapter's
    /// `on_send` goes through here.
    pub fn message_for_send(&mut self) -> GrpMessage {
        if self.cached_message.is_none() {
            self.cached_message = Some(self.build_message());
        }
        // detlint::allow(D004): filled by the branch above when empty
        self.cached_message.clone().expect("just built")
    }

    /// "Upon Tc timer expiration: compute(); reset msgSetv" — the whole
    /// round handler.
    pub fn on_round(&mut self) {
        self.compute();
        self.msg_set.clear();
    }

    /// The `compute()` procedure of Section 4.3.
    ///
    /// A round allocates the checked-list `Vec`, a copy of every received
    /// list (line 2 edits it), the new `listv` plus a marked singleton per
    /// rejected sender, the sorted unmarked ids of `listv`, the view's set
    /// when the view changes, and a new priority or quarantine table when
    /// ids join it. The `ant` merge buffers and `msgSetv` are reused.
    pub fn compute(&mut self) {
        self.compute_count += 1;
        let dmax = self.config.dmax;
        self.absorb_priorities();

        // ------------------------------------------------------- lines 1-9
        // Checking the received lists, in sender order.
        let mut checked: Vec<(NodeId, AncestorList)> = Vec::with_capacity(self.msg_set.len());
        for &(sender, ref msg) in &self.msg_set {
            let mut lu = (*msg.list).clone();
            // line 2: marked nodes are only useful between neighbours
            lu.remove_marked_except(self.id);
            if !good_list(self.id, &lu, dmax) {
                // lines 3-4: the list cannot be used, only the sender is kept
                lu = AncestorList::marked_singleton(sender, Mark::Pending);
            } else if !self.view.contains(&sender) && !self.is_compatible(&lu) {
                // lines 6-8: new sender whose list cannot be accepted
                lu = AncestorList::marked_singleton(sender, Mark::Incompatible);
            }
            checked.push((sender, lu));
        }

        // ---------------------------------------------------- lines 10-13
        // Computing the list of ancestors' sets of v with the ant operator,
        // through the node's reusable merge buffers.
        let mut lv = AncestorList::singleton(self.id);
        for (_, lu) in &checked {
            lv.ant_assign(lu, &mut self.scratch);
        }

        // ---------------------------------------------------- lines 14-29
        // Removal of incoming lists containing too-far nodes with priority.
        if lv.len() > dmax + 1 {
            for &(w, _) in lv.level(dmax + 1).unwrap_or(&[]) {
                if self.far_node_has_priority(w) {
                    // lines 17-21: the neighbours that provided w (w in the
                    // last place of their list) are ignored and double-marked
                    for (u, lu) in &mut checked {
                        if lu.level_contains(dmax, w) {
                            *lu = AncestorList::marked_singleton(*u, Mark::Incompatible);
                        }
                    }
                }
            }
            // lines 24-27: recompute without the offending lists
            lv = AncestorList::singleton(self.id);
            for (_, lu) in &checked {
                lv.ant_assign(lu, &mut self.scratch);
            }
            // line 28: the remaining too-far nodes have less priority — cut
            lv.truncate(dmax + 1);
        }

        self.list = lv;

        // -------------------------------------------------------- line 30
        // the unmarked nodes of listv, sorted once for lines 30 and 31
        let mut unmarked: Vec<NodeId> = self
            .list
            .entries()
            .filter(|&(_, _, mark)| !mark.is_marked())
            .map(|(node, _, _)| node)
            .collect();
        unmarked.sort_unstable();
        unmarked.dedup();
        self.update_quarantines(&unmarked);

        // -------------------------------------------------------- line 31
        // viewv ← non-marked nodes of listv with null quarantine. Our own
        // id is unmarked at level 0 of every computed list, so it is in.
        let own_id = self.id;
        unmarked.retain(|&x| x == own_id || self.quarantine.get(x).is_none_or(|&q| q == 0));
        if !self.view.iter().eq(&unmarked) {
            self.view = unmarked.into_iter().collect();
        }

        // -------------------------------------------------------- line 32
        // Priorities only move while the node is not in a group: the
        // "oldness" clock advances on the in-group → alone transition and is
        // frozen for group members, so established members always beat
        // newcomers.
        if self.was_in_group && !self.in_group() {
            self.priority_value = self.priority_value.saturating_add(1);
        }
        self.was_in_group = self.in_group();

        // every broadcast input may have moved: rebuild on the next send
        self.cached_message = None;
    }

    /// The compatibility test, honouring the E10 ablation switch.
    fn is_compatible(&self, received: &AncestorList) -> bool {
        if self.config.naive_compatibility {
            naive_compatible_list(self.id, &self.list, received, self.config.dmax)
        } else {
            compatible_list(self.id, &self.list, received, self.config.dmax)
        }
    }

    /// "if w has the priority compared to v" (line 16): node priorities are
    /// compared inside a group; across groups the group priorities are
    /// compared (this is a merge arbitration). Unknown priorities never win,
    /// which biases towards preserving the local group — the conservative
    /// choice for continuity.
    fn far_node_has_priority(&self, w: NodeId) -> bool {
        if w == self.id {
            return false;
        }
        match self.known_priorities.get(w) {
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

    /// Learn priorities quoted in the received messages. A sender is the
    /// authority on its own priority; for third-party nodes any quote is
    /// accepted (the newest message wins by iteration order). Known ids are
    /// updated in place; the ids learnt this round enter in one merge.
    fn absorb_priorities(&mut self) {
        let own_id = self.id;
        let mut learnt = Vec::new();
        for (_, msg) in &self.msg_set {
            for &(node, info) in msg.priorities.iter() {
                if node == own_id {
                    continue;
                }
                match self.known_priorities.get_mut(node) {
                    Some(known) => *known = info,
                    None => learnt.push((node, info)),
                }
            }
        }
        self.known_priorities.extend(learnt);
        for (sender, msg) in &self.msg_set {
            if let Some(&self_info) = msg.priorities.get(*sender) {
                self.known_priorities.insert(*sender, self_info);
            }
        }
    }

    /// Line 30: the quarantine of new nodes is `Dmax`; non-null quarantines
    /// of already-known candidates decrease by one. `unmarked` holds the
    /// unmarked nodes of the new `listv`, sorted.
    ///
    /// A candidate that briefly drops out of the list (e.g. while a boundary
    /// neighbour momentarily rejects us) keeps its quarantine entry and
    /// continues ageing: treating every reappearance as a brand-new arrival
    /// resets the counter for ever and freezes mergeable groups apart.
    /// Entries of nodes that stay absent age out and are dropped once they
    /// reach zero, so the table stays bounded by the recently-seen nodes.
    fn update_quarantines(&mut self, unmarked: &[NodeId]) {
        let own_id = self.id;
        self.quarantine.retain_mut(|node, q| {
            if unmarked.binary_search(&node).is_ok() {
                if node != own_id {
                    *q = if self.view.contains(&node) {
                        0
                    } else {
                        q.saturating_sub(1)
                    };
                }
                return true;
            }
            // absent candidate: age the entry and forget it once expired
            *q = q.saturating_sub(1);
            node != own_id && *q > 0
        });
        let fresh = self.config.quarantine_rounds();
        let arrivals: Vec<(NodeId, u32)> = unmarked
            .iter()
            .filter(|&&x| x != own_id && self.quarantine.get(x).is_none())
            .map(|&x| (x, if self.view.contains(&x) { 0 } else { fresh }))
            .collect();
        self.quarantine.extend(arrivals);
    }

    /// Overwrite the local state with arbitrary values (transient fault).
    /// Used by the self-stabilization experiments; the protocol must recover
    /// from whatever this produces.
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
        self.cached_message = None;
    }

    /// Reset to the freshly-booted state (crash/restart).
    pub fn reboot(&mut self) {
        *self = GrpNode::new(self.id, self.config.clone());
    }

    /// A lean copy of the node for state stores (the model checker keeps
    /// thousands of these): the reusable merge buffers and the cached
    /// broadcast are dropped — they are derived data, rebuilt on demand —
    /// so a snapshot carries exactly the semantic state.
    pub fn snapshot(&self) -> GrpNode {
        let mut snap = self.clone();
        snap.scratch = MergeScratch::default();
        snap.cached_message = None;
        snap
    }

    /// Fold the node's *semantic* state into a canonical hasher — the
    /// [`netsim::CanonicalState`] encoding. Two nodes feed identical bytes
    /// iff they are behaviourally indistinguishable: `listv`, `viewv`,
    /// `msgSetv`, the quarantine counters, the priority clock and the learnt
    /// priorities all enter; the compute counter, the merge scratch and the
    /// cached broadcast (diagnostics and derived caches) do not — including
    /// them would make every reachable state unique and the explorer's
    /// visited-set useless.
    pub fn feed_canonical(&self, hasher: &mut netsim::CanonicalHasher) {
        hasher.begin_list("grp-node");
        hasher.feed_u64(self.id.raw());
        hasher.feed_u64(self.config.dmax as u64);
        hasher.feed_bool(self.config.naive_compatibility);
        hasher.feed_bool(self.config.disable_quarantine);
        feed_list(&self.list, hasher);
        hasher.feed_node_set(self.view.iter().copied());
        hasher.feed_u64(self.msg_set.len() as u64);
        for (sender, msg) in &self.msg_set {
            hasher.feed_u64(sender.raw());
            Self::feed_message_canonical(msg, hasher);
        }
        hasher.feed_u64(self.quarantine.len() as u64);
        for &(node, q) in &self.quarantine {
            hasher.feed_u64(node.raw());
            hasher.feed_u64(q as u64);
        }
        hasher.feed_u64(self.priority_value);
        hasher.feed_bool(self.was_in_group);
        hasher.feed_u64(self.known_priorities.len() as u64);
        for (node, info) in &self.known_priorities {
            hasher.feed_u64(node.raw());
            feed_priority_info(info, hasher);
        }
        hasher.end_list();
    }

    /// Fold one in-flight [`GrpMessage`] into a canonical hasher (the
    /// message half of the [`netsim::CanonicalState`] contract).
    pub fn feed_message_canonical(msg: &GrpMessage, hasher: &mut netsim::CanonicalHasher) {
        hasher.begin_list("grp-msg");
        hasher.feed_u64(msg.sender.raw());
        feed_list(&msg.list, hasher);
        hasher.feed_u64(msg.priorities.len() as u64);
        for (node, info) in msg.priorities.iter() {
            hasher.feed_u64(node.raw());
            feed_priority_info(info, hasher);
        }
        hasher.feed_u64(msg.group_priority.value);
        hasher.feed_u64(msg.group_priority.id.raw());
        hasher.end_list();
    }

    /// The deterministic single-node corruption catalogue the model checker
    /// explores from. Every variant is a state the paper's adversary could
    /// install (Section 5 allows *arbitrary* memory corruption). Each
    /// variant damages one component of the state *in place* — a full
    /// memory wipe is deliberately absent, because that is exactly the
    /// crash/reboot fault the checker's `Crash`/`Reboot` transitions
    /// already model (and a wiped node re-runs the entire group formation
    /// handshake, which multiplies the reachable state space by orders of
    /// magnitude without exercising any new repair path):
    ///
    /// * `ghost-member` — a node that exists nowhere in the system is
    ///   spliced into `listv` and the view as an already-admitted member;
    ///   it is never heard from, so absence aging must decay it out;
    /// * `premature-member` — one real non-neighbour from `universe` is
    ///   admitted into `listv`/view without handshake or quarantine;
    /// * `weak-priority` — the oldness clock is scrambled to the weakest
    ///   possible value, so the node loses every arbitration it used to
    ///   win until the clocks are renegotiated;
    /// * `pending-marks` — every confirmed (double) mark in `listv` is
    ///   downgraded to a single mark, as if no neighbour had ever echoed
    ///   the entries; the confirmation handshake must re-run.
    ///
    /// The catalogue's order and contents are part of the modelcheck
    /// golden contract — extending it changes pinned visited-state counts.
    pub fn enumerate_corruptions(&self, universe: &[NodeId]) -> Vec<(String, GrpNode)> {
        let mut variants = Vec::new();

        let ghost = NodeId(900_000 + self.id.raw());
        let mut ghosted = self.snapshot();
        let mut levels = ghosted.list.to_levels();
        while levels.len() < 2 {
            levels.push(Vec::new());
        }
        levels[1].push((ghost, Mark::Clear));
        levels[1].sort_unstable_by_key(|&(n, _)| n);
        ghosted.list = AncestorList::from_levels(levels);
        ghosted.view.insert(ghost);
        ghosted.quarantine.insert(ghost, 0);
        ghosted.cached_message = None;
        variants.push(("ghost-member".to_string(), ghosted));

        // smallest real node that is neither self nor already in the view
        if let Some(&stranger) = universe
            .iter()
            .find(|&&u| u != self.id && !self.view.contains(&u))
        {
            let mut premature = self.snapshot();
            let mut levels = premature.list.to_levels();
            while levels.len() < 2 {
                levels.push(Vec::new());
            }
            levels[1].push((stranger, Mark::Clear));
            levels[1].sort_unstable_by_key(|&(n, _)| n);
            premature.list = AncestorList::from_levels(levels);
            premature.view.insert(stranger);
            premature.quarantine.insert(stranger, 0);
            premature.cached_message = None;
            variants.push(("premature-member".to_string(), premature));
        }

        let mut weak = self.snapshot();
        weak.priority_value = 999;
        weak.cached_message = None;
        variants.push(("weak-priority".to_string(), weak));

        let mut single = self.snapshot();
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
        single.cached_message = None;
        variants.push(("pending-marks".to_string(), single));

        variants
    }
}

/// Canonical encoding of an [`AncestorList`] through its serialized
/// (level-map) shape: level count, then per level the `(node, mark)`
/// entries in ascending id order. Empty levels encode as zero-length runs,
/// so structurally different lists never collide.
fn feed_list(list: &AncestorList, hasher: &mut netsim::CanonicalHasher) {
    let levels = list.to_levels();
    hasher.begin_list("alist");
    hasher.feed_u64(levels.len() as u64);
    for level in &levels {
        hasher.feed_u64(level.len() as u64);
        for &(node, mark) in level {
            hasher.feed_u64(node.raw());
            hasher.feed_u64(mark_tag(mark));
        }
    }
    hasher.end_list();
}

fn feed_priority_info(info: &PriorityInfo, hasher: &mut netsim::CanonicalHasher) {
    hasher.feed_u64(info.node.value);
    hasher.feed_u64(info.node.id.raw());
    hasher.feed_u64(info.group.value);
    hasher.feed_u64(info.group.id.raw());
}

fn mark_tag(mark: Mark) -> u64 {
    match mark {
        Mark::Clear => 0,
        Mark::Pending => 1,
        Mark::Incompatible => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn cfg(dmax: usize) -> GrpConfig {
        GrpConfig::new(dmax)
    }

    /// Exchange messages between all pairs of nodes that are neighbours in
    /// `edges`, then run a compute round on every node — a miniature
    /// synchronous simulator for unit-testing the state machine alone.
    fn round(nodes: &mut BTreeMap<NodeId, GrpNode>, edges: &[(u64, u64)]) {
        let messages: BTreeMap<NodeId, GrpMessage> = nodes
            .iter()
            .map(|(&id, node)| (id, node.build_message()))
            .collect();
        for &(a, b) in edges {
            let (a, b) = (n(a), n(b));
            let msg_a = messages[&a].clone();
            let msg_b = messages[&b].clone();
            nodes.get_mut(&b).unwrap().receive(msg_a);
            nodes.get_mut(&a).unwrap().receive(msg_b);
        }
        for node in nodes.values_mut() {
            node.on_round();
        }
    }

    fn make_nodes(ids: &[u64], dmax: usize) -> BTreeMap<NodeId, GrpNode> {
        ids.iter()
            .map(|&i| (n(i), GrpNode::new(n(i), cfg(dmax))))
            .collect()
    }

    /// Like [`round`], but with staggered compute timers: every node sends
    /// each sub-round (Ts ≤ Tc), while only one node's compute timer fires
    /// per sub-round, in round-robin order. This matches the paper's timer
    /// model; perfectly synchronous computes can oscillate forever at group
    /// boundaries. The minimal concrete cycle — path(5) at
    /// Dmax = 2, period 4, maximality violated in every state — is checked
    /// in as `crates/modelcheck/tests/data/path5_dmax2_sync.trace` and
    /// replayed by `crates/modelcheck/tests/oscillation.rs`, which also
    /// verifies that this staggered regime escapes it.
    fn staggered_round(nodes: &mut BTreeMap<NodeId, GrpNode>, edges: &[(u64, u64)], turn: usize) {
        let messages: BTreeMap<NodeId, GrpMessage> = nodes
            .iter()
            .map(|(&id, node)| (id, node.build_message()))
            .collect();
        for &(a, b) in edges {
            let (a, b) = (n(a), n(b));
            let msg_a = messages[&a].clone();
            let msg_b = messages[&b].clone();
            nodes.get_mut(&b).unwrap().receive(msg_a);
            nodes.get_mut(&a).unwrap().receive(msg_b);
        }
        let ids: Vec<NodeId> = nodes.keys().copied().collect();
        let id = ids[turn % ids.len()];
        nodes.get_mut(&id).unwrap().on_round();
    }

    #[test]
    fn initial_state_is_a_singleton_group() {
        let node = GrpNode::new(n(5), cfg(3));
        assert_eq!(node.view().len(), 1);
        assert!(node.view().contains(&n(5)));
        assert_eq!(node.list().len(), 1);
        assert!(!node.in_group());
        assert_eq!(node.compute_count(), 0);
    }

    #[test]
    fn compute_without_messages_keeps_singleton() {
        let mut node = GrpNode::new(n(5), cfg(3));
        node.on_round();
        assert_eq!(node.view().len(), 1);
        assert_eq!(node.list().len(), 1);
        assert_eq!(node.compute_count(), 1);
    }

    #[test]
    fn priority_is_frozen_in_a_group_and_ages_on_leaving() {
        let mut nodes = make_nodes(&[1, 2], 3);
        // alone: the oldness clock stays put until membership changes
        for _ in 0..2 {
            round(&mut nodes, &[]);
        }
        assert_eq!(nodes[&n(1)].priority().value, 0);
        // form a group of two and let the views converge
        for _ in 0..10 {
            round(&mut nodes, &[(1, 2)]);
        }
        assert!(nodes[&n(1)].in_group());
        let frozen = nodes[&n(1)].priority().value;
        for _ in 0..3 {
            round(&mut nodes, &[(1, 2)]);
        }
        assert_eq!(
            nodes[&n(1)].priority().value,
            frozen,
            "priority frozen in a group"
        );
        // break the link: both nodes end up alone and their clock advances,
        // so they will lose future arbitrations against established members
        for _ in 0..6 {
            round(&mut nodes, &[]);
        }
        assert!(!nodes[&n(1)].in_group());
        assert!(nodes[&n(1)].priority().value > frozen);
    }

    #[test]
    fn triple_handshake_brings_two_neighbours_into_one_view() {
        let mut nodes = make_nodes(&[1, 2], 2);
        // Round 1: each hears the other's singleton list, which does not
        // quote it → pending mark, no view change yet.
        round(&mut nodes, &[(1, 2)]);
        assert_eq!(nodes[&n(1)].view().len(), 1);
        assert!(nodes[&n(1)].list().contains(n(2)), "sender kept, marked");
        // After enough rounds (handshake + quarantine of Dmax rounds) both
        // views contain both nodes.
        for _ in 0..(2 + 3) {
            round(&mut nodes, &[(1, 2)]);
        }
        let expected: BTreeSet<NodeId> = [n(1), n(2)].into_iter().collect();
        assert_eq!(nodes[&n(1)].view(), &expected);
        assert_eq!(nodes[&n(2)].view(), &expected);
        assert!(nodes[&n(1)].in_group());
    }

    #[test]
    fn quarantine_delays_view_entry() {
        let dmax = 3;
        let mut nodes = make_nodes(&[1, 2], dmax);
        // the handshake needs two rounds before node 2 appears unmarked in
        // node 1's list; quarantine then holds it out of the view for Dmax
        // further rounds
        let mut rounds_until_in_view = 0;
        for r in 1..=20 {
            round(&mut nodes, &[(1, 2)]);
            if nodes[&n(1)].view().contains(&n(2)) {
                rounds_until_in_view = r;
                break;
            }
        }
        assert!(
            rounds_until_in_view > dmax as u32 as usize,
            "view entry after {rounds_until_in_view} rounds, expected more than Dmax={dmax}"
        );
    }

    #[test]
    fn disable_quarantine_speeds_up_view_entry() {
        let mut slow = make_nodes(&[1, 2], 3);
        let mut fast: BTreeMap<NodeId, GrpNode> = [1u64, 2]
            .iter()
            .map(|&i| (n(i), GrpNode::new(n(i), cfg(3).without_quarantine())))
            .collect();
        let entered = |nodes: &BTreeMap<NodeId, GrpNode>| nodes[&n(1)].view().contains(&n(2));
        let mut slow_rounds = 0;
        let mut fast_rounds = 0;
        for r in 1..=20 {
            round(&mut slow, &[(1, 2)]);
            if slow_rounds == 0 && entered(&slow) {
                slow_rounds = r;
            }
            round(&mut fast, &[(1, 2)]);
            if fast_rounds == 0 && entered(&fast) {
                fast_rounds = r;
            }
        }
        assert!(fast_rounds > 0 && slow_rounds > 0);
        assert!(
            fast_rounds < slow_rounds,
            "fast {fast_rounds} vs slow {slow_rounds}"
        );
    }

    #[test]
    fn path_within_dmax_converges_to_single_group() {
        // 4 nodes on a path, Dmax = 3: the whole path fits in one group.
        let mut nodes = make_nodes(&[0, 1, 2, 3], 3);
        let edges = [(0, 1), (1, 2), (2, 3)];
        for _ in 0..25 {
            round(&mut nodes, &edges);
        }
        let all: BTreeSet<NodeId> = (0..4).map(n).collect();
        for node in nodes.values() {
            assert_eq!(node.view(), &all, "node {} disagrees", node.node_id());
        }
    }

    #[test]
    fn path_longer_than_dmax_splits_into_groups() {
        // 6 nodes on a path, Dmax = 2: a single group would have diameter 5.
        let mut nodes = make_nodes(&[0, 1, 2, 3, 4, 5], 2);
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        for _ in 0..40 {
            round(&mut nodes, &edges);
        }
        for node in nodes.values() {
            // no view may span more than Dmax+1 consecutive path nodes
            let ids: Vec<u64> = node.view().iter().map(|x| x.raw()).collect();
            let span = ids.iter().max().unwrap() - ids.iter().min().unwrap();
            assert!(
                span <= 2,
                "node {} has view spanning {} hops: {:?}",
                node.node_id(),
                span,
                ids
            );
        }
        // and the members of each view agree on it
        for node in nodes.values() {
            for member in node.view() {
                assert_eq!(nodes[member].view(), node.view());
            }
        }
    }

    #[test]
    fn lists_never_exceed_dmax_plus_one_levels() {
        let dmax = 2;
        let mut nodes = make_nodes(&[0, 1, 2, 3, 4, 5, 6], dmax);
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)];
        for _ in 0..30 {
            round(&mut nodes, &edges);
            for node in nodes.values() {
                assert!(node.list().len() <= dmax + 1);
            }
        }
    }

    #[test]
    fn corrupt_then_recover() {
        let mut nodes = make_nodes(&[0, 1, 2], 3);
        let edges = [(0, 1), (1, 2)];
        for _ in 0..20 {
            round(&mut nodes, &edges);
        }
        let all: BTreeSet<NodeId> = (0..3).map(n).collect();
        assert_eq!(nodes[&n(0)].view(), &all);
        // corrupt node 1 with ghost members
        nodes.get_mut(&n(1)).unwrap().corrupt(&[n(77), n(88)], 123);
        assert!(nodes[&n(1)].view().contains(&n(77)));
        // the ghosts are never heard from, so they vanish and the views
        // re-converge (self-stabilization)
        for _ in 0..25 {
            round(&mut nodes, &edges);
        }
        for node in nodes.values() {
            assert_eq!(node.view(), &all);
            assert!(!node.list().contains(n(77)));
        }
    }

    #[test]
    fn reboot_restores_initial_state() {
        let mut node = GrpNode::new(n(3), cfg(2));
        node.corrupt(&[n(9)], 55);
        node.reboot();
        assert_eq!(node.view().len(), 1);
        assert_eq!(node.priority().value, 0);
        assert_eq!(node.compute_count(), 0);
    }

    #[test]
    fn build_message_quotes_all_list_nodes_with_priorities() {
        let mut nodes = make_nodes(&[1, 2, 3], 3);
        let edges = [(1, 2), (2, 3)];
        for _ in 0..10 {
            round(&mut nodes, &edges);
        }
        let msg = nodes[&n(2)].build_message();
        for node in msg.list.all_nodes() {
            assert!(
                msg.priorities.get(node).is_some(),
                "missing priority for {node}"
            );
        }
        assert_eq!(msg.sender, n(2));
    }

    #[test]
    fn two_far_groups_do_not_merge() {
        // Two cliques of 3 joined by a 4-hop chain; Dmax = 2 keeps them apart.
        // Topology: 0-1-2 triangle, 10-11-12 triangle, chain 2-20-21-10.
        // Staggered compute timers (the paper's Ts ≤ Tc regime): boundary
        // nodes must settle into one of the legitimate partitions instead of
        // oscillating. The fully synchronous regime does NOT settle — that
        // counterexample is pinned as a replayable trace in
        // crates/modelcheck/tests/data/path5_dmax2_sync.trace.
        let ids = [0, 1, 2, 10, 11, 12, 20, 21];
        let mut nodes = make_nodes(&ids, 2);
        let edges = [
            (0, 1),
            (1, 2),
            (0, 2),
            (10, 11),
            (11, 12),
            (10, 12),
            (2, 20),
            (20, 21),
            (21, 10),
        ];
        for turn in 0..(ids.len() * 30) {
            staggered_round(&mut nodes, &edges, turn);
        }
        let v0 = nodes[&n(0)].view().clone();
        let v10 = nodes[&n(10)].view().clone();
        assert!(
            v0.contains(&n(1)) && v0.contains(&n(2)),
            "triangle A intact: {v0:?}"
        );
        assert!(
            v10.contains(&n(11)) && v10.contains(&n(12)),
            "triangle B intact: {v10:?}"
        );
        assert!(
            v0.is_disjoint(&v10),
            "far groups must stay distinct: {v0:?} vs {v10:?}"
        );
        // whatever partition was chosen, every view agrees with its members
        for node in nodes.values() {
            for member in node.view() {
                assert_eq!(
                    nodes[member].view(),
                    node.view(),
                    "{} vs {}",
                    node.node_id(),
                    member
                );
            }
        }
    }

    #[test]
    fn message_sizes_are_bounded_by_group_content() {
        let mut nodes = make_nodes(&[0, 1, 2, 3], 3);
        let edges = [(0, 1), (1, 2), (2, 3)];
        for _ in 0..15 {
            round(&mut nodes, &edges);
        }
        let msg = nodes[&n(1)].build_message();
        assert!(msg.wire_size() > 0);
        assert!(msg.list.entry_count() <= 4);
    }
}
