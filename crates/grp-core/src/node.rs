//! The per-node GRP state machine and its `compute()` procedure.
//!
//! A [`GrpNode`] holds exactly the state of Section 4.3: the ordered list of
//! ancestors' sets `listv`, the output view `viewv`, the set of messages
//! received since the last compute (`msgSetv`), the quarantine counters and
//! the node priority. The [`GrpNode::compute`] method is a line-by-line
//! transcription of the `compute()` pseudo-code (the line numbers quoted in
//! the comments refer to the paper's listing).
//!
//! The per-node tables are flat vectors sorted by node id, not trees: the
//! learnt priorities and the quarantine counters are [`NodeTable`]s, and
//! `msgSetv` is the sorted head of one vector of `(sender, message)`
//! entries (see the memo below).
//!
//! `compute()` reads each received message once. Its first step is one
//! pass over `msgSetv` that copies every received list and every quoted
//! priority into working buffers, in sender order; the checks of lines 1–9
//! and the priority merge then read those copies, not the message bodies
//! other nodes built. The copying pass takes the cache misses on those
//! bodies back to back, instead of one at a time between dependent table
//! lookups.
//!
//! The learnt-priority table holds only what `compute()` and the next
//! broadcast read: the priorities of the ids of the first `ant` fold of
//! lines 10–13 and of the previous view. Right after that fold it is
//! rewritten whole: those ids, sorted, take their old values, and then
//! each sender's id-sorted quotes in one merge each, so the table never
//! keeps an id nothing reads again.
//!
//! `compute()`'s working buffers — the gathered lists and quotes, the rows
//! of the one-pass `ant` fold, the ids whose priorities are kept, the
//! sorted unmarked ids, the batch of new quarantine candidates and a copy
//! of the old `listv` — live in one set per thread, shared by every node
//! the thread runs, so a node's own footprint is only its semantic state
//! and its cached broadcast.
//!
//! A settled node skips its compute. `compute()` reports, as a by-product
//! of its steps, whether it moved any of the node's state; when it moved
//! nothing, or nothing its broadcast shows, the broadcast cached for the
//! last period stays (unless the node heard no one). When it moved
//! nothing, the messages the compute read also stay in the
//! vector behind `msgSetv` instead of being dropped. A message heard again from one of those senders is
//! moved back into `msgSetv` only when it is the very one that compute
//! read (the same `Arc`); any other message, from a new sender or a
//! changed one, drops the memo. When the compute timer then finds
//! `msgSetv` holding exactly the last compute's inputs, [`GrpNode::on_round`]
//! skips `compute()`: the same procedure on the same state and the same
//! inputs would again move nothing. A settled sender re-sends the same
//! `Arc`, and so does one whose compute moved only state its broadcast
//! does not show, so a neighbourhood at a fixpoint stays settled node by
//! node.

use crate::ancestor_list::AncestorList;
use crate::checks::{compatible_list, good_list, naive_compatible_list};
use crate::config::GrpConfig;
use crate::marks::Mark;
use crate::message::{GrpMessage, PriorityInfo};
use crate::priority::{group_priority, Priority};
use crate::table::NodeTable;
use dyngraph::NodeId;
use netsim::View;
use std::cell::Cell;

/// The working buffers of [`GrpNode::compute`], reused round after round.
#[derive(Default)]
struct ComputeScratch {
    /// One `(sender, list)` slot per sender: the gather pass copies each
    /// received list in, lines 1–9 check the copy in place. Slots past the
    /// current round's sender count keep their buffers for later rounds.
    checked: Vec<(NodeId, AncestorList)>,
    /// Every `(node, priorities)` the received messages quote, in sender
    /// order and then id order: the gather pass copies each message's
    /// priority table in, `learn_priorities` merges it.
    quotes: Vec<(NodeId, PriorityInfo)>,
    /// Where each sender's run of `quotes` starts, in sender order.
    runs: Vec<usize>,
    /// Each sender's quote of itself, in sender order: the gather pass
    /// finds it in the copy it just made, `learn_priorities` applies it
    /// after `quotes`.
    self_quotes: Vec<(NodeId, PriorityInfo)>,
    /// Lines 10–13 and 24–27: the rows of [`AncestorList::ant_fold`].
    rows: Vec<(NodeId, u32, Mark)>,
    /// The ids whose priorities the table keeps this round, sorted, each
    /// with the value `learn_priorities` has found for it so far.
    needed: Vec<(NodeId, Option<PriorityInfo>)>,
    /// The known entries of `needed`: the new learnt-priority table.
    learnt: Vec<(NodeId, PriorityInfo)>,
    /// Lines 30–31: the unmarked ids of the new `listv`, sorted.
    unmarked: Vec<NodeId>,
    /// Line 30: the quarantine counters of this round's new candidates.
    arrivals: Vec<(NodeId, u32)>,
    /// `listv` as the compute found it, to tell whether the folds moved it.
    old_list: AncestorList,
}

thread_local! {
    /// One [`ComputeScratch`] per thread, shared by all its nodes. A
    /// compute takes it out and puts it back; taking leaves `None` behind,
    /// which allocates nothing (a default scratch would allocate the empty
    /// `old_list`'s offsets).
    static SCRATCH: Cell<Option<ComputeScratch>> = const { Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// How many times `compute()` ran on this thread: the compute timers
    /// `on_round` did not skip.
    static COMPUTES_RUN: Cell<u64> = const { Cell::new(0) };
}

/// How many times `compute()` has run on the calling thread.
#[cfg(test)]
pub(crate) fn computes_run() -> u64 {
    COMPUTES_RUN.get()
}

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
    view: View,
    /// `msgSetv`, then the memo of the last compute's inputs. The first
    /// `heard` entries, sorted by sender id, are `msgSetv`: the last message
    /// received from each neighbour since the last compute. While
    /// `settled`, the entries past them, also sorted, are the messages the
    /// last compute read whose senders have not been heard again.
    msg_set: Vec<(NodeId, GrpMessage)>,
    /// How many entries of `msg_set` are `msgSetv`.
    heard: u32,
    /// The last compute moved none of the node's state, and every message
    /// heard since is the very one (the same `Arc`) that compute read from
    /// its sender: once `msgSetv` holds all of them, a compute would again
    /// move nothing.
    settled: bool,
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
    /// Priorities learnt from received messages, for exactly the ids the
    /// last compute's first `ant` fold produced and the members of the
    /// view before it, this node excepted: every id that compute's
    /// far-node arbitration, the group priority or the next broadcast can
    /// read. Rewritten whole by every compute.
    known_priorities: NodeTable<PriorityInfo>,
    /// Number of compute-timer expirations so far (diagnostics).
    compute_count: u64,
    /// The broadcast built at the first `Ts` expiration since the last
    /// change to what it says; every input of [`build_message`](Self::build_message)
    /// only moves inside `compute()`/`corrupt()`/`reboot()`, so repeated
    /// sends reuse the same `Arc`-shared payload, across the compute
    /// periods of a settled node too.
    cached_message: Option<GrpMessage>,
}

impl GrpNode {
    /// A freshly booted node: alone in its own group.
    pub fn new(id: NodeId, config: GrpConfig) -> Self {
        GrpNode {
            id,
            config,
            list: AncestorList::singleton(id),
            view: View::singleton(id),
            msg_set: Vec::new(),
            heard: 0,
            settled: false,
            quarantine: NodeTable::new(),
            priority_value: 0,
            was_in_group: false,
            known_priorities: NodeTable::new(),
            compute_count: 0,
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
    pub fn view(&self) -> &View {
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

    /// The learnt priorities, in ascending id order (see `compute()` for
    /// which ids the table keeps).
    pub fn known_priorities(&self) -> &NodeTable<PriorityInfo> {
        &self.known_priorities
    }

    /// The quarantine counters of the candidates being tracked (rounds
    /// remaining before each may enter the view), in ascending id order.
    pub fn quarantines(&self) -> &NodeTable<u32> {
        &self.quarantine
    }

    /// "Upon reception of a message msg sent by a node u: update message of
    /// u in msgSetv" — only the latest message per sender is kept.
    ///
    /// While the node is settled, a message is checked against the memo: the
    /// one the last compute read from `u`, heard again, moves back into
    /// `msgSetv`; any other message drops the memo.
    pub fn receive(&mut self, msg: GrpMessage) {
        let sender = msg.sender;
        let heard = self.heard as usize;
        let (fresh, memo) = self.msg_set.split_at(heard);
        match fresh.binary_search_by_key(&sender, |&(u, _)| u) {
            Ok(i) => {
                if self.settled && !fresh[i].1.same_body(&msg) {
                    self.forget_inputs();
                }
                self.msg_set[i].1 = msg;
            }
            Err(i) => {
                if self.settled {
                    match memo.binary_search_by_key(&sender, |&(u, _)| u) {
                        Ok(j) if memo[j].1.same_body(&msg) => {
                            // heard again, unchanged: into msgSetv, in order
                            self.msg_set[i..=heard + j].rotate_right(1);
                            self.heard += 1;
                            return;
                        }
                        _ => self.forget_inputs(),
                    }
                }
                self.msg_set.insert(i, (sender, msg));
                self.heard += 1;
            }
        }
    }

    /// Drop the memo of the last compute's inputs: the next compute timer
    /// runs `compute()`.
    fn forget_inputs(&mut self) {
        self.msg_set.truncate(self.heard as usize);
        self.settled = false;
    }

    /// "Upon Ts timer expiration: send(listv with priorities)" — build the
    /// broadcast for the neighbourhood.
    pub fn build_message(&self) -> GrpMessage {
        let my_group_priority = self.group_priority();
        // one entry per quoted node: sized exactly, the table never
        // grows and never shrinks
        let mut priorities = Vec::with_capacity(self.list.entry_count());
        priorities.extend(
            self.list
                .entries()
                .map(|(node, _, _)| (node, self.quote(node, my_group_priority))),
        );
        GrpMessage::new(
            self.id,
            self.list.clone(),
            NodeTable::from_vec(priorities),
            my_group_priority,
        )
    }

    /// The priorities a broadcast quotes for `node`, one of the list's
    /// entries; `my_group_priority` is this node's
    /// [`group_priority`](Self::group_priority).
    fn quote(&self, node: NodeId, my_group_priority: Priority) -> PriorityInfo {
        if node == self.id {
            PriorityInfo::new(self.priority(), my_group_priority)
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
    }

    /// Does `msg` say what [`build_message`](Self::build_message) would
    /// build now? Compared in place, without building: the same list
    /// quotes the same ids, so only their priorities and the group
    /// priority remain.
    fn still_broadcasts(&self, msg: &GrpMessage) -> bool {
        let my_group_priority = self.group_priority();
        msg.list == self.list
            && msg.group_priority == my_group_priority
            && msg
                .priorities
                .iter()
                .all(|(node, info)| *info == self.quote(*node, my_group_priority))
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
    ///
    /// `compute()` is skipped when the node is settled and `msgSetv` holds
    /// every sender the last compute read, each with the same `Arc`: that
    /// compute moved nothing, and this one would read the same state and
    /// the same messages. A node that stays settled keeps the messages it
    /// just read, behind the emptied `msgSetv`, as the memo for the next
    /// timer.
    ///
    /// A node that heard no one drops its cached broadcast all the same, as
    /// every node did before the memo: no neighbour that could confirm the
    /// pointer was heard from, and an isolated walker would otherwise hold
    /// its broadcast through the part of each period where it holds none.
    pub fn on_round(&mut self) {
        if self.settled && self.heard as usize == self.msg_set.len() {
            self.compute_count += 1;
        } else {
            self.compute();
        }
        if self.heard == 0 {
            self.cached_message = None;
        }
        if !self.settled {
            self.msg_set.clear();
        }
        self.heard = 0;
    }

    /// The `compute()` procedure of Section 4.3.
    ///
    /// A first pass copies the received lists and priority tables into
    /// buffers kept per thread. The fold rows, the kept priority ids, the
    /// unmarked ids and the batch of new quarantine ids use such buffers
    /// too, the fold writes `listv` in place, the learnt priorities are
    /// copied into the table's own vector and new quarantine ids merge into
    /// their table in place, so a round allocates only when a buffer must
    /// grow, when the view changes (its set is rebuilt), and when the
    /// priority or quarantine table outgrows its allocation.
    ///
    /// The learnt priorities are rewritten right after the first fold of
    /// lines 10–13, which is where the table's ids are first known: no
    /// check of lines 1–9 reads it, and the far-node arbitration of lines
    /// 14–29 reads it only for ids of that fold and of the previous view.
    ///
    /// Each step also tells whether it moved the node's state: `listv`
    /// against a copy of the old one, the learnt priorities, the
    /// quarantine counters, the view and the priority clock. A compute that
    /// moved nothing leaves the node settled and keeps its cached
    /// broadcast.
    pub fn compute(&mut self) {
        #[cfg(test)]
        COMPUTES_RUN.set(COMPUTES_RUN.get() + 1);
        self.compute_count += 1;
        // only msgSetv is read: the memo behind it is not an input
        self.msg_set.truncate(self.heard as usize);
        let dmax = self.config.dmax;
        let own_id = self.id;
        let mut scratch = SCRATCH.take().unwrap_or_default();
        let ComputeScratch {
            checked,
            quotes,
            runs,
            self_quotes,
            rows,
            needed,
            learnt,
            unmarked,
            arrivals,
            old_list,
        } = &mut scratch;
        old_list.clone_from(&self.list);

        // ---------------------------------------------------------- gather
        // Read each received message once, in sender order: its list into
        // a checked slot, its priority table onto `quotes` as one run, and
        // the sender's quote of itself, found in that copy, onto
        // `self_quotes`.
        let senders = self.msg_set.len();
        if checked.len() < senders {
            checked.resize_with(senders, || (own_id, AncestorList::empty()));
        }
        let checked = &mut checked[..senders];
        quotes.clear();
        runs.clear();
        self_quotes.clear();
        for ((u, lu), &(sender, ref msg)) in checked.iter_mut().zip(&self.msg_set) {
            *u = sender;
            lu.clone_from(&msg.list);
            let start = quotes.len();
            runs.push(start);
            quotes.extend_from_slice(msg.priorities.as_slice());
            let own_quote = quotes[start..].binary_search_by_key(&sender, |&(node, _)| node);
            if let Ok(i) = own_quote {
                self_quotes.push(quotes[start + i]);
            }
        }

        // ------------------------------------------------------- lines 1-9
        // Checking the received lists, in sender order.
        for (u, lu) in checked.iter_mut() {
            let sender = *u;
            // line 2: marked nodes are only useful between neighbours
            lu.remove_marked_except(own_id);
            if !good_list(own_id, lu, dmax) {
                // lines 3-4: the list cannot be used, only the sender is kept
                lu.assign_marked_singleton(sender, Mark::Pending);
            } else if !self.view.contains(&sender) && !self.is_compatible(lu) {
                // lines 6-8: new sender whose list cannot be accepted
                lu.assign_marked_singleton(sender, Mark::Incompatible);
            }
        }

        // ---------------------------------------------------- lines 10-13
        // Computing the list of ancestors' sets of v with the ant operator.
        // The fold writes `listv` in place: the checks above were its last
        // readers.
        self.list
            .ant_fold(self.id, checked.iter().map(|(_, lu)| lu), rows);
        // the fold's ids, sorted, and the previous view are every id whose
        // priority this compute or the next broadcast reads
        let mut moved = self.learn_priorities(rows, quotes, runs, self_quotes, needed, learnt);

        // ---------------------------------------------------- lines 14-29
        // Removal of incoming lists containing too-far nodes with priority.
        if self.list.len() > dmax + 1 {
            // neither the view nor the table moves inside the loop
            let group_priority = self.group_priority();
            for &(w, _) in self.list.level(dmax + 1).unwrap_or(&[]) {
                if self.far_node_has_priority(w, group_priority) {
                    // lines 17-21: the neighbours that provided w (w in the
                    // last place of their list) are ignored and double-marked
                    for (u, lu) in checked.iter_mut() {
                        if lu.level_contains(dmax, w) {
                            lu.assign_marked_singleton(*u, Mark::Incompatible);
                        }
                    }
                }
            }
            // lines 24-27: recompute without the offending lists
            self.list
                .ant_fold(self.id, checked.iter().map(|(_, lu)| lu), rows);
            // line 28: the remaining too-far nodes have less priority — cut
            self.list.truncate(dmax + 1);
        }

        // -------------------------------------------------------- line 30
        // the unmarked nodes of listv (each quoted once), sorted once for
        // lines 30 and 31
        unmarked.clear();
        unmarked.extend(
            self.list
                .entries()
                .filter(|&(_, _, mark)| !mark.is_marked())
                .map(|(node, _, _)| node),
        );
        unmarked.sort_unstable();
        moved |= self.update_quarantines(unmarked, arrivals);

        // -------------------------------------------------------- line 31
        // viewv ← non-marked nodes of listv with null quarantine. Our own
        // id is unmarked at level 0 of every computed list, so it is in.
        unmarked.retain(|&x| x == own_id || self.quarantine.get(x).is_none_or(|&q| q == 0));
        if !self.view.iter().eq(unmarked.iter()) {
            self.view = unmarked.iter().copied().collect();
            moved = true;
        }
        moved |= self.list != *old_list;
        SCRATCH.set(Some(scratch));

        // -------------------------------------------------------- line 32
        // Priorities only move while the node is not in a group: the
        // "oldness" clock advances on the in-group → alone transition and is
        // frozen for group members, so established members always beat
        // newcomers.
        let clock = (self.priority_value, self.was_in_group);
        if self.was_in_group && !self.in_group() {
            self.priority_value = self.priority_value.saturating_add(1);
        }
        self.was_in_group = self.in_group();
        moved |= (self.priority_value, self.was_in_group) != clock;

        self.settled = !moved;
        // A compute can move state the broadcast does not show (a
        // quarantine counter, say). The cached broadcast then stays: its
        // `Arc`, still the one the neighbours' last computes read, lets
        // the settled ones skip theirs. Otherwise it is rebuilt on the
        // next send.
        if moved
            && self
                .cached_message
                .as_ref()
                .is_some_and(|msg| !self.still_broadcasts(msg))
        {
            self.cached_message = None;
        }
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
    /// choice for continuity. `group_priority` is this node's
    /// [`group_priority`](Self::group_priority).
    fn far_node_has_priority(&self, w: NodeId, group_priority: Priority) -> bool {
        if w == self.id {
            return false;
        }
        match self.known_priorities.get(w) {
            Some(info) => {
                if self.view.contains(&w) {
                    info.node.beats(&self.priority())
                } else {
                    info.group.beats(&group_priority)
                }
            }
            None => false,
        }
    }

    /// Rewrite the learnt-priority table from the copies the gather pass
    /// made. The table keeps the ids of the first fold (`rows`, sorted by
    /// id) and of the previous view, this node excepted. Each starts from
    /// its old value, if any; then every sender's run of `quotes` (`runs`
    /// holds where each starts), in sender order, overwrites the ids it
    /// quotes, so for a third-party node the highest sender id wins; last,
    /// `self_quotes` apply, since a sender is the authority on its own
    /// priority. An id nobody quoted this round keeps its old value, or
    /// stays unknown.
    ///
    /// Every broadcast quotes every node its list names (`build_message`
    /// quotes its whole list, `corrupt_message` quotes its ghost), so every
    /// id of the fold was quoted this round by the sender whose list
    /// carried it; and the previous view was in the previous fold. Every
    /// value that is read is then the one a table of every id ever quoted
    /// would give. A forged list naming a node it does not quote, or a
    /// corrupted state naming a node the table no longer holds, makes
    /// that node read as unknown.
    ///
    /// Returns whether the table changed; an unchanged one is not copied.
    fn learn_priorities(
        &mut self,
        rows: &[(NodeId, u32, Mark)],
        quotes: &[(NodeId, PriorityInfo)],
        runs: &[usize],
        self_quotes: &[(NodeId, PriorityInfo)],
        needed: &mut Vec<(NodeId, Option<PriorityInfo>)>,
        learnt: &mut Vec<(NodeId, PriorityInfo)>,
    ) -> bool {
        let own_id = self.id;
        needed.clear();
        let mut push = |node: NodeId| {
            if node != own_id {
                needed.push((node, None));
            }
        };
        // merge the two sorted sets
        let mut view = self.view.iter().copied().peekable();
        for &(node, _, _) in rows {
            while let Some(member) = view.next_if(|&member| member < node) {
                push(member);
            }
            view.next_if_eq(&node);
            push(node);
        }
        view.for_each(push);
        overwrite_known(needed, self.known_priorities.as_slice());
        for (k, &start) in runs.iter().enumerate() {
            let end = runs.get(k + 1).copied().unwrap_or(quotes.len());
            overwrite_known(needed, &quotes[start..end]);
        }
        for &(sender, info) in self_quotes {
            if let Ok(i) = needed.binary_search_by_key(&sender, |&(node, _)| node) {
                needed[i].1 = Some(info);
            }
        }
        learnt.clear();
        learnt.extend(
            needed
                .iter()
                .filter_map(|&(node, info)| info.map(|info| (node, info))),
        );
        let moved = learnt.as_slice() != self.known_priorities.as_slice();
        if moved {
            self.known_priorities.assign(learnt);
        }
        moved
    }

    /// Line 30: the quarantine of new nodes is `Dmax`; non-null quarantines
    /// of already-known candidates decrease by one. `unmarked` holds the
    /// unmarked nodes of the new `listv`, sorted; the new candidates gather
    /// in `arrivals` and enter the table in one merge.
    ///
    /// A candidate that briefly drops out of the list (e.g. while a boundary
    /// neighbour momentarily rejects us) keeps its quarantine entry and
    /// continues ageing: treating every reappearance as a brand-new arrival
    /// resets the counter for ever and freezes mergeable groups apart.
    /// Entries of nodes that stay absent age out and are dropped once they
    /// reach zero, so the table stays bounded by the recently-seen nodes.
    ///
    /// Returns whether any counter moved, left or joined the table.
    fn update_quarantines(
        &mut self,
        unmarked: &[NodeId],
        arrivals: &mut Vec<(NodeId, u32)>,
    ) -> bool {
        let own_id = self.id;
        let mut moved = false;
        self.quarantine.retain_mut(|node, q| {
            let before = *q;
            let kept = if unmarked.binary_search(&node).is_ok() {
                if node != own_id {
                    *q = if self.view.contains(&node) {
                        0
                    } else {
                        q.saturating_sub(1)
                    };
                }
                true
            } else {
                // absent candidate: age the entry and forget it once expired
                *q = q.saturating_sub(1);
                node != own_id && *q > 0
            };
            moved |= !kept || *q != before;
            kept
        });
        let fresh = self.config.quarantine_rounds();
        arrivals.extend(
            unmarked
                .iter()
                .filter(|&&x| x != own_id && self.quarantine.get(x).is_none())
                .map(|&x| (x, if self.view.contains(&x) { 0 } else { fresh })),
        );
        moved |= !arrivals.is_empty();
        self.quarantine.merge_batch(arrivals);
        moved
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
        self.view = self
            .list
            .entries()
            .map(|(node, _, _)| node)
            .chain([self.id])
            .collect();
        for &g in ghost_nodes {
            self.quarantine.insert(g, 0);
        }
        self.priority_value = scramble_priority;
        self.cached_message = None;
        self.forget_inputs();
    }

    /// Reset to the freshly-booted state (crash/restart).
    pub fn reboot(&mut self) {
        *self = GrpNode::new(self.id, self.config.clone());
    }

    /// A lean copy of the node for state stores (the model checker keeps
    /// thousands of these): the cached broadcast and the memo of the last
    /// compute's inputs are dropped — derived data, rebuilt on demand — so
    /// a snapshot carries exactly the semantic state.
    pub fn snapshot(&self) -> GrpNode {
        let mut snap = self.clone();
        snap.cached_message = None;
        snap.forget_inputs();
        snap
    }

    /// Fold the node's *semantic* state into a canonical hasher — the
    /// [`netsim::CanonicalState`] encoding. Two nodes feed identical bytes
    /// iff they are behaviourally indistinguishable: `listv`, `viewv`,
    /// `msgSetv`, the quarantine counters, the priority clock and the learnt
    /// priorities all enter; the compute counter and the cached broadcast
    /// (diagnostics and derived caches) do not — including them would make
    /// every reachable state unique and the explorer's visited-set useless.
    /// The learnt priorities name only the ids of the last compute's first
    /// fold and of the view before it, so two states that differ only in
    /// priorities no compute reads again hash equal.
    pub fn feed_canonical(&self, hasher: &mut netsim::CanonicalHasher) {
        hasher.begin_list("grp-node");
        hasher.feed_u64(self.id.raw());
        hasher.feed_u64(self.config.dmax as u64);
        hasher.feed_bool(self.config.naive_compatibility);
        hasher.feed_bool(self.config.disable_quarantine);
        feed_list(&self.list, hasher);
        hasher.feed_node_set(self.view.iter().copied());
        let msg_set = &self.msg_set[..self.heard as usize];
        hasher.feed_u64(msg_set.len() as u64);
        for (sender, msg) in msg_set {
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

    /// A snapshot with `member` spliced in as an admitted group member: at
    /// level 1 of `listv` (clear mark), in the view, and in the quarantine
    /// table with no rounds remaining.
    fn with_spliced_member(&self, member: NodeId) -> GrpNode {
        let mut node = self.snapshot();
        let mut levels = node.list.to_levels();
        while levels.len() < 2 {
            levels.push(Vec::new());
        }
        levels[1].push((member, Mark::Clear));
        levels[1].sort_unstable_by_key(|&(n, _)| n);
        node.list = AncestorList::from_levels(levels);
        node.view = node.view.with(member);
        node.quarantine.insert(member, 0);
        node.cached_message = None;
        node
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
        variants.push(("ghost-member".to_string(), self.with_spliced_member(ghost)));

        // smallest real node that is neither self nor already in the view
        if let Some(&stranger) = universe
            .iter()
            .find(|&&u| u != self.id && !self.view.contains(&u))
        {
            let premature = self.with_spliced_member(stranger);
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

/// Give every id of `needed` that `run` quotes the quoted value, in one
/// merge: both are sorted by id, and `run` names each id once.
fn overwrite_known(needed: &mut [(NodeId, Option<PriorityInfo>)], run: &[(NodeId, PriorityInfo)]) {
    let mut i = 0;
    for &(node, info) in run {
        while i < needed.len() && needed[i].0 < node {
            i += 1;
        }
        match needed.get_mut(i) {
            Some(slot) if slot.0 == node => slot.1 = Some(info),
            Some(_) => {}
            None => break,
        }
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

    /// Every node of a run holds one `GrpNode`: a field that grows it fails
    /// here rather than in a memory benchmark. 192 bytes on 64-bit targets,
    /// where the view is a 16-byte shared [`View`] handle.
    #[test]
    fn a_node_fits_in_192_bytes() {
        assert!(std::mem::size_of::<GrpNode>() <= 192);
    }

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
        let expected: View = [n(1), n(2)].into_iter().collect();
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
        let all: View = (0..4).map(n).collect();
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
        let all: View = (0..3).map(n).collect();
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
            !v0.iter().any(|m| v10.contains(m)),
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

    /// A forged broadcast from `sender`: `levels` as its list, every entry
    /// clear, and `quotes` as its priority table.
    fn forged(sender: u64, levels: &[&[u64]], quotes: &[(u64, PriorityInfo)]) -> GrpMessage {
        let levels = levels
            .iter()
            .map(|level| level.iter().map(|&i| (n(i), Mark::Clear)).collect())
            .collect();
        GrpMessage::new(
            n(sender),
            AncestorList::from_levels(levels),
            quotes.iter().map(|&(i, info)| (n(i), info)).collect(),
            Priority::new(0, n(sender)),
        )
    }

    fn info(value: u64, id: u64) -> PriorityInfo {
        PriorityInfo::solo(Priority::new(value, n(id)))
    }

    fn canonical(node: &GrpNode) -> netsim::TraceDigest {
        let mut hasher = netsim::CanonicalHasher::new();
        node.feed_canonical(&mut hasher);
        hasher.finalize()
    }

    #[test]
    fn learnt_priorities_follow_sender_order_and_self_authority() {
        // node 1 hears 2 and 5; both quote 9, node 1 and each other. The
        // quote that must win is never the strongest priority on offer
        let quotes_of_2 = [
            (1, info(50, 1)),
            (2, info(6, 2)),
            (5, info(2, 5)),
            (9, info(3, 9)),
        ];
        let quotes_of_5 = [
            (1, info(51, 1)),
            (2, info(1, 2)),
            (5, info(4, 5)),
            (9, info(7, 9)),
        ];
        let hear = |own_quoted: bool| {
            let keep = |quotes: &[(u64, PriorityInfo)]| -> Vec<(u64, PriorityInfo)> {
                quotes
                    .iter()
                    .copied()
                    .filter(|&(i, _)| own_quoted || i != 1)
                    .collect()
            };
            // round 1 starts from an empty table, round 2 from what round
            // 1 kept: the order must hold on both
            let mut node = GrpNode::new(n(1), cfg(3));
            for _ in 0..2 {
                node.receive(forged(2, &[&[2], &[1, 9], &[5]], &keep(&quotes_of_2)));
                node.receive(forged(5, &[&[5], &[1, 9], &[2]], &keep(&quotes_of_5)));
                node.on_round();
            }
            node
        };
        let node = hear(true);
        let msg = node.build_message();
        // none of 2, 5 or 9 is in the view yet, so the broadcast relays
        // exactly what was learnt about each
        assert!(!node.view().contains(&n(9)) && !node.in_group());
        for (quoted, learnt, why) in [
            (9, info(7, 9), "the highest sender wins"),
            (5, info(4, 5), "5 speaks for itself"),
            (2, info(6, 2), "2 speaks for itself, after 5 quoted it"),
        ] {
            assert_eq!(msg.priority_of(n(quoted)), Some(learnt), "{why}");
        }
        // the quotes of node 1 moved nothing: it learns no priority of its own
        assert_eq!(canonical(&node), canonical(&hear(false)));
    }

    #[test]
    fn compute_buffers_carry_nothing_between_nodes() {
        let busy = || {
            let mut node = GrpNode::new(n(1), cfg(3));
            for s in 2..8 {
                let far = 10 + s;
                node.receive(forged(
                    s,
                    &[&[s], &[1, far]],
                    &[(1, info(9, 1)), (s, info(s, s)), (far, info(far, far))],
                ));
            }
            node.compute();
            node
        };
        let small = || {
            let mut node = GrpNode::new(n(30), cfg(3));
            for s in [31, 32] {
                node.receive(forged(s, &[&[s], &[30]], &[(s, info(1, s))]));
            }
            node.compute();
            canonical(&node)
        };
        assert!(busy().list().contains(n(17)), "the six lists were folded");
        let after_busy = small();
        let fresh = std::thread::spawn(small).join().unwrap();
        assert_eq!(after_busy, fresh);
    }

    /// The links of the path 0 – 1 – 2, each way.
    const PATH: [(u64, u64); 4] = [(0, 1), (1, 0), (1, 2), (2, 1)];

    /// Every node sends its cached broadcast, as the simulator's send timer
    /// does, over each directed link `(from, to)`.
    fn deliver(nodes: &mut BTreeMap<NodeId, GrpNode>, links: &[(u64, u64)]) {
        let messages: BTreeMap<NodeId, GrpMessage> = nodes
            .iter_mut()
            .map(|(&id, node)| (id, node.message_for_send()))
            .collect();
        for &(from, to) in links {
            let msg = messages[&n(from)].clone();
            nodes.get_mut(&n(to)).unwrap().receive(msg);
        }
    }

    /// Does this compute timer run `compute()`?
    fn computes(node: &mut GrpNode) -> bool {
        let before = computes_run();
        node.on_round();
        computes_run() > before
    }

    /// The path 0 – 1 – 2 at Dmax 3, run until it is one group and every
    /// node is settled.
    fn settled_path() -> BTreeMap<NodeId, GrpNode> {
        let mut nodes = make_nodes(&[0, 1, 2], 3);
        for _ in 0..20 {
            deliver(&mut nodes, &PATH);
            for node in nodes.values_mut() {
                node.on_round();
            }
        }
        let all: View = (0..3).map(n).collect();
        for node in nodes.values() {
            assert_eq!(node.view(), &all);
            assert!(node.settled, "{} settled", node.node_id());
        }
        nodes
    }

    #[test]
    fn a_settled_node_skips_its_compute() {
        let mut nodes = settled_path();
        // a duplicate is the same broadcast again
        deliver(&mut nodes, &PATH);
        deliver(&mut nodes, &PATH);
        for node in nodes.values_mut() {
            let sent = node.message_for_send();
            let count = node.compute_count();
            let mut twin = node.snapshot();
            assert!(!computes(node), "{} skips", node.node_id());
            assert!(computes(&mut twin), "a snapshot has no memo");
            assert_eq!(node.compute_count(), count + 1, "a skipped timer counts");
            assert_eq!(canonical(node), canonical(&twin));
            assert!(node.message_for_send().same_body(&sent));
        }
    }

    /// Node 1 of a settled path, after `disturb`: its compute timer runs
    /// `compute()` and ends where a node without memo ends.
    fn assert_recomputes(disturb: impl FnOnce(&mut BTreeMap<NodeId, GrpNode>)) {
        let mut nodes = settled_path();
        disturb(&mut nodes);
        let node = nodes.get_mut(&n(1)).unwrap();
        let mut twin = node.snapshot();
        assert!(computes(node), "node 1 recomputes");
        twin.on_round();
        assert_eq!(canonical(node), canonical(&twin));
        assert_eq!(node.message_for_send(), twin.build_message());
    }

    #[test]
    fn a_lost_message_makes_a_settled_node_recompute() {
        assert_recomputes(|nodes| deliver(nodes, &[(0, 1), (1, 0), (1, 2)]));
    }

    #[test]
    fn a_changed_message_makes_a_settled_node_recompute() {
        assert_recomputes(|nodes| {
            nodes.get_mut(&n(2)).unwrap().corrupt(&[n(9)], 5);
            deliver(nodes, &PATH);
        });
        // heard unchanged, then changed within the same period
        assert_recomputes(|nodes| {
            deliver(nodes, &PATH);
            nodes.get_mut(&n(2)).unwrap().corrupt(&[n(9)], 5);
            deliver(nodes, &[(2, 1)]);
        });
        // the same content in a body of its own is not the message read
        assert_recomputes(|nodes| {
            deliver(nodes, &[(0, 1), (1, 0), (1, 2)]);
            let copy = nodes[&n(2)].build_message();
            nodes.get_mut(&n(1)).unwrap().receive(copy);
        });
    }

    #[test]
    fn a_new_sender_makes_a_settled_node_recompute() {
        assert_recomputes(|nodes| {
            nodes.insert(n(3), GrpNode::new(n(3), cfg(3)));
            deliver(nodes, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 1)]);
        });
    }

    #[test]
    fn corrupt_reboot_and_snapshot_clear_the_memo() {
        assert_recomputes(|nodes| {
            deliver(nodes, &PATH);
            nodes.get_mut(&n(1)).unwrap().corrupt(&[n(9)], 5);
        });
        assert_recomputes(|nodes| {
            deliver(nodes, &PATH);
            nodes.get_mut(&n(1)).unwrap().reboot();
        });
        assert_recomputes(|nodes| {
            deliver(nodes, &PATH);
            let node = nodes.get_mut(&n(1)).unwrap();
            *node = node.snapshot();
        });
        let mut nodes = settled_path();
        deliver(&mut nodes, &PATH);
        for (_, variant) in nodes[&n(1)].enumerate_corruptions(&[n(0), n(1), n(2), n(3)]) {
            assert!(!variant.settled && variant.msg_set.len() == variant.heard as usize);
        }
    }

    /// One period: every node sends over `links`, then every compute timer
    /// fires, in id order. With `rebuild`, a node whose compute moved its
    /// state drops its cached broadcast, so its next send builds a new
    /// `Arc` even when the body is equal. Returns the nodes that ran
    /// `compute()`.
    fn period(
        nodes: &mut BTreeMap<NodeId, GrpNode>,
        links: &[(u64, u64)],
        rebuild: bool,
    ) -> Vec<u64> {
        deliver(nodes, links);
        let mut ran = Vec::new();
        for (id, node) in nodes.iter_mut() {
            if computes(node) {
                ran.push(id.raw());
            }
            if rebuild && !node.settled {
                node.cached_message = None;
            }
        }
        ran
    }

    fn canonical_all(nodes: &BTreeMap<NodeId, GrpNode>) -> Vec<netsim::TraceDigest> {
        nodes.values().map(canonical).collect()
    }

    /// A compute that moves only state the broadcast does not show keeps
    /// the broadcast's `Arc`, and the settled neighbours skip their
    /// computes; a twin that sends a new `Arc` for the same body makes them
    /// recompute, and every node ends every period as in the twin.
    #[test]
    fn an_equal_rebuilt_broadcast_keeps_its_arc() {
        let mut reuse = settled_path();
        // node 1 tracks a candidate no list names: its next computes age
        // the counter, 2 -> 1 -> gone, and move nothing else
        let node = reuse.get_mut(&n(1)).unwrap();
        node.quarantine.insert(n(9), 2);
        node.forget_inputs();
        let mut rebuild = reuse.clone();
        let mut runs = Vec::new();
        for _ in 0..4 {
            let kept = period(&mut reuse, &PATH, false);
            let fresh = period(&mut rebuild, &PATH, true);
            assert_eq!(canonical_all(&reuse), canonical_all(&rebuild));
            runs.push((kept, fresh));
        }
        // node 1 moves in periods 1 and 2 and settles in 3
        assert_eq!(
            runs,
            [
                (vec![1], vec![1]),
                (vec![1], vec![0, 1, 2]),
                (vec![1], vec![0, 1, 2]),
                (vec![], vec![]),
            ],
            "0 and 2 read the same `Arc` again and skip"
        );
        let node = &reuse[&n(1)];
        assert!(node.quarantine.get(n(9)).is_none());
        assert_eq!(node.clone().message_for_send(), node.build_message());

        // from a cold start, on a path that splits at Dmax 2: every period
        // ends in the twin's state, with fewer computes
        let links: Vec<(u64, u64)> = (0..5).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
        let mut reuse = make_nodes(&[0, 1, 2, 3, 4, 5], 2);
        let mut rebuild = reuse.clone();
        let (mut kept, mut fresh) = (0, 0);
        for _ in 0..40 {
            kept += period(&mut reuse, &links, false).len();
            fresh += period(&mut rebuild, &links, true).len();
            assert_eq!(canonical_all(&reuse), canonical_all(&rebuild));
        }
        assert!(
            kept < fresh,
            "{kept} computes with the kept `Arc`, {fresh} without"
        );
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
