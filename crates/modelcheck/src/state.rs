//! The explorer's configuration space: a network of protocol instances, the
//! in-flight message multiset, the crashed set — and the transition
//! alphabet the scheduler chooses from.
//!
//! ## The scheduling model
//!
//! Transitions are the adversary's moves: deliver a pending message, run a
//! node's compute step, or (when the fault budget allows) drop/duplicate a
//! message, crash a node, reboot it. Two structural constraints shape the
//! space:
//!
//! * **Lockstep bound** — a node may only run its compute step while its
//!   round counter equals the minimum over the alive nodes, so no node runs
//!   arbitrarily far ahead. This models the paper's periodic `Tc` timers
//!   (every node computes once per period) without fixing an order inside
//!   the period.
//! * **Send-blocking** — a node may only compute while its *outbound*
//!   channels are empty, i.e. its previous broadcast has been delivered (or
//!   dropped by an explicit fault) everywhere. This models
//!   `delivery_delay ≪ send_period`: in the simulator a broadcast is always
//!   consumed before the next one is emitted.
//!
//! Together these two rules make every infinite execution *fair* by
//! construction: a pending message blocks its sender's compute, the
//! lockstep bound then stalls every other node at the sender's round, and
//! the only enabled transitions left are deliveries — so no message is
//! starved forever and no node stops computing. Any cycle the explorer
//! finds is therefore a genuine fair non-converging execution, not a
//! scheduling artefact. The fully synchronous regime (every node computes
//! on the previous round's messages) is the schedule *deliver everything,
//! then compute everyone*; the staggered regime interleaves deliveries
//! between computes.

use dyngraph::{Graph, NodeId};
use netsim::{CanonicalHasher, CanonicalState, SimTime, TraceDigest};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Maximum messages queued per ordered `(sender, receiver)` pair. Without
/// duplication faults the send-blocking rule keeps queues at one message;
/// a duplicate adds the second slot.
pub const CHANNEL_CAP: usize = 2;

/// One scheduler move. The sequence of choices from the initial
/// configuration *is* the counterexample format: traces re-execute through
/// [`replay`] and print/parse as one line per choice
/// (`deliver 2 0`, `compute 1`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the oldest pending message on channel `from → to`.
    Deliver { from: NodeId, to: NodeId },
    /// Drop the oldest pending message on channel `from → to` (fault).
    Drop { from: NodeId, to: NodeId },
    /// Duplicate the oldest pending message on `from → to` (fault).
    Duplicate { from: NodeId, to: NodeId },
    /// Run `node`'s compute step and broadcast the resulting message.
    Compute { node: NodeId },
    /// Crash `node`: state frozen, channels to/from it purged (fault).
    Crash { node: NodeId },
    /// Reboot a crashed node into its freshly-booted state.
    Reboot { node: NodeId },
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Choice::Deliver { from, to } => write!(f, "deliver {} {}", from.raw(), to.raw()),
            Choice::Drop { from, to } => write!(f, "drop {} {}", from.raw(), to.raw()),
            Choice::Duplicate { from, to } => write!(f, "duplicate {} {}", from.raw(), to.raw()),
            Choice::Compute { node } => write!(f, "compute {}", node.raw()),
            Choice::Crash { node } => write!(f, "crash {}", node.raw()),
            Choice::Reboot { node } => write!(f, "reboot {}", node.raw()),
        }
    }
}

impl Choice {
    /// Parse the [`Display`](fmt::Display) form back (used by checked-in trace files).
    pub fn parse(line: &str) -> Option<Choice> {
        let mut parts = line.split_whitespace();
        let kind = parts.next()?;
        let mut next_id = || parts.next()?.parse::<u64>().ok().map(NodeId);
        let choice = match kind {
            "deliver" => Choice::Deliver {
                from: next_id()?,
                to: next_id()?,
            },
            "drop" => Choice::Drop {
                from: next_id()?,
                to: next_id()?,
            },
            "duplicate" => Choice::Duplicate {
                from: next_id()?,
                to: next_id()?,
            },
            "compute" => Choice::Compute { node: next_id()? },
            "crash" => Choice::Crash { node: next_id()? },
            "reboot" => Choice::Reboot { node: next_id()? },
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(choice)
    }
}

/// Parse a checked-in trace file: one [`Choice`] per line in its
/// [`Display`](fmt::Display) form, with blank lines and `#` comment lines ignored.
/// Errors name the offending 1-based line.
pub fn parse_trace(text: &str) -> Result<Vec<Choice>, String> {
    let mut choices = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match Choice::parse(line) {
            Some(choice) => choices.push(choice),
            None => return Err(format!("line {}: cannot parse `{line}`", idx + 1)),
        }
    }
    Ok(choices)
}

/// How many fault transitions the adversary may take. All-zero (the
/// default) disables fault transitions entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultBudget {
    pub max_drops: u32,
    pub max_duplicates: u32,
    pub max_crashes: u32,
}

/// One configuration of the transition system.
#[derive(Clone, Debug)]
pub struct McNet<P: CanonicalState> {
    /// The (static) communication topology.
    pub topology: Arc<Graph>,
    /// Per-node protocol state.
    pub nodes: BTreeMap<NodeId, P>,
    /// Nodes currently crashed (state frozen, radio off).
    pub crashed: BTreeSet<NodeId>,
    /// In-flight messages: per ordered pair, oldest first. Empty queues are
    /// never stored (the map is part of the canonical encoding).
    pub channels: BTreeMap<(NodeId, NodeId), VecDeque<P::Message>>,
    /// Compute-round counter per node. Only differences matter: the
    /// canonical encoding subtracts the minimum alive round, so steady
    /// cycles deduplicate.
    pub rounds: BTreeMap<NodeId, u64>,
    /// Fault transitions consumed so far.
    pub drops_used: u32,
    pub dups_used: u32,
    pub crashes_used: u32,
}

impl<P: CanonicalState> McNet<P> {
    /// A network of freshly-constructed nodes over a topology.
    pub fn new(topology: Graph, nodes: impl IntoIterator<Item = P>) -> Self {
        let nodes: BTreeMap<NodeId, P> = nodes.into_iter().map(|p| (p.id(), p)).collect();
        let rounds = nodes.keys().map(|&id| (id, 0)).collect();
        McNet {
            topology: Arc::new(topology),
            nodes,
            crashed: BTreeSet::new(),
            channels: BTreeMap::new(),
            rounds,
            drops_used: 0,
            dups_used: 0,
            crashes_used: 0,
        }
    }

    /// Is the node up?
    pub fn is_alive(&self, id: NodeId) -> bool {
        !self.crashed.contains(&id)
    }

    /// The minimum round counter over alive nodes (0 when all are down).
    pub fn min_alive_round(&self) -> u64 {
        self.rounds
            .iter()
            .filter(|(id, _)| self.is_alive(**id))
            .map(|(_, &r)| r)
            .min()
            .unwrap_or(0)
    }

    fn outbound_empty(&self, id: NodeId) -> bool {
        self.channels
            .range((id, NodeId(0))..=(id, NodeId(u64::MAX)))
            .next()
            .is_none()
    }

    /// May `choice` fire in this configuration under `budget`? Answered
    /// by membership in [`enabled_choices`](Self::enabled_choices), the
    /// one statement of the transition rules; only replay asks.
    pub fn is_enabled(&self, choice: Choice, budget: FaultBudget) -> bool {
        self.enabled_choices(budget).contains(&choice)
    }

    /// Every enabled choice, in canonical order: deliveries (by channel
    /// key), computes (by node id), then faults. This is where the
    /// lockstep bound, send-blocking and the fault budgets live. The order
    /// is part of the determinism contract — BFS discovery order, and
    /// therefore state numbering and the first counterexample, follow it.
    pub fn enabled_choices(&self, budget: FaultBudget) -> Vec<Choice> {
        let mut choices = Vec::new();
        for &(from, to) in self.channels.keys() {
            choices.push(Choice::Deliver { from, to });
        }
        let min = self.min_alive_round();
        for (&id, &round) in &self.rounds {
            if self.is_alive(id) && round == min && self.outbound_empty(id) {
                choices.push(Choice::Compute { node: id });
            }
        }
        if self.drops_used < budget.max_drops {
            for &(from, to) in self.channels.keys() {
                choices.push(Choice::Drop { from, to });
            }
        }
        if self.dups_used < budget.max_duplicates {
            for (&(from, to), queue) in &self.channels {
                if queue.len() < CHANNEL_CAP {
                    choices.push(Choice::Duplicate { from, to });
                }
            }
        }
        if self.crashes_used < budget.max_crashes {
            for &id in self.nodes.keys() {
                if self.is_alive(id) {
                    choices.push(Choice::Crash { node: id });
                }
            }
        }
        for &id in &self.crashed {
            choices.push(Choice::Reboot { node: id });
        }
        choices
    }

    /// Apply an (enabled) choice in place. Callers are expected to have
    /// checked [`is_enabled`](Self::is_enabled); applying a disabled choice
    /// is a logic error and panics on missing queues/nodes.
    pub fn apply(&mut self, choice: Choice) {
        match choice {
            Choice::Deliver { from, to } => {
                let msg = self.pop_channel(from, to);
                if self.is_alive(to) {
                    if let Some(node) = self.nodes.get_mut(&to) {
                        node.on_message(from, msg, SimTime(0));
                    }
                }
            }
            Choice::Drop { from, to } => {
                self.pop_channel(from, to);
                self.drops_used += 1;
            }
            Choice::Duplicate { from, to } => {
                // detlint::allow(D004): apply's documented contract — callers
                // check is_enabled first, so the channel exists
                let queue = self.channels.get_mut(&(from, to)).expect("enabled");
                // detlint::allow(D004): empty channels are removed eagerly
                let copy = queue.front().expect("non-empty").clone();
                queue.push_back(copy);
                self.dups_used += 1;
            }
            Choice::Compute { node } => {
                let round = self.rounds.get(&node).copied().unwrap_or(0);
                // detlint::allow(D004): apply's documented contract — Compute
                // is only enabled for nodes in the net
                let proto = self.nodes.get_mut(&node).expect("enabled");
                proto.on_compute(SimTime(0));
                let broadcast = proto.on_send(SimTime(0));
                if let Some(msg) = broadcast {
                    let mut neighbours: Vec<NodeId> = self.topology.neighbors(node).collect();
                    neighbours.sort_unstable();
                    for to in neighbours {
                        if self.is_alive(to) && self.nodes.contains_key(&to) {
                            self.channels
                                .entry((node, to))
                                .or_default()
                                .push_back(msg.clone());
                        }
                    }
                }
                self.rounds.insert(node, round + 1);
            }
            Choice::Crash { node } => {
                self.crashed.insert(node);
                self.channels
                    .retain(|&(from, to), _| from != node && to != node);
                self.crashes_used += 1;
            }
            Choice::Reboot { node } => {
                self.crashed.remove(&node);
                if let Some(proto) = self.nodes.get_mut(&node) {
                    proto.reset();
                }
                // rejoin at the current minimum so the lockstep bound is
                // immediately satisfiable again
                let min = self.min_alive_round();
                self.rounds.insert(node, min);
            }
        }
    }

    fn pop_channel(&mut self, from: NodeId, to: NodeId) -> P::Message {
        // detlint::allow(D004): apply's documented contract — callers check
        // is_enabled first, so the channel exists
        let queue = self.channels.get_mut(&(from, to)).expect("enabled");
        // detlint::allow(D004): empty channels are removed eagerly below
        let msg = queue.pop_front().expect("non-empty");
        if queue.is_empty() {
            self.channels.remove(&(from, to));
        }
        msg
    }

    /// The canonical hash of this configuration — the visited-set key.
    /// Round counters enter *relative* to the minimum alive round, so a
    /// steady protocol cycle revisits the same hash even though absolute
    /// rounds grow forever.
    pub fn state_hash(&self) -> TraceDigest {
        let mut hasher = CanonicalHasher::new();
        let min = self.min_alive_round();
        hasher.begin_list("mc-net");
        hasher.feed_u64(self.nodes.len() as u64);
        for (&id, proto) in &self.nodes {
            hasher.feed_u64(id.raw());
            let alive = self.is_alive(id);
            hasher.feed_bool(alive);
            let round = self.rounds.get(&id).copied().unwrap_or(0);
            hasher.feed_u64(if alive { round - min } else { 0 });
            proto.feed_state(&mut hasher);
        }
        hasher.feed_u64(self.channels.len() as u64);
        for (&(from, to), queue) in &self.channels {
            hasher.feed_u64(from.raw());
            hasher.feed_u64(to.raw());
            hasher.feed_u64(queue.len() as u64);
            for msg in queue {
                P::feed_message(msg, &mut hasher);
            }
        }
        hasher.feed_u64(self.drops_used as u64);
        hasher.feed_u64(self.dups_used as u64);
        hasher.feed_u64(self.crashes_used as u64);
        hasher.end_list();
        hasher.finalize()
    }
}

/// Re-execute a trace of scheduler choices from an initial configuration.
/// Every choice is validated against the transition rules — a trace that
/// does not replay is corrupt (or the encoding drifted), and the error says
/// at which step.
pub fn replay<P: CanonicalState>(
    initial: &McNet<P>,
    trace: &[Choice],
    budget: FaultBudget,
) -> Result<McNet<P>, String> {
    let mut net = initial.clone();
    for (step, &choice) in trace.iter().enumerate() {
        if !net.is_enabled(choice, budget) {
            return Err(format!("step {step}: `{choice}` is not enabled"));
        }
        net.apply(choice);
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;
    use grp_core::{GrpConfig, GrpNode};

    fn two_nodes() -> McNet<GrpNode> {
        let config = GrpConfig::new(1);
        let nodes = (0..2).map(|i| GrpNode::new(NodeId(i), config.clone()));
        McNet::new(path(2), nodes)
    }

    #[test]
    fn choice_text_round_trips() {
        let choices = [
            Choice::Deliver {
                from: NodeId(2),
                to: NodeId(0),
            },
            Choice::Drop {
                from: NodeId(1),
                to: NodeId(3),
            },
            Choice::Duplicate {
                from: NodeId(0),
                to: NodeId(1),
            },
            Choice::Compute { node: NodeId(7) },
            Choice::Crash { node: NodeId(4) },
            Choice::Reboot { node: NodeId(4) },
        ];
        for c in choices {
            assert_eq!(Choice::parse(&c.to_string()), Some(c));
        }
        assert_eq!(Choice::parse("deliver 1"), None);
        assert_eq!(Choice::parse("explode 1 2"), None);
        assert_eq!(Choice::parse("compute 1 2"), None);
    }

    #[test]
    fn compute_blocks_until_broadcast_is_delivered() {
        let budget = FaultBudget::default();
        let mut net = two_nodes();
        let c0 = Choice::Compute { node: NodeId(0) };
        assert!(net.is_enabled(c0, budget));
        net.apply(c0);
        // round advanced past the minimum AND outbound pending
        assert!(!net.is_enabled(c0, budget));
        assert!(net.channels.contains_key(&(NodeId(0), NodeId(1))));
        net.apply(Choice::Compute { node: NodeId(1) });
        net.apply(Choice::Deliver {
            from: NodeId(0),
            to: NodeId(1),
        });
        net.apply(Choice::Deliver {
            from: NodeId(1),
            to: NodeId(0),
        });
        // both at the same round, channels drained: enabled again
        assert!(net.is_enabled(c0, budget));
    }

    #[test]
    fn fault_transitions_respect_the_budget() {
        let budget = FaultBudget {
            max_drops: 1,
            max_duplicates: 1,
            max_crashes: 1,
        };
        let mut net = two_nodes();
        net.apply(Choice::Compute { node: NodeId(0) });
        let dup = Choice::Duplicate {
            from: NodeId(0),
            to: NodeId(1),
        };
        assert!(net.is_enabled(dup, budget));
        net.apply(dup);
        // channel at capacity and the budget is spent
        assert!(!net.is_enabled(dup, budget));
        let drop = Choice::Drop {
            from: NodeId(0),
            to: NodeId(1),
        };
        net.apply(drop);
        assert!(!net.is_enabled(drop, budget), "drop budget spent");
        assert!(net.is_enabled(
            Choice::Deliver {
                from: NodeId(0),
                to: NodeId(1)
            },
            budget
        ));
    }

    #[test]
    fn crash_purges_channels_and_reboot_rejoins_at_min_round() {
        let budget = FaultBudget {
            max_crashes: 1,
            ..Default::default()
        };
        let mut net = two_nodes();
        net.apply(Choice::Compute { node: NodeId(0) });
        net.apply(Choice::Crash { node: NodeId(1) });
        assert!(
            net.channels.is_empty(),
            "channels to/from the crashed node purged"
        );
        assert!(!net.is_enabled(Choice::Compute { node: NodeId(1) }, budget));
        // node 0 is now the only alive node: min round is its round
        assert!(net.is_enabled(Choice::Compute { node: NodeId(0) }, budget));
        net.apply(Choice::Reboot { node: NodeId(1) });
        assert_eq!(net.rounds[&NodeId(1)], net.min_alive_round());
        assert_eq!(net.nodes[&NodeId(1)].view().len(), 1, "reboot resets state");
    }

    #[test]
    fn state_hash_uses_relative_rounds() {
        let mut a = two_nodes();
        let h0 = a.state_hash();
        // one full synchronized round: both compute, all messages delivered
        net_round(&mut a);
        assert_ne!(h0, a.state_hash(), "first round changes protocol state");
        // run to the steady state, then one more round: node states and
        // channels repeat, and the growing absolute round counters must
        // not keep the hashes apart
        for _ in 0..16 {
            net_round(&mut a);
        }
        let steady = a.state_hash();
        net_round(&mut a);
        assert_eq!(steady, a.state_hash(), "steady rounds deduplicate");
    }

    fn net_round(net: &mut McNet<GrpNode>) {
        for id in [NodeId(0), NodeId(1)] {
            net.apply(Choice::Compute { node: id });
        }
        let pending: Vec<_> = net.channels.keys().copied().collect();
        for (f, t) in pending {
            net.apply(Choice::Deliver { from: f, to: t });
        }
    }

    #[test]
    fn replay_rejects_disabled_choices() {
        let net = two_nodes();
        let err = replay(
            &net,
            &[Choice::Deliver {
                from: NodeId(0),
                to: NodeId(1),
            }],
            FaultBudget::default(),
        )
        .unwrap_err();
        assert!(err.contains("step 0"), "{err}");
        assert!(err.contains("not enabled"), "{err}");
    }
}
