//! Shared k-hop neighbourhood discovery.
//!
//! All baseline clustering algorithms need to know which nodes lie within a
//! bounded number of hops. This module provides a small distance-vector
//! protocol core: every round a node rebuilds its distance map from the
//! vectors its neighbours advertised during the last period (exactly like
//! GRP rebuilds `listv` from `msgSetv`), which makes the baselines
//! self-stabilizing in the same sense — stale entries vanish one round after
//! their source stops being heard.

use dyngraph::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The message every baseline broadcasts: its current distance vector plus
/// the head it has elected (if any).
///
/// The distance vector rides behind an `Arc` shared with the sender's own
/// state: broadcasting to `k` neighbours clones `k` pointers, not `k`
/// maps — the same zero-copy fan-out `GrpMessage` uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiscoveryMessage {
    pub sender: NodeId,
    /// Known distances, capped at the protocol's horizon.
    pub distances: Arc<BTreeMap<NodeId, u32>>,
    /// The cluster head currently chosen by the sender (self when alone).
    pub head: NodeId,
}

impl DiscoveryMessage {
    /// Approximate wire size (same accounting spirit as `GrpMessage`).
    pub fn wire_size(&self) -> usize {
        1 + 8 + self.distances.len() * (8 + 4) + 8
    }
}

/// The distance-vector state shared by the baselines.
#[derive(Clone, Debug)]
pub struct Discovery {
    pub id: NodeId,
    /// Discovery horizon in hops.
    pub horizon: u32,
    /// Current distance estimates (self at 0). Behind an `Arc` so the
    /// per-send broadcast shares it instead of copying it; `recompute`
    /// replaces the whole map, and the rare in-place mutation (fault
    /// injection) copies-on-write.
    pub distances: Arc<BTreeMap<NodeId, u32>>,
    /// Last message received from each neighbour since the last recompute.
    pub inbox: BTreeMap<NodeId, DiscoveryMessage>,
    /// The head advertised by each known node (learnt from the inbox,
    /// relayed values age out with the inbox).
    pub advertised_heads: BTreeMap<NodeId, NodeId>,
}

impl Discovery {
    /// Fresh state: the node only knows itself.
    pub fn new(id: NodeId, horizon: u32) -> Self {
        let mut distances = BTreeMap::new();
        distances.insert(id, 0);
        Discovery {
            id,
            horizon,
            distances: Arc::new(distances),
            inbox: BTreeMap::new(),
            advertised_heads: BTreeMap::new(),
        }
    }

    /// Record a received message (latest per sender wins).
    pub fn receive(&mut self, msg: DiscoveryMessage) {
        self.inbox.insert(msg.sender, msg);
    }

    /// Rebuild the distance vector from the inbox and clear it, returning
    /// control to the caller for the head-election step.
    pub fn recompute(&mut self) {
        let mut distances: BTreeMap<NodeId, u32> = BTreeMap::new();
        distances.insert(self.id, 0);
        let mut heads: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for (&neighbour, msg) in &self.inbox {
            heads.insert(neighbour, msg.head);
            let via_neighbour = 1u32;
            distances
                .entry(neighbour)
                .and_modify(|d| *d = (*d).min(via_neighbour))
                .or_insert(via_neighbour);
            for (&node, &d) in msg.distances.iter() {
                if node == self.id {
                    continue;
                }
                let through = d.saturating_add(1);
                if through <= self.horizon {
                    distances
                        .entry(node)
                        .and_modify(|cur| *cur = (*cur).min(through))
                        .or_insert(through);
                }
            }
        }
        self.distances = Arc::new(distances);
        self.advertised_heads = heads;
        self.inbox.clear();
    }

    /// The nodes within `limit` hops (including self).
    pub fn within(&self, limit: u32) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.distances
            .iter()
            .filter(move |(_, &d)| d <= limit)
            .map(|(&n, &d)| (n, d))
    }

    /// Build the broadcast message for the given elected head — the
    /// distance vector is `Arc`-shared with the local state, so this (and
    /// every per-recipient clone downstream) is allocation-free.
    pub fn message(&self, head: NodeId) -> DiscoveryMessage {
        DiscoveryMessage {
            sender: self.id,
            distances: Arc::clone(&self.distances),
            head,
        }
    }

    /// Forget everything (crash/restart).
    pub fn reset(&mut self) {
        *self = Discovery::new(self.id, self.horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn msg(sender: u64, head: u64, dists: &[(u64, u32)]) -> DiscoveryMessage {
        DiscoveryMessage {
            sender: n(sender),
            head: n(head),
            distances: Arc::new(dists.iter().map(|&(i, d)| (n(i), d)).collect()),
        }
    }

    #[test]
    fn fresh_state_knows_only_itself() {
        let d = Discovery::new(n(1), 3);
        assert_eq!(d.distances.len(), 1);
        assert_eq!(d.distances[&n(1)], 0);
        assert_eq!(d.within(3).count(), 1);
    }

    #[test]
    fn recompute_merges_neighbour_vectors() {
        let mut d = Discovery::new(n(1), 3);
        d.receive(msg(2, 2, &[(2, 0), (3, 1), (4, 2)]));
        d.receive(msg(5, 5, &[(5, 0), (4, 1)]));
        d.recompute();
        assert_eq!(d.distances[&n(2)], 1);
        assert_eq!(d.distances[&n(3)], 2);
        assert_eq!(d.distances[&n(4)], 2, "shorter path via 5 wins");
        assert_eq!(d.distances[&n(5)], 1);
        assert_eq!(d.advertised_heads[&n(2)], n(2));
        assert!(d.inbox.is_empty(), "inbox cleared after recompute");
    }

    #[test]
    fn horizon_caps_propagation() {
        let mut d = Discovery::new(n(1), 2);
        d.receive(msg(2, 2, &[(2, 0), (3, 1), (4, 2)]));
        d.recompute();
        assert!(d.distances.contains_key(&n(3)));
        assert!(!d.distances.contains_key(&n(4)), "beyond the horizon");
    }

    #[test]
    fn stale_entries_vanish_after_one_silent_round() {
        let mut d = Discovery::new(n(1), 3);
        d.receive(msg(2, 2, &[(2, 0)]));
        d.recompute();
        assert!(d.distances.contains_key(&n(2)));
        // neighbour 2 stops talking: next recompute forgets it
        d.recompute();
        assert!(!d.distances.contains_key(&n(2)));
    }

    #[test]
    fn latest_message_per_sender_wins() {
        let mut d = Discovery::new(n(1), 3);
        d.receive(msg(2, 2, &[(2, 0), (9, 1)]));
        d.receive(msg(2, 7, &[(2, 0)]));
        d.recompute();
        assert!(!d.distances.contains_key(&n(9)));
        assert_eq!(d.advertised_heads[&n(2)], n(7));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut d = Discovery::new(n(1), 3);
        d.receive(msg(2, 2, &[(2, 0)]));
        d.recompute();
        d.reset();
        assert_eq!(d.distances.len(), 1);
        assert!(d.inbox.is_empty());
    }

    #[test]
    fn message_has_positive_wire_size() {
        let d = Discovery::new(n(1), 3);
        assert!(d.message(n(1)).wire_size() > 0);
    }
}
