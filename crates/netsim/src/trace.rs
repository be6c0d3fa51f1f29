//! Execution traces and message statistics.
//!
//! The predicate checkers of the GRP evaluation work on *configurations*
//! (Section 2): the trace records, at every snapshot instant, the topology
//! of the system, so that consecutive snapshots can be compared (ΠT / ΠC are
//! defined on pairs of successive configurations). Protocol-level outputs
//! (views) are captured by the experiment harness itself, which has access
//! to the concrete protocol type.

use crate::digest::{CanonicalHasher, TraceDigest};
use crate::time::SimTime;
use dyngraph::Graph;
use std::sync::Arc;

/// Counters of traffic through the simulated medium.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Broadcast transmissions performed (one per Ts expiration that
    /// produced a message).
    pub broadcasts: u64,
    /// Point-to-point deliveries attempted (one per neighbour per broadcast).
    pub attempted: u64,
    /// Deliveries that reached the destination protocol.
    pub delivered: u64,
    /// Deliveries dropped by the radio model or a loss burst.
    pub dropped: u64,
    /// Sum of message sizes over delivered messages (abstract units).
    pub delivered_bytes: u64,
}

impl MessageStats {
    /// Delivery ratio in [0, 1]; 1.0 when nothing was attempted.
    pub fn delivery_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.delivered as f64 / self.attempted as f64
        }
    }
}

/// One recorded configuration snapshot. The topology is behind an `Arc` so
/// recording a round where the graph did not change (or where the recorder
/// shares the simulator's own handle) costs a pointer clone, not a graph
/// clone.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// When the snapshot was recorded.
    pub at: SimTime,
    /// The communication topology at that instant.
    pub topology: Arc<Graph>,
    /// Cumulative message statistics at that instant.
    pub stats: MessageStats,
}

/// The sequence of snapshots recorded during a run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    snapshots: Vec<Snapshot>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            snapshots: Vec::new(),
        }
    }

    /// Record a snapshot (the topology handle is retained, not cloned).
    pub fn record(&mut self, at: SimTime, topology: Arc<Graph>, stats: MessageStats) {
        self.snapshots.push(Snapshot {
            at,
            topology,
            stats,
        });
    }

    /// All snapshots, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The latest snapshot, if any.
    pub fn last(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when no snapshot has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Fold every snapshot into a hasher using the canonical encoding:
    /// `(time, topology, cumulative stats)` per snapshot, list-bracketed.
    /// Two traces feed identically iff they recorded the same sequence of
    /// configurations.
    pub fn feed_digest(&self, hasher: &mut CanonicalHasher) {
        hasher.begin_list("trace");
        hasher.feed_u64(self.snapshots.len() as u64);
        for snapshot in &self.snapshots {
            hasher.feed_time(snapshot.at);
            hasher.feed_graph(&snapshot.topology);
            hasher.feed_stats(&snapshot.stats);
        }
        hasher.end_list();
    }

    /// The canonical digest of this trace alone. Runs of the same scenario
    /// manifest under the same seed produce byte-identical digests; the
    /// `scenarios` crate combines this with protocol-level views for its
    /// golden-trace tests.
    pub fn digest(&self) -> TraceDigest {
        let mut hasher = CanonicalHasher::new();
        self.feed_digest(&mut hasher);
        hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::NodeId;

    #[test]
    fn delivery_ratio_handles_zero_attempts() {
        let stats = MessageStats::default();
        assert_eq!(stats.delivery_ratio(), 1.0);
        let stats = MessageStats {
            attempted: 10,
            delivered: 7,
            dropped: 3,
            ..Default::default()
        };
        assert!((stats.delivery_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn trace_records_and_diffs_snapshots() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        let g = Arc::new(Graph::from_edges([], [(NodeId(1), NodeId(2))]));
        trace.record(
            SimTime(10),
            Arc::clone(&g),
            MessageStats {
                broadcasts: 5,
                attempted: 10,
                delivered: 8,
                dropped: 2,
                delivered_bytes: 80,
            },
        );
        trace.record(
            SimTime(20),
            g,
            MessageStats {
                broadcasts: 9,
                attempted: 18,
                delivered: 15,
                dropped: 3,
                delivered_bytes: 150,
            },
        );
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.last().unwrap().at, SimTime(20));
        let [first, second] = trace.snapshots() else {
            panic!("two snapshots recorded");
        };
        assert!(Arc::ptr_eq(&first.topology, &second.topology));
        assert_eq!(second.stats.delivered - first.stats.delivered, 7);
        assert_eq!(
            second.stats.delivered_bytes - first.stats.delivered_bytes,
            70
        );
    }
}
