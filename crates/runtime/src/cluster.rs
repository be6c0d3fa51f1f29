//! A cluster of GRP nodes, one thread each, exchanging messages over
//! `std::sync::mpsc` channels.

use crate::link::LinkQuality;
use dyngraph::{Graph, NodeId};
use grp_core::{GrpConfig, GrpMessage, GrpNode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a threaded cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Send timer `τ2` (wall clock).
    pub send_period: Duration,
    /// Compute timer `τ1` (wall clock, `send_period ≤ compute_period`).
    pub compute_period: Duration,
    /// Loss/delay applied uniformly to every link.
    pub link: LinkQuality,
    /// GRP parameters (`Dmax`, ablations).
    pub grp: GrpConfig,
    /// Seed for the per-node RNGs (loss decisions, timer jitter).
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            send_period: Duration::from_millis(10),
            compute_period: Duration::from_millis(40),
            link: LinkQuality::perfect(),
            grp: GrpConfig::new(3),
            seed: 0,
        }
    }
}

/// Shared state every node thread publishes into. Views are published
/// behind `Arc`s and re-published only when they actually changed, so
/// capturing a cluster-wide snapshot shares allocations with the node
/// threads instead of deep-cloning every view under the lock — the same
/// copy-on-write capture the simulator's observer pipeline uses.
#[derive(Default)]
struct Published {
    views: BTreeMap<NodeId, Arc<BTreeSet<NodeId>>>,
    rounds: BTreeMap<NodeId, u64>,
}

/// A running cluster.
pub struct Cluster {
    stop: Arc<AtomicBool>,
    topology: Arc<RwLock<Graph>>,
    published: Arc<Mutex<Published>>,
    handles: Vec<JoinHandle<()>>,
    config: ClusterConfig,
}

impl Cluster {
    /// Spawn one thread per node of `topology` and start exchanging
    /// messages immediately.
    pub fn start(topology: Graph, config: ClusterConfig) -> Cluster {
        let stop = Arc::new(AtomicBool::new(false));
        let shared_topology = Arc::new(RwLock::new(topology.clone()));
        let published = Arc::new(Mutex::new(Published::default()));

        let mut senders: BTreeMap<NodeId, Sender<GrpMessage>> = BTreeMap::new();
        let mut receivers: BTreeMap<NodeId, Receiver<GrpMessage>> = BTreeMap::new();
        for id in topology.nodes() {
            let (tx, rx) = channel();
            senders.insert(id, tx);
            receivers.insert(id, rx);
        }
        let senders = Arc::new(senders);

        let mut handles = Vec::new();
        for id in topology.nodes() {
            // detlint::allow(D004): the loop above created one per node id
            let rx = receivers.remove(&id).expect("receiver for every node");
            let senders = Arc::clone(&senders);
            let stop = Arc::clone(&stop);
            let topology = Arc::clone(&shared_topology);
            let published = Arc::clone(&published);
            let config = config.clone();
            handles.push(std::thread::spawn(move || {
                node_loop(id, rx, senders, stop, topology, published, config);
            }));
        }

        Cluster {
            stop,
            topology: shared_topology,
            published,
            handles,
            config,
        }
    }

    /// The configuration the cluster was started with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Latest published views, one per node (shared handles — cheap to
    /// clone out of the lock).
    pub fn views(&self) -> BTreeMap<NodeId, Arc<BTreeSet<NodeId>>> {
        unpoisoned(self.published.lock()).views.clone()
    }

    /// Number of compute rounds each node has executed so far.
    pub fn rounds(&self) -> BTreeMap<NodeId, u64> {
        unpoisoned(self.published.lock()).rounds.clone()
    }

    /// The current topology.
    pub fn topology(&self) -> Graph {
        unpoisoned(self.topology.read()).clone()
    }

    /// Replace the topology while the cluster is running (mobility).
    pub fn set_topology(&self, new: Graph) {
        *unpoisoned(self.topology.write()) = new;
    }

    /// Capture a predicate-checkable snapshot of the running system —
    /// copy-on-write: the views are shared with the node threads' latest
    /// publications, never deep-cloned.
    pub fn snapshot(&self) -> grp_core::predicates::SystemSnapshot {
        grp_core::predicates::SystemSnapshot::from_shared(Arc::new(self.topology()), self.views())
    }

    /// Block until every node has executed at least `rounds` compute rounds
    /// or the timeout elapses. Returns true when the round target was met.
    pub fn wait_for_rounds(&self, rounds: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let published = unpoisoned(self.published.lock());
                let done = !published.rounds.is_empty()
                    && published.rounds.values().all(|&r| r >= rounds)
                    && published.rounds.len() == unpoisoned(self.topology.read()).node_count();
                if done {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stop every node thread and join them.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Locks are read through poisoning, as the node threads never leave the
/// shared state half-written: a panicked thread only stops publishing.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[allow(clippy::too_many_arguments)]
fn node_loop(
    id: NodeId,
    rx: Receiver<GrpMessage>,
    senders: Arc<BTreeMap<NodeId, Sender<GrpMessage>>>,
    stop: Arc<AtomicBool>,
    topology: Arc<RwLock<Graph>>,
    published: Arc<Mutex<Published>>,
    config: ClusterConfig,
) {
    let mut node = GrpNode::new(id, config.grp.clone());
    let mut last_view: Option<Arc<BTreeSet<NodeId>>> = None;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ id.raw().wrapping_mul(0x9E37_79B9));
    // stagger the first firing so the cluster does not run in lockstep
    let jitter = Duration::from_micros((id.raw() % 17) * 300);
    let mut next_send = Instant::now() + config.send_period + jitter;
    let mut next_compute = Instant::now() + config.compute_period + jitter;

    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        let next_timer = next_send.min(next_compute);
        let timeout = next_timer.saturating_duration_since(now);
        match rx.recv_timeout(timeout) {
            Ok(msg) => node.receive(msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        let now = Instant::now();
        if now >= next_compute {
            node.on_round();
            // copy-on-write publication: only allocate a fresh shared view
            // when the round actually changed it
            if last_view.as_deref() != Some(node.view()) {
                last_view = Some(Arc::new(node.view().clone()));
            }
            let mut published = unpoisoned(published.lock());
            published
                .views
                // detlint::allow(D004): the comparison above fills it when None
                .insert(id, Arc::clone(last_view.as_ref().expect("just set")));
            *published.rounds.entry(id).or_insert(0) += 1;
            next_compute += config.compute_period;
        }
        if now >= next_send {
            if !config.link.delay.is_zero() {
                std::thread::sleep(config.link.delay);
            }
            let msg = node.build_message();
            let neighbours: Vec<NodeId> = unpoisoned(topology.read()).neighbors(id).collect();
            for neighbour in neighbours {
                if !config.link.delivers(&mut rng) {
                    continue;
                }
                if let Some(tx) = senders.get(&neighbour) {
                    let _ = tx.send(msg.clone());
                }
            }
            next_send += config.send_period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators::path;

    fn quick_config(dmax: usize) -> ClusterConfig {
        ClusterConfig {
            send_period: Duration::from_millis(5),
            compute_period: Duration::from_millis(15),
            grp: GrpConfig::new(dmax),
            ..Default::default()
        }
    }

    #[test]
    fn small_cluster_converges_to_one_group() {
        let cluster = Cluster::start(path(4), quick_config(3));
        assert!(cluster.wait_for_rounds(40, Duration::from_secs(10)));
        let snapshot = cluster.snapshot();
        cluster.shutdown();
        assert!(snapshot.agreement(), "views: {:?}", snapshot.views);
        assert!(snapshot.safety(3));
        assert_eq!(snapshot.group_count(), 1);
    }

    #[test]
    fn lossy_cluster_still_converges() {
        let mut config = quick_config(3);
        config.link = LinkQuality::lossy(0.3);
        let cluster = Cluster::start(path(3), config);
        // Wall-clock convergence under 30% loss depends on thread
        // scheduling: poll for a converged snapshot with a deadline
        // instead of asserting after a fixed round count.
        let deadline = Instant::now() + Duration::from_secs(30);
        let snapshot = loop {
            assert!(cluster.wait_for_rounds(20, Duration::from_secs(10)));
            let snapshot = cluster.snapshot();
            if snapshot.agreement() && snapshot.group_count() == 1 {
                break snapshot;
            }
            assert!(
                Instant::now() < deadline,
                "no convergence within the deadline; views: {:?}",
                snapshot.views
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        cluster.shutdown();
        assert!(snapshot.agreement(), "views: {:?}", snapshot.views);
        assert_eq!(snapshot.group_count(), 1);
    }

    #[test]
    fn topology_change_splits_the_group() {
        let cluster = Cluster::start(path(4), quick_config(3));
        assert!(cluster.wait_for_rounds(40, Duration::from_secs(10)));
        assert_eq!(cluster.snapshot().group_count(), 1);
        // remove the middle link: the group must split in finite time
        let mut broken = path(4);
        broken.remove_edge(NodeId(1), NodeId(2));
        cluster.set_topology(broken);
        let before = cluster.rounds().values().copied().max().unwrap_or(0);
        assert!(cluster.wait_for_rounds(before + 40, Duration::from_secs(10)));
        let snapshot = cluster.snapshot();
        cluster.shutdown();
        assert!(snapshot.group_count() >= 2, "views: {:?}", snapshot.views);
    }

    #[test]
    fn rounds_and_views_are_published() {
        let cluster = Cluster::start(path(2), quick_config(2));
        assert!(cluster.wait_for_rounds(5, Duration::from_secs(5)));
        assert_eq!(cluster.views().len(), 2);
        assert!(cluster.rounds().values().all(|&r| r >= 5));
        assert_eq!(cluster.config().grp.dmax, 2);
        cluster.shutdown();
    }
}
