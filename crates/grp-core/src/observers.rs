//! View-aware observation: the one per-round recorder every harness
//! drives.
//!
//! `netsim::observer` defines the [`Observer`] trait; this module adds the
//! pieces that read protocol *views* (via [`ViewProtocol`]) and evaluate the
//! paper's predicates:
//!
//! * [`SnapshotRecorder`] — retains one [`SystemSnapshot`] per round: the
//!   simulator's topology handle and one clone of each node's shared
//!   [`View`] handle, so a round costs O(n) pointer work and
//!   no view is ever copied;
//! * [`ContinuityProbe`] — the ΠT/ΠC transition accounting
//!   ([`ContinuityStats`]), keeping only the previous round's groups;
//! * [`ResilienceProbe`] — per-fault recovery and availability
//!   ([`ResilienceStats`]);
//! * [`GrpPipeline`] — the recorder `scenarios::run_seed`, the campaigns
//!   and `grp-bench` drive: capture once per round, partition the snapshot
//!   into its groups once, and feed a [`ConvergenceDetector`] and the
//!   enabled probes from that one [`OmegaPartition`].

use crate::predicates::{OmegaPartition, SystemSnapshot};
use crate::stabilization::ConvergenceDetector;
use dyngraph::{Graph, NodeId};
use netsim::{
    CanonicalHasher, MessageStats, NodeSetDigest, Observer, ScheduledFault, SimTime, Simulator,
    View, ViewProtocol,
};
use std::sync::Arc;

/// One captured round: when, the configuration, and the cumulative message
/// statistics at that instant.
#[derive(Clone, Debug)]
pub struct RecordedRound {
    pub at: SimTime,
    pub snapshot: SystemSnapshot,
    pub stats: MessageStats,
}

/// Records a [`SystemSnapshot`] per observed round.
///
/// **Snapshot semantics:** only *active* nodes contribute views — a
/// crashed or departed node has no view in the paper's model. Every
/// harness shares this one semantics (see
/// [`SystemSnapshot::from_simulator`]).
#[derive(Clone, Debug, Default)]
pub struct SnapshotRecorder {
    rounds: Vec<RecordedRound>,
}

impl SnapshotRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SnapshotRecorder::default()
    }

    /// Capture the simulator's current configuration as one round
    /// ([`SystemSnapshot::from_simulator`]): every view and the topology
    /// are shared with the simulator, not copied.
    pub fn capture<P: ViewProtocol>(&mut self, sim: &Simulator<P>) -> &RecordedRound {
        self.rounds.push(RecordedRound {
            at: sim.now(),
            snapshot: SystemSnapshot::from_simulator(sim),
            stats: sim.stats(),
        });
        // detlint::allow(D004): pushed by the statement directly above
        self.rounds.last().expect("just pushed")
    }

    /// All captured rounds, oldest first.
    pub fn rounds(&self) -> &[RecordedRound] {
        &self.rounds
    }

    /// Number of captured rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The most recent snapshot, if any.
    pub fn last_snapshot(&self) -> Option<&SystemSnapshot> {
        self.rounds.last().map(|r| &r.snapshot)
    }

    /// Iterate over the captured snapshots.
    pub fn snapshots(&self) -> impl Iterator<Item = &SystemSnapshot> {
        self.rounds.iter().map(|r| &r.snapshot)
    }

    /// Consume the recorder into the per-round snapshot history.
    pub fn into_snapshots(self) -> Vec<SystemSnapshot> {
        self.rounds.into_iter().map(|r| r.snapshot).collect()
    }

    /// Feed the engine-trace part of the canonical digest — `(time,
    /// topology, cumulative stats)` per round under the `"trace"` list tag.
    ///
    /// **Delta-encoded:** consecutive rounds whose topology did not change
    /// hold the simulator's one `Arc<Graph>`, so the graph is encoded when
    /// the handle differs from the previous round's and the bytes are
    /// replayed while it stays the same. The digest is bit-for-bit the full
    /// walk (the reference walk in
    /// `crates/scenarios/tests/engine_equivalence.rs` pins the equivalence)
    /// — only the re-walking is skipped, which is what makes digesting a
    /// converged 10k-node run graph-bound no more.
    pub fn feed_trace_digest(&self, hasher: &mut CanonicalHasher) {
        let mut encoded: Option<&Arc<Graph>> = None;
        let mut encoding = Vec::new();
        hasher.begin_list("trace");
        hasher.feed_u64(self.rounds.len() as u64);
        for round in &self.rounds {
            hasher.feed_time(round.at);
            let topology = &round.snapshot.topology;
            if !encoded.is_some_and(|last| Arc::ptr_eq(last, topology)) {
                encoding = CanonicalHasher::graph_encoding(topology);
                encoded = Some(topology);
            }
            hasher.feed_graph_encoding(&encoding);
            hasher.feed_stats(&round.stats);
        }
        hasher.end_list();
    }

    /// Feed the per-round views under the `"views"` list tag —
    /// byte-identically to the historical scenario-runner encoding.
    ///
    /// **Delta-encoded:** a node's fixed-size [`NodeSetDigest`] summary is
    /// computed when its [`View`] handle differs from the one it held in
    /// the previous round, and replayed while the node keeps it (the
    /// overwhelming majority of rounds once the system converges).
    /// Byte-identical to re-hashing every view of every round (the
    /// reference walk in `crates/scenarios/tests/engine_equivalence.rs`).
    pub fn feed_views_digest(&self, hasher: &mut CanonicalHasher) {
        let mut last: Vec<(NodeId, &View, NodeSetDigest)> = Vec::new();
        let mut next = Vec::new();
        hasher.begin_list("views");
        hasher.feed_u64(self.rounds.len() as u64);
        for (index, round) in self.rounds.iter().enumerate() {
            hasher.feed_u64(index as u64);
            let mut before = last.iter().peekable();
            for (&node, view) in &round.snapshot.views {
                hasher.feed_u64(node.raw());
                while before.next_if(|&&(other, _, _)| other < node).is_some() {}
                let summary = match before.next_if(|&&(other, _, _)| other == node) {
                    Some(&(_, held, summary)) if View::ptr_eq(held, view) => summary,
                    _ => CanonicalHasher::node_set_digest(view.iter().copied()),
                };
                hasher.feed_node_set_digest(&summary);
                next.push((node, view, summary));
            }
            std::mem::swap(&mut last, &mut next);
            next.clear();
        }
        hasher.end_list();
    }
}

impl<P: ViewProtocol> Observer<P> for SnapshotRecorder {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        self.capture(sim);
    }
}

/// Do two snapshots share every handle — one topology and, node for node,
/// one view? Then they are one configuration.
fn shares_every_handle(a: &SystemSnapshot, b: &SystemSnapshot) -> bool {
    Arc::ptr_eq(&a.topology, &b.topology)
        && a.views.len() == b.views.len()
        && (a.views.iter().zip(&b.views)).all(|((u, v), (w, x))| u == w && View::ptr_eq(v, x))
}

/// Continuity bookkeeping over a run's consecutive-round transitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContinuityStats {
    /// Number of consecutive-snapshot transitions examined.
    pub transitions: u64,
    /// Transitions whose topology change satisfied ΠT.
    pub pi_t_held: u64,
    /// Transitions that satisfied ΠC, whether ΠT held or not.
    pub pi_c_held: u64,
    /// Transitions that satisfied both: ΠC where ΠT promised it.
    pub pi_c_held_given_pi_t: u64,
}

impl ContinuityStats {
    /// The conformance ratio for the `view_continuity` assertion: ΠC-rate
    /// among ΠT-transitions (1.0 when ΠT never held — nothing was promised).
    pub fn view_continuity(&self) -> f64 {
        if self.pi_t_held == 0 {
            1.0
        } else {
            self.pi_c_held_given_pi_t as f64 / self.pi_t_held as f64
        }
    }

    /// Transitions where ΠT held and ΠC did not — what Proposition 14 rules
    /// out (`docs/SCENARIOS.md` lists where the reproduction still counts
    /// some).
    pub fn best_effort_violations(&self) -> u64 {
        self.pi_t_held - self.pi_c_held_given_pi_t
    }
}

/// The ΠT/ΠC transition accounting, retaining only the previous round's
/// groups: ΠT measures them in the new topology, ΠC looks for them in the
/// new partition, and neither reads anything else of the old round.
/// [`GrpPipeline`] feeds it every round; [`record`](Self::record) feeds it
/// snapshots a caller captured itself.
#[derive(Clone, Debug)]
pub struct ContinuityProbe {
    dmax: usize,
    prev: Option<OmegaPartition>,
    /// The ΠT and ΠC verdicts of `prev`'s transition to itself, once a
    /// repeated round asked for them; cleared when a new partition comes.
    repeat: Option<(bool, bool)>,
    stats: ContinuityStats,
}

impl ContinuityProbe {
    pub fn new(dmax: usize) -> Self {
        ContinuityProbe {
            dmax,
            prev: None,
            repeat: None,
            stats: ContinuityStats::default(),
        }
    }

    /// Record one already-captured snapshot.
    pub fn record(&mut self, snapshot: &SystemSnapshot) {
        self.record_partition(OmegaPartition::of(snapshot), &snapshot.topology);
    }

    /// Record one round from its already-computed partition and the
    /// topology it was captured with (the pipelined path).
    fn record_partition(&mut self, partition: OmegaPartition, topology: &Graph) {
        if let Some(prev) = &self.prev {
            let pi_t = prev.pi_t_violations(topology, self.dmax) == 0;
            self.count(pi_t, prev.pi_c_violations(&partition) == 0);
        }
        self.prev = Some(partition);
        self.repeat = None;
    }

    /// Record a round that repeats the last one (same topology handle,
    /// same view handles): its partition is `prev` again, so the
    /// transition is `prev`'s to itself, measured once per run of repeats.
    fn record_repeat(&mut self, topology: &Graph) {
        let Some(prev) = &self.prev else {
            return;
        };
        let dmax = self.dmax;
        let (pi_t, pi_c) = *self.repeat.get_or_insert_with(|| {
            let pi_t = prev.pi_t_violations(topology, dmax) == 0;
            (pi_t, prev.pi_c_violations(prev) == 0)
        });
        self.count(pi_t, pi_c);
    }

    /// Count one transition from its ΠT and ΠC verdicts.
    fn count(&mut self, pi_t: bool, pi_c: bool) {
        self.stats.transitions += 1;
        self.stats.pi_t_held += u64::from(pi_t);
        self.stats.pi_c_held += u64::from(pi_c);
        self.stats.pi_c_held_given_pi_t += u64::from(pi_t && pi_c);
    }

    pub fn stats(&self) -> ContinuityStats {
        self.stats
    }
}

/// Upper bounds of the recovery-histogram buckets, in observed rounds: a
/// recovery of `r` rounds falls into the first bucket with `r <= bound`.
/// The last bucket catches everything slower than 32 rounds.
pub const RECOVERY_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, u64::MAX];

/// One injected fault and how the system recovered from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecovery {
    /// The fault, in its textual campaign form (`crash 3`, `heal`, …).
    pub kind: String,
    /// When the fault fired.
    pub at: SimTime,
    /// Rounds observed before the fault fired.
    pub injected_after_round: u64,
    /// Observed rounds from injection until the first legitimate round
    /// (so a fault the system shrugs off scores 1); `None` when the run
    /// ended before legitimacy returned.
    pub rounds_to_recover: Option<u64>,
    /// When that first legitimate round closed.
    pub recovered_at: Option<SimTime>,
}

/// The resilience accounting of one run: availability plus per-fault
/// time-to-reconverge ([`FaultRecovery`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Rounds whose legitimacy was evaluated.
    pub rounds_observed: u64,
    /// Of those, how many were legitimate.
    pub legitimate_rounds: u64,
    /// Every injected fault, in injection order.
    pub faults: Vec<FaultRecovery>,
}

impl ResilienceStats {
    /// Fraction of observed rounds that were legitimate (1.0 for an empty
    /// run — nothing was unavailable).
    pub fn availability(&self) -> f64 {
        if self.rounds_observed == 0 {
            1.0
        } else {
            self.legitimate_rounds as f64 / self.rounds_observed as f64
        }
    }

    /// Mean rounds-to-recover over the recovered faults.
    pub fn mean_mttr_rounds(&self) -> Option<f64> {
        let recovered: Vec<u64> = self
            .faults
            .iter()
            .filter_map(|f| f.rounds_to_recover)
            .collect();
        if recovered.is_empty() {
            None
        } else {
            Some(recovered.iter().sum::<u64>() as f64 / recovered.len() as f64)
        }
    }

    /// Slowest recovery, in rounds.
    pub fn max_mttr_rounds(&self) -> Option<u64> {
        self.faults.iter().filter_map(|f| f.rounds_to_recover).max()
    }

    /// Faults the run ended without recovering from.
    pub fn unrecovered(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.rounds_to_recover.is_none())
            .count()
    }

    /// Recovery histogram over [`RECOVERY_BUCKETS`]: `counts[i]` is the
    /// number of recovered faults whose rounds-to-recover fall in bucket
    /// `i`. Unrecovered faults are not counted (see
    /// [`unrecovered`](Self::unrecovered)).
    pub fn recovery_histogram(&self) -> [u64; RECOVERY_BUCKETS.len()] {
        let mut counts = [0u64; RECOVERY_BUCKETS.len()];
        for rounds in self.faults.iter().filter_map(|f| f.rounds_to_recover) {
            let bucket = RECOVERY_BUCKETS
                .iter()
                .position(|&bound| rounds <= bound)
                // detlint::allow(D004): the last bucket bound is u64::MAX
                .expect("u64::MAX bound catches everything");
            counts[bucket] += 1;
        }
        counts
    }
}

/// Measures how badly a fault schedule hurts the run: per-fault MTTR
/// (rounds from injection to the first legitimate round), availability
/// (fraction of legitimate rounds) and a recovery histogram.
///
/// [`GrpPipeline`] feeds it the fault notifications and one legitimacy
/// verdict per round. It draws no randomness and therefore never perturbs
/// the execution: a manifest produces the same trace digest with or
/// without resilience measurement.
#[derive(Clone, Debug)]
pub struct ResilienceProbe {
    dmax: usize,
    /// The last recorded verdict.
    last_verdict: bool,
    stats: ResilienceStats,
}

impl ResilienceProbe {
    fn new(dmax: usize) -> Self {
        ResilienceProbe {
            dmax,
            last_verdict: false,
            stats: ResilienceStats::default(),
        }
    }

    /// Record an injected fault.
    fn note_fault(&mut self, fault: &ScheduledFault) {
        self.stats.faults.push(FaultRecovery {
            kind: fault.kind.to_string(),
            at: fault.at,
            injected_after_round: self.stats.rounds_observed,
            rounds_to_recover: None,
            recovered_at: None,
        });
    }

    /// Record one round from its legitimacy verdict.
    fn record_verdict(&mut self, at: SimTime, legitimate: bool) {
        self.last_verdict = legitimate;
        self.stats.rounds_observed += 1;
        if legitimate {
            self.stats.legitimate_rounds += 1;
            let closed = self.stats.rounds_observed;
            for fault in &mut self.stats.faults {
                if fault.rounds_to_recover.is_none() {
                    fault.rounds_to_recover = Some(closed - fault.injected_after_round);
                    fault.recovered_at = Some(at);
                }
            }
        }
    }

    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    pub fn into_stats(self) -> ResilienceStats {
        self.stats
    }
}

/// The one per-round recorder: a shared-view capture and an
/// [`OmegaPartition`] per round feed each enabled consumer (one legitimacy
/// verdict serves the detector and resilience probe; the partition is the
/// continuity probe's next "before"). Built by the `with_*` methods: the
/// scenario runner picks them from `[report]` in its one simulate core.
///
/// A round that repeats the last one — the same topology handle and, node
/// for node, the same view handles, as every round of a settled explicit
/// run does — is the same configuration, so it is not evaluated again:
/// each consumer repeats its last verdict and the continuity probe counts
/// the partition's transition to itself, measured once per run of
/// repeats. The probes are fed every round the recorder holds, so each
/// one's last verdict is the previous round's.
#[derive(Clone, Debug, Default)]
pub struct GrpPipeline {
    pub recorder: SnapshotRecorder,
    pub convergence: Option<ConvergenceDetector>,
    pub continuity: Option<ContinuityProbe>,
    pub resilience: Option<ResilienceProbe>,
}

impl GrpPipeline {
    /// Recorder only.
    pub fn new() -> Self {
        GrpPipeline::default()
    }

    /// Also stream legitimacy verdicts.
    pub fn with_convergence(mut self, dmax: usize) -> Self {
        self.convergence = Some(ConvergenceDetector::new(dmax));
        self
    }

    /// Also stream ΠT/ΠC continuity accounting.
    pub fn with_continuity(mut self, dmax: usize) -> Self {
        self.continuity = Some(ContinuityProbe::new(dmax));
        self
    }

    /// Also stream per-fault MTTR / availability accounting.
    pub fn with_resilience(mut self, dmax: usize) -> Self {
        self.resilience = Some(ResilienceProbe::new(dmax));
        self
    }
}

impl<P: ViewProtocol> Observer<P> for GrpPipeline {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        self.recorder.capture(sim);
        if self.convergence.is_none() && self.continuity.is_none() && self.resilience.is_none() {
            return;
        }
        let (before, round) = match self.recorder.rounds() {
            [.., before, round] => (Some(before), round),
            [round] => (None, round),
            [] => return,
        };
        let topology = &round.snapshot.topology;
        if before.is_some_and(|before| shares_every_handle(&before.snapshot, &round.snapshot)) {
            if let Some(detector) = &mut self.convergence {
                detector.record_verdict(detector.is_currently_legitimate());
            }
            if let Some(probe) = &mut self.resilience {
                probe.record_verdict(round.at, probe.last_verdict);
            }
            if let Some(probe) = &mut self.continuity {
                probe.record_repeat(topology);
            }
            return;
        }
        let partition = OmegaPartition::of(&round.snapshot);
        // the two legitimacy consumers are normally built with one `dmax`:
        // evaluate once, again only for a bound not yet asked about
        let mut verdict: Option<(usize, bool)> = None;
        let mut legitimate = |dmax: usize| match verdict {
            Some((asked, answer)) if asked == dmax => answer,
            _ => {
                let answer = partition.legitimate(topology, dmax);
                verdict = Some((dmax, answer));
                answer
            }
        };
        if let Some(detector) = &mut self.convergence {
            detector.record_verdict(legitimate(detector.dmax()));
        }
        if let Some(probe) = &mut self.resilience {
            probe.record_verdict(round.at, legitimate(probe.dmax));
        }
        if let Some(probe) = &mut self.continuity {
            probe.record_partition(partition, topology);
        }
    }

    fn on_fault(&mut self, fault: &ScheduledFault, _sim: &Simulator<P>) {
        if let Some(probe) = &mut self.resilience {
            probe.note_fault(fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GrpConfig, GrpNode};
    use dyngraph::generators::path;
    use netsim::{SimConfig, TopologyMode};

    fn grp_sim(n: usize, seed: u64) -> Simulator<GrpNode> {
        let topology = path(n);
        let ids = topology.node_vec();
        let mut sim = Simulator::new(SimConfig::rounds(seed), TopologyMode::Explicit(topology));
        let node = |id| GrpNode::new(id, GrpConfig::new(3));
        sim.add_nodes(ids.into_iter().map(node));
        sim
    }

    #[test]
    fn recorder_shares_unchanged_views_and_topology() {
        let mut sim = grp_sim(4, 1);
        let mut recorder = SnapshotRecorder::new();
        sim.run_rounds_observed(40, &mut recorder);
        assert_eq!(recorder.len(), 40);
        // explicit mode without churn: one shared topology allocation
        let first = &recorder.rounds()[0].snapshot.topology;
        assert!(recorder
            .snapshots()
            .all(|s| Arc::ptr_eq(first, &s.topology)));
        // once converged, consecutive rounds share every view allocation
        let last_two: Vec<_> = recorder.rounds().iter().rev().take(2).collect();
        for (&id, view) in &last_two[0].snapshot.views {
            let prev = &last_two[1].snapshot.views[&id];
            assert!(View::ptr_eq(view, prev), "node {id} view re-allocated");
        }
    }

    /// Every streamed verdict equals an independent evaluation of the
    /// recorded history: a fresh detector, each snapshot's own
    /// `legitimate`, and the ΠT/ΠC predicates over consecutive snapshots.
    #[test]
    fn pipeline_probes_agree_with_post_hoc_evaluation() {
        use crate::predicates::{pi_c_violations, pi_t_violations};
        use netsim::FaultKind;
        let mut sim = grp_sim(4, 2);
        // converge, then corrupt a node's state mid-round
        let fault_at = SimTime(40_500);
        sim.schedule_faults(vec![ScheduledFault::new(
            fault_at,
            FaultKind::CorruptState(NodeId(2)),
        )]);
        let mut pipeline = GrpPipeline::new()
            .with_convergence(3)
            .with_continuity(3)
            .with_resilience(3);
        sim.run_rounds_observed(80, &mut pipeline);
        let rounds = pipeline.recorder.rounds();

        let convergence = pipeline.convergence.as_ref().unwrap();
        assert!(convergence.convergence_round().is_some());
        let mut detector = ConvergenceDetector::new(3);
        pipeline
            .recorder
            .snapshots()
            .for_each(|s| detector.record(s));
        assert_eq!(
            detector.convergence_round(),
            convergence.convergence_round()
        );

        let legitimate: Vec<bool> = pipeline
            .recorder
            .snapshots()
            .map(|s| s.legitimate(3))
            .collect();
        let injected_after = rounds.iter().filter(|r| r.at < fault_at).count();
        let recovered = (legitimate[injected_after..].iter())
            .position(|&l| l)
            .map(|i| i as u64 + 1);
        let resilience = pipeline.resilience.as_ref().unwrap().stats();
        assert_eq!(resilience.rounds_observed, rounds.len() as u64);
        assert_eq!(
            resilience.legitimate_rounds,
            legitimate.iter().filter(|&&l| l).count() as u64
        );
        let [fault] = resilience.faults.as_slice() else {
            panic!("one fault injected: {:?}", resilience.faults);
        };
        assert_eq!(fault.injected_after_round, injected_after as u64);
        assert!(recovered.is_some(), "the system reconverges");
        assert_eq!(fault.rounds_to_recover, recovered);

        let (mut pi_t_held, mut pi_c_held, mut pi_c_held_given_pi_t) = (0, 0, 0);
        for pair in rounds.windows(2) {
            let (prev, next) = (&pair[0].snapshot, &pair[1].snapshot);
            let pi_c = pi_c_violations(prev, next) == 0;
            pi_c_held += u64::from(pi_c);
            if pi_t_violations(prev, next, 3) == 0 {
                pi_t_held += 1;
                pi_c_held_given_pi_t += u64::from(pi_c);
            }
        }
        let streamed = pipeline.continuity.as_ref().unwrap().stats();
        assert_eq!(streamed.transitions, rounds.len() as u64 - 1);
        assert_eq!(streamed.pi_t_held, pi_t_held);
        assert_eq!(streamed.pi_c_held, pi_c_held);
        assert_eq!(streamed.pi_c_held_given_pi_t, pi_c_held_given_pi_t);
    }

    /// The repeated-round memo is exact: a converged explicit run, with a
    /// corruption to recover from or a crash that leaves the survivors
    /// quoting a missing node, streamed through the pipeline reads the
    /// same convergence round, continuity and resilience as a fresh
    /// evaluation of every recorded snapshot.
    #[test]
    fn repeated_rounds_read_as_a_fresh_evaluation() {
        use netsim::FaultKind;
        for kind in [
            FaultKind::CorruptState(NodeId(2)),
            FaultKind::Crash(NodeId(2)),
        ] {
            let mut sim = grp_sim(4, 2);
            let fault = ScheduledFault::new(SimTime(40_500), kind);
            sim.schedule_faults(vec![fault.clone()]);
            let mut pipeline = GrpPipeline::new()
                .with_convergence(3)
                .with_continuity(3)
                .with_resilience(3);
            sim.run_rounds_observed(80, &mut pipeline);
            let rounds = pipeline.recorder.rounds();
            let repeats = rounds
                .windows(2)
                .filter(|pair| shares_every_handle(&pair[0].snapshot, &pair[1].snapshot))
                .count();
            assert!(repeats > 20, "{fault:?}: the memo serves {repeats} rounds");

            let mut detector = ConvergenceDetector::new(3);
            let mut continuity = ContinuityProbe::new(3);
            let mut resilience = ResilienceProbe::new(3);
            for round in rounds {
                if round.at >= fault.at && resilience.stats().faults.is_empty() {
                    resilience.note_fault(&fault);
                }
                detector.record(&round.snapshot);
                continuity.record(&round.snapshot);
                resilience.record_verdict(round.at, round.snapshot.legitimate(3));
            }
            let streamed = pipeline.convergence.as_ref().unwrap();
            assert_eq!(streamed.convergence_round(), detector.convergence_round());
            let (fresh, memo) = (continuity.stats(), pipeline.continuity.unwrap().stats());
            assert_eq!(
                (
                    fresh.transitions,
                    fresh.pi_t_held,
                    fresh.pi_c_held,
                    fresh.pi_c_held_given_pi_t
                ),
                (
                    memo.transitions,
                    memo.pi_t_held,
                    memo.pi_c_held,
                    memo.pi_c_held_given_pi_t
                ),
                "{fault:?}"
            );
            let memo = pipeline.resilience.unwrap().into_stats();
            assert_eq!(memo.faults.len(), 1);
            assert_eq!(format!("{memo:?}"), format!("{:?}", resilience.stats()));
        }
    }

    const TOGETHER: [&[u64]; 3] = [&[0, 1, 2]; 3];
    const SPLIT: [&[u64]; 3] = [&[0, 1], &[0, 1], &[2]];

    /// The continuity stats of one hand-made transition out of a 3-node
    /// group on `path(3)` into `after` on `topology`.
    fn one_transition(topology: Graph, after: [&[u64]; 3]) -> ContinuityStats {
        let snapshot = |topology: Graph, spec: [&[u64]; 3]| {
            let views = (0..3).zip(spec).map(|(v, members)| {
                let view = members.iter().map(|&m| NodeId(m)).collect();
                (NodeId(v), view)
            });
            SystemSnapshot::new(topology, views.collect())
        };
        let mut probe = ContinuityProbe::new(2);
        probe.record(&snapshot(path(3), TOGETHER));
        probe.record(&snapshot(topology, after));
        let stats = probe.stats();
        assert_eq!(stats.transitions, 1);
        stats
    }

    #[test]
    fn stable_transition_counts_as_continuous() {
        let stats = one_transition(path(3), TOGETHER);
        assert_eq!(
            (stats.pi_t_held, stats.pi_c_held, stats.pi_c_held_given_pi_t),
            (1, 1, 1)
        );
        assert_eq!(stats.view_continuity(), 1.0);
        assert_eq!(stats.best_effort_violations(), 0);
    }

    #[test]
    fn link_loss_breaks_pi_t_and_allows_pi_c_violation() {
        use dyngraph::TopologyEvent;
        let broken = path(3).apply(TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
        let stats = one_transition(broken, SPLIT);
        assert_eq!((stats.pi_t_held, stats.pi_c_held), (0, 0));
        assert_eq!(
            stats.best_effort_violations(),
            0,
            "ΠT broken, so no best-effort violation"
        );
        assert_eq!(stats.view_continuity(), 1.0, "nothing was promised");
    }

    #[test]
    fn best_effort_violation_is_detected() {
        // the topology does not change, but a node vanishes from the views:
        // that is precisely what Proposition 14 forbids
        let stats = one_transition(path(3), SPLIT);
        assert_eq!(
            (stats.pi_t_held, stats.pi_c_held, stats.pi_c_held_given_pi_t),
            (1, 0, 0)
        );
        assert_eq!(stats.best_effort_violations(), 1);
        assert_eq!(stats.view_continuity(), 0.0);
    }

    #[test]
    fn resilience_probe_measures_recovery_from_a_corruption() {
        use netsim::FaultKind;
        let mut sim = grp_sim(4, 7);
        // let the system converge, then corrupt a node's state mid-run
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(40_000),
            FaultKind::CorruptState(NodeId(2)),
        )]);
        let mut pipeline = GrpPipeline::new().with_resilience(3);
        sim.run_rounds_observed(80, &mut pipeline);
        let stats = pipeline.resilience.as_ref().unwrap().stats();
        assert_eq!(stats.rounds_observed, 80);
        assert_eq!(stats.faults.len(), 1);
        let fault = &stats.faults[0];
        assert_eq!(fault.kind, "corrupt 2");
        assert_eq!(fault.at, SimTime(40_000));
        let mttr = fault.rounds_to_recover.expect("the system reconverges");
        assert!(mttr >= 1);
        assert_eq!(stats.unrecovered(), 0);
        assert_eq!(stats.max_mttr_rounds(), Some(mttr));
        assert_eq!(stats.recovery_histogram().iter().sum::<u64>(), 1);
        // the corruption made at least one round illegitimate… unless the
        // ghost was purged within the same compute period; availability is
        // a fraction of observed rounds either way
        assert!(stats.availability() <= 1.0 && stats.availability() > 0.5);
    }

    #[test]
    fn resilience_probe_reports_unrecovered_faults() {
        use netsim::FaultKind;
        let mut sim = grp_sim(4, 8);
        // crash a middle node and never restart it: the path is severed,
        // ΠA can still hold per component, but corrupt the survivor too
        // close to the end of the run for recovery
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(79_500),
            FaultKind::CorruptState(NodeId(1)),
        )]);
        let mut pipeline = GrpPipeline::new().with_resilience(3);
        sim.run_rounds_observed(80, &mut pipeline);
        let stats = pipeline.resilience.as_ref().unwrap().stats();
        assert_eq!(stats.faults.len(), 1);
        assert_eq!(
            stats.unrecovered(),
            1,
            "no legitimate round fits between the corruption and the end: {:?}",
            stats.faults
        );
        assert_eq!(stats.mean_mttr_rounds(), None);
    }

    #[test]
    fn recovery_histogram_buckets_by_rounds() {
        let mut stats = ResilienceStats::default();
        for (i, rounds) in [1u64, 2, 2, 5, 33, 100].iter().enumerate() {
            stats.faults.push(FaultRecovery {
                kind: format!("crash {i}"),
                at: SimTime(i as u64),
                injected_after_round: 0,
                rounds_to_recover: Some(*rounds),
                recovered_at: Some(SimTime(i as u64 + rounds)),
            });
        }
        stats.faults.push(FaultRecovery {
            kind: "crash 99".into(),
            at: SimTime(99),
            injected_after_round: 0,
            rounds_to_recover: None,
            recovered_at: None,
        });
        assert_eq!(stats.recovery_histogram(), [1, 2, 0, 1, 0, 0, 2]);
        assert_eq!(stats.unrecovered(), 1);
        assert_eq!(stats.max_mttr_rounds(), Some(100));
        let mean = stats.mean_mttr_rounds().unwrap();
        assert!((mean - 143.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_excludes_inactive_nodes_by_default() {
        use dyngraph::NodeId;
        let mut sim = grp_sim(3, 3);
        sim.set_active(NodeId(1), false);
        let mut recorder = SnapshotRecorder::new();
        sim.run_rounds_observed(1, &mut recorder);
        let views = &recorder.rounds()[0].snapshot.views;
        assert_eq!(
            views.keys().copied().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }
}
