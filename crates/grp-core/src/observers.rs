//! View-aware observers: the streaming probes every harness composes
//! instead of hand-rolling per-round capture loops.
//!
//! `netsim::observer` defines the [`Observer`] trait and the
//! protocol-agnostic probes; this module adds the probes that need to read
//! protocol *views* (via [`ViewProtocol`]) and evaluate the paper's
//! predicates:
//!
//! * [`SnapshotRecorder`] — retains one [`SystemSnapshot`] per round with
//!   copy-on-write capture: a node's view is deep-copied only in rounds
//!   where it changed, and the topology is shared with the simulator, so a
//!   converged system records a round in O(n) pointer work;
//! * [`ConvergenceProbe`] — streams legitimacy verdicts into a
//!   [`ConvergenceDetector`] without retaining snapshots;
//! * [`ContinuityProbe`] — streams the ΠT/ΠC transition accounting
//!   ([`ContinuityStats`]) keeping only the previous round's groups;
//! * [`GrpPipeline`] — the composition the scenario and experiment runners
//!   use: capture once per round, partition the snapshot into its groups
//!   once, feed every enabled probe from that one [`OmegaPartition`].

use crate::predicates::{OmegaPartition, SystemSnapshot};
use crate::stabilization::ConvergenceDetector;
use dyngraph::{Graph, NodeId};
use netsim::{
    CanonicalHasher, MessageStats, NodeSetDigest, Observer, ScheduledFault, SimTime, Simulator,
    ViewProtocol,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One captured round: when, the configuration, and the cumulative message
/// statistics at that instant.
#[derive(Clone, Debug)]
pub struct RecordedRound {
    pub at: SimTime,
    pub snapshot: SystemSnapshot,
    pub stats: MessageStats,
}

/// Records a [`SystemSnapshot`] per observed round with copy-on-write
/// capture.
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

    /// Capture the simulator's current configuration as one round. Views
    /// that are unchanged since the previous capture share their allocation
    /// with it; the topology handle is shared with the simulator.
    pub fn capture<P: ViewProtocol>(&mut self, sim: &Simulator<P>) -> &RecordedRound {
        let mut views: BTreeMap<NodeId, Arc<BTreeSet<NodeId>>> = BTreeMap::new();
        {
            let prev = self.rounds.last().map(|r| &r.snapshot.views);
            for (id, p) in sim.protocols() {
                if !sim.is_active(id) {
                    continue;
                }
                let view = p.view();
                let shared = match prev.and_then(|m| m.get(&id)) {
                    Some(last) if **last == *view => Arc::clone(last),
                    _ => Arc::new(view.clone()),
                };
                views.insert(id, shared);
            }
        }
        self.rounds.push(RecordedRound {
            at: sim.now(),
            snapshot: SystemSnapshot::from_shared(sim.topology_shared(), views),
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
    /// topology, cumulative stats)` per round under the `"trace"` list tag
    /// — byte-identically to how the historical `netsim::Trace` fed it.
    ///
    /// **Delta-encoded:** copy-on-write capture shares one `Arc<Graph>`
    /// across every round whose topology did not change, so the graph is
    /// encoded once per *distinct* allocation and the cached bytes are
    /// replayed for every round that shares it. The digest is bit-for-bit
    /// the full walk (the reference walk in
    /// `crates/scenarios/tests/engine_equivalence.rs` pins the equivalence)
    /// — only the re-walking is skipped, which is what makes digesting a
    /// converged 10k-node run graph-bound no more.
    pub fn feed_trace_digest(&self, hasher: &mut CanonicalHasher) {
        let mut encodings: HashMap<*const Graph, Vec<u8>> = HashMap::new();
        hasher.begin_list("trace");
        hasher.feed_u64(self.rounds.len() as u64);
        for round in &self.rounds {
            hasher.feed_time(round.at);
            let encoding = encodings
                .entry(Arc::as_ptr(&round.snapshot.topology))
                .or_insert_with(|| CanonicalHasher::graph_encoding(&round.snapshot.topology));
            hasher.feed_graph_encoding(encoding);
            hasher.feed_stats(&round.stats);
        }
        hasher.end_list();
    }

    /// Feed the per-round views under the `"views"` list tag —
    /// byte-identically to the historical scenario-runner encoding.
    ///
    /// **Delta-encoded:** each view's fixed-size [`NodeSetDigest`] summary
    /// is computed once per distinct `Arc` allocation; rounds in which a
    /// node's view did not change (the overwhelming majority once the
    /// system converges) replay the cached summary instead of re-hashing
    /// the set. Byte-identical to re-hashing every view of every round (the
    /// reference walk in `crates/scenarios/tests/engine_equivalence.rs`).
    pub fn feed_views_digest(&self, hasher: &mut CanonicalHasher) {
        let mut summaries: HashMap<*const BTreeSet<NodeId>, NodeSetDigest> = HashMap::new();
        hasher.begin_list("views");
        hasher.feed_u64(self.rounds.len() as u64);
        for (index, round) in self.rounds.iter().enumerate() {
            hasher.feed_u64(index as u64);
            for (&node, view) in &round.snapshot.views {
                hasher.feed_u64(node.raw());
                let summary = summaries
                    .entry(Arc::as_ptr(view))
                    .or_insert_with(|| CanonicalHasher::node_set_digest(view.iter().copied()));
                hasher.feed_node_set_digest(summary);
            }
        }
        hasher.end_list();
    }
}

impl<P: ViewProtocol> Observer<P> for SnapshotRecorder {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        self.capture(sim);
    }
}

/// Streams per-round legitimacy verdicts into a [`ConvergenceDetector`]
/// without retaining any snapshot history.
#[derive(Clone, Debug)]
pub struct ConvergenceProbe {
    detector: ConvergenceDetector,
}

impl ConvergenceProbe {
    pub fn new(dmax: usize) -> Self {
        ConvergenceProbe {
            detector: ConvergenceDetector::new(dmax),
        }
    }

    /// Record one already-captured snapshot (avoids a second capture when
    /// a recorder already took one this round).
    pub fn record(&mut self, snapshot: &SystemSnapshot) {
        self.detector.record(snapshot);
    }

    pub fn detector(&self) -> &ConvergenceDetector {
        &self.detector
    }

    pub fn into_detector(self) -> ConvergenceDetector {
        self.detector
    }

    /// Index of the first snapshot of the closed legitimate suffix.
    pub fn convergence_round(&self) -> Option<usize> {
        self.detector.convergence_round()
    }

    /// Was the last observed round legitimate?
    pub fn is_currently_legitimate(&self) -> bool {
        self.detector.is_currently_legitimate()
    }
}

impl<P: ViewProtocol> Observer<P> for ConvergenceProbe {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        let snapshot = SystemSnapshot::from_simulator(sim);
        self.record(&snapshot);
    }
}

/// Continuity bookkeeping over a run's consecutive-round transitions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContinuityStats {
    /// Number of consecutive-snapshot transitions examined.
    pub transitions: u64,
    /// Transitions whose topology change satisfied ΠT.
    pub pi_t_held: u64,
    /// Of those, how many also satisfied ΠC (the best-effort promise).
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
}

/// Streams the ΠT/ΠC transition accounting, retaining only the previous
/// round's groups: ΠT measures them in the new topology, ΠC looks for them
/// in the new partition, and neither reads anything else of the old round.
#[derive(Clone, Debug)]
pub struct ContinuityProbe {
    dmax: usize,
    prev: Option<OmegaPartition>,
    stats: ContinuityStats,
}

impl ContinuityProbe {
    pub fn new(dmax: usize) -> Self {
        ContinuityProbe {
            dmax,
            prev: None,
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
            self.stats.transitions += 1;
            if prev.pi_t_violations(topology, self.dmax) == 0 {
                self.stats.pi_t_held += 1;
                if prev.pi_c_violations(&partition) == 0 {
                    self.stats.pi_c_held_given_pi_t += 1;
                }
            }
        }
        self.prev = Some(partition);
    }

    pub fn stats(&self) -> ContinuityStats {
        self.stats
    }
}

impl<P: ViewProtocol> Observer<P> for ContinuityProbe {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        let snapshot = SystemSnapshot::from_simulator(sim);
        self.record(&snapshot);
    }
}

/// Upper bounds of the recovery-histogram buckets, in observed rounds: a
/// recovery of `r` rounds falls into the first bucket with `r <= bound`.
/// The last bucket catches everything slower than 32 rounds.
pub const RECOVERY_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, u64::MAX];

/// One injected fault and how the system recovered from it.
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug, Default)]
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
/// The probe is an *observer* — it reads snapshots and fault
/// notifications, draws no randomness, and therefore never perturbs the
/// execution: a manifest produces the same trace digest with or without
/// resilience measurement.
#[derive(Clone, Debug)]
pub struct ResilienceProbe {
    dmax: usize,
    stats: ResilienceStats,
}

impl ResilienceProbe {
    pub fn new(dmax: usize) -> Self {
        ResilienceProbe {
            dmax,
            stats: ResilienceStats::default(),
        }
    }

    /// Record an injected fault (the pipelined path).
    pub fn note_fault(&mut self, fault: &ScheduledFault) {
        self.stats.faults.push(FaultRecovery {
            kind: fault.kind.to_string(),
            at: fault.at,
            injected_after_round: self.stats.rounds_observed,
            rounds_to_recover: None,
            recovered_at: None,
        });
    }

    /// Record one already-captured snapshot.
    pub fn record(&mut self, at: SimTime, snapshot: &SystemSnapshot) {
        self.record_verdict(at, snapshot.legitimate(self.dmax));
    }

    /// Record one round from its already-computed legitimacy verdict (the
    /// pipelined path).
    fn record_verdict(&mut self, at: SimTime, legitimate: bool) {
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

impl<P: ViewProtocol> Observer<P> for ResilienceProbe {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        let snapshot = SystemSnapshot::from_simulator(sim);
        self.record(sim.now(), &snapshot);
    }

    fn on_fault(&mut self, fault: &ScheduledFault, _sim: &Simulator<P>) {
        self.note_fault(fault);
    }
}

/// The standard harness composition: one copy-on-write capture and one
/// [`OmegaPartition`] per round, fed to every enabled probe — the
/// convergence and resilience probes share one legitimacy verdict, the
/// continuity probe keeps the partition as next round's "before". Used by
/// the scenario conformance runner and the experiment harness; builds
/// incrementally via the `with_*` methods.
#[derive(Clone, Debug, Default)]
pub struct GrpPipeline {
    pub recorder: SnapshotRecorder,
    pub convergence: Option<ConvergenceProbe>,
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
        self.convergence = Some(ConvergenceProbe::new(dmax));
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
        let round = self.recorder.capture(sim);
        if self.convergence.is_none() && self.continuity.is_none() && self.resilience.is_none() {
            return;
        }
        let topology = &round.snapshot.topology;
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
        if let Some(probe) = &mut self.convergence {
            let dmax = probe.detector.dmax();
            probe.detector.record_verdict(legitimate(dmax));
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
            assert!(Arc::ptr_eq(view, prev), "node {id} view re-allocated");
        }
    }

    #[test]
    fn pipeline_probes_agree_with_post_hoc_evaluation() {
        let mut sim = grp_sim(4, 2);
        let mut pipeline = GrpPipeline::new().with_convergence(3).with_continuity(3);
        sim.run_rounds_observed(40, &mut pipeline);
        let convergence = pipeline.convergence.as_ref().unwrap();
        assert!(convergence.convergence_round().is_some());
        // recompute from the recorded history and compare
        let mut detector = ConvergenceDetector::new(3);
        let mut continuity = ContinuityProbe::new(3);
        for s in pipeline.recorder.snapshots() {
            detector.record(s);
            continuity.record(s);
        }
        assert_eq!(
            detector.convergence_round(),
            convergence.convergence_round()
        );
        let streamed = pipeline.continuity.as_ref().unwrap().stats();
        let recomputed = continuity.stats();
        assert_eq!(streamed.transitions, recomputed.transitions);
        assert_eq!(streamed.pi_t_held, recomputed.pi_t_held);
        assert_eq!(
            streamed.pi_c_held_given_pi_t,
            recomputed.pi_c_held_given_pi_t
        );
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
