//! Property tests for the fault subsystem.
//!
//! The determinism contract (docs/FAULTS.md) says that *any* fault
//! schedule — every kind, any times, any victims — produces a run that is
//! a pure function of (manifest, seed): rerunning must reproduce the
//! execution byte for byte. These properties generate arbitrary schedules,
//! on staggered and on lockstep timers, and check exactly that.

use dyngraph::NodeId;
use netsim::mobility::RandomWalk;
use netsim::radio::UnitDisk;
use netsim::{
    FaultKind, MessageStats, NullObserver, Protocol, Region, ScheduledFault, SimConfig, SimTime,
    Simulator, TopologyMode,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Population of every run.
const N: u64 = 20;

/// A tiny flooding protocol (the unit-test `Flood` is crate-private):
/// every node broadcasts the identifier set it has heard of, and both
/// corruption hooks consume randomness — so the properties also check
/// that fault draws stay on the right streams.
#[derive(Clone, Debug)]
struct Gossip {
    me: NodeId,
    known: BTreeSet<NodeId>,
}

impl Gossip {
    fn new(me: NodeId) -> Self {
        let mut known = BTreeSet::new();
        known.insert(me);
        Gossip { me, known }
    }
}

impl Protocol for Gossip {
    type Message = BTreeSet<NodeId>;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_message(&mut self, _from: NodeId, msg: Self::Message, _now: SimTime) {
        self.known.extend(msg);
    }

    fn on_compute(&mut self, _now: SimTime) {}

    fn on_send(&mut self, _now: SimTime) -> Option<Self::Message> {
        Some(self.known.clone())
    }

    fn corrupt_state(&mut self, rng: &mut ChaCha8Rng) {
        self.known.insert(NodeId(rng.gen_range(1000..2000)));
    }

    fn corrupt_message(&mut self, msg: &mut Self::Message, rng: &mut ChaCha8Rng) {
        msg.insert(NodeId(rng.gen_range(3000..4000)));
    }

    fn reset(&mut self) {
        *self = Gossip::new(self.me);
    }
}

/// Strategy: one arbitrary fault of any kind.
fn fault_kind() -> impl Strategy<Value = FaultKind> {
    let node = || (0..N).prop_map(NodeId);
    prop_oneof![
        node().prop_map(FaultKind::CorruptState),
        node().prop_map(FaultKind::CorruptMessage),
        node().prop_map(FaultKind::Crash),
        node().prop_map(FaultKind::Restart),
        node().prop_map(FaultKind::RestartStale),
        (1u64..2_000).prop_map(|duration| FaultKind::LossBurst { duration }),
        proptest::collection::btree_set(0..N, 0..N as usize).prop_map(|left| {
            let right: Vec<NodeId> = (0..N).filter(|i| !left.contains(i)).map(NodeId).collect();
            FaultKind::Partition {
                groups: vec![left.into_iter().map(NodeId).collect(), right],
            }
        }),
        Just(FaultKind::Heal),
        (
            0.0f64..60.0,
            0.0f64..60.0,
            1.0f64..40.0,
            1.0f64..40.0,
            1u64..3_000
        )
            .prop_map(|(x, y, w, h, duration)| FaultKind::RegionBlackout {
                region: Region {
                    min_x: x,
                    min_y: y,
                    max_x: x + w,
                    max_y: y + h,
                },
                duration,
            }),
    ]
}

/// Strategy: an arbitrary schedule of up to 12 faults over the run window.
fn fault_schedule() -> impl Strategy<Value = Vec<ScheduledFault>> {
    proptest::collection::vec(
        ((0u64..6_000).prop_map(SimTime), fault_kind())
            .prop_map(|(at, kind)| ScheduledFault::new(at, kind)),
        0..12,
    )
}

/// `(now, topology, stats)` at every round boundary.
type History = Vec<(SimTime, dyngraph::Graph, MessageStats)>;

/// One spatial run on lossy links (loss 0.1); returns every observable:
/// the per-round history, message statistics, event count and final node
/// states.
fn run(
    faults: &[ScheduledFault],
    seed: u64,
    stagger_phases: bool,
) -> (History, MessageStats, u64, Vec<BTreeSet<NodeId>>) {
    let mut seed_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mobility = RandomWalk::new(N as usize, 60.0, 60.0, 0.004, &mut seed_rng);
    let mut sim: Simulator<Gossip> = Simulator::new(
        SimConfig {
            seed,
            loss_probability: 0.1,
            stagger_phases,
            ..Default::default()
        },
        TopologyMode::Spatial {
            radio: UnitDisk::new(25.0),
            mobility: Box::new(mobility),
        },
    );
    sim.add_nodes((0..N).map(|i| Gossip::new(NodeId(i))));
    sim.schedule_faults(faults.to_vec());
    let mut history = Vec::new();
    sim.run_rounds_driven(8, &mut NullObserver, &mut |_, sim| {
        history.push((sim.now(), sim.topology().clone(), sim.stats()));
    });
    history.push((sim.now(), sim.topology().clone(), sim.stats()));
    let known = sim.protocols().map(|(_, p)| p.known.clone()).collect();
    (history, sim.stats(), sim.events_processed(), known)
}

/// The links really are lossy: with no fault to block them, the channel
/// alone drops some.
#[test]
fn a_fault_free_run_loses_links() {
    let (_, stats, _, _) = run(&[], 7, true);
    assert!(stats.delivered > 0 && stats.dropped > 0, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any fault schedule reruns to the identical execution, with staggered
    /// timers or in lockstep — where the whole population lands in every
    /// compute, send and delivery batch.
    #[test]
    fn any_fault_schedule_reruns_to_identical_digests(
        faults in fault_schedule(),
        seed in 0u64..10_000,
        stagger_phases in (0u8..2).prop_map(|b| b == 1),
    ) {
        prop_assert_eq!(
            run(&faults, seed, stagger_phases),
            run(&faults, seed, stagger_phases)
        );
    }
}
