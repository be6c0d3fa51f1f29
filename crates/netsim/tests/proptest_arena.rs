//! Property tests for the slot arena: per-node streams addressed by slot
//! must draw exactly what their `(run_seed, node, tag)` seed dictates,
//! whatever order nodes arrive in, and a simulator's trace must not depend
//! on the order its nodes were added in.

use dyngraph::{Graph, NodeId, TopologyEvent};
use netsim::mobility::RandomWalk;
use netsim::protocol::Beacon;
use netsim::radio::UnitDisk;
use netsim::{
    stream_seed, MessageStats, NodeStreams, NullObserver, Point, SimConfig, SimTime, Simulator,
    StreamTag, TopologyMode,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const TAGS: [StreamTag; 4] = [
    StreamTag::Phase,
    StreamTag::Channel,
    StreamTag::Mobility,
    StreamTag::Fault,
];

/// Sparse, non-contiguous ids: slot ≠ id for all but the first.
const IDS: [u64; 6] = [0, 5, 7, 12, 1_000_000, u64::MAX - 1];

/// What a test does to the arena next.
#[derive(Clone, Debug)]
enum Op {
    /// The node `IDS[i]` arrives (no-op if present).
    Arrive(usize),
    /// One draw from stream `tag` of the `n`-th present node.
    Draw(usize, usize),
    /// `k` draws in a row from one borrow of that stream.
    Burst(usize, usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..IDS.len()).prop_map(Op::Arrive),
        (0..IDS.len(), 0..TAGS.len()).prop_map(|(n, t)| Op::Draw(n, t)),
        (0..IDS.len(), 0..TAGS.len(), 0usize..4).prop_map(|(n, t, k)| Op::Burst(n, t, k)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every draw of `(run_seed, node, tag)` equals the replay of
    /// `ChaCha8Rng::seed_from_u64(stream_seed(..))`, for sparse ids arriving
    /// in any order (arrivals below a present id open a slot and shift the
    /// later streams), and a burst of draws through one borrow keeps the
    /// position.
    #[test]
    fn draws_replay_their_seed_in_any_arrival_order(
        run_seed in 0u64..u64::MAX,
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        let mut streams = NodeStreams::new(run_seed);
        let mut present: Vec<NodeId> = Vec::new();
        // one replay stream per (id, tag), advanced in step with the table
        let mut replays: Vec<Vec<ChaCha8Rng>> = IDS
            .iter()
            .map(|&id| {
                let seeded = |&tag| ChaCha8Rng::seed_from_u64(stream_seed(run_seed, NodeId(id), tag));
                TAGS.iter().map(seeded).collect()
            })
            .collect();
        let replay_of = |node: NodeId| IDS.iter().position(|&id| id == node.raw()).unwrap();
        for op in ops {
            match op {
                Op::Arrive(i) => {
                    if let Err(slot) = present.binary_search(&NodeId(IDS[i])) {
                        for tag in TAGS {
                            streams.open_slot(tag, slot);
                        }
                        present.insert(slot, NodeId(IDS[i]));
                    }
                }
                Op::Draw(n, t) if !present.is_empty() => {
                    let slot = n % present.len();
                    let node = present[slot];
                    let got: u64 = streams.stream(TAGS[t], slot, node).gen();
                    prop_assert_eq!(got, replays[replay_of(node)][t].gen::<u64>());
                }
                Op::Burst(n, t, k) if !present.is_empty() => {
                    let slot = n % present.len();
                    let node = present[slot];
                    let rng = streams.stream(TAGS[t], slot, node);
                    for _ in 0..k {
                        let got: u64 = rng.gen();
                        prop_assert_eq!(got, replays[replay_of(node)][t].gen::<u64>());
                    }
                }
                _ => {}
            }
        }
        // wherever the ops left each stream, the next draw is still in step
        for (slot, &node) in present.iter().enumerate() {
            for (t, &tag) in TAGS.iter().enumerate() {
                let got: u64 = streams.stream(tag, slot, node).gen();
                prop_assert_eq!(got, replays[replay_of(node)][t].gen::<u64>());
            }
        }
    }

    /// The lockstep walk a mobility model makes hands out the same streams
    /// slot-by-slot addressing does.
    #[test]
    fn lockstep_walk_equals_slot_addressing(run_seed in 0u64..u64::MAX, first_slot in 0usize..4) {
        let ids: Vec<NodeId> = IDS.iter().map(|&id| NodeId(id)).collect();
        let mut walked = NodeStreams::new(run_seed);
        let mut addressed = NodeStreams::new(run_seed);
        for round in 0..3 {
            let rngs = walked.lockstep(StreamTag::Mobility, first_slot, ids.iter().copied());
            let draws: Vec<u64> = rngs.map(|rng| rng.gen()).collect();
            prop_assert_eq!(draws.len(), ids.len());
            for (i, (&id, got)) in ids.iter().zip(draws).enumerate() {
                let want: u64 = addressed.stream(StreamTag::Mobility, first_slot + i, id).gen();
                prop_assert_eq!(got, want, "round {} slot {}", round, i);
            }
        }
    }
}

/// Everything observable about a finished run: `(now, topology, stats)`
/// at every round boundary, the final statistics, the event count and
/// every node's counters.
type Observed = (
    Vec<(SimTime, Graph, MessageStats)>,
    MessageStats,
    u64,
    Vec<(NodeId, u64, u64)>,
);

fn observe(mut sim: Simulator<Beacon>, rounds: u64) -> Observed {
    let mut history = Vec::new();
    sim.run_rounds_driven(rounds, &mut NullObserver, &mut |_, sim| {
        history.push((sim.now(), sim.topology().clone(), sim.stats()));
    });
    history.push((sim.now(), sim.topology().clone(), sim.stats()));
    let nodes = sim.protocols().map(|(id, p)| (id, p.heard, p.computes));
    (
        history,
        sim.stats(),
        sim.events_processed(),
        nodes.collect(),
    )
}

fn ring_over(ids: &[u64]) -> Graph {
    let next = |i: usize| NodeId(ids[(i + 1) % ids.len()]);
    Graph::from_edges(
        [],
        ids.iter().enumerate().map(|(i, &id)| (NodeId(id), next(i))),
    )
}

/// Slot order is NodeId order whatever the insertion order: a simulator
/// whose nodes are added descending, or shuffled, produces the trace the
/// ascending build does — on an explicit topology and through the spatial
/// stack (grid, mobility streams, lossy links), with sparse ids.
#[test]
fn add_order_does_not_change_the_trace() {
    let ids: Vec<u64> = vec![0, 5, 7, 12, 40, 41, 99, 1_000_000, 1_000_001, u64::MAX - 1];
    let config = SimConfig {
        seed: 31,
        loss_probability: 0.2,
        ..Default::default()
    };
    let explicit = |order: &[u64]| {
        let mut sim = Simulator::new(config, TopologyMode::Explicit(ring_over(&ids)));
        sim.add_nodes(order.iter().map(|&id| Beacon::new(NodeId(id))));
        observe(sim, 8)
    };
    let spatial = |order: &[u64]| {
        let placed = ids.iter().enumerate().map(|(i, &id)| {
            let at = Point::new(7.0 * (i % 4) as f64, 7.0 * (i / 4) as f64);
            (NodeId(id), at)
        });
        let mode = TopologyMode::Spatial {
            radio: UnitDisk::new(12.0),
            mobility: Box::new(RandomWalk::from_positions(placed, 30.0, 30.0, 0.002)),
        };
        let mut sim = Simulator::new(config, mode);
        sim.add_nodes(order.iter().map(|&id| Beacon::new(NodeId(id))));
        observe(sim, 8)
    };
    let descending: Vec<u64> = ids.iter().rev().copied().collect();
    let mut shuffled = ids.clone();
    shuffled.swap(0, 7);
    shuffled.swap(2, 9);
    shuffled.swap(3, 4);
    let ascending = explicit(&ids);
    assert!(ascending.1.delivered > 0 && ascending.1.dropped > 0);
    assert_eq!(ascending, explicit(&descending));
    assert_eq!(ascending, explicit(&shuffled));
    let ascending = spatial(&ids);
    assert!(ascending.1.delivered > 0 && ascending.1.dropped > 0);
    assert_eq!(ascending, spatial(&descending));
    assert_eq!(ascending, spatial(&shuffled));
}

/// A node arriving below present ids mid-run moves them up a slot while
/// their timers and broadcasts are in flight: every old node must go on
/// computing once a period and hearing both ring neighbours, and the
/// newcomer must start doing so.
#[test]
fn a_mid_run_arrival_below_present_ids_keeps_every_timer_with_its_node() {
    let ids = [10u64, 20, 30, 40];
    let config = SimConfig {
        seed: 4,
        stagger_phases: false,
        ..Default::default()
    };
    let topology = ring_over(&ids).apply(TopologyEvent::LinkUp(NodeId(15), NodeId(10)));
    let mut sim: Simulator<Beacon> = Simulator::new(config, TopologyMode::Explicit(topology));
    sim.add_nodes(ids.iter().map(|&id| Beacon::new(NodeId(id))));
    // stop between a send (t = 2751) and its delivery (t = 2761)
    sim.run_for(2_755);
    sim.add_node(Beacon::new(NodeId(15)));
    assert_eq!(
        sim.node_ids(),
        [10, 15, 20, 30, 40].map(NodeId),
        "slot order is id order"
    );
    sim.run_for(10_000 - 2_755);
    let counters = |id: u64| {
        let p = sim.protocol(NodeId(id)).unwrap();
        (p.computes, p.heard)
    };
    // lockstep: 10 computes in 10 000 ticks, 40 sends heard from each neighbour
    assert_eq!(counters(20), (10, 80));
    assert_eq!(counters(30), (10, 80));
    assert_eq!(counters(40), (10, 80));
    // node 15 joined at 2 755 (timers from 2 756): 7 computes and 29 sends,
    // and it hears node 10's 28 sends from t = 3 001 on
    assert_eq!(counters(15), (7, 28));
    assert_eq!(counters(10), (10, 80 + 29));
    assert_eq!(sim.stats().dropped, 0);
}
