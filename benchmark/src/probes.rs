//! Layer probes: timing loops over the layers' public, trait-level entry
//! points, run in the traced child after the traced run. They answer "what
//! does one call cost here" — the traced run's exact call counts turn that
//! into a share of the run. The pace kernel at the end is the one piece the
//! parent runs.

use crate::api::{
    Bernoulli, ChaCha8Rng, ChannelModel, Contention, ContentionConfig, Graph, GrpNode, LinkEnv,
    NodeId, Point, Protocol, Rng, RngCore, ScenarioManifest, SeedableRng, Sha256, SimTime,
    UnitDisk,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Link decisions per channel probe.
const LINKS: usize = 1_000_000;
/// Nodes in the channel probe's synthetic layout.
const LAYOUT_NODES: usize = 2048;

/// One broadcast of the channel probe: the sender, its send instant and the
/// slice of pre-generated link environments it sweeps.
struct Sweep {
    at: SimTime,
    sender: NodeId,
    pos: Point,
    links: Range<usize>,
}

/// Nanoseconds per `ChannelModel::link` decision (with the sweep's
/// `begin_broadcast` folded in) for the Bernoulli and the contention model,
/// over [`LINKS`] pre-generated `LinkEnv`s. The layout is a unit-disk field
/// at `mean_degree` — the workload's density — with every node sending once
/// per `send_period`, so the contention window holds what it would hold in
/// the run.
pub fn channel_link_ns(mean_degree: f64, send_period: u64) -> (f64, f64) {
    let range = 1.0;
    let side = (LAYOUT_NODES as f64 * std::f64::consts::PI / mean_degree.max(0.5)).sqrt();
    let mut rng = ChaCha8Rng::seed_from_u64(0x6c69_6e6b);
    let positions: Vec<Point> = (0..LAYOUT_NODES)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let neighbours: Vec<Vec<usize>> = (0..LAYOUT_NODES)
        .map(|u| {
            (0..LAYOUT_NODES)
                .filter(|&v| {
                    let (dx, dy) = (
                        positions[u].x - positions[v].x,
                        positions[u].y - positions[v].y,
                    );
                    v != u && dx * dx + dy * dy <= range * range
                })
                .collect()
        })
        .collect();
    assert!(
        neighbours.iter().any(|n| !n.is_empty()),
        "channel probe layout has no links"
    );

    let radio = UnitDisk::new(range);
    let mut envs: Vec<LinkEnv<'_>> = Vec::with_capacity(LINKS);
    let mut sweeps: Vec<Sweep> = Vec::new();
    'fill: for broadcast in 0u64.. {
        let u = (broadcast % LAYOUT_NODES as u64) as usize;
        let at = SimTime(broadcast * send_period / LAYOUT_NODES as u64);
        let start = envs.len();
        for &v in &neighbours[u] {
            if envs.len() == LINKS {
                break;
            }
            envs.push(LinkEnv {
                now: at,
                sender: NodeId(u as u64),
                receiver: NodeId(v as u64),
                sender_pos: Some(positions[u]),
                receiver_pos: Some(positions[v]),
                radio: Some(&radio),
                loss_probability: 0.0,
            });
        }
        sweeps.push(Sweep {
            at,
            sender: NodeId(u as u64),
            pos: positions[u],
            links: start..envs.len(),
        });
        if envs.len() == LINKS {
            break 'fill;
        }
    }

    let time = |channel: &mut dyn ChannelModel| {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut received = 0u64;
        let started = Instant::now();
        for sweep in &sweeps {
            channel.begin_broadcast(sweep.at, sweep.sender, Some(sweep.pos));
            for env in &envs[sweep.links.clone()] {
                received += u64::from(channel.link(&mut rng, black_box(env)).received);
            }
        }
        let elapsed = started.elapsed();
        black_box(received);
        elapsed.as_nanos() as f64 / LINKS as f64
    };
    let bernoulli = time(&mut Bernoulli);
    // the `concourse` medium
    let contention = time(&mut Contention::new(ContentionConfig {
        base_loss: 0.02,
        load_loss: 0.002,
        max_loss: 0.85,
        window: 400,
        hidden_terminal: false,
        ..ContentionConfig::new(range)
    }));
    (bernoulli, contention)
}

/// Mean nanoseconds per `Protocol` handler call, by call class.
#[derive(Clone, Copy, Debug, Default)]
pub struct HandlerCosts {
    pub on_message_ns: f64,
    pub on_compute_ns: f64,
    pub on_send_ns: f64,
}

/// A synchronous-round executor over `graph`: every round, each node sends
/// `sends_per_round` times (each broadcast delivered to every neighbour),
/// then every node computes — `GrpNode::new` plus the `Protocol` trait, no
/// engine. One timer pair per call class per round. Runs the manifest's
/// round count, or until `budget` is spent.
pub fn handler_costs(graph: &Graph, manifest: &ScenarioManifest, budget: Duration) -> HandlerCosts {
    let config = crate::api::grp_config_of(manifest);
    let ids = graph.node_vec();
    let mut nodes: Vec<GrpNode> = ids
        .iter()
        .map(|&id| GrpNode::new(id, config.clone()))
        .collect();
    let neighbours: Vec<Vec<usize>> = ids
        .iter()
        .map(|&u| {
            graph
                .neighbors(u)
                .filter_map(|v| ids.binary_search(&v).ok())
                .collect()
        })
        .collect();
    let sim = &manifest.sim;
    let sends_per_round = (sim.compute_period / sim.send_period.max(1)).max(1);

    let started = Instant::now();
    let (mut send, mut message, mut compute) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut sends, mut messages, mut computes) = (0u64, 0u64, 0u64);
    for round in 0..sim.rounds {
        let now = SimTime(round * sim.compute_period);
        for _ in 0..sends_per_round {
            let t = Instant::now();
            let broadcasts: Vec<_> = nodes.iter_mut().map(|n| n.on_send(now)).collect();
            send += t.elapsed();
            sends += nodes.len() as u64;

            let t = Instant::now();
            for (u, msg) in broadcasts.iter().enumerate() {
                let Some(msg) = msg else { continue };
                for &v in &neighbours[u] {
                    nodes[v].on_message(ids[u], msg.clone(), now);
                    messages += 1;
                }
            }
            message += t.elapsed();
        }
        let t = Instant::now();
        for node in &mut nodes {
            node.on_compute(now);
        }
        compute += t.elapsed();
        computes += nodes.len() as u64;
        if started.elapsed() > budget {
            break;
        }
    }
    black_box(&nodes);
    let per_call = |total: Duration, calls: u64| total.as_nanos() as f64 / calls.max(1) as f64;
    HandlerCosts {
        on_message_ns: per_call(message, messages),
        on_compute_ns: per_call(compute, computes),
        on_send_ns: per_call(send, sends),
    }
}

/// The fixed calibration kernel: 2 M ChaCha8 words, then SHA-256 over
/// 32 MiB. The same work on every commit, so a reader can tell a slower box
/// from a slower program. Returns `(kernel seconds, SHA-256 MB/s)`.
pub fn calibration() -> (f64, f64) {
    const WORDS: usize = 2 << 20;
    const BLOCK: usize = 1 << 20;
    const BLOCKS: usize = 32;
    let started = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(2010);
    let mut fold = 0u64;
    for _ in 0..WORDS {
        fold ^= rng.next_u64();
    }
    black_box(fold);
    let mut block = vec![0u8; BLOCK];
    rng.fill_bytes(&mut block);
    let sha_started = Instant::now();
    let mut sha = Sha256::new();
    for _ in 0..BLOCKS {
        sha.update(black_box(&block));
    }
    black_box(sha.finalize());
    let sha_s = sha_started.elapsed().as_secs_f64();
    let kernel_s = started.elapsed().as_secs_f64();
    (kernel_s, (BLOCK * BLOCKS) as f64 / 1e6 / sha_s)
}

/// One pass of the pace kernel, in seconds: ordered-map churn (40 k keyed
/// pushes, 200 k lookups), ~24 ms — memory-bound and allocation-heavy like
/// the simulator, and fixed code of this package. The box's slow phases
/// stretch it as they stretch a run, which a register-bound kernel does not
/// do. The parent runs it, never the child, so that nothing the program
/// under test does to its own heap can move the reading (`bench::Session`
/// says when).
pub fn pace_pass() -> f64 {
    let started = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 20_000
    };
    for _ in 0..40_000 {
        let key = next();
        map.entry(key).or_default().push(key);
    }
    let mut found = 0u64;
    for _ in 0..200_000 {
        found += map.get(&next()).map_or(0, |v| v.len() as u64);
    }
    black_box(found);
    drop(map);
    started.elapsed().as_secs_f64()
}
