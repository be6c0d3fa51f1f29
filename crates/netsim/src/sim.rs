//! The simulation engine.
//!
//! [`Simulator`] drives a set of [`Protocol`] instances through a
//! deterministic discrete-event loop implementing the paper's system model:
//! per-node send (`Ts = τ2`) and compute (`Tc = τ1`) timers, broadcast
//! transmissions delivered to every active node whose vicinity contains the
//! sender, message loss, mobility ticks that move the nodes (and with them
//! the topology), and an injected fault plan.
//!
//! Two topology modes are supported:
//!
//! * [`TopologyMode::Explicit`] — the experiment provides (and may mutate)
//!   the communication graph directly; used by the fixed-topology
//!   stabilization experiments and the unit tests.
//! * spatial — node positions come from a [`MobilityModel`], advanced at
//!   every mobility tick, and a [`UnitDisk`] radio derives the topology
//!   from them; used by the VANET-style continuity experiments.
//!
//! The nodes live in an arena ordered by ascending [`NodeId`]; a node's
//! index there is its *slot*, and events, broadcast recipients and the
//! per-node RNG streams all name nodes by slot. Slot order is NodeId order
//! is the canonical order of every trace (see [`crate::arena`]). The
//! topology [`Graph`] has slots of its own — in spatial mode they are the
//! mobility model's position slots — and a pair of maps translates
//! between the two.

use crate::arena::{slot_of, Positions, NO_SLOT};
use crate::channel::{Bernoulli, ChannelModel, LinkEnv};
use crate::event::{CalendarQueue, Event, EventKind};
use crate::fault::{FaultKind, Region, ScheduledFault};
use crate::mobility::MobilityModel;
use crate::node::SimNode;
use crate::observer::{NullObserver, Observer};
use crate::protocol::Protocol;
use crate::radio::UnitDisk;
use crate::rng::{NodeStreams, StreamTag};
use crate::space::{Point, SpatialGrid};
use crate::time::SimTime;
use crate::trace::MessageStats;
use dyngraph::{Graph, NodeId, TopologyEvent};
use rand::{Rng, RngCore};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The next copy of a message that fans out to several places: a clone,
/// or the message itself once `last` says no further copy is needed.
fn next_copy<M: Clone>(message: &mut Option<M>, last: bool) -> Option<M> {
    if last {
        message.take()
    } else {
        message.clone()
    }
}

/// Where the communication topology comes from.
pub enum TopologyMode {
    /// The experiment provides the graph directly.
    Explicit(Graph),
    /// The topology is derived from positions via the radio.
    Spatial {
        /// Decides which positions are in each other's vicinity.
        radio: UnitDisk,
        /// Owns and advances the node positions.
        mobility: Box<dyn MobilityModel>,
    },
}

/// Timer periods and channel parameters (the paper's `τ1`, `τ2`).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Send timer period `Ts = τ2` (ticks).
    pub send_period: u64,
    /// Compute timer period `Tc = τ1` (ticks); the paper requires
    /// `Ts ≤ Tc` so several transmissions fit in one compute period.
    pub compute_period: u64,
    /// How often positions advance, and with them the topology (spatial
    /// mode only).
    pub mobility_period: u64,
    /// Propagation + MAC delay applied to every delivery.
    pub delivery_delay: u64,
    /// Per-link iid loss probability, in both topology modes: the whole
    /// medium of the default [`Bernoulli`] channel, and a first draw every
    /// other channel makes before its own decision.
    pub loss_probability: f64,
    /// Run seed: every per-node stream is derived from it (see
    /// [`crate::rng`]).
    pub seed: u64,
    /// Randomize the initial phase of each node's timers (recommended; a
    /// lockstep start is unrealistically favourable).
    pub stagger_phases: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            send_period: 250,
            compute_period: 1000,
            mobility_period: 1000,
            delivery_delay: 10,
            loss_probability: 0.0,
            seed: 0,
            stagger_phases: true,
        }
    }
}

impl SimConfig {
    /// The default configuration (`send_period = 250`, `compute_period =
    /// 1000`: four sends per compute round) under `seed`.
    pub fn rounds(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Default::default()
        }
    }
}

/// Spatial mode's half of the engine: the models the topology derives
/// from and the uniform-grid spatial hash kept over their positions.
/// Explicit mode has none.
///
/// The grid is synchronised incrementally at every mobility tick; the
/// topology is derived from it only when read. An *epoch* runs from one
/// tick that moved a node to the next. While the observed `Graph`
/// predates the epoch (`dirty`), each send queries the cells for its own
/// neighbours; the graph is rebuilt from the grid only when the rest of
/// the system observes it (at the end of a run and before a fault hook),
/// and its rows serve the sends after that until the next move. Both reads
/// give the same neighbours in the same order, so the choice never changes
/// output.
struct Spatial {
    radio: UnitDisk,
    mobility: Box<dyn MobilityModel>,
    grid: Box<SpatialGrid>,
    /// The observed `Graph` predates the epoch.
    dirty: bool,
}

impl Spatial {
    /// Index the models' initial positions; returns the initial topology
    /// beside.
    fn new(radio: UnitDisk, mobility: Box<dyn MobilityModel>) -> (Spatial, Graph) {
        let mut grid = Box::new(SpatialGrid::new(radio.range()));
        let positions = mobility.positions();
        grid.rebuild(positions.points());
        let topology = radio.grid_topology(&mut grid, positions.ids());
        let spatial = Spatial {
            radio,
            mobility,
            grid,
            dirty: false,
        };
        (spatial, topology)
    }
}

/// A broadcast polled from its sender, waiting for its link decisions.
struct Pending<M> {
    sender: u32,
    message: M,
    sender_pos: Option<Point>,
}

/// The link counters of one broadcast.
#[derive(Default)]
struct SendOutcome {
    attempted: u64,
    dropped: u64,
}

/// Cut one sweep's `(extra_delay, receiver)` hits into one run per
/// distinct delay, ascending by delay, so sweep events are scheduled (and
/// sequence numbers assigned) in delay order. Within a delay the receivers
/// keep their sweep order: the sort is stable, and it runs only when the
/// delays differ.
fn delay_groups(hits: &mut [(u64, u32)]) -> impl Iterator<Item = &[(u64, u32)]> {
    if hits.windows(2).any(|pair| pair[0].0 != pair[1].0) {
        hits.sort_by_key(|&(delay, _)| delay);
    }
    hits.chunk_by(|a, b| a.0 == b.0)
}

/// The lists one bucket sorts its events into, one per phase; kept on the
/// simulator and cleared after every bucket, so the loop reuses them.
struct Phases<M> {
    faults: Vec<usize>,
    deliveries: Vec<(u32, M, Vec<u32>)>,
    computes: Vec<u32>,
    sends: Vec<u32>,
}

impl<M> Default for Phases<M> {
    fn default() -> Self {
        Phases {
            faults: Vec::new(),
            deliveries: Vec::new(),
            computes: Vec::new(),
            sends: Vec::new(),
        }
    }
}

/// The discrete-event simulator.
pub struct Simulator<P: Protocol> {
    config: SimConfig,
    /// The node arena: `ids` ascends and `nodes[slot]` is node `ids[slot]`.
    ids: Vec<NodeId>,
    nodes: Vec<SimNode<P>>,
    /// The observed communication graph, shared with observers: recording a
    /// configuration is an `Arc` clone, and a change installs a new graph,
    /// so a still-referenced past topology is never overwritten. In
    /// explicit mode it is the topology; in spatial mode its slots are the
    /// mobility model's position slots, whose node set is fixed for the
    /// run.
    topology: Arc<Graph>,
    /// Spatial mode's models and index; `None` in explicit mode.
    spatial: Option<Spatial>,
    /// The event loop's reused buffers: the phase lists of the current
    /// bucket, the broadcasts of a send batch, the neighbours a grid read
    /// found for the current send, the `(extra_delay, receiver)` hits of
    /// its sweep, and the delivered sweeps' emptied recipient lists, which
    /// the next sends fill.
    phases: Phases<P::Message>,
    pending: Vec<Pending<P::Message>>,
    found: Vec<(u32, Point)>,
    hits: Vec<(u64, u32)>,
    spare_recipients: Vec<Vec<u32>>,
    /// The topology slot of each node slot and the node slot of each
    /// topology slot, [`NO_SLOT`] where the id is unknown on the other
    /// side. The two slot spaces coincide once every topology node has its
    /// protocol; rebuilt lazily after `add_node` and explicit topology
    /// changes.
    topology_slot: Vec<u32>,
    node_slot: Vec<u32>,
    slot_maps_stale: bool,
    /// The per-link medium model; [`Bernoulli`] by default, which
    /// reproduces the historical loss behaviour bit-for-bit.
    channel: Box<dyn ChannelModel>,
    events: CalendarQueue<P::Message>,
    seq: u64,
    now: SimTime,
    /// All of the run's randomness: one stream per `(node, purpose)`.
    streams: NodeStreams,
    stats: MessageStats,
    faults: Vec<ScheduledFault>,
    loss_burst_until: SimTime,
    /// Active [`FaultKind::Partition`]: node → group index. Nodes absent
    /// from the map form one implicit residual group (`get` returns `None`
    /// for all of them, and `None == None`). `None` means no partition.
    partition: Option<BTreeMap<NodeId, usize>>,
    /// Active [`FaultKind::RegionBlackout`]s as `(region, until)`; expired
    /// entries are pruned whenever a new one is installed.
    region_blackouts: Vec<(Region, SimTime)>,
    events_processed: u64,
    rounds_completed: u64,
}

/// Everything the link decisions of one instant read, borrowed field by
/// field from the simulator so that the sender's `channel` stream and the
/// event queue stay mutably borrowable beside it.
struct Medium<'a> {
    now: SimTime,
    ids: &'a [NodeId],
    topology: &'a Graph,
    /// Spatial mode: the radio and the positions, by topology slot.
    spatial: Option<(&'a UnitDisk, Positions<'a>)>,
    /// Spatial mode while `topology` predates the last move: the grid to
    /// query instead.
    stale: Option<&'a SpatialGrid>,
    topology_slot: &'a [u32],
    node_slot: &'a [u32],
    channel: &'a dyn ChannelModel,
    loss_probability: f64,
    loss_burst_until: SimTime,
    partition: Option<&'a BTreeMap<NodeId, usize>>,
    blackouts: &'a [(Region, SimTime)],
}

impl Medium<'_> {
    /// Is the link cut by a blocking fault? Blocking happens **before** the
    /// channel model is consulted, so a blocked link consumes no randomness
    /// — the invariant that keeps every digest of a fault-free manifest
    /// frozen (see `docs/FAULTS.md`).
    fn blocked(
        &self,
        sender: NodeId,
        receiver: NodeId,
        sender_pos: Option<Point>,
        receiver_pos: Option<Point>,
    ) -> bool {
        if self.now < self.loss_burst_until {
            return true;
        }
        if let Some(groups) = self.partition {
            if groups.get(&sender) != groups.get(&receiver) {
                return true;
            }
        }
        self.blackouts.iter().any(|(region, until)| {
            self.now < *until
                && (sender_pos.is_some_and(|p| region.contains(p.x, p.y))
                    || receiver_pos.is_some_and(|p| region.contains(p.x, p.y)))
        })
    }

    /// Decide every link of one broadcast, in ascending receiver order (the
    /// RNG consumption order is part of the pinned golden traces), drawing
    /// from `rng`; `hits` is refilled with one `(extra_delay, receiver)`
    /// pair per received link. The neighbours are the sender's `topology`
    /// row or, while that predates the last move, a grid query gathered
    /// into `found`: the same slots in the same order either way.
    fn sweep(
        &self,
        rng: &mut dyn RngCore,
        sender: u32,
        sender_pos: Option<Point>,
        found: &mut Vec<(u32, Point)>,
        hits: &mut Vec<(u64, u32)>,
    ) -> SendOutcome {
        let mut out = SendOutcome::default();
        hits.clear();
        let from = self.ids[sender as usize];
        let mut decide = |to: u32, receiver_pos: Option<Point>| {
            out.attempted += 1;
            let receiver = self.ids[to as usize];
            if self.blocked(from, receiver, sender_pos, receiver_pos) {
                out.dropped += 1;
                return;
            }
            let outcome = self.channel.link(
                rng,
                &LinkEnv {
                    now: self.now,
                    sender: from,
                    receiver,
                    sender_pos,
                    receiver_pos,
                    radio: self.spatial.map(|(radio, _)| radio),
                    loss_probability: self.loss_probability,
                },
            );
            if outcome.received {
                hits.push((outcome.extra_delay, to));
            } else {
                out.dropped += 1;
            }
        };
        // an unknown slot (NO_SLOT) has no row and no grid entry; a
        // neighbour without a node hears nothing
        let at = self.topology_slot[sender as usize] as usize;
        if let (Some(grid), Some((radio, _))) = (self.stale, self.spatial) {
            radio.grid_neighbors(grid, at, found);
            for &(j, receiver_pos) in found.iter() {
                let to = self.node_slot[j as usize];
                if to != NO_SLOT {
                    decide(to, Some(receiver_pos));
                }
            }
        } else {
            let points = self.spatial.map(|(_, positions)| positions.points());
            for &j in self.topology.row(at) {
                let to = self.node_slot[j as usize];
                if to != NO_SLOT {
                    decide(to, points.map(|points| points[j as usize]));
                }
            }
        }
        out
    }
}

impl<P: Protocol> Simulator<P> {
    /// Create a simulator with the given configuration and topology mode.
    ///
    /// Every harness assembles a run the same way: `new`, then
    /// [`set_channel`](Self::set_channel) if the medium is not
    /// [`Bernoulli`], [`add_nodes`](Self::add_nodes) and
    /// [`schedule_faults`](Self::schedule_faults).
    ///
    /// ```
    /// use dyngraph::generators::path;
    /// use netsim::protocol::Beacon;
    /// use netsim::{FaultKind, ScheduledFault, SimConfig, SimTime, Simulator, TopologyMode};
    ///
    /// let topology = path(4);
    /// let ids = topology.node_vec();
    /// let mut sim = Simulator::new(SimConfig::rounds(7), TopologyMode::Explicit(topology));
    /// sim.add_nodes(ids.iter().copied().map(Beacon::new));
    /// sim.schedule_faults([ScheduledFault::new(SimTime(5_000), FaultKind::Crash(ids[0]))]);
    /// sim.run_rounds(3);
    /// assert!(sim.stats().delivered > 0);
    /// ```
    pub fn new(config: SimConfig, mode: TopologyMode) -> Self {
        let (spatial, topology) = match mode {
            TopologyMode::Explicit(graph) => (None, graph),
            TopologyMode::Spatial { radio, mobility } => {
                let (spatial, topology) = Spatial::new(radio, mobility);
                (Some(spatial), topology)
            }
        };
        let mut sim = Simulator {
            config,
            ids: Vec::new(),
            nodes: Vec::new(),
            topology: Arc::new(topology),
            spatial,
            phases: Phases::default(),
            pending: Vec::new(),
            found: Vec::new(),
            hits: Vec::new(),
            spare_recipients: Vec::new(),
            topology_slot: Vec::new(),
            node_slot: Vec::new(),
            slot_maps_stale: false,
            channel: Box::new(Bernoulli),
            events: CalendarQueue::new(),
            seq: 0,
            now: SimTime::ZERO,
            streams: NodeStreams::new(config.seed),
            stats: MessageStats::default(),
            faults: Vec::new(),
            loss_burst_until: SimTime::ZERO,
            partition: None,
            region_blackouts: Vec::new(),
            events_processed: 0,
            rounds_completed: 0,
        };
        if sim.spatial.is_some() {
            sim.schedule(sim.config.mobility_period, EventKind::MobilityTick);
        }
        sim
    }

    /// Add a protocol instance. Its identity must be consistent with the
    /// topology (explicit mode) or have a position (spatial mode).
    ///
    /// # Panics
    ///
    /// If a node with the same id was already added: a node is added once,
    /// and a returning node is restarted in place
    /// ([`FaultKind::Restart`], or `set_active` after a protocol reset).
    pub fn add_node(&mut self, protocol: P) {
        let id = protocol.id();
        let mut node = SimNode::new(protocol);
        let Err(slot) = self.ids.binary_search(&id) else {
            panic!("node {id} is already present: add_node adds each id once");
        };
        assert!(slot < NO_SLOT as usize, "at most u32::MAX - 1 nodes");
        if slot < self.ids.len() {
            // arriving below existing ids: they all move up a slot, and
            // every queued event and resident stream moves with them
            self.events.open_slot(slot as u32);
            for tag in [StreamTag::Channel, StreamTag::Fault] {
                self.streams.open_slot(tag, slot);
            }
        }
        self.ids.insert(slot, id);
        if self.config.stagger_phases {
            // the node's own `phase` stream: its timer offsets don't depend
            // on how many nodes were added before it. They are the stream's
            // first two draws, taken from a copy the table never keeps.
            let rng = &mut self.streams.detached(StreamTag::Phase, id);
            node.send_phase = rng.gen_range(0..self.config.send_period.max(1));
            node.compute_phase = rng.gen_range(0..self.config.compute_period.max(1));
        }
        if self.spatial.is_none() && !self.topology.contains_node(id) {
            self.topology = Arc::new(self.topology.apply(TopologyEvent::NodeJoin(id)));
        }
        self.schedule(node.send_phase + 1, EventKind::SendTimer(slot as u32));
        self.schedule(
            node.compute_phase + self.config.send_period + 1,
            EventKind::ComputeTimer(slot as u32),
        );
        self.nodes.insert(slot, node);
        self.slot_maps_stale = true;
    }

    /// Add many protocol instances at once.
    pub fn add_nodes<I: IntoIterator<Item = P>>(&mut self, protocols: I) {
        let protocols = protocols.into_iter();
        let (expected, _) = protocols.size_hint();
        self.ids.reserve(expected);
        self.nodes.reserve(expected);
        for p in protocols {
            self.add_node(p);
        }
    }

    /// Replace the channel model (default: [`Bernoulli`]). Installing a
    /// channel consumes no randomness, so it may be done at any point
    /// before running; swapping it mid-run changes the medium from the next
    /// send onwards.
    pub fn set_channel(&mut self, channel: Box<dyn ChannelModel>) {
        self.channel = channel;
    }

    /// Schedule a fault plan (absolute times).
    pub fn schedule_faults<I: IntoIterator<Item = ScheduledFault>>(&mut self, faults: I) {
        for fault in faults {
            let idx = self.faults.len();
            self.faults.push(fault.clone());
            let delay = fault.at.ticks().saturating_sub(self.now.ticks());
            self.schedule(delay, EventKind::Fault(idx));
        }
    }

    fn schedule(&mut self, delay: u64, kind: EventKind<P::Message>) {
        self.seq += 1;
        self.events.push(Event {
            time: self.now + delay,
            seq: self.seq,
            kind,
        });
    }

    /// The arena slot of `id`, if the node was added.
    fn slot(&self, id: NodeId) -> Option<usize> {
        slot_of(&self.ids, id)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The current communication topology.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// The current topology as a shared handle — the zero-copy way for an
    /// [`Observer`] to retain a configuration's graph. A graph never
    /// changes in place, so the handle stays frozen at the configuration it
    /// was taken from.
    pub fn topology_shared(&self) -> Arc<Graph> {
        Arc::clone(&self.topology)
    }

    /// Immutable access to a protocol instance.
    pub fn protocol(&self, id: NodeId) -> Option<&P> {
        self.slot(id).map(|slot| &self.nodes[slot].protocol)
    }

    /// Mutable access to a protocol instance (used by experiments to corrupt
    /// or inspect state between rounds).
    pub fn protocol_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.slot(id).map(|slot| &mut self.nodes[slot].protocol)
    }

    /// Iterate over `(id, protocol)` pairs in ascending id order.
    pub fn protocols(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.ids
            .iter()
            .copied()
            .zip(self.nodes.iter().map(|n| &n.protocol))
    }

    /// Node identifiers known to the simulator.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.ids.clone()
    }

    /// Is the node currently active?
    pub fn is_active(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|slot| self.nodes[slot].active)
    }

    /// Activate or deactivate a node directly (experiments may prefer the
    /// fault plan).
    pub fn set_active(&mut self, id: NodeId, active: bool) {
        if let Some(slot) = self.slot(id) {
            self.nodes[slot].active = active;
        }
    }

    /// Cumulative message statistics.
    pub fn stats(&self) -> MessageStats {
        self.stats
    }

    /// Replace the explicit topology (no-op guard in spatial mode: the radio
    /// model owns the topology there).
    pub fn set_topology(&mut self, graph: Graph) {
        if self.spatial.is_none() {
            self.topology = Arc::new(graph);
            self.slot_maps_stale = true;
        }
    }

    /// Apply a single topology event in explicit mode.
    pub fn apply_topology_event(&mut self, event: TopologyEvent) {
        if self.spatial.is_none() {
            self.set_topology(self.topology.apply(event));
        }
    }

    /// Run the simulation until `deadline` (inclusive of events at the
    /// deadline), then set the clock to the deadline. This is **the** event
    /// loop: every other driving entry point funnels into it. Each
    /// iteration lifts one whole same-instant bucket out of the calendar
    /// queue and processes it in the canonical phase order (faults,
    /// mobility, deliveries, computes, sends); because every random
    /// decision comes from the stream of the node it concerns, the result
    /// is a pure function of the queue contents.
    ///
    /// # Panics
    ///
    /// If `deadline` lies before [`now`](Self::now): time only moves
    /// forward.
    pub fn run_until_observed(&mut self, deadline: SimTime, obs: &mut dyn Observer<P>) {
        assert!(
            deadline >= self.now,
            "run_until: deadline {deadline} lies before now ({}); time only moves forward",
            self.now
        );
        if self.slot_maps_stale {
            self.refresh_slot_maps();
        }
        while let Some((time, bucket)) = self.events.pop_bucket_until(deadline) {
            self.now = time;
            self.handle_bucket(bucket, obs);
        }
        self.now = deadline;
        self.materialise_topology();
    }

    /// Re-derive the node slot ↔ topology slot maps: one merge walk over
    /// the two ascending id lists.
    fn refresh_slot_maps(&mut self) {
        self.slot_maps_stale = false;
        let linked = self.topology.ids();
        self.topology_slot.clear();
        self.topology_slot.resize(self.ids.len(), NO_SLOT);
        self.node_slot.clear();
        self.node_slot.resize(linked.len(), NO_SLOT);
        let (mut n, mut t) = (0, 0);
        while n < self.ids.len() && t < linked.len() {
            match self.ids[n].cmp(&linked[t]) {
                std::cmp::Ordering::Less => n += 1,
                std::cmp::Ordering::Greater => t += 1,
                std::cmp::Ordering::Equal => {
                    self.topology_slot[n] = t as u32;
                    self.node_slot[t] = n as u32;
                    n += 1;
                    t += 1;
                }
            }
        }
    }

    /// Process every event of one instant in the canonical intra-instant
    /// phase order — faults, then mobility, then deliveries, then computes,
    /// then sends — with event (scheduling) order within each phase. The
    /// order is part of the pinned trace contract (docs/DETERMINISM.md);
    /// sweeps a send phase schedules with zero total delay land in a fresh
    /// bucket at the same instant and are processed as the next bucket.
    /// The phase lists and the drained bucket are kept for later buckets.
    fn handle_bucket(&mut self, mut bucket: Vec<Event<P::Message>>, obs: &mut dyn Observer<P>) {
        let mut phases = std::mem::take(&mut self.phases);
        let mut mobility_ticks = 0usize;
        for ev in bucket.drain(..) {
            self.events_processed += 1;
            match ev.kind {
                EventKind::Fault(idx) => phases.faults.push(idx),
                EventKind::MobilityTick => mobility_ticks += 1,
                EventKind::Broadcast {
                    from,
                    message,
                    recipients,
                } => phases.deliveries.push((from, message, recipients)),
                EventKind::ComputeTimer(slot) => phases.computes.push(slot),
                EventKind::SendTimer(slot) => phases.sends.push(slot),
            }
        }
        self.events.recycle(bucket);
        for idx in phases.faults.drain(..) {
            if let Some(fault) = self.faults.get(idx).cloned() {
                self.apply_fault(&fault);
                // the hook hands out &Simulator mid-run: make sure the
                // observed graph reflects every mobility tick so far
                self.materialise_topology();
                obs.on_fault(&fault, self);
            }
        }
        for _ in 0..mobility_ticks {
            self.handle_mobility(obs);
        }
        if !phases.deliveries.is_empty() {
            self.handle_delivery_batch(phases.deliveries.drain(..), obs);
        }
        if !phases.computes.is_empty() {
            self.handle_compute_batch(&phases.computes);
            phases.computes.clear();
        }
        if !phases.sends.is_empty() {
            self.handle_send_batch(&phases.sends);
            phases.sends.clear();
        }
        self.phases = phases;
    }

    /// Deliver a batch of same-instant broadcast sweeps, sweep after sweep
    /// in event order and recipient after recipient within a sweep: the
    /// liveness check, delivery/drop statistics, the
    /// [`Observer::on_delivery`] hook and `on_message` all run as the walk
    /// reaches each receiver. Each emptied recipient list goes back to the
    /// send path.
    fn handle_delivery_batch(
        &mut self,
        sweeps: impl Iterator<Item = (u32, P::Message, Vec<u32>)>,
        obs: &mut dyn Observer<P>,
    ) {
        let now = self.now;
        for (from, message, mut recipients) in sweeps {
            let size = P::message_size(&message);
            let from = self.ids[from as usize];
            let mut message = Some(message);
            let mut walk = recipients.iter().peekable();
            while let Some(&to) = walk.next() {
                let node = &mut self.nodes[to as usize];
                if !node.active {
                    self.stats.dropped += 1;
                    continue;
                }
                self.stats.delivered += 1;
                self.stats.delivered_bytes += size as u64;
                obs.on_delivery(from, self.ids[to as usize], size, now);
                // the message moves into the last reception
                let Some(copy) = next_copy(&mut message, walk.peek().is_none()) else {
                    break;
                };
                node.protocol.on_message(from, copy, now);
            }
            recipients.clear();
            self.spare_recipients.push(recipients);
        }
    }

    /// Position of the node in `slot`, if it has one (spatial mode, where
    /// topology slots are position slots).
    fn position_of(&self, slot: usize) -> Option<Point> {
        let Some(Spatial { mobility, .. }) = &self.spatial else {
            return None;
        };
        let at = self.topology_slot[slot];
        (at != NO_SLOT).then(|| mobility.positions().points()[at as usize])
    }

    /// Run a batch of same-instant send-timer expirations, in two passes
    /// over the senders in event order.
    ///
    /// First: poll `on_send`, count the broadcast and feed the channel's
    /// transmission window (`begin_broadcast`) for **all** same-instant
    /// senders before any link decision — simultaneous transmitters
    /// contend with each other. Then, broadcast by broadcast: decide every
    /// link ([`Medium::sweep`]) from the *sender's* own `channel` stream,
    /// fold the statistics and schedule the delivery sweeps (deterministic
    /// sequence numbers). Last, reschedule the timers.
    fn handle_send_batch(&mut self, slots: &[u32]) {
        let now = self.now;
        for &slot in slots {
            let node = &mut self.nodes[slot as usize];
            if !node.active {
                continue;
            }
            let Some(message) = node.protocol.on_send(now) else {
                continue;
            };
            self.stats.broadcasts += 1;
            let sender_pos = self.position_of(slot as usize);
            self.channel
                .begin_broadcast(now, self.ids[slot as usize], sender_pos);
            self.pending.push(Pending {
                sender: slot,
                message,
                sender_pos,
            });
        }
        let (spatial, stale) = match &self.spatial {
            None => (None, None),
            Some(Spatial {
                radio,
                mobility,
                grid,
                dirty,
            }) => (
                Some((radio, mobility.positions())),
                dirty.then_some(&**grid),
            ),
        };
        let medium = Medium {
            now,
            ids: &self.ids,
            topology: &self.topology,
            spatial,
            stale,
            topology_slot: &self.topology_slot,
            node_slot: &self.node_slot,
            channel: &*self.channel,
            loss_probability: self.config.loss_probability,
            loss_burst_until: self.loss_burst_until,
            partition: self.partition.as_ref(),
            blackouts: &self.region_blackouts,
        };
        for p in self.pending.drain(..) {
            let id = self.ids[p.sender as usize];
            // seeded on its first draw: a loss-free medium never makes it
            let mut rng = self.streams.lazy(StreamTag::Channel, p.sender as usize, id);
            let out = medium.sweep(
                &mut rng,
                p.sender,
                p.sender_pos,
                &mut self.found,
                &mut self.hits,
            );
            self.stats.attempted += out.attempted;
            self.stats.dropped += out.dropped;
            let mut message = Some(p.message);
            let mut groups = delay_groups(&mut self.hits).peekable();
            while let Some(run) = groups.next() {
                // the message moves into the last sweep
                let Some(message) = next_copy(&mut message, groups.peek().is_none()) else {
                    break;
                };
                let mut recipients = self.spare_recipients.pop().unwrap_or_default();
                recipients.extend(run.iter().map(|&(_, to)| to));
                // `schedule` spelled out: `medium` still borrows the rest
                self.seq += 1;
                self.events.push(Event {
                    time: now + self.config.delivery_delay + run[0].0,
                    seq: self.seq,
                    kind: EventKind::Broadcast {
                        from: p.sender,
                        message,
                        recipients,
                    },
                });
            }
        }
        for &slot in slots {
            self.schedule(self.config.send_period, EventKind::SendTimer(slot));
        }
    }

    /// Advance mobility one period and resynchronise the grid. A move only
    /// opens a new epoch: the topology is rebuilt when it is read.
    fn handle_mobility(&mut self, obs: &mut dyn Observer<P>) {
        if let Some(Spatial {
            mobility,
            grid,
            dirty,
            ..
        }) = &mut self.spatial
        {
            mobility.advance(self.config.mobility_period, &mut self.streams);
            // incremental cell updates; unchanged positions (e.g.
            // stationary nodes) keep the epoch open
            let moved = grid.sync(mobility.positions().points());
            *dirty |= moved;
            if moved {
                obs.on_topology_change(self.now);
            }
        }
        self.schedule(self.config.mobility_period, EventKind::MobilityTick);
    }

    /// Run a batch of same-instant compute expirations in event order,
    /// rescheduling each timer as it fires.
    fn handle_compute_batch(&mut self, slots: &[u32]) {
        let now = self.now;
        for &slot in slots {
            let node = &mut self.nodes[slot as usize];
            if node.active {
                node.protocol.on_compute(now);
                node.last_compute = now;
            }
            self.schedule(self.config.compute_period, EventKind::ComputeTimer(slot));
        }
    }

    /// Rebuild the observed `Graph` from the grid if mobility ticks left it
    /// stale. Called at the end of every run (so the lazy grid path stays
    /// at most one rebuild per `run_until`, however many mobility ticks
    /// elapsed — in-run sends query the grid instead) and before observer
    /// hooks that hand out `&Simulator` mid-run.
    fn materialise_topology(&mut self) {
        if let Some(Spatial {
            radio,
            mobility,
            grid,
            dirty,
        }) = &mut self.spatial
        {
            if *dirty {
                let ids = mobility.positions().ids();
                self.topology = Arc::new(radio.grid_topology(grid, ids));
                *dirty = false;
            }
        }
    }

    /// [`run_until_observed`](Self::run_until_observed) without
    /// instrumentation.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_until_observed(deadline, &mut NullObserver);
    }

    /// Run for `duration` ticks.
    pub fn run_for(&mut self, duration: u64) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Run for `rounds` compute periods without instrumentation (does not
    /// advance the observed-round counter).
    pub fn run_rounds(&mut self, rounds: u64) {
        self.run_for(rounds * self.config.compute_period);
    }

    /// Drive `rounds` compute periods, letting `before_round` mutate the
    /// simulator at each round boundary (topology churn, node joins) and
    /// notifying `obs` at each round end. The round number handed to both
    /// callbacks is the global observed-round counter
    /// ([`rounds_completed`](Self::rounds_completed)), so successive calls
    /// continue the numbering.
    pub fn run_rounds_driven(
        &mut self,
        rounds: u64,
        obs: &mut dyn Observer<P>,
        before_round: &mut dyn FnMut(u64, &mut Simulator<P>),
    ) {
        for _ in 0..rounds {
            let round = self.rounds_completed;
            before_round(round, self);
            let deadline = self.now + self.config.compute_period;
            self.run_until_observed(deadline, obs);
            self.rounds_completed += 1;
            obs.on_round_end(round, self);
        }
    }

    /// Drive `rounds` compute periods with per-round observation and no
    /// between-round mutation.
    pub fn run_rounds_observed(&mut self, rounds: u64, obs: &mut dyn Observer<P>) {
        self.run_rounds_driven(rounds, obs, &mut |_, _| {});
    }

    /// Number of compute rounds driven through the observed entry points so
    /// far (plain [`run_rounds`](Self::run_rounds) does not count).
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Total number of events processed so far (timers, broadcast sweeps,
    /// mobility ticks, faults) — the throughput denominator `grp-bench`
    /// reports as `engine.events`.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn apply_fault(&mut self, fault: &ScheduledFault) {
        match &fault.kind {
            &FaultKind::CorruptState(id) => {
                if let Some(slot) = self.slot(id) {
                    // the adversary's draws come from the victim's own
                    // `fault` stream, so injecting a corruption never
                    // perturbs any other node's randomness
                    let rng = self.streams.stream(StreamTag::Fault, slot, id);
                    self.nodes[slot].protocol.corrupt_state(rng);
                }
            }
            &FaultKind::CorruptMessage(id) => {
                if let Some(slot) = self.slot(id) {
                    // same stream discipline as `CorruptState`: flipping an
                    // in-flight payload never perturbs any other node's
                    // randomness. A no-op when nothing is in flight.
                    let rng = self.streams.stream(StreamTag::Fault, slot, id);
                    let node = &mut self.nodes[slot];
                    self.events
                        .corrupt_broadcasts_from(slot as u32, &mut |msg| {
                            node.protocol.corrupt_message(msg, &mut *rng)
                        });
                }
            }
            &FaultKind::Crash(id) => self.set_active(id, false),
            &FaultKind::Restart(id) => {
                if let Some(slot) = self.slot(id) {
                    self.nodes[slot].protocol.reset();
                    self.nodes[slot].active = true;
                }
            }
            // the harder recovery mode: the node re-enters the network
            // with whatever state it crashed with — no reset
            &FaultKind::RestartStale(id) => self.set_active(id, true),
            &FaultKind::LossBurst { duration } => {
                self.loss_burst_until = self.now.saturating_add(duration);
            }
            FaultKind::Partition { groups } => {
                let mut membership = BTreeMap::new();
                for (idx, group) in groups.iter().enumerate() {
                    for &node in group {
                        membership.insert(node, idx);
                    }
                }
                self.partition = Some(membership);
            }
            FaultKind::Heal => {
                self.partition = None;
            }
            &FaultKind::RegionBlackout { region, duration } => {
                let now = self.now;
                self.region_blackouts.retain(|&(_, until)| until > now);
                self.region_blackouts
                    .push((region, now.saturating_add(duration)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LinkOutcome;
    use crate::protocol::test_support::Flood;
    use crate::rng::stream_seed;
    use dyngraph::generators::path;
    use proptest::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// The grouping `delay_groups` replaced: every received link pushed
    /// into a `BTreeMap` keyed by extra delay, in sweep order.
    fn btreemap_groups(hits: &[(u64, u32)]) -> Vec<(u64, Vec<u32>)> {
        let mut groups: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for &(delay, to) in hits {
            groups.entry(delay).or_default().push(to);
        }
        groups.into_iter().collect()
    }

    /// A sweep's hits, shaped by `shape`: random delays from a few values,
    /// one delay for all, all-distinct delays in no order, or none at all.
    fn sweep_hits() -> impl Strategy<Value = Vec<(u64, u32)>> {
        let raw = proptest::collection::vec((0u64..5, 0u32..60), 0..40);
        (0u8..4, raw).prop_map(|(shape, raw)| match shape {
            0 => raw,
            1 => raw.into_iter().map(|(_, to)| (3, to)).collect(),
            2 => (0u64..)
                .zip(raw)
                .map(|(i, (_, to))| (i * 37 % 101, to))
                .collect(),
            _ => Vec::new(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn delay_groups_match_the_btreemap_grouping(hits in sweep_hits()) {
            let expected = btreemap_groups(&hits);
            let mut buffer = hits.clone();
            let groups: Vec<(u64, Vec<u32>)> = delay_groups(&mut buffer)
                .map(|run| (run[0].0, run.iter().map(|&(_, to)| to).collect()))
                .collect();
            prop_assert_eq!(groups, expected);
        }
    }

    /// `(now, topology, stats)` at every round boundary: collected in
    /// `run_rounds_driven`'s `before_round` closure, plus once after the
    /// run. Two runs that agree on it agree round for round.
    fn round_history<P: Protocol>(
        sim: &mut Simulator<P>,
        rounds: u64,
    ) -> Vec<(SimTime, Graph, MessageStats)> {
        let mut history = Vec::new();
        sim.run_rounds_driven(rounds, &mut NullObserver, &mut |_, sim| {
            history.push((sim.now(), sim.topology().clone(), sim.stats()));
        });
        history.push((sim.now(), sim.topology().clone(), sim.stats()));
        history
    }

    fn flood_sim(n: usize, seed: u64) -> Simulator<Flood> {
        let g = path(n);
        let mut sim = Simulator::new(
            SimConfig {
                seed,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..n).map(|i| Flood::new(NodeId(i as u64))));
        sim
    }

    #[test]
    fn flood_converges_on_a_path() {
        let n = 6;
        let mut sim = flood_sim(n, 1);
        sim.run_rounds(3 * n as u64);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), n, "every node learns every identity");
        }
        assert!(sim.stats().delivered > 0);
        assert_eq!(sim.stats().dropped, 0);
    }

    #[test]
    fn timers_fire_repeatedly() {
        let mut sim = flood_sim(3, 2);
        sim.run_rounds(5);
        for (_, p) in sim.protocols() {
            assert!(p.computes >= 4, "computes: {}", p.computes);
            assert!(p.received > 0);
        }
    }

    #[test]
    fn inactive_nodes_neither_send_nor_receive() {
        let mut sim = flood_sim(3, 3);
        sim.set_active(NodeId(1), false);
        sim.run_rounds(10);
        // node 1 is the middle of the path: 0 and 2 can never learn each other
        assert!(!sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(2)));
        assert_eq!(sim.protocol(NodeId(1)).unwrap().received, 0);
        assert!(
            sim.stats().dropped > 0,
            "deliveries to a crashed node are dropped"
        );
    }

    #[test]
    fn loss_probability_one_blocks_all_traffic() {
        let g = path(3);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                loss_probability: 1.0,
                seed: 4,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..3).map(|i| Flood::new(NodeId(i))));
        sim.run_rounds(5);
        assert_eq!(sim.stats().delivered, 0);
        assert!(sim.stats().dropped > 0);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 1);
        }
    }

    #[test]
    fn lossy_channel_still_converges_via_fair_channel() {
        let g = path(4);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                loss_probability: 0.5,
                seed: 5,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..4).map(|i| Flood::new(NodeId(i))));
        sim.run_rounds(40);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4);
        }
        assert!(sim.stats().dropped > 0);
        assert!(sim.stats().delivery_ratio() < 1.0);
    }

    #[test]
    fn crash_and_restart_fault_resets_state() {
        let mut sim = flood_sim(3, 6);
        sim.schedule_faults(vec![
            ScheduledFault::new(SimTime(2_000), FaultKind::Crash(NodeId(2))),
            ScheduledFault::new(SimTime(10_000), FaultKind::Restart(NodeId(2))),
        ]);
        sim.run_for(5_000);
        assert!(!sim.is_active(NodeId(2)));
        sim.run_for(10_000);
        assert!(sim.is_active(NodeId(2)));
        // after the restart, the flood converges again
        sim.run_rounds(20);
        assert_eq!(sim.protocol(NodeId(2)).unwrap().known.len(), 3);
    }

    #[test]
    fn corrupt_state_fault_invokes_protocol_hook() {
        let mut sim = flood_sim(2, 7);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(500),
            FaultKind::CorruptState(NodeId(0)),
        )]);
        sim.run_for(1_000);
        let known = &sim.protocol(NodeId(0)).unwrap().known;
        assert!(known.iter().any(|n| n.raw() >= 1000), "ghost id injected");
    }

    #[test]
    fn loss_burst_drops_everything_during_window() {
        let mut sim = flood_sim(2, 8);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::LossBurst { duration: 3_000 },
        )]);
        sim.run_for(2_900);
        assert_eq!(sim.stats().delivered, 0);
        sim.run_for(5_000);
        assert!(sim.stats().delivered > 0);
    }

    #[test]
    fn explicit_topology_can_change_mid_run() {
        let mut sim = flood_sim(4, 9);
        sim.apply_topology_event(TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
        sim.run_rounds(10);
        assert!(!sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(3)));
        sim.apply_topology_event(TopologyEvent::LinkUp(NodeId(1), NodeId(2)));
        sim.run_rounds(10);
        assert!(sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(3)));
    }

    #[test]
    fn spatial_mode_builds_topology_from_positions_and_mobility() {
        use crate::mobility::Stationary;
        use crate::radio::UnitDisk;
        let mobility = Stationary::line(4, 10.0);
        let radio = UnitDisk::new(12.0);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 10,
                ..Default::default()
            },
            TopologyMode::Spatial {
                radio,
                mobility: Box::new(mobility),
            },
        );
        sim.add_nodes((0..4).map(|i| Flood::new(NodeId(i))));
        assert_eq!(
            sim.topology().edge_count(),
            3,
            "line with unit-disk radius 12/10"
        );
        sim.run_rounds(15);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4);
        }
    }

    /// A spatial simulator whose mobility model places nodes that have no
    /// protocol instance: the event stream is mobility ticks only, the
    /// topology still follows the positions, and nothing is ever sent.
    #[test]
    fn discovery_payload_runs_without_nodes() {
        use crate::mobility::RandomWalk;
        use crate::radio::UnitDisk;
        use rand::SeedableRng;
        let mut placement = ChaCha8Rng::seed_from_u64(11);
        let mobility = RandomWalk::new(80, 200.0, 200.0, 0.02, &mut placement);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 11,
                mobility_period: 100,
                ..Default::default()
            },
            TopologyMode::Spatial {
                radio: UnitDisk::new(30.0),
                mobility: Box::new(mobility),
            },
        );
        let before = sim.topology().clone();
        sim.run_rounds_observed(3, &mut NullObserver);
        assert_eq!(sim.events_processed(), 30, "ten mobility ticks a round");
        assert_eq!(sim.stats(), MessageStats::default(), "no traffic");
        assert_eq!(sim.topology().node_count(), 80);
        assert_ne!(*sim.topology(), before, "the walkers rewired the graph");
        assert_eq!(sim.rounds_completed(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = flood_sim(5, seed);
            sim.run_rounds(10);
            (sim.stats(), sim.protocol(NodeId(0)).unwrap().known.clone())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn observed_rounds_advance_the_clock_and_the_counter() {
        let mut sim = flood_sim(3, 11);
        let history = round_history(&mut sim, 2);
        assert_eq!(history.len(), 3, "two boundaries before, one after");
        assert_eq!(history[0].0, SimTime::ZERO);
        assert!(history.windows(2).all(|pair| pair[0].0 < pair[1].0));
        assert_eq!(sim.rounds_completed(), 2);
    }

    #[test]
    fn partition_blocks_cross_group_links_until_heal() {
        let mut sim = flood_sim(4, 13);
        sim.schedule_faults(vec![
            ScheduledFault::new(
                SimTime(0),
                FaultKind::Partition {
                    groups: vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
                },
            ),
            ScheduledFault::new(SimTime(20_000), FaultKind::Heal),
        ]);
        sim.run_for(15_000);
        assert_eq!(
            sim.protocol(NodeId(0)).unwrap().known,
            [NodeId(0), NodeId(1)].into_iter().collect(),
            "side A floods only within its partition"
        );
        assert_eq!(
            sim.protocol(NodeId(3)).unwrap().known,
            [NodeId(2), NodeId(3)].into_iter().collect(),
            "side B floods only within its partition"
        );
        assert!(sim.stats().dropped > 0, "cross-group links were cut");
        sim.run_for(40_000);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4, "the flood converges after the heal");
        }
    }

    /// Nodes absent from every listed group form one implicit residual
    /// group: connected among themselves, cut off from every listed group.
    #[test]
    fn partition_residual_group_stays_internally_connected() {
        let mut sim = flood_sim(4, 14);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::Partition {
                groups: vec![vec![NodeId(0), NodeId(1)]],
            },
        )]);
        sim.run_rounds(10);
        // 2 and 3 are unlisted: they still hear each other …
        assert!(sim.protocol(NodeId(3)).unwrap().known.contains(&NodeId(2)));
        // … but the 1–2 link crossing into the listed group is cut
        assert!(!sim.protocol(NodeId(2)).unwrap().known.contains(&NodeId(1)));
        assert!(!sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(3)));
    }

    #[test]
    fn region_blackout_cuts_links_touching_the_region() {
        use crate::mobility::Stationary;
        use crate::radio::UnitDisk;
        // nodes on a line at x = 0, 10, 20, 30; radio reaches neighbours
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 15,
                ..Default::default()
            },
            TopologyMode::Spatial {
                radio: UnitDisk::new(12.0),
                mobility: Box::new(Stationary::line(4, 10.0)),
            },
        );
        sim.add_nodes((0..4).map(|i| Flood::new(NodeId(i))));
        // the "tunnel" swallows nodes 0 and 1: links 0–1 (both inside) and
        // 1–2 (one endpoint inside) are cut; 2–3 stays up
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::RegionBlackout {
                region: Region {
                    min_x: -1.0,
                    min_y: -1.0,
                    max_x: 11.0,
                    max_y: 1.0,
                },
                duration: 20_000,
            },
        )]);
        sim.run_for(15_000);
        assert_eq!(
            sim.protocol(NodeId(0)).unwrap().known.len(),
            1,
            "node 0 is inside the blackout and hears nothing"
        );
        assert!(
            sim.protocol(NodeId(3)).unwrap().known.contains(&NodeId(2)),
            "the 2–3 link is outside the region and stays up"
        );
        assert!(!sim.protocol(NodeId(2)).unwrap().known.contains(&NodeId(1)));
        sim.run_for(50_000);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4, "the flood converges after expiry");
        }
    }

    /// Explicit-mode nodes have no positions, so they are never inside any
    /// region: a `RegionBlackout` must block nothing there.
    #[test]
    fn region_blackout_is_inert_in_explicit_mode() {
        let mut sim = flood_sim(3, 16);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::RegionBlackout {
                region: Region {
                    min_x: f64::MIN,
                    min_y: f64::MIN,
                    max_x: f64::MAX,
                    max_y: f64::MAX,
                },
                duration: 1_000_000,
            },
        )]);
        sim.run_rounds(10);
        assert_eq!(sim.stats().dropped, 0);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 3);
        }
    }

    #[test]
    fn corrupt_message_fault_flips_in_flight_payloads() {
        let g = path(2);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 17,
                stagger_phases: false,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..2).map(|i| Flood::new(NodeId(i))));
        // lockstep sends fire at t = 250 and deliver at t = 260; a fault at
        // t = 255 catches node 0's broadcast in flight
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(255),
            FaultKind::CorruptMessage(NodeId(0)),
        )]);
        // stop after the corrupted delivery at t = 260 but before node 1's
        // next send (t = 500) floods the ghost back to node 0
        sim.run_for(400);
        let receiver = &sim.protocol(NodeId(1)).unwrap().known;
        assert!(
            receiver.iter().any(|n| (3000..4000).contains(&n.raw())),
            "the receiver absorbed the corrupted payload: {receiver:?}"
        );
        let sender = &sim.protocol(NodeId(0)).unwrap().known;
        assert!(
            sender.iter().all(|n| n.raw() < 1000),
            "the sender's own state is untouched by in-flight corruption: {sender:?}"
        );
    }

    #[test]
    fn corrupt_message_is_a_noop_with_nothing_in_flight() {
        let g = path(2);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 18,
                stagger_phases: false,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..2).map(|i| Flood::new(NodeId(i))));
        // t = 100 is before the first send at t = 250: nothing is queued
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(100),
            FaultKind::CorruptMessage(NodeId(0)),
        )]);
        sim.run_for(1_000);
        for (_, p) in sim.protocols() {
            assert!(p.known.iter().all(|n| n.raw() < 1000), "no ghost injected");
        }
    }

    /// `RestartStale` is the harder recovery mode: the node re-enters the
    /// network with whatever state it crashed with, while `Restart` wipes
    /// it back to the post-boot state.
    #[test]
    fn restart_stale_resumes_the_pre_crash_state() {
        let run = |stale: bool| {
            let g = path(3);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 19,
                    stagger_phases: false,
                    ..Default::default()
                },
                TopologyMode::Explicit(g),
            );
            sim.add_nodes((0..3).map(|i| Flood::new(NodeId(i))));
            let restart = if stale {
                FaultKind::RestartStale(NodeId(2))
            } else {
                FaultKind::Restart(NodeId(2))
            };
            sim.schedule_faults(vec![
                ScheduledFault::new(SimTime(5_000), FaultKind::Crash(NodeId(2))),
                ScheduledFault::new(SimTime(10_000), restart),
            ]);
            // stop right after the restart, before any delivery reaches
            // node 2 again (sends at 10_000 deliver at 10_010)
            sim.run_for(10_005);
            sim.protocol(NodeId(2)).unwrap().known.len()
        };
        assert_eq!(run(true), 3, "stale restart keeps the learned view");
        assert_eq!(run(false), 1, "fresh restart wipes it");
    }

    /// Every *blocking* fault (`LossBurst`, `Partition`/`Heal`,
    /// `RegionBlackout`) composed on one mobile network with lossy links:
    /// links really are cut, the channel loses more besides, and a rerun
    /// reproduces every byte of the execution even while a blackout window
    /// and a partition are active mid-run.
    #[test]
    fn blocking_faults_on_a_mobile_network_rerun_identically() {
        use crate::mobility::RandomWalk;
        use crate::radio::UnitDisk;
        use rand::SeedableRng;
        let run = |loss_probability| {
            let mut seed_rng = ChaCha8Rng::seed_from_u64(91);
            let mobility = RandomWalk::new(18, 60.0, 60.0, 0.004, &mut seed_rng);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 23,
                    loss_probability,
                    ..Default::default()
                },
                TopologyMode::Spatial {
                    radio: UnitDisk::new(25.0),
                    mobility: Box::new(mobility),
                },
            );
            sim.add_nodes((0..18).map(|i| Flood::new(NodeId(i))));
            sim.schedule_faults(vec![
                ScheduledFault::new(SimTime(1_000), FaultKind::LossBurst { duration: 1_500 }),
                ScheduledFault::new(
                    SimTime(3_000),
                    FaultKind::Partition {
                        groups: vec![(0..9).map(NodeId).collect(), (9..18).map(NodeId).collect()],
                    },
                ),
                ScheduledFault::new(
                    SimTime(4_000),
                    FaultKind::RegionBlackout {
                        region: Region {
                            min_x: 0.0,
                            min_y: 0.0,
                            max_x: 30.0,
                            max_y: 30.0,
                        },
                        duration: 2_000,
                    },
                ),
                ScheduledFault::new(SimTime(6_000), FaultKind::Heal),
            ]);
            let history = round_history(&mut sim, 10);
            let known: Vec<_> = sim.protocols().map(|(_, p)| p.known.clone()).collect();
            (history, sim.stats(), sim.events_processed(), known)
        };
        let first = run(0.1);
        let lossless = run(0.0);
        assert!(
            lossless.1.dropped > 0,
            "the blocking faults were actually exercised"
        );
        assert!(
            first.1.dropped > lossless.1.dropped,
            "the channel loses links besides"
        );
        assert_eq!(first, run(0.1));
    }

    /// Time only moves forward: a deadline before the clock is refused,
    /// and the panic names both instants.
    #[test]
    #[should_panic(expected = "deadline t1500 lies before now (t2000)")]
    fn a_backwards_deadline_panics() {
        let mut sim = flood_sim(3, 1);
        sim.run_until(SimTime(2_000));
        sim.run_until(SimTime(2_000));
        sim.run_until(SimTime(1_500));
    }

    /// A node is added once: adding a present id again is refused, and the
    /// panic names the id.
    #[test]
    #[should_panic(expected = "node n2 is already present")]
    fn re_adding_a_present_id_panics() {
        let mut sim = flood_sim(4, 31);
        sim.run_rounds(2);
        sim.add_node(Flood::new(NodeId(2)));
    }

    /// A medium that never loses draws nothing, so no `channel` stream is
    /// ever created — on an explicit topology and on a unit disk — and no
    /// add keeps its `phase` stream; lossy links on the disk create
    /// one `channel` stream per sender.
    #[test]
    fn streams_are_created_by_their_first_draw() {
        use crate::mobility::RandomWalk;
        use crate::radio::UnitDisk;
        use rand::SeedableRng;
        let spatial = |loss_probability| {
            let mut placement = ChaCha8Rng::seed_from_u64(3);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 12,
                    loss_probability,
                    ..Default::default()
                },
                TopologyMode::Spatial {
                    radio: UnitDisk::new(25.0),
                    mobility: Box::new(RandomWalk::new(20, 60.0, 60.0, 0.01, &mut placement)),
                },
            );
            sim.add_nodes((0..20).map(|i| Flood::new(NodeId(i))));
            sim.run_rounds(4);
            sim
        };
        let mut explicit = flood_sim(6, 4);
        explicit.run_rounds(4);
        let disk = spatial(0.0);
        for sim in [&explicit.streams, &disk.streams] {
            assert_eq!(sim.seeded(StreamTag::Channel), 0);
            assert_eq!(sim.seeded(StreamTag::Phase), 0);
        }
        assert!(explicit.stats().delivered > 0 && disk.stats().delivered > 0);
        assert_eq!(disk.stats().dropped, 0);
        let lossy = spatial(0.3);
        assert!(lossy.stats().dropped > 0);
        assert_eq!(lossy.streams.seeded(StreamTag::Channel), 20);
    }

    /// Link decisions drawn through lazily created streams, interleaved
    /// across senders, equal those drawn from streams seeded up front.
    #[test]
    fn lazy_streams_decide_links_as_eager_ones() {
        use crate::radio::UnitDisk;
        use rand::SeedableRng;
        let radio = UnitDisk::new(10.0);
        let env = |sender: u64| LinkEnv {
            now: SimTime::ZERO,
            sender: NodeId(sender),
            receiver: NodeId(sender + 1),
            sender_pos: Some(Point::ORIGIN),
            receiver_pos: Some(Point::new(1.0, 0.0)),
            radio: Some(&radio),
            loss_probability: 0.4,
        };
        let senders = [7u64, 2, 9];
        let mut lazy = NodeStreams::new(5);
        let mut eager: Vec<ChaCha8Rng> = senders
            .iter()
            .map(|&id| ChaCha8Rng::seed_from_u64(stream_seed(5, NodeId(id), StreamTag::Channel)))
            .collect();
        let mut lost = 0;
        for turn in 0..300 {
            let k = turn * 7 % senders.len();
            let id = NodeId(senders[k]);
            let got = Bernoulli.link(&mut lazy.lazy(StreamTag::Channel, k, id), &env(senders[k]));
            let want = Bernoulli.link(&mut eager[k], &env(senders[k]));
            assert_eq!(got, want, "turn {turn}");
            lost += usize::from(!got.received);
        }
        assert!(lost > 0 && lost < 300);
    }

    /// One broadcast as a channel saw it: when, who, and every link it was
    /// asked to decide, as `(receiver, sender_pos, receiver_pos)`.
    type Sweep = (SimTime, NodeId, Vec<(NodeId, Point, Point)>);

    /// A lossless channel that logs every broadcast and link decision.
    struct Recording(std::rc::Rc<std::cell::RefCell<Vec<Sweep>>>);

    impl ChannelModel for Recording {
        fn begin_broadcast(&mut self, now: SimTime, sender: NodeId, _pos: Option<Point>) {
            self.0.borrow_mut().push((now, sender, Vec::new()));
        }

        fn link(&self, _rng: &mut dyn RngCore, env: &LinkEnv<'_>) -> LinkOutcome {
            let mut log = self.0.borrow_mut();
            // a batch announces all its broadcasts before deciding links
            let (_, _, links) = log
                .iter_mut()
                .rev()
                .find(|(at, sender, _)| (*at, *sender) == (env.now, env.sender))
                .expect("a link follows its broadcast");
            let (Some(from), Some(to)) = (env.sender_pos, env.receiver_pos) else {
                panic!("a spatial link carries both positions");
            };
            links.push((env.receiver, from, to));
            LinkOutcome::DELIVERED
        }
    }

    /// Both ways a send reads its neighbours — the per-send grid query
    /// while a tick's moves are not yet materialised, and the row of the
    /// graph a round end rebuilds from the grid — give, send by send, the
    /// all-pairs row of that instant's positions: same neighbours, same
    /// order, same positions. The instant's positions come from replaying
    /// the mobility model beside the run. Ticks every 150 and rounds of
    /// 1 000 leave the sends between a round end and the next tick on
    /// graph rows and every other send on a query; both kinds are counted.
    #[test]
    fn grid_reads_reproduce_the_all_pairs_path() {
        use crate::mobility::RandomWalk;
        use crate::radio::{topology_all_pairs, UnitDisk};
        use rand::SeedableRng;
        let (seed, tick, round) = (17, 150, 1_000);
        let walk = || RandomWalk::new(40, 120.0, 120.0, 0.05, &mut ChaCha8Rng::seed_from_u64(5));
        let radio = UnitDisk::new(25.0);
        let log = std::rc::Rc::default();
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed,
                send_period: 50,
                compute_period: round,
                mobility_period: tick,
                ..Default::default()
            },
            TopologyMode::Spatial {
                radio,
                mobility: Box::new(walk()),
            },
        );
        sim.add_nodes((0..40).map(|i| Flood::new(NodeId(i))));
        sim.set_channel(Box::new(Recording(std::rc::Rc::clone(&log))));
        sim.run_rounds_observed(8, &mut NullObserver);

        let mut replay = walk();
        let mut streams = NodeStreams::new(seed);
        let mut ticked = 0;
        let mut oracle = topology_all_pairs(&radio, replay.positions());
        let (mut on_rows, mut on_queries) = (0, 0);
        for (now, sender, links) in log.borrow().iter() {
            // a tick at a send's instant moves the nodes before it sends
            while ticked + tick <= now.ticks() {
                replay.advance(tick, &mut streams);
                ticked += tick;
                oracle = topology_all_pairs(&radio, replay.positions());
            }
            let points = replay.positions().points();
            let at = sender.raw() as usize;
            let expected: Vec<_> = oracle
                .row(at)
                .iter()
                .map(|&j| (NodeId(u64::from(j)), points[at], points[j as usize]))
                .collect();
            assert_eq!(links, &expected, "{sender:?} at {now:?}");
            // the graph was rebuilt at the last round end before this send
            // iff no tick has moved a node since
            if (now.ticks() - 1) / round * round >= ticked {
                on_rows += 1;
            } else {
                on_queries += 1;
            }
        }
        assert!(on_rows > 0 && on_queries > 0, "{on_rows} / {on_queries}");
        assert!(sim.stats().delivered > 0);
    }
}
