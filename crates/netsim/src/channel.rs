//! Channel models: who actually receives a broadcast, and when.
//!
//! The radio ([`UnitDisk`]) answers the *geometric* question — which nodes
//! are in the sender's vicinity — and owns the topology. The channel model
//! answers the *medium* question: given that a neighbour is in range, does
//! this particular transmission reach it, and with how much extra latency?
//! Every loss decision lives here, so a scenario combines the disk
//! geometry with any medium behaviour. Every model first applies the iid
//! loss of [`SimConfig::loss_probability`] (one draw per link, only when
//! it is positive), then makes its own decision.
//!
//! Three models are provided:
//!
//! * [`Bernoulli`] — the default. Per-link iid loss at
//!   [`SimConfig::loss_probability`], in both topology modes; a manifest's
//!   `lossy_disk` is a unit disk under this channel at its `loss`.
//! * [`DistanceLoss`] — a crude path-loss model: the loss probability grows
//!   linearly with the link's length, from 0 beside the sender to
//!   `edge_loss` at the edge of the radio's range (a manifest's
//!   `distance_loss`).
//! * [`Contention`] — a shared-medium approximation for VANET workloads:
//!   loss probability rises with the number of concurrent transmitters
//!   near the receiver, two senders that cannot hear each other but share
//!   a receiver neighbourhood collide deterministically (hidden-terminal
//!   approximation), and an optional distance-proportional delivery jitter
//!   spreads a sweep over several delivery instants. See `docs/CHANNELS.md`
//!   at the workspace root for the exact formulas and calibration guidance.
//!
//! Determinism contract: a channel model may consume the simulation RNG,
//! but *whether* and *in which order* it does so must be a pure function of
//! the simulation state — then the same manifest and seed reproduce the
//! same trace digest forever, which is what the golden scenario suite pins.
//!
//! ```
//! use netsim::channel::{Bernoulli, ChannelModel, LinkEnv};
//! use netsim::{Point, SimTime};
//! use dyngraph::NodeId;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut channel = Bernoulli;
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! channel.begin_broadcast(SimTime(0), NodeId(0), None);
//! // explicit mode with zero loss: reception is certain and the RNG is
//! // never touched
//! let env = LinkEnv {
//!     now: SimTime(0),
//!     sender: NodeId(0),
//!     receiver: NodeId(1),
//!     sender_pos: None,
//!     receiver_pos: None,
//!     radio: None,
//!     loss_probability: 0.0,
//! };
//! let outcome = channel.link(&mut rng, &env);
//! assert!(outcome.received);
//! assert_eq!(outcome.extra_delay, 0);
//! ```
//!
//! [`SimConfig::loss_probability`]: crate::sim::SimConfig::loss_probability

use crate::radio::UnitDisk;
use crate::space::{cell_index, Point};
use crate::time::SimTime;
use dyngraph::NodeId;
use rand::{Rng, RngCore};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Everything a channel model may inspect when deciding one link of a
/// broadcast sweep. Built by the simulator per `(sender, neighbour)` pair.
#[derive(Clone, Copy)]
pub struct LinkEnv<'a> {
    /// Transmission time (send instant, before the delivery delay).
    pub now: SimTime,
    /// The broadcasting node.
    pub sender: NodeId,
    /// The candidate receiver (already known to be a topology neighbour).
    pub receiver: NodeId,
    /// Sender position — `None` in explicit-topology mode.
    pub sender_pos: Option<Point>,
    /// Receiver position — `None` in explicit-topology mode.
    pub receiver_pos: Option<Point>,
    /// The radio — `None` in explicit-topology mode.
    pub radio: Option<&'a UnitDisk>,
    /// The iid loss probability every channel applies first
    /// ([`SimConfig::loss_probability`](crate::sim::SimConfig::loss_probability)).
    pub loss_probability: f64,
}

/// A channel model's verdict for one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkOutcome {
    /// Does the receiver get the message?
    pub received: bool,
    /// Extra delivery latency in ticks, added on top of the configured
    /// `delivery_delay`. Ignored when `received` is false.
    pub extra_delay: u64,
}

impl LinkOutcome {
    /// A message lost on the medium.
    pub const LOST: LinkOutcome = LinkOutcome {
        received: false,
        extra_delay: 0,
    };

    /// A message delivered with no extra latency.
    pub const DELIVERED: LinkOutcome = LinkOutcome {
        received: true,
        extra_delay: 0,
    };
}

/// The per-transmission medium model; see the [module docs](self) for the
/// split of responsibilities between radio and channel.
pub trait ChannelModel {
    /// Called once per broadcast, before any [`link`](Self::link) decision
    /// of that sweep: the channel may record the transmission (the
    /// contention model feeds its medium-load window here). `pos` is the
    /// sender's position, `None` in explicit-topology mode. The default
    /// does nothing.
    fn begin_broadcast(&mut self, now: SimTime, sender: NodeId, pos: Option<Point>) {
        let _ = (now, sender, pos);
    }

    /// Decide one link of the sweep. Called once per in-range neighbour, in
    /// ascending NodeId order — the RNG consumption order is part of the
    /// pinned golden traces, so implementations must consume randomness as
    /// a pure function of `env` and their own deterministic state.
    fn link(&self, rng: &mut dyn RngCore, env: &LinkEnv<'_>) -> LinkOutcome;
}

/// The iid-loss channel (the default): each link independently survives
/// with probability `1 − loss_probability`, in both topology modes. The
/// RNG is consumed only when the probability is positive, one draw per
/// link; the golden digests pin this.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bernoulli;

impl ChannelModel for Bernoulli {
    fn link(&self, rng: &mut dyn RngCore, env: &LinkEnv<'_>) -> LinkOutcome {
        if iid_lost(rng, env) {
            LinkOutcome::LOST
        } else {
            LinkOutcome::DELIVERED
        }
    }
}

/// The iid loss every channel applies first: one draw against
/// `env.loss_probability`, made only when it is positive.
fn iid_lost(rng: &mut dyn RngCore, env: &LinkEnv<'_>) -> bool {
    let p = env.loss_probability;
    p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
}

/// Distance-proportional loss for spatial workloads: a link of length `d`
/// under a radio of range `r` is lost with probability
/// `edge_loss · d / r` — 0 beside the sender, `edge_loss` at the edge of
/// the range — so long links are flakier than short ones, as in a real
/// VANET. One draw per in-range link, whatever its length; a link without
/// positions or beyond the range is lost without one.
///
/// ```
/// use netsim::channel::{ChannelModel, DistanceLoss, LinkEnv};
/// use netsim::radio::UnitDisk;
/// use netsim::{Point, SimTime};
/// use dyngraph::NodeId;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let radio = UnitDisk::new(10.0);
/// let env = LinkEnv {
///     now: SimTime(0),
///     sender: NodeId(0),
///     receiver: NodeId(1),
///     sender_pos: Some(Point::new(0.0, 0.0)),
///     receiver_pos: Some(Point::new(10.0, 0.0)),
///     radio: Some(&radio),
///     loss_probability: 0.0,
/// };
/// // at the edge of the range the loss is `edge_loss`: certain here
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// assert!(!DistanceLoss::new(1.0).link(&mut rng, &env).received);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceLoss {
    edge_loss: f64,
}

impl DistanceLoss {
    /// The channel with loss probability `edge_loss` at the edge of the
    /// range, clamped into `[0, 1]`.
    pub fn new(edge_loss: f64) -> Self {
        DistanceLoss {
            edge_loss: edge_loss.clamp(0.0, 1.0),
        }
    }
}

impl ChannelModel for DistanceLoss {
    fn link(&self, rng: &mut dyn RngCore, env: &LinkEnv<'_>) -> LinkOutcome {
        if iid_lost(rng, env) {
            return LinkOutcome::LOST;
        }
        let (Some(radio), Some(ps), Some(pr)) = (env.radio, env.sender_pos, env.receiver_pos)
        else {
            return LinkOutcome::LOST;
        };
        let d = ps.distance(&pr);
        if d > radio.range() {
            return LinkOutcome::LOST;
        }
        let p_loss = self.edge_loss * (d / radio.range());
        if rng.gen_bool(p_loss.clamp(0.0, 1.0)) {
            LinkOutcome::LOST
        } else {
            LinkOutcome::DELIVERED
        }
    }
}

/// Parameters of the [`Contention`] channel. `range` is mandatory (it sets
/// the interference cell size and normalises the jitter); everything else
/// has defaults documented in `docs/CHANNELS.md`.
///
/// ```
/// use netsim::channel::ContentionConfig;
/// let cfg = ContentionConfig::new(45.0);
/// assert_eq!(cfg.window, 250);
/// assert!(cfg.hidden_terminal);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentionConfig {
    /// Interference radius in space units — use the radio range. Sets the
    /// side of the uniform interference cells (a transmitter contends with
    /// receivers up to one cell ring away) and the distance at which the
    /// full `jitter` applies.
    pub range: f64,
    /// Loss probability on an idle medium, in `[0, 1]`.
    pub base_loss: f64,
    /// Additional loss probability per concurrent transmitter near the
    /// receiver.
    pub load_loss: f64,
    /// Ceiling of the load-driven loss probability, in `[0, 1]` — keeps a
    /// saturated medium lossy rather than silent, so the fair-channel
    /// hypothesis still holds statistically.
    pub max_loss: f64,
    /// How long (ticks) a transmission occupies the medium for contention
    /// accounting. Calibrate to the send period: a window of one send
    /// period counts every node that transmitted in the current cycle.
    pub window: u64,
    /// Maximum extra delivery latency in ticks; a link at distance `d` is
    /// delayed by `floor(jitter · min(d / range, 1))`. Zero disables jitter.
    pub jitter: u64,
    /// Model the hidden-terminal effect: a concurrent transmitter that is
    /// near the receiver but out of the sender's interference neighbourhood
    /// collides deterministically (the sender's carrier sensing could not
    /// defer to it).
    pub hidden_terminal: bool,
}

impl ContentionConfig {
    /// Defaults for a given interference `range`: `base_loss` 0.02,
    /// `load_loss` 0.08, `max_loss` 0.95, `window` 250 (the default send
    /// period), no jitter, hidden-terminal on.
    pub fn new(range: f64) -> Self {
        ContentionConfig {
            range,
            base_loss: 0.02,
            load_loss: 0.08,
            max_loss: 0.95,
            window: 250,
            jitter: 0,
            hidden_terminal: true,
        }
    }
}

/// One remembered transmission inside the contention window.
#[derive(Clone, Copy, Debug)]
struct RecentTx {
    at: SimTime,
    sender: NodeId,
    cell: (i64, i64),
}

/// A fixed, seed-free hasher for the contention counts' keys, which are
/// small integers (cell coordinates and node ids): one multiply-rotate per
/// word. Under the default `RandomState` (SipHash-1-3) hashing was the
/// largest part of a link decision. The keys come from simulated positions,
/// not from untrusted input, so SipHash's resistance to crafted collisions
/// buys nothing here.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }
}

/// A count per key, hashed with [`CellHasher`].
type CountMap<K> = HashMap<K, u32, BuildHasherDefault<CellHasher>>;

/// Shared-medium contention channel for spatial workloads.
///
/// The plane is bucketed into square cells of side `range` (the same
/// convention as the spatial grid, so one cell ring covers the vicinity).
/// Every broadcast is recorded into a sliding window of recent
/// transmissions; a link from `s` to `r` then observes the *medium load*
/// `k` — the number of other transmitters within one cell ring of `r`'s
/// cell during the window — and is lost with probability
/// `min(base_loss + load_loss · k, max_loss)`. If one of those transmitters
/// is additionally outside `s`'s own interference neighbourhood (so `s`
/// could not have deferred to it), the link is a deterministic
/// hidden-terminal collision.
///
/// All decisions are pure functions of the recorded window and the
/// simulation RNG, so runs are reproducible per seed; the determinism
/// regression tests pin this.
///
/// Internally the window is *cell-bucketed*: alongside the expiry deque,
/// the channel keeps live transmission counts per cell and per
/// `(cell, sender)`, maintained incrementally as transmissions enter and
/// leave the window. A link decision then reads the nine cells around the
/// receiver instead of walking every windowed transmission: at most 18
/// keyed lookups, whatever the window holds. The counts are held in
/// `HashMap`s under a fixed hasher and only ever read by key (never
/// iterated), so neither hash order nor a hash seed can perturb the
/// decision stream. `tests/proptest_channel.rs` pins the link outcomes and
/// RNG draws against walking the whole window.
///
/// ```
/// use netsim::channel::{ChannelModel, Contention, ContentionConfig, LinkEnv};
/// use netsim::radio::UnitDisk;
/// use netsim::{Point, SimTime};
/// use dyngraph::NodeId;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut channel = Contention::new(ContentionConfig {
///     base_loss: 0.0,
///     load_loss: 1.0, // any load kills the link — makes the effect visible
///     ..ContentionConfig::new(10.0)
/// });
/// let radio = UnitDisk::new(10.0);
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let env = LinkEnv {
///     now: SimTime(0),
///     sender: NodeId(0),
///     receiver: NodeId(1),
///     sender_pos: Some(Point::new(0.0, 0.0)),
///     receiver_pos: Some(Point::new(5.0, 0.0)),
///     radio: Some(&radio),
///     loss_probability: 0.0,
/// };
/// // idle medium: the link goes through
/// channel.begin_broadcast(SimTime(0), NodeId(0), env.sender_pos);
/// assert!(channel.link(&mut rng, &env).received);
/// // a concurrent transmitter next to the receiver saturates the medium
/// channel.begin_broadcast(SimTime(0), NodeId(2), Some(Point::new(6.0, 0.0)));
/// channel.begin_broadcast(SimTime(0), NodeId(0), env.sender_pos);
/// assert!(!channel.link(&mut rng, &env).received);
/// ```
#[derive(Clone, Debug)]
pub struct Contention {
    cfg: ContentionConfig,
    /// Sliding window of transmissions, oldest first.
    recent: VecDeque<RecentTx>,
    /// Live transmissions per interference cell. Keyed lookup only —
    /// D001 forbids iterating it, and nothing does.
    cell_load: CountMap<(i64, i64)>,
    /// Live transmissions per (cell, sender) — subtracted from the cell
    /// total so a node never contends with itself.
    sender_load: CountMap<((i64, i64), NodeId)>,
}

impl Contention {
    /// Create the channel; `cfg.range` must be finite and positive.
    pub fn new(cfg: ContentionConfig) -> Self {
        assert!(
            cfg.range.is_finite() && cfg.range > 0.0,
            "contention range must be finite and positive, got {}",
            cfg.range
        );
        Contention {
            cfg,
            recent: VecDeque::new(),
            cell_load: CountMap::default(),
            sender_load: CountMap::default(),
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> &ContentionConfig {
        &self.cfg
    }

    /// Number of transmissions currently inside the window (after the last
    /// [`begin_broadcast`](ChannelModel::begin_broadcast)).
    pub fn window_len(&self) -> usize {
        self.recent.len()
    }

    /// Medium load and hidden-terminal verdict for a receiver cell, as seen
    /// by `sender` in `sender_cell`: `(k, hidden)` where `k` counts the
    /// *other* transmitters within one cell ring of the receiver and
    /// `hidden` reports whether any of them is outside the sender's own
    /// ring.
    ///
    /// Reads the nine bucket counts around `rcell` — equivalent to walking
    /// the whole window (`tests/proptest_channel.rs` pins this), because
    /// every windowed transmission in a cell contributes exactly its count
    /// and all transmissions in one cell share the same `near` verdicts.
    fn observe(&self, sender: NodeId, sender_cell: (i64, i64), rcell: (i64, i64)) -> (u32, bool) {
        let near = |a: (i64, i64), b: (i64, i64)| (a.0 - b.0).abs() <= 1 && (a.1 - b.1).abs() <= 1;
        let mut load = 0u32;
        let mut hidden = false;
        for dx in -1..=1 {
            for dy in -1..=1 {
                let cell = (rcell.0 + dx, rcell.1 + dy);
                let total = self.cell_load.get(&cell).copied().unwrap_or(0);
                if total == 0 {
                    continue;
                }
                // a node does not interfere with itself
                let own = self.sender_load.get(&(cell, sender)).copied().unwrap_or(0);
                let foreign = total - own;
                if foreign > 0 {
                    load += foreign;
                    if !near(cell, sender_cell) {
                        hidden = true;
                    }
                }
            }
        }
        (load, hidden)
    }

    /// Count a transmission into the cell buckets.
    fn bucket_add(&mut self, tx: &RecentTx) {
        *self.cell_load.entry(tx.cell).or_insert(0) += 1;
        *self.sender_load.entry((tx.cell, tx.sender)).or_insert(0) += 1;
    }

    /// Count an expired transmission out of the cell buckets. Zeroed
    /// entries are removed so the maps track the live window, not every
    /// cell the workload ever touched.
    fn bucket_remove(&mut self, tx: &RecentTx) {
        if let Some(count) = self.cell_load.get_mut(&tx.cell) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.cell_load.remove(&tx.cell);
            }
        }
        if let Some(count) = self.sender_load.get_mut(&(tx.cell, tx.sender)) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.sender_load.remove(&(tx.cell, tx.sender));
            }
        }
    }
}

impl ChannelModel for Contention {
    fn begin_broadcast(&mut self, now: SimTime, sender: NodeId, pos: Option<Point>) {
        let window = self.cfg.window;
        while let Some(front) = self.recent.front().copied() {
            if now.ticks().saturating_sub(front.at.ticks()) > window {
                self.recent.pop_front();
                self.bucket_remove(&front);
            } else {
                break;
            }
        }
        if let Some(p) = pos {
            let tx = RecentTx {
                at: now,
                sender,
                cell: cell_index(self.cfg.range, p),
            };
            self.recent.push_back(tx);
            self.bucket_add(&tx);
        }
    }

    fn link(&self, rng: &mut dyn RngCore, env: &LinkEnv<'_>) -> LinkOutcome {
        if iid_lost(rng, env) {
            return LinkOutcome::LOST;
        }
        // positions are mandatory: the contention model is spatial-only
        // (manifests enforce this; a missing position drops the link, the
        // same posture `DistanceLoss` takes)
        let (Some(ps), Some(pr)) = (env.sender_pos, env.receiver_pos) else {
            return LinkOutcome::LOST;
        };
        let scell = cell_index(self.cfg.range, ps);
        let rcell = cell_index(self.cfg.range, pr);
        let (load, hidden) = self.observe(env.sender, scell, rcell);
        if self.cfg.hidden_terminal && hidden {
            // deterministic collision: no RNG is consumed, so the decision
            // stream stays a pure function of the recorded window
            return LinkOutcome::LOST;
        }
        let p = (self.cfg.base_loss + self.cfg.load_loss * f64::from(load))
            .min(self.cfg.max_loss)
            .clamp(0.0, 1.0);
        let received = p <= 0.0 || !rng.gen_bool(p);
        if !received {
            return LinkOutcome::LOST;
        }
        let extra_delay = if self.cfg.jitter > 0 {
            let frac = (ps.distance(&pr) / self.cfg.range).min(1.0);
            (self.cfg.jitter as f64 * frac).floor() as u64
        } else {
            0
        };
        LinkOutcome {
            received,
            extra_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn env(sender: u64, receiver: u64, sp: Point, rp: Point, radio: &UnitDisk) -> LinkEnv<'_> {
        LinkEnv {
            now: SimTime(0),
            sender: NodeId(sender),
            receiver: NodeId(receiver),
            sender_pos: Some(sp),
            receiver_pos: Some(rp),
            radio: Some(radio),
            loss_probability: 0.0,
        }
    }

    #[test]
    fn bernoulli_explicit_zero_loss_skips_rng() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        let ch = Bernoulli;
        let e = LinkEnv {
            now: SimTime(0),
            sender: NodeId(0),
            receiver: NodeId(1),
            sender_pos: None,
            receiver_pos: None,
            radio: None,
            loss_probability: 0.0,
        };
        assert_eq!(ch.link(&mut a, &e), LinkOutcome::DELIVERED);
        // zero loss must not consume the RNG: the next draw is the first
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn bernoulli_explicit_matches_direct_draw() {
        let ch = Bernoulli;
        let e = LinkEnv {
            now: SimTime(0),
            sender: NodeId(0),
            receiver: NodeId(1),
            sender_pos: None,
            receiver_pos: None,
            radio: None,
            loss_probability: 0.4,
        };
        let mut via_channel = ChaCha8Rng::seed_from_u64(11);
        let mut direct = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..64 {
            let got = ch.link(&mut via_channel, &e).received;
            let want = !rand::Rng::gen_bool(&mut direct, 0.4);
            assert_eq!(got, want);
        }
        // identical RNG stream: the next draws still agree
        assert_eq!(via_channel.gen::<u64>(), direct.gen::<u64>());
    }

    /// Spatial mode draws against `loss_probability` exactly as explicit
    /// mode does: the radio plays no part in the decision.
    #[test]
    fn bernoulli_spatial_applies_loss_probability() {
        let radio = UnitDisk::new(10.0);
        let spatial = LinkEnv {
            loss_probability: 0.5,
            ..env(0, 1, Point::ORIGIN, Point::new(3.0, 0.0), &radio)
        };
        let explicit = LinkEnv {
            sender_pos: None,
            receiver_pos: None,
            radio: None,
            ..spatial
        };
        let mut via_spatial = ChaCha8Rng::seed_from_u64(21);
        let mut via_explicit = ChaCha8Rng::seed_from_u64(21);
        let mut lost = 0;
        for _ in 0..64 {
            let got = Bernoulli.link(&mut via_spatial, &spatial);
            assert_eq!(got, Bernoulli.link(&mut via_explicit, &explicit));
            lost += usize::from(!got.received);
        }
        assert!(lost > 0 && lost < 64, "{lost} of 64 lost");
    }

    /// `DistanceLoss` is spatial-only: a link without positions is lost
    /// without a draw.
    #[test]
    fn distance_loss_without_positions_drops() {
        let radio = UnitDisk::new(10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let e = LinkEnv {
            receiver_pos: None,
            ..env(0, 1, Point::ORIGIN, Point::ORIGIN, &radio)
        };
        assert_eq!(DistanceLoss::new(0.5).link(&mut rng, &e), LinkOutcome::LOST);
        let mut fresh = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    /// One draw per in-range link against `edge_loss · d / range`, clamped
    /// — checked draw for draw against the formula over a direct stream,
    /// at lengths from 0 to the range.
    #[test]
    fn distance_loss_draws_match_the_formula() {
        let radio = UnitDisk::new(8.0);
        let mut via_channel = ChaCha8Rng::seed_from_u64(31);
        let mut direct = ChaCha8Rng::seed_from_u64(31);
        for edge_loss in [0.0, 0.35, 1.0] {
            let channel = DistanceLoss::new(edge_loss);
            for step in 0..=16 {
                let d = 0.5 * f64::from(step);
                let e = env(0, 1, Point::new(1.0, 2.0), Point::new(1.0, 2.0 + d), &radio);
                let got = channel.link(&mut via_channel, &e).received;
                let want = !direct.gen_bool((edge_loss * d / 8.0).clamp(0.0, 1.0));
                assert_eq!(got, want, "edge_loss {edge_loss}, d {d}");
            }
        }
        // identical RNG stream: the next draws still agree
        assert_eq!(via_channel.gen::<u64>(), direct.gen::<u64>());
    }

    fn quiet_contention(range: f64) -> Contention {
        Contention::new(ContentionConfig {
            base_loss: 0.0,
            ..ContentionConfig::new(range)
        })
    }

    #[test]
    fn idle_medium_with_zero_base_loss_always_delivers() {
        let radio = UnitDisk::new(10.0);
        let mut ch = quiet_contention(10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        ch.begin_broadcast(SimTime(0), NodeId(0), Some(Point::ORIGIN));
        let e = env(0, 1, Point::ORIGIN, Point::new(4.0, 0.0), &radio);
        assert!(ch.link(&mut rng, &e).received);
    }

    #[test]
    fn contention_window_boundary_is_inclusive() {
        // The sliding window keeps a transmission whose age is *exactly*
        // `window` and expires it only at age `window + 1` (the expiry
        // test is `now - at > window`). Pinned: the boundary semantics
        // feed the golden digests of every contention scenario, so an
        // off-by-one here is a silent digest migration.
        let mut ch = quiet_contention(10.0);
        let window = ch.cfg.window;
        ch.begin_broadcast(SimTime(0), NodeId(0), Some(Point::ORIGIN));
        assert_eq!(ch.window_len(), 1);
        // a position-less begin_broadcast only runs the expiry sweep
        ch.begin_broadcast(SimTime(window), NodeId(1), None);
        assert_eq!(ch.window_len(), 1, "age == window is still in the window");
        ch.begin_broadcast(SimTime(window + 1), NodeId(1), None);
        assert_eq!(ch.window_len(), 0, "age > window has expired");
    }

    #[test]
    fn loss_probability_is_monotone_in_load() {
        // measured success rate falls as concurrent transmitters are added
        let radio = UnitDisk::new(10.0);
        let rate = |others: u64| {
            let mut ch = Contention::new(ContentionConfig {
                base_loss: 0.0,
                load_loss: 0.15,
                hidden_terminal: false,
                ..ContentionConfig::new(10.0)
            });
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let mut ok = 0usize;
            let trials = 2000;
            for _ in 0..trials {
                ch = Contention::new(*ch.config()).tap_record(others);
                ch.begin_broadcast(SimTime(0), NodeId(0), Some(Point::ORIGIN));
                let e = env(0, 1, Point::ORIGIN, Point::new(4.0, 0.0), &radio);
                if ch.link(&mut rng, &e).received {
                    ok += 1;
                }
            }
            ok as f64 / trials as f64
        };
        let r0 = rate(0);
        let r2 = rate(2);
        let r5 = rate(5);
        assert!(r0 > r2 && r2 > r5, "rates {r0} {r2} {r5}");
        assert!((r0 - 1.0).abs() < 1e-9, "idle medium is lossless here");
    }

    impl Contention {
        /// Test helper: pre-load `n` co-located foreign transmitters.
        fn tap_record(mut self, n: u64) -> Self {
            for i in 0..n {
                ChannelModel::begin_broadcast(
                    &mut self,
                    SimTime(0),
                    NodeId(100 + i),
                    Some(Point::new(1.0, 1.0)),
                );
            }
            self
        }
    }

    #[test]
    fn hidden_terminal_collides_deterministically() {
        let radio = UnitDisk::new(10.0);
        let mut ch = quiet_contention(10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // a transmitter right next to the receiver (cell (3,0)) but far from
        // the sender (cell (0,0)): classic hidden terminal
        ch.begin_broadcast(SimTime(0), NodeId(7), Some(Point::new(35.0, 0.0)));
        ch.begin_broadcast(SimTime(0), NodeId(0), Some(Point::ORIGIN));
        let e = env(0, 1, Point::new(5.0, 0.0), Point::new(28.0, 0.0), &radio);
        assert_eq!(ch.link(&mut rng, &e), LinkOutcome::LOST);
        // the collision consumes no randomness: the next draw is the first
        let mut fresh = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn hidden_terminal_can_be_disabled() {
        let radio = UnitDisk::new(10.0);
        let mut ch = Contention::new(ContentionConfig {
            base_loss: 0.0,
            load_loss: 0.0,
            hidden_terminal: false,
            ..ContentionConfig::new(10.0)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        ch.begin_broadcast(SimTime(0), NodeId(7), Some(Point::new(35.0, 0.0)));
        ch.begin_broadcast(SimTime(0), NodeId(0), Some(Point::ORIGIN));
        let e = env(0, 1, Point::new(5.0, 0.0), Point::new(28.0, 0.0), &radio);
        assert!(ch.link(&mut rng, &e).received);
    }

    #[test]
    fn window_expires_old_transmissions() {
        let radio = UnitDisk::new(10.0);
        let mut ch = Contention::new(ContentionConfig {
            base_loss: 0.0,
            load_loss: 1.0,
            window: 100,
            hidden_terminal: false,
            ..ContentionConfig::new(10.0)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        ch.begin_broadcast(SimTime(0), NodeId(9), Some(Point::new(1.0, 0.0)));
        // within the window: the foreign transmitter saturates the medium
        ch.begin_broadcast(SimTime(50), NodeId(0), Some(Point::ORIGIN));
        assert_eq!(ch.window_len(), 2);
        let e = env(0, 1, Point::ORIGIN, Point::new(4.0, 0.0), &radio);
        assert!(!ch.link(&mut rng, &e).received);
        // 101 ticks later the entry has expired
        ch.begin_broadcast(SimTime(101), NodeId(0), Some(Point::ORIGIN));
        assert_eq!(ch.window_len(), 2, "own entries at 50 and 101 remain");
        let e = env(0, 1, Point::ORIGIN, Point::new(4.0, 0.0), &radio);
        assert!(ch.link(&mut rng, &e).received);
    }

    #[test]
    fn jitter_grows_with_distance_and_caps_at_range() {
        let radio = UnitDisk::new(10.0);
        let mut ch = Contention::new(ContentionConfig {
            base_loss: 0.0,
            jitter: 8,
            ..ContentionConfig::new(10.0)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        ch.begin_broadcast(SimTime(0), NodeId(0), Some(Point::ORIGIN));
        let near = ch
            .link(
                &mut rng,
                &env(0, 1, Point::ORIGIN, Point::new(2.5, 0.0), &radio),
            )
            .extra_delay;
        let far = ch
            .link(
                &mut rng,
                &env(0, 2, Point::ORIGIN, Point::new(10.0, 0.0), &radio),
            )
            .extra_delay;
        assert_eq!(near, 2, "8 · 2.5/10 = 2");
        assert_eq!(far, 8, "full jitter at the range edge");
    }

    #[test]
    fn contention_without_positions_drops() {
        let ch = quiet_contention(10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let e = LinkEnv {
            now: SimTime(0),
            sender: NodeId(0),
            receiver: NodeId(1),
            sender_pos: None,
            receiver_pos: None,
            radio: None,
            loss_probability: 0.0,
        };
        assert_eq!(ch.link(&mut rng, &e), LinkOutcome::LOST);
    }
}
