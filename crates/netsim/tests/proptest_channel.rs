//! Property tests for the contention channel.
//!
//! The load-driven loss probability `min(base + load · k, max)` is monotone
//! non-decreasing in the number of concurrent broadcasters `k`, and
//! `gen_bool(p)` spends exactly one RNG draw — so for *identically seeded*
//! RNGs, a link that survives under `m + 1` recorded transmitters must also
//! survive under the first `m` of them. That pointwise implication is exact
//! (no statistical tolerance needed) and covers the hidden-terminal rule
//! too: adding a transmitter can only switch `hidden` on, never off.
//!
//! The cell-bucketed counts are also pinned against [`WindowWalk`], which
//! keeps the window as a plain list and walks all of it per link.

use dyngraph::NodeId;
use netsim::channel::{ChannelModel, Contention, ContentionConfig, LinkEnv, LinkOutcome};
use netsim::radio::UnitDisk;
use netsim::{Point, SimTime};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const RANGE: f64 = 20.0;

/// Deliver one link with the first `m` of `txs` recorded as concurrent
/// transmitters, using a fresh RNG seeded with `seed`.
fn deliver(
    cfg: ContentionConfig,
    txs: &[(f64, f64)],
    m: usize,
    sender: Point,
    receiver: Point,
    seed: u64,
) -> (bool, u64) {
    let radio = UnitDisk::new(RANGE);
    let mut ch = Contention::new(cfg);
    for (i, &(x, y)) in txs[..m].iter().enumerate() {
        ch.begin_broadcast(SimTime(0), NodeId(100 + i as u64), Some(Point::new(x, y)));
    }
    ch.begin_broadcast(SimTime(0), NodeId(0), Some(sender));
    let env = LinkEnv {
        now: SimTime(0),
        sender: NodeId(0),
        receiver: NodeId(1),
        sender_pos: Some(sender),
        receiver_pos: Some(receiver),
        radio: Some(&radio),
        loss_probability: 0.0,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let outcome = ch.link(&mut rng, &env);
    (outcome.received, outcome.extra_delay)
}

/// The contention channel with its window kept as a list of
/// `(at, sender, cell)` and walked in full by every link decision: the
/// reference the cell-bucketed counts of [`Contention`] must reproduce,
/// outcome for outcome and RNG draw for RNG draw.
struct WindowWalk {
    cfg: ContentionConfig,
    window: Vec<(SimTime, NodeId, (i64, i64))>,
}

impl WindowWalk {
    fn cell(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cfg.range).floor() as i64,
            (p.y / self.cfg.range).floor() as i64,
        )
    }

    fn begin_broadcast(&mut self, now: SimTime, sender: NodeId, pos: Point) {
        let expired = self
            .window
            .iter()
            .take_while(|&&(at, _, _)| now.ticks().saturating_sub(at.ticks()) > self.cfg.window)
            .count();
        self.window.drain(..expired);
        self.window.push((now, sender, self.cell(pos)));
    }

    fn link(&self, rng: &mut ChaCha8Rng, env: &LinkEnv<'_>) -> LinkOutcome {
        let (Some(ps), Some(pr)) = (env.sender_pos, env.receiver_pos) else {
            return LinkOutcome::LOST;
        };
        let (scell, rcell) = (self.cell(ps), self.cell(pr));
        let near = |a: (i64, i64), b: (i64, i64)| (a.0 - b.0).abs() <= 1 && (a.1 - b.1).abs() <= 1;
        let mut load = 0u32;
        let mut hidden = false;
        for &(_, sender, cell) in &self.window {
            if sender != env.sender && near(cell, rcell) {
                load += 1;
                hidden |= !near(cell, scell);
            }
        }
        if self.cfg.hidden_terminal && hidden {
            return LinkOutcome::LOST;
        }
        let p = (self.cfg.base_loss + self.cfg.load_loss * f64::from(load))
            .min(self.cfg.max_loss)
            .clamp(0.0, 1.0);
        if p > 0.0 && rng.gen_bool(p) {
            return LinkOutcome::LOST;
        }
        let frac = (ps.distance(&pr) / self.cfg.range).min(1.0);
        LinkOutcome {
            received: true,
            extra_delay: (self.cfg.jitter as f64 * frac).floor() as u64,
        }
    }
}

/// One scheduled broadcast: ticks since the previous one, sender id,
/// sender position and the receivers' offsets from the sender.
type Broadcast = (u64, u64, f64, f64, Vec<(f64, f64)>);

fn arb_schedule() -> impl Strategy<Value = Vec<Broadcast>> {
    proptest::collection::vec(
        (
            0u64..5,
            0u64..5,
            -60.0f64..60.0,
            -60.0f64..60.0,
            proptest::collection::vec((-45.0f64..45.0, -45.0f64..45.0), 1..4),
        ),
        1..41,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bucketed window equals walking the whole window. Schedules reuse
    /// five senders at fresh positions (a sender changes cell inside one
    /// window), cross negative coordinates, repeat instants (`dt = 0`) and
    /// land on the inclusive expiry boundary (`dt` and `window` share a
    /// small range).
    #[test]
    fn bucketed_window_matches_window_walk(
        schedule in arb_schedule(),
        window in 0u64..8,
        base_loss in 0.0f64..0.3,
        load_loss in 0.0f64..0.3,
        hidden_sel in 0u64..2,
        jitter in 0u64..6,
        seed in 0u64..10_000,
    ) {
        let cfg = ContentionConfig {
            base_loss,
            load_loss,
            max_loss: 0.9,
            window,
            jitter,
            hidden_terminal: hidden_sel == 1,
            ..ContentionConfig::new(RANGE)
        };
        let radio = UnitDisk::new(RANGE);
        let mut bucketed = Contention::new(cfg);
        let mut walked = WindowWalk { cfg, window: Vec::new() };
        let mut rng_bucketed = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_walked = ChaCha8Rng::seed_from_u64(seed);
        let mut now = 0u64;
        for (dt, sender, x, y, receivers) in schedule {
            now += dt;
            let sender = NodeId(sender);
            let sender_pos = Point::new(x, y);
            bucketed.begin_broadcast(SimTime(now), sender, Some(sender_pos));
            walked.begin_broadcast(SimTime(now), sender, sender_pos);
            prop_assert_eq!(bucketed.window_len(), walked.window.len());
            for (i, (ox, oy)) in receivers.into_iter().enumerate() {
                let env = LinkEnv {
                    now: SimTime(now),
                    sender,
                    receiver: NodeId(10 + i as u64),
                    sender_pos: Some(sender_pos),
                    receiver_pos: Some(Point::new(x + ox, y + oy)),
                    radio: Some(&radio),
                    loss_probability: 0.0,
                };
                prop_assert_eq!(
                    bucketed.link(&mut rng_bucketed, &env),
                    walked.link(&mut rng_walked, &env)
                );
                prop_assert_eq!(
                    rng_bucketed.clone().next_u64(),
                    rng_walked.clone().next_u64(),
                    "the two channels drew differently"
                );
            }
        }
    }

    /// Loss is monotone non-decreasing in the concurrent-broadcaster count:
    /// against the same RNG seed, reception never *revives* when another
    /// transmitter joins the window.
    #[test]
    fn reception_is_monotone_in_broadcaster_count(
        txs in proptest::collection::vec((0.0f64..120.0, 0.0f64..120.0), 0..20),
        sx in 0.0f64..120.0,
        sy in 0.0f64..120.0,
        dx in -18.0f64..18.0,
        dy in -18.0f64..18.0,
        base_loss in 0.0f64..0.4,
        load_loss in 0.0f64..0.4,
        hidden_sel in 0u64..2,
        jitter in 0u64..10,
        seed in 0u64..10_000,
    ) {
        let hidden_terminal = hidden_sel == 1;
        let cfg = ContentionConfig {
            base_loss,
            load_loss,
            hidden_terminal,
            jitter,
            ..ContentionConfig::new(RANGE)
        };
        let sender = Point::new(sx, sy);
        let receiver = Point::new(sx + dx, sy + dy);
        let outcomes: Vec<bool> = (0..=txs.len())
            .map(|m| deliver(cfg, &txs, m, sender, receiver, seed).0)
            .collect();
        for (m, pair) in outcomes.windows(2).enumerate() {
            prop_assert!(
                pair[1] <= pair[0],
                "adding transmitter #{} revived a lost link: {:?}",
                m + 1,
                outcomes
            );
        }
    }

    /// The distance-dependent jitter never exceeds its configured maximum,
    /// is zero when disabled, and the whole link decision is a pure
    /// function of (window state, seed): same inputs, same outcome.
    #[test]
    fn jitter_is_bounded_and_links_are_deterministic(
        txs in proptest::collection::vec((0.0f64..120.0, 0.0f64..120.0), 0..12),
        sx in 0.0f64..120.0,
        sy in 0.0f64..120.0,
        dx in -18.0f64..18.0,
        dy in -18.0f64..18.0,
        jitter in 0u64..30,
        seed in 0u64..10_000,
    ) {
        let cfg = ContentionConfig {
            jitter,
            ..ContentionConfig::new(RANGE)
        };
        let sender = Point::new(sx, sy);
        let receiver = Point::new(sx + dx, sy + dy);
        let m = txs.len();
        let first = deliver(cfg, &txs, m, sender, receiver, seed);
        let second = deliver(cfg, &txs, m, sender, receiver, seed);
        prop_assert_eq!(first, second, "same window + seed must reproduce");
        let (received, extra_delay) = first;
        if received {
            prop_assert!(extra_delay <= jitter, "delay {} > jitter cap {}", extra_delay, jitter);
            if jitter == 0 {
                prop_assert_eq!(extra_delay, 0);
            }
        }
    }
}
