//! # netsim — discrete-event wireless network simulator
//!
//! This crate is the substrate on which the GRP reproduction runs its
//! distributed protocol. It implements the system model of Section 2 of
//! *Best-effort Group Service in Dynamic Networks*:
//!
//! * nodes spread in a Euclidean space, active or inactive, each with a
//!   processor and a communication device ([`node`], [`space`]);
//! * a **vicinity**-based radio model — a node hears another when it lies in
//!   its vicinity — with optional message loss ([`radio`]);
//! * timer-driven message sending with the fair-channel hypothesis: a node
//!   sends every `τ2` and every neighbour hears it at least once per `τ1`
//!   ([`sim`], [`SimConfig`]);
//! * mobility models producing dynamic topologies ([`mobility`]);
//! * transient-fault injection (node crash/restart, state corruption,
//!   message loss bursts) used by the self-stabilization experiments
//!   ([`fault`]);
//! * a per-round trace of topologies and message statistics ([`trace`]).
//!
//! Protocols are plugged in through the [`protocol::Protocol`] trait: GRP and
//! the baseline algorithms all implement it, so every experiment runs the
//! same simulation loop. Protocols that expose a group view additionally
//! implement [`protocol::ViewProtocol`], the capability the generic
//! observer probes read.
//!
//! A simulator is assembled with [`Simulator::new`](sim::Simulator::new)
//! (configuration and topology mode), then
//! [`set_channel`](sim::Simulator::set_channel),
//! [`add_nodes`](sim::Simulator::add_nodes) and
//! [`schedule_faults`](sim::Simulator::schedule_faults), and instrumented
//! streaming through the [`observer`] pipeline —
//! [`Simulator::run_rounds_observed`](sim::Simulator::run_rounds_observed)
//! drives the single event loop and notifies [`observer::Observer`] hooks
//! inline, so harnesses never hand-roll capture loops (see
//! `docs/ARCHITECTURE.md` at the workspace root).
//!
//! The simulator is fully deterministic for a given seed: the event queue is
//! a calendar of `(time, sequence number)`-ordered buckets, and all
//! randomness flows from `ChaCha8` streams derived from the run seed — one
//! independently-seeded stream per `(node, purpose)` ([`rng`]), so no
//! node's draws depend on when, or after whom, the engine reaches it. One
//! simulation runs on one thread. Observers — which get `&Simulator`
//! only — cannot perturb the trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod channel;
pub mod digest;
pub mod event;
pub mod fault;
pub mod mobility;
pub mod node;
pub mod observer;
pub mod protocol;
pub mod radio;
pub mod rng;
pub mod sim;
pub mod space;
pub mod time;
pub mod trace;

pub use arena::{PositionTable, Positions};
pub use channel::{Bernoulli, ChannelModel, Contention, ContentionConfig, LinkEnv, LinkOutcome};
pub use digest::{CanonicalHasher, NodeSetDigest, TraceDigest};
pub use event::{Event, EventKind};
pub use fault::{FaultKind, Region, ScheduledFault};
pub use mobility::MobilityModel;
pub use node::SimNode;
pub use observer::{NullObserver, Observer, StatsProbe, TraceProbe};
pub use protocol::{CanonicalState, Protocol, ViewProtocol};
pub use radio::RadioModel;
pub use rng::{stream_seed, NodeStreams, StreamTag};
pub use sim::{SimConfig, Simulator, TopologyMode};
pub use space::Point;
pub use time::SimTime;
pub use trace::{MessageStats, Trace};
