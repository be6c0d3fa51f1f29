//! Every symbol the benchmark takes from `crates/` is named here and only
//! here: this file is the surface a later PR must keep (or shim) for the
//! benchmark to go on compiling unchanged. `README.md` lists it in prose.
//!
//! Deliberately absent: any `SimConfig` field, the RNG-regime and
//! per-node-stream types, the spatial grid's sync entry point, the mobility
//! `advance*` methods, the calendar queue and its events — the one-engine
//! and dense-arena items are about to delete or reshape all of them.

// scenarios: manifest in -> result.json out
pub use scenarios::runner::RunOutcome;
pub use scenarios::{
    build_simulator, drive_manifest, grp_config_of, run_seed, stream_scenario, ResultWriter,
    RunMode, ScenarioManifest,
};

// engine (one span from outside) and its observer hook
pub use netsim::{Observer, ScheduledFault, SimTime, Simulator};

// channel
pub use netsim::radio::UnitDisk;
pub use netsim::{Bernoulli, ChannelModel, Contention, ContentionConfig, LinkEnv, Point};

// protocol
pub use dyngraph::{Graph, NodeId};
pub use grp_core::GrpNode;
pub use netsim::Protocol;

// observers
pub use grp_core::observers::GrpPipeline;

// digest
pub use netsim::digest::Sha256;
pub use netsim::{CanonicalHasher, TraceDigest};

// the RNG type `ChannelModel::link` takes, and the calibration kernel's stream
pub use rand::{Rng, RngCore, SeedableRng};
pub use rand_chacha::ChaCha8Rng;
