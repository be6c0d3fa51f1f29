//! Workspace umbrella crate for the GRP reproduction.
//!
//! The actual functionality lives in the member crates; this package exists
//! to own the cross-crate integration tests under `tests/` and the runnable
//! examples under `examples/`. Re-exports are provided so the examples and
//! docs can use one import root when convenient.

#![forbid(unsafe_code)]

pub use baselines;
pub use dyngraph;
pub use experiments;
pub use grp_core;
pub use netsim;
pub use scenarios;
