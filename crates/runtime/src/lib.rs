//! # grp-runtime — running GRP over real threads and unreliable channels
//!
//! The GRP algorithm is "designed for unreliable message passing systems";
//! the simulator of `netsim` is convenient for experiments, but this crate
//! demonstrates the protocol in the deployment shape the paper targets: one
//! OS thread per node, wall-clock `τ2`/`τ1` timers, and lossy point-to-point
//! channels (`std::sync::mpsc`) standing in for the wireless medium. The
//! topology is shared behind a lock so a test (or an operator) can add and
//! remove links while the cluster is running and watch the views adapt.
//!
//! ```no_run
//! use grp_runtime::{Cluster, ClusterConfig};
//! use dyngraph::generators::path;
//! use std::time::Duration;
//!
//! let cluster = Cluster::start(path(4), ClusterConfig::default());
//! std::thread::sleep(Duration::from_millis(500));
//! println!("views: {:?}", cluster.views());
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod link;

pub use cluster::{Cluster, ClusterConfig};
pub use link::LinkQuality;
