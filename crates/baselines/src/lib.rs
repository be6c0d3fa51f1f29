//! # baselines — comparator grouping algorithms
//!
//! The GRP paper positions the Dynamic Group Service against the classical
//! clustering literature: k-clustering / k-dominating-set algorithms build
//! groups *centred on a head node* and re-optimise the partition whenever
//! the topology changes, whereas GRP tries to keep existing groups alive as
//! long as the diameter bound allows. To reproduce that comparison the
//! experiments need concrete baselines that expose the same `view` interface
//! and run on the same simulator:
//!
//! * [`discovery`] — the shared k-hop neighbourhood-discovery substrate
//!   (distance vectors rebuilt from scratch every round);
//! * [`khop`] — min-id cluster-head k-clustering (in the spirit of the
//!   self-stabilizing k-clustering algorithms cited by the paper);
//! * [`maxmin`] — a simplified Max-Min d-cluster heuristic (Amis et al.):
//!   heads are locally maximal identifiers within `d` hops;
//! * [`ball`] — the naive "everyone within ⌊Dmax/2⌋ hops of me" pseudo-group
//!   an application would use without any membership service (maximal
//!   coverage, no agreement, no continuity).
//!
//! All baselines implement [`netsim::Protocol`] and
//! [`netsim::ViewProtocol`], so every experiment and metric
//! of the evaluation applies to them unchanged.

#![forbid(unsafe_code)]

pub mod ball;
pub mod discovery;
pub mod khop;
pub mod maxmin;

pub use ball::NeighborhoodBall;
pub use discovery::{Discovery, DiscoveryMessage};
pub use khop::KHopClustering;
pub use maxmin::MaxMinDCluster;
