//! # grp-core — best-effort group service for dynamic networks
//!
//! A faithful implementation of the **GRP** protocol from *Best-effort Group
//! Service in Dynamic Networks* (Ducourthial, Khalfallah, Petit — SPAA 2010,
//! arXiv:0810.3836): a self-stabilizing group-membership service for dynamic
//! ad hoc networks that
//!
//! * keeps every group **connected with diameter ≤ `Dmax`** (safety, ΠS),
//! * makes all members of a group eventually agree on its composition
//!   (agreement, ΠA),
//! * merges neighbouring groups whenever the diameter constraint allows it
//!   (maximality, ΠM),
//! * and — the paper's distinguishing contribution — offers a **best-effort
//!   continuity** guarantee: as long as a topology change keeps the members
//!   of a group within `Dmax` hops of each other (ΠT), *no node ever
//!   disappears from a view* (ΠC), even while the protocol is still
//!   converging.
//!
//! ## Crate layout
//!
//! * [`ancestor_list`] — ordered lists of ancestors' sets and the strictly
//!   idempotent `ant` r-operator (`ant(l1, l2) = l1 ⊕ r(l2)`);
//! * [`marks`] — the single/double mark technique used to detect symmetric
//!   links and cut incompatible neighbours;
//! * [`priority`] — totally-ordered node priorities ("oldness in the
//!   group") and group priorities;
//! * [`checks`] — the `goodList` and `compatibleList` tests (Prop. 13);
//! * [`node`] — the per-node state and the `compute()` procedure
//!   (Section 4.3);
//! * [`message`] — the broadcast message format (list + priorities);
//! * [`table`] — [`NodeTable`], the id-sorted flat table behind `msgSetv`,
//!   the priority tables and the quarantine counters;
//! * [`config`] — protocol parameters (`Dmax`, ablation switches);
//! * [`adapter`] — the [`netsim::Protocol`] implementation so GRP runs on
//!   the simulator;
//! * [`predicates`] — the specification predicates ΠA, ΠS, ΠM, ΠT, ΠC
//!   evaluated on global snapshots;
//! * [`stabilization`] — convergence detection (when does an execution reach
//!   a legitimate suffix?).
//!
//! ## Quickstart
//!
//! ```
//! use grp_core::{GrpConfig, GrpNode};
//! use grp_core::predicates::SystemSnapshot;
//! use netsim::{SimConfig, Simulator, TopologyMode};
//! use dyngraph::generators::path;
//! use dyngraph::NodeId;
//!
//! // Four nodes on a line, groups bounded by Dmax = 3: the whole line fits
//! // in a single group.
//! let topology = path(4);
//! let config = GrpConfig::new(3);
//! let mut sim = Simulator::new(SimConfig::rounds(1), TopologyMode::Explicit(topology.clone()));
//! sim.add_nodes((0..4).map(|i| GrpNode::new(NodeId(i), config.clone())));
//!
//! sim.run_rounds(40);
//!
//! let snapshot = SystemSnapshot::from_simulator(&sim);
//! assert!(snapshot.agreement());
//! assert!(snapshot.safety(3));
//! assert!(snapshot.maximality(3));
//! assert_eq!(snapshot.group_count(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod adapter;
pub mod ancestor_list;
pub mod checks;
pub mod config;
pub mod marks;
pub mod message;
pub mod node;
pub mod observers;
pub mod predicates;
pub mod priority;
pub mod stabilization;
pub mod table;

pub use ancestor_list::AncestorList;
pub use checks::{compatible_list, good_list};
pub use config::GrpConfig;
pub use marks::Mark;
pub use message::{GrpMessage, PriorityInfo};
pub use node::GrpNode;
pub use observers::{
    ContinuityProbe, ContinuityStats, ConvergenceProbe, FaultRecovery, GrpPipeline, RecordedRound,
    ResilienceProbe, ResilienceStats, SnapshotRecorder, RECOVERY_BUCKETS,
};
pub use predicates::{OmegaPartition, SystemSnapshot};
pub use priority::Priority;
pub use stabilization::ConvergenceDetector;
pub use table::NodeTable;
