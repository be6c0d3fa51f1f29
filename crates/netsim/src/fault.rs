//! Transient-fault injection.
//!
//! Self-stabilization is about recovering from *transient failures that may
//! affect a memory or a message* (Section 1). [`ScheduledFault`]s handed to
//! [`Simulator::schedule_faults`](crate::Simulator::schedule_faults) let an
//! experiment schedule exactly those failures: corrupting a node's local
//! state, corrupting an in-flight message, crashing and restarting nodes
//! (which also models nodes leaving and re-joining), bursts of message loss
//! — global, spatially correlated, or along a membership cut.
//!
//! Determinism contract (docs/FAULTS.md): a fault that blocks links
//! ([`FaultKind::LossBurst`], [`FaultKind::Partition`],
//! [`FaultKind::RegionBlackout`]) gates the link *before* the channel model
//! is consulted, so blocked links consume **no** randomness and a manifest
//! without these faults draws the exact same RNG stream as before they
//! existed. Faults that need randomness ([`FaultKind::CorruptState`],
//! [`FaultKind::CorruptMessage`]) draw from the victim node's own `fault`
//! stream under per-node seeding, so they never perturb any other node's
//! draws.

use crate::time::SimTime;
use dyngraph::NodeId;
use std::fmt;
use std::str::FromStr;

/// An axis-aligned rectangle in the mobility plane, used by
/// [`FaultKind::RegionBlackout`] to describe the blacked-out area (the
/// VANET tunnel). Bounds are inclusive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    /// Left edge.
    pub min_x: f64,
    /// Bottom edge.
    pub min_y: f64,
    /// Right edge.
    pub max_x: f64,
    /// Top edge.
    pub max_y: f64,
}

impl Region {
    /// Does the region contain the point `(x, y)`? Bounds are inclusive on
    /// all four edges.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }
}

/// The kinds of transient faults the simulator can inject.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Overwrite part of the node's protocol state with arbitrary values
    /// (delegated to [`crate::Protocol::corrupt_state`]).
    CorruptState(NodeId),
    /// Flip a queued in-flight payload sent by the node (delegated to
    /// [`crate::Protocol::corrupt_message`]) — the paper's "message" half
    /// of transient faults. Applies to every broadcast sweep of the node
    /// still sitting in the event queue when the fault fires; a no-op when
    /// none is in flight.
    CorruptMessage(NodeId),
    /// Deactivate the node: it stops computing, sending and receiving.
    Crash(NodeId),
    /// Reactivate a crashed node with a fresh (reset) protocol state.
    Restart(NodeId),
    /// Reactivate a crashed node *resuming its pre-crash state* — the
    /// harder recovery mode: the node re-enters the network believing a
    /// topology and group membership that may no longer exist.
    RestartStale(NodeId),
    /// Drop every message delivery scheduled during the next `duration`
    /// ticks (a radio blackout).
    LossBurst {
        /// Blackout length in ticks.
        duration: u64,
    },
    /// Cut every link between the listed membership groups until a
    /// [`FaultKind::Heal`]. Nodes in different groups cannot hear each
    /// other; nodes absent from every group form one implicit residual
    /// group (connected among themselves, cut off from every listed
    /// group). Composable with any channel model: the cut happens before
    /// the channel is consulted, consuming no randomness.
    Partition {
        /// The membership sets to isolate from each other.
        groups: Vec<Vec<NodeId>>,
    },
    /// Remove the active [`FaultKind::Partition`], restoring all links.
    Heal,
    /// Spatially correlated loss: every link whose sender *or* receiver
    /// stands inside `region` is cut for the next `duration` ticks
    /// (spatial mode only — nodes without positions are never inside any
    /// region).
    RegionBlackout {
        /// The blacked-out area.
        region: Region,
        /// Blackout length in ticks.
        duration: u64,
    },
}

impl fmt::Display for FaultKind {
    /// The textual form used by campaign files (docs/FAULTS.md) and the
    /// resilience report: `<kind> <args…>`, kind names matching the
    /// manifest `[[faults]]` keys. [`FaultKind::from_str`] parses it back
    /// (`Display` → `FromStr` round-trips exactly).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::CorruptState(n) => write!(f, "corrupt {}", n.raw()),
            FaultKind::CorruptMessage(n) => write!(f, "corrupt_message {}", n.raw()),
            FaultKind::Crash(n) => write!(f, "crash {}", n.raw()),
            FaultKind::Restart(n) => write!(f, "restart {}", n.raw()),
            FaultKind::RestartStale(n) => write!(f, "restart_stale {}", n.raw()),
            FaultKind::LossBurst { duration } => write!(f, "loss_burst {duration}"),
            FaultKind::Partition { groups } => {
                write!(f, "partition ")?;
                for (i, group) in groups.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    for (j, node) in group.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", node.raw())?;
                    }
                }
                Ok(())
            }
            FaultKind::Heal => write!(f, "heal"),
            FaultKind::RegionBlackout { region, duration } => write!(
                f,
                "region_blackout {} {} {} {} {duration}",
                region.min_x, region.min_y, region.max_x, region.max_y
            ),
        }
    }
}

impl FromStr for FaultKind {
    type Err = String;

    /// Parse the campaign-file form produced by `Display`.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut words = s.split_whitespace();
        let kind = words.next().ok_or_else(|| "empty fault".to_string())?;
        let rest: Vec<&str> = words.collect();
        let one_node = |rest: &[&str]| -> Result<NodeId, String> {
            match rest {
                [id] => id
                    .parse::<u64>()
                    .map(NodeId)
                    .map_err(|_| format!("`{kind}`: bad node id `{id}`")),
                _ => Err(format!("`{kind}` takes exactly one node id")),
            }
        };
        let one_u64 = |rest: &[&str], what: &str| -> Result<u64, String> {
            match rest {
                [n] => n
                    .parse::<u64>()
                    .map_err(|_| format!("`{kind}`: bad {what} `{n}`")),
                _ => Err(format!("`{kind}` takes exactly one {what}")),
            }
        };
        match kind {
            "corrupt" => Ok(FaultKind::CorruptState(one_node(&rest)?)),
            "corrupt_message" => Ok(FaultKind::CorruptMessage(one_node(&rest)?)),
            "crash" => Ok(FaultKind::Crash(one_node(&rest)?)),
            "restart" => Ok(FaultKind::Restart(one_node(&rest)?)),
            "restart_stale" => Ok(FaultKind::RestartStale(one_node(&rest)?)),
            "loss_burst" => Ok(FaultKind::LossBurst {
                duration: one_u64(&rest, "duration")?,
            }),
            "heal" => {
                if rest.is_empty() {
                    Ok(FaultKind::Heal)
                } else {
                    Err("`heal` takes no arguments".to_string())
                }
            }
            "partition" => {
                let spec = rest.join("");
                let mut groups = Vec::new();
                for group in spec.split('|') {
                    let mut members = Vec::new();
                    for id in group.split(',').filter(|t| !t.is_empty()) {
                        members.push(NodeId(
                            id.parse::<u64>()
                                .map_err(|_| format!("`partition`: bad node id `{id}`"))?,
                        ));
                    }
                    groups.push(members);
                }
                Ok(FaultKind::Partition { groups })
            }
            "region_blackout" => match rest.as_slice() {
                [min_x, min_y, max_x, max_y, duration] => {
                    let coord = |t: &str| -> Result<f64, String> {
                        t.parse::<f64>()
                            .map_err(|_| format!("`region_blackout`: bad coordinate `{t}`"))
                    };
                    Ok(FaultKind::RegionBlackout {
                        region: Region {
                            min_x: coord(min_x)?,
                            min_y: coord(min_y)?,
                            max_x: coord(max_x)?,
                            max_y: coord(max_y)?,
                        },
                        duration: duration
                            .parse::<u64>()
                            .map_err(|_| format!("`region_blackout`: bad duration `{duration}`"))?,
                    })
                }
                _ => Err("`region_blackout` takes `min_x min_y max_x max_y duration`".to_string()),
            },
            other => Err(format!("unknown fault kind `{other}`")),
        }
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledFault {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl ScheduledFault {
    /// Schedule `kind` at absolute time `at`.
    pub fn new(at: SimTime, kind: FaultKind) -> Self {
        ScheduledFault { at, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::test_support::Flood;
    use crate::{Observer, SimConfig, Simulator, TopologyMode};
    use dyngraph::generators::path;

    /// Hand `faults` to `Simulator::schedule_faults` on a 3-node path and
    /// return them in the order `Observer::on_fault` sees them fire.
    fn fired_order(faults: Vec<ScheduledFault>) -> Vec<ScheduledFault> {
        struct Fired(Vec<ScheduledFault>);
        impl Observer<Flood> for Fired {
            fn on_fault(&mut self, fault: &ScheduledFault, _sim: &Simulator<Flood>) {
                self.0.push(fault.clone());
            }
        }
        let mut sim = Simulator::new(
            SimConfig {
                seed: 10,
                ..Default::default()
            },
            TopologyMode::Explicit(path(3)),
        );
        sim.add_nodes((0..3).map(|i| Flood::new(NodeId(i))));
        let end = faults.iter().map(|f| f.at.0).max().unwrap_or(0) + 1_000;
        sim.schedule_faults(faults);
        let mut fired = Fired(Vec::new());
        sim.run_until_observed(SimTime(end), &mut fired);
        fired.0
    }

    fn at(t: u64, kind: FaultKind) -> ScheduledFault {
        ScheduledFault::new(SimTime(t), kind)
    }

    /// Faults handed over in any time order fire in time order.
    #[test]
    fn plan_is_kept_sorted() {
        let fired = fired_order(vec![
            at(3_000, FaultKind::Restart(NodeId(1))),
            at(500, FaultKind::CorruptState(NodeId(0))),
            at(2_000, FaultKind::Crash(NodeId(1))),
            at(1_000, FaultKind::LossBurst { duration: 200 }),
        ]);
        let times: Vec<u64> = fired.iter().map(|f| f.at.0).collect();
        assert_eq!(times, vec![500, 1_000, 2_000, 3_000]);
    }

    /// Same-instant faults fire in the order given, wherever they sit in an
    /// unsorted input. The engine's same-instant order feeds the pinned
    /// digests.
    #[test]
    fn same_instant_faults_keep_insertion_order() {
        let fired = fired_order(vec![
            at(2_000, FaultKind::Crash(NodeId(1))),
            at(1_000, FaultKind::CorruptState(NodeId(0))),
            at(2_000, FaultKind::CorruptMessage(NodeId(2))),
            at(3_000, FaultKind::Restart(NodeId(1))),
            at(2_000, FaultKind::Heal),
        ]);
        assert_eq!(
            fired,
            vec![
                at(1_000, FaultKind::CorruptState(NodeId(0))),
                at(2_000, FaultKind::Crash(NodeId(1))),
                at(2_000, FaultKind::CorruptMessage(NodeId(2))),
                at(2_000, FaultKind::Heal),
                at(3_000, FaultKind::Restart(NodeId(1))),
            ]
        );
    }

    #[test]
    fn display_and_from_str_round_trip_every_kind() {
        let kinds = vec![
            FaultKind::CorruptState(NodeId(3)),
            FaultKind::CorruptMessage(NodeId(4)),
            FaultKind::Crash(NodeId(5)),
            FaultKind::Restart(NodeId(5)),
            FaultKind::RestartStale(NodeId(6)),
            FaultKind::LossBurst { duration: 500 },
            FaultKind::Partition {
                groups: vec![
                    vec![NodeId(0), NodeId(1)],
                    vec![NodeId(2)],
                    vec![NodeId(3), NodeId(4)],
                ],
            },
            FaultKind::Heal,
            FaultKind::RegionBlackout {
                region: Region {
                    min_x: 0.5,
                    min_y: -1.25,
                    max_x: 100.0,
                    max_y: 20.0,
                },
                duration: 3_000,
            },
        ];
        for kind in kinds {
            let line = kind.to_string();
            let parsed: FaultKind = line.parse().unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(parsed, kind, "round-trip through `{line}`");
        }
    }

    #[test]
    fn from_str_rejects_malformed_lines() {
        for bad in [
            "",
            "warp 3",
            "crash",
            "crash x",
            "crash 1 2",
            "heal now",
            "loss_burst",
            "region_blackout 1 2 3",
        ] {
            assert!(bad.parse::<FaultKind>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn region_contains_is_inclusive_on_all_edges() {
        let r = Region {
            min_x: 0.0,
            min_y: 10.0,
            max_x: 100.0,
            max_y: 20.0,
        };
        assert!(r.contains(0.0, 10.0));
        assert!(r.contains(100.0, 20.0));
        assert!(r.contains(50.0, 15.0));
        assert!(!r.contains(-0.1, 15.0));
        assert!(!r.contains(50.0, 20.1));
    }
}
