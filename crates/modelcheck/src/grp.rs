//! GRP-specific glue: legitimacy as the goal predicate, deterministic
//! warm-up to a legitimate configuration, the one corruption runner the
//! `modelcheck` scenario mode drives (0, 1 or 2 victims per case), and the
//! synchronous-schedule lasso finder that pins the documented view
//! oscillation and finds the warm-up's fixpoint.

use crate::explore::{explore, Checker, ExploreConfig, Report};
use crate::state::{Choice, McNet};
use dyngraph::{Graph, NodeId};
use grp_core::predicates::SystemSnapshot;
use grp_core::{GrpConfig, GrpNode};
use netsim::{CanonicalHasher, CanonicalState, TraceDigest};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

/// Goal predicate for GRP: the alive nodes' views form a legitimate
/// configuration — agreement (ΠA), safety (ΠS) and maximality (ΠM) all
/// hold over the full communication topology.
///
/// Legitimacy depends only on the views, and vastly more explorer states
/// exist than view configurations (states also differ in lists, message
/// sets and channels), so verdicts are memoized by a views-only digest —
/// that cache is what keeps the goal check off the exploration's critical
/// path.
pub struct GrpChecker {
    pub dmax: usize,
    verdicts: RefCell<HashMap<[u8; 32], bool>>,
}

impl GrpChecker {
    pub fn new(dmax: usize) -> Self {
        GrpChecker {
            dmax,
            verdicts: RefCell::new(HashMap::new()),
        }
    }
}

impl Checker<GrpNode> for GrpChecker {
    fn goal(&self, net: &McNet<GrpNode>) -> bool {
        let mut hasher = CanonicalHasher::new();
        hasher.begin_list("grp-views");
        for (&id, node) in &net.nodes {
            if net.is_alive(id) {
                hasher.feed_u64(id.raw());
                hasher.feed_node_set(node.view().iter().copied());
            }
        }
        hasher.end_list();
        let key = hasher.finalize().0;
        if let Some(&verdict) = self.verdicts.borrow().get(&key) {
            return verdict;
        }
        let verdict = snapshot_of(net).legitimate(self.dmax);
        self.verdicts.borrow_mut().insert(key, verdict);
        verdict
    }
}

/// The global snapshot the predicates evaluate: alive nodes' views over
/// the full topology (crashed nodes are absent, mirroring how the
/// simulator's snapshot capture treats inactive nodes).
pub fn snapshot_of(net: &McNet<GrpNode>) -> SystemSnapshot {
    let views: BTreeMap<_, _> = net
        .nodes
        .iter()
        .filter(|(&id, _)| net.is_alive(id))
        .map(|(&id, node)| (id, node.view().clone()))
        .collect();
    SystemSnapshot::new(net.topology.clone(), views)
}

/// A network of freshly-booted GRP nodes, one per topology node.
pub fn fresh_net(topology: Graph, config: &GrpConfig) -> McNet<GrpNode> {
    let nodes: Vec<GrpNode> = topology
        .node_vec()
        .into_iter()
        .map(|id| GrpNode::new(id, config.clone()))
        .collect();
    McNet::new(topology, nodes)
}

/// Deliver every pending message in canonical channel order, again and
/// again until no channel holds one, and return the choices applied —
/// the delivery half of [`synchronous_round`].
pub fn drain<P: CanonicalState>(net: &mut McNet<P>) -> Vec<Choice> {
    let mut applied = Vec::new();
    loop {
        let pending: Vec<(NodeId, NodeId)> = net.channels.keys().copied().collect();
        if pending.is_empty() {
            return applied;
        }
        for (from, to) in pending {
            let choice = Choice::Deliver { from, to };
            net.apply(choice);
            applied.push(choice);
        }
    }
}

/// Append one fully synchronous round to `net`: [`drain`] it, then run
/// every alive node's compute step (ascending id). In this schedule each
/// compute consumes exactly the previous round's broadcasts — the regime
/// of the simulator's lockstep tests, and the regime in which the
/// documented boundary oscillation lives. Returns the choices applied.
pub fn synchronous_round(net: &mut McNet<GrpNode>) -> Vec<Choice> {
    let mut applied = drain(net);
    let order: Vec<NodeId> = net
        .nodes
        .keys()
        .copied()
        .filter(|&id| net.is_alive(id))
        .collect();
    for node in order {
        let choice = Choice::Compute { node };
        net.apply(choice);
        applied.push(choice);
    }
    applied
}

/// Drive a fresh network with synchronous rounds ([`find_synchronous_lasso`])
/// until its drained configuration repeats. The warm-up succeeds when it
/// repeats after one round (a fixpoint) and is legitimate; the returned
/// configuration is that drained, quiescent fixpoint. Otherwise — a cycle,
/// an illegitimate fixpoint, or no repeat within `max_rounds` — the
/// topology/`dmax` combination is unsuitable for a model check, and this
/// errors.
pub fn legitimate_start(
    topology: Graph,
    config: &GrpConfig,
    max_rounds: usize,
) -> Result<McNet<GrpNode>, String> {
    let legitimate = |net: &McNet<GrpNode>| snapshot_of(net).legitimate(config.dmax);
    find_synchronous_lasso(&fresh_net(topology, config), max_rounds)
        .filter(|lasso| lasso.period_rounds == 1 && legitimate(&lasso.entry))
        .map(|lasso| lasso.entry)
        .ok_or_else(|| {
            format!("no stable legitimate configuration within {max_rounds} synchronous rounds")
        })
}

/// One corruption case: the corrupted nodes (ascending), the catalogue
/// variant each one got, and what the explorer concluded. No victims is
/// the legitimate base itself.
pub struct CorruptionCase {
    pub victims: Vec<(NodeId, String)>,
    pub report: Report,
}

/// Run the explorer once per case: every `victims`-node subset of `base`'s
/// nodes, in ascending lexicographic order, and within a subset every
/// combination of the victims' variants from
/// [`GrpNode::enumerate_corruptions`], the first victim's variant
/// outermost. All of a case's corrupted states are installed at once
/// before exploration starts — for two victims, the adversarial analogue
/// of two independent transient faults landing in the same instant. So
/// `victims = 0` explores `base` alone, 1 the single-node catalogue and 2
/// the pair catalogue. `base` is normally the output of
/// [`legitimate_start`]; both orders are deterministic, so the sequence of
/// reports is too. The case count grows as nodes^victims times the
/// catalogue size^victims — meant for the small topologies the
/// `modelcheck` scenario mode explores.
pub fn check_corruptions(
    base: &McNet<GrpNode>,
    checker: &GrpChecker,
    config: &ExploreConfig,
    victims: usize,
) -> Vec<CorruptionCase> {
    let universe: Vec<NodeId> = base.nodes.keys().copied().collect();
    let subsets = lexicographic(victims, |set: &[NodeId]| {
        let after = |id: &&NodeId| set.last().is_none_or(|last| *id > last);
        universe.iter().filter(after).copied().collect()
    });
    let mut cases = Vec::new();
    for set in subsets {
        let catalogues: Vec<Vec<(String, GrpNode)>> = set
            .iter()
            .map(|id| base.nodes[id].enumerate_corruptions(&universe))
            .collect();
        let combos = lexicographic(set.len(), |prefix| {
            catalogues[prefix.len()].iter().collect()
        });
        for combo in combos {
            let mut net = base.clone();
            let mut named = Vec::new();
            for (&id, (variant, corrupted)) in set.iter().zip(combo) {
                net.nodes.insert(id, corrupted.clone());
                named.push((id, variant.clone()));
            }
            let report = explore(&net, checker, config);
            cases.push(CorruptionCase {
                victims: named,
                report,
            });
        }
    }
    cases
}

/// Every `len`-item sequence whose item at each position is one of
/// `options(prefix)`, in lexicographic order of the option lists.
fn lexicographic<T: Clone>(len: usize, options: impl Fn(&[T]) -> Vec<T>) -> Vec<Vec<T>> {
    let mut sequences = vec![Vec::new()];
    for _ in 0..len {
        sequences = sequences
            .into_iter()
            .flat_map(|prefix| {
                options(&prefix).into_iter().map(move |item| {
                    let mut next = prefix.clone();
                    next.push(item);
                    next
                })
            })
            .collect();
    }
    sequences
}

/// A lasso found by iterating the synchronous schedule: `stem_rounds`
/// rounds reach the cycle entry, the following `period_rounds` rounds
/// return to it. `trace` is the full flat choice sequence (replayable from
/// the starting configuration), and `entry` is the drained configuration
/// it ends in, the cycle entry, with `entry_hash` its canonical hash. A
/// `period_rounds` of 1 means the schedule reached a fixpoint; anything
/// larger is a genuine oscillation.
pub struct SyncLasso {
    pub stem_rounds: usize,
    pub period_rounds: usize,
    pub trace: Vec<Choice>,
    pub entry_hash: TraceDigest,
    pub entry: McNet<GrpNode>,
}

/// Iterate the fully synchronous schedule from `start`, hashing the
/// drained configuration after every round, until a configuration repeats
/// (returns the lasso) or `max_rounds` elapse (returns `None`). Because
/// the schedule is deterministic, a repeated hash proves the execution is
/// periodic forever after.
pub fn find_synchronous_lasso(start: &McNet<GrpNode>, max_rounds: usize) -> Option<SyncLasso> {
    let mut net = start.clone();
    let mut trace: Vec<Choice> = Vec::new();
    // drained-configuration hash -> round index at which it was seen
    let mut seen: BTreeMap<[u8; 32], usize> = BTreeMap::new();
    for round in 0..max_rounds {
        trace.extend(synchronous_round(&mut net));
        let mut drained = net.clone();
        let drain_choices = drain(&mut drained);
        let hash = drained.state_hash();
        if let Some(&entry_round) = seen.get(&hash.0) {
            // close the lasso on the *drained* configuration: the trace
            // runs through the current round, then drains, ending in a
            // state whose hash matches the round-`entry_round` state
            trace.extend(drain_choices);
            return Some(SyncLasso {
                stem_rounds: entry_round + 1,
                period_rounds: round - entry_round,
                trace,
                entry_hash: hash,
                entry: drained,
            });
        }
        seen.insert(hash.0, round);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Outcome;
    use crate::state::FaultBudget;
    use dyngraph::generators::{complete, path, star};

    #[test]
    fn warmup_reaches_quiescent_legitimate_state() {
        let config = GrpConfig::new(2);
        let base = legitimate_start(complete(3), &config, 64).expect("warmup");
        assert!(base.channels.is_empty(), "warmup ends drained");
        let checker = GrpChecker::new(2);
        assert!(checker.goal(&base));
        // quiescent legitimate state is a synchronous fixpoint
        let lasso = find_synchronous_lasso(&base, 8).expect("steady state repeats");
        assert_eq!(lasso.period_rounds, 1);
    }

    #[test]
    fn triangle_corruptions_all_reconverge() {
        let config = GrpConfig::new(2);
        let base = legitimate_start(complete(3), &config, 64).expect("warmup");
        let checker = GrpChecker::new(2);
        let cases = check_corruptions(&base, &checker, &ExploreConfig::default(), 1);
        assert_eq!(cases.len(), 9, "3 nodes x 3 applicable variants");
        for case in &cases {
            assert_eq!(case.victims.len(), 1);
            assert!(
                case.report.converged(),
                "victims {:?} did not converge: {:?}",
                case.victims,
                case.report.outcome
            );
        }
    }

    #[test]
    fn corruption_catalogue_is_deterministic() {
        let config = GrpConfig::new(2);
        let base = legitimate_start(complete(3), &config, 64).expect("warmup");
        let run = || {
            let checker = GrpChecker::new(2);
            check_corruptions(&base, &checker, &ExploreConfig::default(), 1)
                .into_iter()
                .map(|c| (c.victims, c.report.visited))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn triangle_pair_corruptions_all_reconverge() {
        let config = GrpConfig::new(2);
        let base = legitimate_start(complete(3), &config, 64).expect("warmup");
        let checker = GrpChecker::new(2);
        let cases = check_corruptions(&base, &checker, &ExploreConfig::default(), 2);
        assert_eq!(cases.len(), 27, "3 pairs x 3x3 variant combinations");
        for case in &cases {
            let [(a, _), (b, _)] = &case.victims[..] else {
                panic!("two victims per case: {:?}", case.victims);
            };
            assert!(a < b, "pairs are unordered, a < b");
            assert!(
                case.report.converged(),
                "victims {:?} did not converge: {:?}",
                case.victims,
                case.report.outcome
            );
        }
    }

    #[test]
    fn pair_corruption_catalogue_is_deterministic() {
        let config = GrpConfig::new(2);
        let base = legitimate_start(complete(3), &config, 64).expect("warmup");
        let run = || {
            let checker = GrpChecker::new(2);
            check_corruptions(&base, &checker, &ExploreConfig::default(), 2)
                .into_iter()
                .map(|c| (c.victims, c.report.visited))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The single-node catalogue's case order before the runners were
    /// merged: nodes outermost, then their variants.
    fn single_loop_cases(
        base: &McNet<GrpNode>,
        checker: &GrpChecker,
        config: &ExploreConfig,
    ) -> Vec<(Vec<NodeId>, Vec<String>, u64)> {
        let universe: Vec<NodeId> = base.nodes.keys().copied().collect();
        let mut cases = Vec::new();
        for &id in &universe {
            for (variant, corrupted) in base.nodes[&id].enumerate_corruptions(&universe) {
                let mut net = base.clone();
                net.nodes.insert(id, corrupted);
                let visited = explore(&net, checker, config).visited;
                cases.push((vec![id], vec![variant], visited));
            }
        }
        cases
    }

    /// The pair catalogue's case order before the runners were merged:
    /// the pair `a < b` outermost, then `a`'s variants, then `b`'s.
    fn pair_loop_cases(
        base: &McNet<GrpNode>,
        checker: &GrpChecker,
        config: &ExploreConfig,
    ) -> Vec<(Vec<NodeId>, Vec<String>, u64)> {
        let universe: Vec<NodeId> = base.nodes.keys().copied().collect();
        let mut cases = Vec::new();
        for (i, &a) in universe.iter().enumerate() {
            let a_variants = base.nodes[&a].enumerate_corruptions(&universe);
            for &b in &universe[i + 1..] {
                let b_variants = base.nodes[&b].enumerate_corruptions(&universe);
                for (a_name, a_corrupted) in &a_variants {
                    for (b_name, b_corrupted) in &b_variants {
                        let mut net = base.clone();
                        net.nodes.insert(a, a_corrupted.clone());
                        net.nodes.insert(b, b_corrupted.clone());
                        let visited = explore(&net, checker, config).visited;
                        let names = vec![a_name.clone(), b_name.clone()];
                        cases.push((vec![a, b], names, visited));
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn path_case_order_matches_the_nested_loops() {
        let config = GrpConfig::new(2);
        let base = legitimate_start(path(4), &config, 64).expect("warmup");
        let checker = GrpChecker::new(2);
        // one BFS layer per case keeps both sweeps (over a hundred cases)
        // under a second in a debug build
        let explore_config = ExploreConfig {
            depth: 1,
            max_states: 50,
            walks: 0,
            ..Default::default()
        };
        let cases = |victims| {
            check_corruptions(&base, &checker, &explore_config, victims)
                .into_iter()
                .map(|case| {
                    let (nodes, variants) = case.victims.into_iter().unzip();
                    (nodes, variants, case.report.visited)
                })
                .collect::<Vec<_>>()
        };
        let singles = single_loop_cases(&base, &checker, &explore_config);
        assert!(!singles.is_empty());
        assert_eq!(cases(1), singles);
        assert_eq!(cases(2), pair_loop_cases(&base, &checker, &explore_config));
    }

    /// The warm-up before it became a lasso search: run synchronous
    /// rounds until a drained state hashes like the previous round's and
    /// is legitimate.
    fn consecutive_hash_warmup(
        topology: Graph,
        config: &GrpConfig,
        max_rounds: usize,
    ) -> Option<McNet<GrpNode>> {
        let checker = GrpChecker::new(config.dmax);
        let mut net = fresh_net(topology, config);
        let mut prev_hash = None;
        for _ in 0..max_rounds {
            synchronous_round(&mut net);
            let mut drained = net.clone();
            drain(&mut drained);
            let hash = drained.state_hash();
            if prev_hash == Some(hash) && checker.goal(&drained) {
                return Some(drained);
            }
            prev_hash = Some(hash);
        }
        None
    }

    #[test]
    fn warmup_matches_the_consecutive_hash_loop() {
        let topologies = (2..=6)
            .map(|n| (format!("path({n})"), path(n)))
            .chain((3..=4).map(|n| (format!("complete({n})"), complete(n))))
            .chain((4..=5).map(|n| (format!("star({n})"), star(n))));
        let (mut warmed, mut failed) = (0, 0);
        for (name, topology) in topologies {
            for dmax in 1..=3 {
                for max_rounds in [16, 64] {
                    let config = GrpConfig::new(dmax);
                    let old = consecutive_hash_warmup(topology.clone(), &config, max_rounds);
                    let new = legitimate_start(topology.clone(), &config, max_rounds);
                    let case = format!("{name}, dmax {dmax}, {max_rounds} rounds");
                    match (old, new) {
                        (None, Err(_)) => failed += 1,
                        (Some(old), Ok(new)) => {
                            assert_eq!(old.state_hash(), new.state_hash(), "{case}");
                            assert_eq!(old.rounds, new.rounds, "{case}: same round");
                            warmed += 1;
                        }
                        (old, new) => panic!(
                            "{case}: the old loop warmed up: {}, the lasso: {}",
                            old.is_some(),
                            new.is_ok()
                        ),
                    }
                }
            }
        }
        assert!(warmed > 0 && failed > 0, "{warmed} warmed, {failed} failed");
    }

    #[test]
    fn path5_dmax2_synchronous_schedule_oscillates() {
        // The boundary oscillation pinned in tests/data/path5_dmax2_sync.trace
        // (replayed by tests/oscillation.rs): node 2 sits
        // between the {0,1} and {3,4} groups and is never admitted by
        // either side while every compute stays perfectly synchronous.
        let config = GrpConfig::new(2);
        let net = fresh_net(path(5), &config);
        let lasso = find_synchronous_lasso(&net, 64).expect("schedule is periodic");
        assert!(lasso.period_rounds > 1, "period {}", lasso.period_rounds);
        let entry = crate::replay(&net, &lasso.trace, FaultBudget::default()).expect("replays");
        assert_eq!(entry.state_hash(), lasso.entry_hash);
        let checker = GrpChecker::new(2);
        assert!(!checker.goal(&entry), "the cycle never reaches legitimacy");
    }

    #[test]
    fn explorer_reports_stats_with_goal_pruning() {
        let config = GrpConfig::new(2);
        let base = legitimate_start(complete(3), &config, 64).expect("warmup");
        let checker = GrpChecker::new(2);
        let report = explore(&base, &checker, &ExploreConfig::default());
        // the root is legitimate and (being quiescent + goal) the search
        // still expands it once
        assert!(report.converged());
        assert!(report.goal_states >= 1);
        let witness = report.witness.expect("legitimate root is its own witness");
        assert!(witness.choices.is_empty());
        matches!(report.outcome, Outcome::Converged);
    }
}
