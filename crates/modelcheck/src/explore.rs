//! Bounded exploration of the transition system.
//!
//! The explorer runs an exhaustive breadth-first search from the initial
//! configuration, deduplicating states by canonical hash. Goal states
//! (configurations the [`Checker`] declares legitimate) are recorded but
//! not expanded — self-stabilization is a *reach-and-stay* property, and
//! what happens after legitimacy is the closure the protocol's own golden
//! scenarios already pin. With the goal frontier pruned, the question
//! "does every fair execution converge?" reduces to: the explored
//! non-goal subgraph is finite, has no dead ends, and is acyclic. The
//! first two fall out of the search itself; acyclicity is checked
//! afterwards by peeling (reverse topological order), and any residue is a
//! reachable fair cycle — a lasso-shaped counterexample the explorer
//! reconstructs as a replayable trace.
//!
//! One exception to goal-pruning: the *root* is always expanded, so a
//! search started from a legitimate configuration with a fault budget
//! still explores the faulty neighbourhood instead of terminating on the
//! spot. (Cycles that pass *through* a legitimate state are still treated
//! as converged — the protocol reached legitimacy; leaving it again
//! requires a fault, which the budget accounting makes a fresh state.)
//!
//! When the depth or state bound is hit, the search degrades gracefully:
//! the cut frontier is reported and seeded random walks probe beyond it
//! for invariant violations, so `BoundsExceeded` still carries evidence —
//! just not a proof.

use crate::state::{replay, Choice, FaultBudget, McNet};
use netsim::{CanonicalState, TraceDigest};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};

/// Invariant and goal hooks for a protocol under test.
pub trait Checker<P: CanonicalState> {
    /// Is this configuration legitimate? Goal states are recorded and
    /// pruned (see module docs).
    fn goal(&self, net: &McNet<P>) -> bool;

    /// A safety property that must hold in *every* reachable state. The
    /// default accepts everything.
    fn invariant(&self, net: &McNet<P>) -> Result<(), String> {
        let _ = net;
        Ok(())
    }
}

/// Exploration bounds and the fault budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExploreConfig {
    /// BFS depth bound: states this many choices from the root are kept
    /// as frontier but not expanded.
    pub depth: usize,
    /// Hard cap on distinct visited states.
    pub max_states: usize,
    /// Fault transitions available to the adversary.
    pub budget: FaultBudget,
    /// Random walks launched from the cut frontier when a bound is hit.
    pub walks: u32,
    /// Length of each random walk.
    pub walk_depth: usize,
    /// Seed for the walk scheduler.
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            depth: 256,
            max_states: 200_000,
            budget: FaultBudget::default(),
            walks: 16,
            walk_depth: 256,
            seed: 1,
        }
    }
}

/// A replayable scheduler trace with the hash of the state it ends in.
/// [`replay`] from the same initial configuration must
/// reproduce `end_hash` — that round-trip is the trace's integrity check.
#[derive(Clone, Debug)]
pub struct Trace {
    pub choices: Vec<Choice>,
    pub end_hash: TraceDigest,
}

/// What went wrong, with the evidence.
#[derive(Clone, Debug)]
pub enum Violation {
    /// `invariant()` rejected a reachable state; trace leads to it.
    Invariant { message: String, trace: Trace },
    /// A reachable non-goal state has no enabled transition.
    Stuck { trace: Trace },
    /// A fair execution that never converges: the trace is a lasso —
    /// `stem` choices reach the cycle entry, the remaining `period`
    /// choices return to it (`end_hash` is the cycle entry's hash).
    Cycle {
        stem: usize,
        period: usize,
        trace: Trace,
    },
}

/// Overall outcome of one exploration.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Exhaustive proof within the bounds: every fair execution from the
    /// root reaches a goal state.
    Converged,
    /// A counterexample was found.
    Violation(Violation),
    /// A bound was hit before the space was exhausted; random-walk
    /// statistics qualify the uncovered frontier.
    BoundsExceeded {
        frontier: usize,
        walks_run: u32,
        walks_reached_goal: u32,
    },
}

/// Exploration result plus the statistics the golden manifests pin.
#[derive(Clone, Debug)]
pub struct Report {
    pub outcome: Outcome,
    /// Distinct states visited (root included, goal states included).
    pub visited: u64,
    /// How many of the visited states were goal states.
    pub goal_states: u64,
    /// Deepest BFS layer reached.
    pub max_depth: usize,
    /// Trace to the first goal state discovered, if any — the replay-
    /// fidelity witness.
    pub witness: Option<Trace>,
}

impl Report {
    pub fn converged(&self) -> bool {
        matches!(self.outcome, Outcome::Converged)
    }

    /// The outcome in one word: `"converged"`, `"invariant"`, `"stuck"`,
    /// `"cycle"` or `"bounds"`.
    pub fn tag(&self) -> &'static str {
        match &self.outcome {
            Outcome::Converged => "converged",
            Outcome::Violation(Violation::Invariant { .. }) => "invariant",
            Outcome::Violation(Violation::Stuck { .. }) => "stuck",
            Outcome::Violation(Violation::Cycle { .. }) => "cycle",
            Outcome::BoundsExceeded { .. } => "bounds",
        }
    }

    /// The trace the report carries: the violation's counterexample, or
    /// else the witness.
    pub fn trace(&self) -> Option<&Trace> {
        match &self.outcome {
            Outcome::Violation(
                Violation::Invariant { trace, .. }
                | Violation::Stuck { trace }
                | Violation::Cycle { trace, .. },
            ) => Some(trace),
            _ => self.witness.as_ref(),
        }
    }
}

struct StateRec {
    hash: TraceDigest,
    parent: usize,
    via: Option<Choice>,
    depth: usize,
    goal: bool,
    /// Outgoing edges (choice, successor index); filled when expanded.
    succs: Vec<(Choice, usize)>,
}

/// What the search has learned so far: every visited state, how many are
/// goals, the deepest layer reached and the first goal found. Every
/// [`Report`] is built from it, whichever way the search ends.
#[derive(Default)]
struct Search {
    recs: Vec<StateRec>,
    goal_states: u64,
    max_depth: usize,
    witness: Option<usize>,
}

impl Search {
    /// Record a newly discovered state and return its index.
    fn visit(
        &mut self,
        hash: TraceDigest,
        parent: usize,
        via: Option<Choice>,
        depth: usize,
        goal: bool,
    ) -> usize {
        let id = self.recs.len();
        if goal {
            self.goal_states += 1;
            self.witness.get_or_insert(id);
        }
        self.recs.push(StateRec {
            hash,
            parent,
            via,
            depth,
            goal,
            succs: Vec::new(),
        });
        id
    }

    /// The trace from the root to `id` via BFS parents, continued by
    /// `extra` and ending in `end_hash`.
    fn trace_via(&self, id: usize, extra: &[Choice], end_hash: TraceDigest) -> Trace {
        let mut choices = Vec::new();
        let mut cur = id;
        while let Some(choice) = self.recs[cur].via {
            choices.push(choice);
            cur = self.recs[cur].parent;
        }
        choices.reverse();
        choices.extend_from_slice(extra);
        Trace { choices, end_hash }
    }

    fn trace_to(&self, id: usize) -> Trace {
        self.trace_via(id, &[], self.recs[id].hash)
    }

    fn report(&self, outcome: Outcome) -> Report {
        Report {
            outcome,
            visited: self.recs.len() as u64,
            goal_states: self.goal_states,
            max_depth: self.max_depth,
            witness: self.witness.map(|id| self.trace_to(id)),
        }
    }
}

/// Explore the transition system rooted at `initial`. Deterministic: same
/// configuration and same checker give the same report, state numbering
/// and counterexample.
pub fn explore<P, C>(initial: &McNet<P>, checker: &C, config: &ExploreConfig) -> Report
where
    P: CanonicalState,
    C: Checker<P>,
{
    let mut search = Search::default();
    let mut index: HashMap<TraceDigest, usize> = HashMap::new();
    let mut queue: VecDeque<(usize, McNet<P>)> = VecDeque::new();
    let mut frontier: Vec<(usize, McNet<P>)> = Vec::new();

    let root_hash = initial.state_hash();
    search.visit(root_hash, 0, None, 0, checker.goal(initial));
    index.insert(root_hash, 0);
    if let Err(message) = checker.invariant(initial) {
        let trace = search.trace_to(0);
        return search.report(Outcome::Violation(Violation::Invariant { message, trace }));
    }
    // the root is expanded even when legitimate (see module docs)
    queue.push_back((0, initial.clone()));

    while let Some((id, state)) = queue.pop_front() {
        let depth = search.recs[id].depth;
        search.max_depth = search.max_depth.max(depth);
        if depth >= config.depth {
            frontier.push((id, state));
            continue;
        }
        let choices = state.enabled_choices(config.budget);
        if choices.is_empty() {
            if search.recs[id].goal {
                // a terminal goal state is converged-and-halted: fine
                continue;
            }
            let trace = search.trace_to(id);
            return search.report(Outcome::Violation(Violation::Stuck { trace }));
        }
        for choice in choices {
            let mut succ = state.clone();
            succ.apply(choice);
            let hash = succ.state_hash();
            if let Err(message) = checker.invariant(&succ) {
                let trace = search.trace_via(id, &[choice], hash);
                return search.report(Outcome::Violation(Violation::Invariant { message, trace }));
            }
            let succ_id = match index.get(&hash) {
                Some(&existing) => existing,
                None => {
                    if search.recs.len() >= config.max_states {
                        // frontier size is approximated by what is left
                        // unexpanded; the walks still start from it
                        frontier.extend(queue.drain(..));
                        frontier.push((id, state));
                        return finish_bounded(&search, &frontier, checker, config);
                    }
                    let goal = checker.goal(&succ);
                    let new_id = search.visit(hash, id, Some(choice), depth + 1, goal);
                    index.insert(hash, new_id);
                    if !goal {
                        queue.push_back((new_id, succ));
                    }
                    new_id
                }
            };
            search.recs[id].succs.push((choice, succ_id));
        }
    }

    if !frontier.is_empty() {
        return finish_bounded(&search, &frontier, checker, config);
    }

    // Exhausted within bounds: the non-goal subgraph is fully expanded.
    // Acyclic means every fair execution falls into a goal state.
    let outcome = match find_cycle(&search.recs) {
        None => Outcome::Converged,
        Some((entry, cycle)) => {
            let trace = search.trace_via(entry, &cycle, search.recs[entry].hash);
            let period = cycle.len();
            let stem = trace.choices.len() - period;
            Outcome::Violation(Violation::Cycle {
                stem,
                period,
                trace,
            })
        }
    };
    search.report(outcome)
}

/// Peel the non-goal subgraph in reverse topological order. `None` if it
/// is acyclic; otherwise a state on a cycle plus the choices around it.
fn find_cycle(recs: &[StateRec]) -> Option<(usize, Vec<Choice>)> {
    // out-degree restricted to non-goal targets
    let mut outdeg: Vec<usize> = vec![0; recs.len()];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
    for (id, rec) in recs.iter().enumerate() {
        if rec.goal {
            continue;
        }
        for &(_, succ) in &rec.succs {
            if !recs[succ].goal {
                outdeg[id] += 1;
                preds[succ].push(id);
            }
        }
    }
    let mut removable: VecDeque<usize> = (0..recs.len())
        .filter(|&id| !recs[id].goal && outdeg[id] == 0)
        .collect();
    let mut remaining: Vec<bool> = recs.iter().map(|r| !r.goal).collect();
    while let Some(id) = removable.pop_front() {
        remaining[id] = false;
        for &p in &preds[id] {
            if remaining[p] {
                outdeg[p] -= 1;
                if outdeg[p] == 0 {
                    removable.push_back(p);
                }
            }
        }
    }
    // Everything left has an outgoing edge into the residue: walk first
    // such edges until a state repeats — that loop is the cycle.
    let start = remaining.iter().position(|&r| r)?;
    let mut seen_at: HashMap<usize, usize> = HashMap::new();
    let mut walk: Vec<(usize, Choice)> = Vec::new();
    let mut cur = start;
    loop {
        if let Some(&pos) = seen_at.get(&cur) {
            let cycle_choices = walk[pos..].iter().map(|&(_, c)| c).collect();
            return Some((cur, cycle_choices));
        }
        seen_at.insert(cur, walk.len());
        let &(choice, next) = recs[cur]
            .succs
            .iter()
            .find(|&&(_, s)| remaining[s])
            // detlint::allow(D004): Kahn peeling only leaves states whose
            // out-degree within the residue is ≥ 1, so the find cannot miss
            .expect("residue state must have a successor in the residue");
        walk.push((cur, choice));
        cur = next;
    }
}

/// A bound was hit: launch seeded random walks from the cut frontier,
/// looking for invariant violations and measuring how often walks still
/// reach a goal state.
fn finish_bounded<P, C>(
    search: &Search,
    frontier: &[(usize, McNet<P>)],
    checker: &C,
    config: &ExploreConfig,
) -> Report
where
    P: CanonicalState,
    C: Checker<P>,
{
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut walks_run = 0u32;
    let mut walks_reached_goal = 0u32;
    for (start_id, start) in frontier.iter().cycle().take(config.walks as usize) {
        let mut state = start.clone();
        let mut extra: Vec<Choice> = Vec::new();
        walks_run += 1;
        for _ in 0..config.walk_depth {
            if checker.goal(&state) {
                walks_reached_goal += 1;
                break;
            }
            let choices = state.enabled_choices(config.budget);
            if choices.is_empty() {
                let trace = search.trace_via(*start_id, &extra, state.state_hash());
                return search.report(Outcome::Violation(Violation::Stuck { trace }));
            }
            let choice = choices[rng.gen_range(0..choices.len())];
            state.apply(choice);
            extra.push(choice);
            if let Err(message) = checker.invariant(&state) {
                let trace = search.trace_via(*start_id, &extra, state.state_hash());
                return search.report(Outcome::Violation(Violation::Invariant { message, trace }));
            }
        }
    }
    search.report(Outcome::BoundsExceeded {
        frontier: frontier.len(),
        walks_run,
        walks_reached_goal,
    })
}

/// Check a trace against its recorded end hash by re-executing it.
pub fn verify_trace<P: CanonicalState>(
    initial: &McNet<P>,
    trace: &Trace,
    budget: FaultBudget,
) -> Result<McNet<P>, String> {
    let net = replay(initial, &trace.choices, budget)?;
    let got = net.state_hash();
    if got != trace.end_hash {
        return Err(format!(
            "trace end hash mismatch: expected {}, replayed to {}",
            trace.end_hash.to_hex(),
            got.to_hex()
        ));
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grp::{fresh_net, legitimate_start, GrpChecker};
    use crate::state::McNet;
    use dyngraph::generators::{complete, path};
    use dyngraph::NodeId;
    use grp_core::{GrpConfig, GrpNode};

    fn corrupted_triangle() -> McNet<GrpNode> {
        let config = GrpConfig::new(2);
        let base = legitimate_start(complete(3), &config, 64).expect("warmup");
        let universe: Vec<NodeId> = base.nodes.keys().copied().collect();
        let (_, corrupted) = base.nodes[&NodeId(0)]
            .enumerate_corruptions(&universe)
            .into_iter()
            .next()
            .expect("catalogue non-empty");
        let mut net = base;
        net.nodes.insert(NodeId(0), corrupted);
        net
    }

    #[test]
    fn exploration_is_deterministic() {
        let net = corrupted_triangle();
        let run = || {
            let checker = GrpChecker::new(2);
            let report = explore(&net, &checker, &ExploreConfig::default());
            let witness = report
                .witness
                .as_ref()
                .map(|t| (t.choices.clone(), t.end_hash));
            (
                report.visited,
                report.goal_states,
                report.max_depth,
                witness,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn witness_trace_replays_to_its_end_hash() {
        let net = corrupted_triangle();
        let checker = GrpChecker::new(2);
        let report = explore(&net, &checker, &ExploreConfig::default());
        assert!(report.converged());
        let witness = report.witness.expect("convergent run has a witness");
        let end = verify_trace(&net, &witness, FaultBudget::default()).expect("witness replays");
        assert!(checker.goal(&end), "witness ends in a goal state");
    }

    #[test]
    fn lone_node_with_unreachable_goal_is_a_cycle() {
        // A single node computing forever maps back to the same canonical
        // state (relative rounds): with a goal that never holds, the
        // explorer must report the self-loop as a fair non-converging
        // cycle rather than claiming convergence.
        struct Never;
        impl Checker<GrpNode> for Never {
            fn goal(&self, _net: &McNet<GrpNode>) -> bool {
                false
            }
        }
        let config = GrpConfig::new(1);
        let net = fresh_net(path(1), &config);
        let report = explore(&net, &Never, &ExploreConfig::default());
        match &report.outcome {
            Outcome::Violation(Violation::Cycle { period, trace, .. }) => {
                assert!(*period >= 1);
                let end = verify_trace(&net, trace, FaultBudget::default()).expect("lasso replays");
                assert_eq!(end.state_hash(), trace.end_hash);
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn invariant_violations_carry_a_replayable_trace() {
        struct NoGhosts;
        impl Checker<GrpNode> for NoGhosts {
            fn goal(&self, _net: &McNet<GrpNode>) -> bool {
                false
            }
            fn invariant(&self, net: &McNet<GrpNode>) -> Result<(), String> {
                for (id, node) in &net.nodes {
                    if node.view().iter().any(|v| v.raw() >= 900_000) {
                        return Err(format!("node {} sees a ghost", id.raw()));
                    }
                }
                Ok(())
            }
        }
        let net = corrupted_triangle(); // first variant is ghost-member
        let report = explore(&net, &NoGhosts, &ExploreConfig::default());
        match &report.outcome {
            Outcome::Violation(Violation::Invariant { message, trace }) => {
                assert!(message.contains("ghost"));
                // the corrupted initial state itself violates it
                assert!(trace.choices.is_empty());
                verify_trace(&net, trace, FaultBudget::default()).expect("trace replays");
            }
            other => panic!("expected invariant violation, got {other:?}"),
        }
    }

    /// The crash budget cannot be pinned exhaustively (unlike the drop and
    /// duplicate budgets mc04 proves out): during a crash window the
    /// survivor ages its peer out of the group and pumps its priority
    /// "oldness" clock, and after the reboot adversarial interleavings can
    /// re-trigger that in-group → alone transition, so each pump is a
    /// canonically distinct non-goal state and the reachable set never
    /// closes. This test pins the honest verdict instead: the search
    /// degrades to `BoundsExceeded`, and every random walk launched from
    /// the cut frontier still reaches legitimacy — evidence, not proof.
    #[test]
    fn crash_budget_is_depth_unbounded() {
        let config = GrpConfig::new(2);
        let net = legitimate_start(complete(2), &config, 64).expect("warmup");
        let checker = GrpChecker::new(2);
        let explore_config = ExploreConfig {
            depth: 24,
            max_states: 10_000,
            budget: FaultBudget {
                max_crashes: 1,
                ..Default::default()
            },
            walks: 8,
            walk_depth: 512,
            seed: 1,
        };
        let report = explore(&net, &checker, &explore_config);
        match report.outcome {
            Outcome::BoundsExceeded {
                frontier,
                walks_run,
                walks_reached_goal,
            } => {
                assert!(frontier > 0, "the crash frontier never closes");
                assert_eq!(walks_run, 8);
                assert_eq!(
                    walks_reached_goal, walks_run,
                    "every probe walk must recover legitimacy"
                );
            }
            other => panic!("expected bounds exceeded, got {other:?}"),
        }
    }

    #[test]
    fn bounds_exceeded_reports_frontier_and_walks() {
        let net = corrupted_triangle();
        let checker = GrpChecker::new(2);
        let config = ExploreConfig {
            depth: 2,
            walks: 4,
            walk_depth: 64,
            ..Default::default()
        };
        let report = explore(&net, &checker, &config);
        match report.outcome {
            Outcome::BoundsExceeded {
                frontier,
                walks_run,
                walks_reached_goal,
            } => {
                assert!(frontier > 0);
                assert_eq!(walks_run, 4);
                assert!(
                    walks_reached_goal > 0,
                    "random walks recover on the triangle"
                );
            }
            other => panic!("expected bounds exceeded, got {other:?}"),
        }
    }
}
