//! `solve_path_constraint` (paper Fig. 5) and branch-selection strategies.
//!
//! Every query of a walk is decided once, in strategy order, on the
//! session's own thread: the first satisfiable flip wins, as in Fig. 5.

use crate::supervise::FaultState;
use crate::tape::InputTape;
use dart_solver::{Assignment, PrefixSession, QueryCache, SolveOutcome, Solver};
use dart_sym::{BranchRecord, PathConstraint};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// Ignored. It once chose whether [`solve_next`] solved a run's
/// candidate queries ahead of time on a pool of solver threads, which is
/// gone; it stays only because the end-to-end benchmark still names it,
/// and goes with the benchmark PR that retires `bench_e2e`'s replica.
#[derive(Debug, Clone, Copy)]
pub enum Scheduler {
    /// Ignored, like the type.
    Sequential,
}

/// Which unexplored branch to force next (the paper's footnote 4: "a
/// depth-first search is used for exposition, but the next branch to be
/// forced could be selected using a different strategy, e.g., randomly").
///
/// Only [`Strategy::Dfs`] supports the completeness claim of Theorem 1(b):
/// the `(branch, done)` stack is a sound both-subtrees-explored record only
/// under the depth-first discipline. A naive shallowest-first strategy
/// would re-flip the first branch and stall, so a breadth-first mode is
/// deliberately absent — it needs a generational frontier (as in later
/// systems like SAGE), not a single prediction stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Deepest not-yet-done branch first (the paper's default).
    #[default]
    Dfs,
    /// Uniformly random among candidates (bug-finding heuristic; never
    /// claims completeness).
    RandomBranch,
}

/// Cumulative solver statistics for a session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Queries answered with a model.
    pub sat: u64,
    /// Queries proved unsatisfiable.
    pub unsat: u64,
    /// Queries the solver gave up on (these make the session incomplete).
    pub unknown: u64,
    /// Queries answered by the session query cache without solving.
    /// The model pool is the cache's only answer, so this always equals
    /// [`SolveStats::cache_model_reuse`], and no output prints it: the
    /// report line, `dartc --stats`, the JSONL stream and the farm's wire
    /// protocol carry `cache_model_reuse` alone, and the wire parser
    /// fills this field from it. It stays only because the end-to-end
    /// benchmark still reads it, and goes with the benchmark PR that
    /// retires `bench_e2e`'s replica.
    pub cache_hits: u64,
    /// Queries answered by re-checking a previously computed model
    /// (the counterexample-reuse fast path).
    pub cache_model_reuse: u64,
    /// Solved queries that split into independent variable components.
    /// Every engine query is a prefix-session query, which splits only
    /// what the hint and all-zeros probes leave, so a query they answer
    /// counts no split (see [`dart_solver::SolveInfo::components`]).
    pub split_solves: u64,
    /// Ignored; always 0. It once counted the pivots of a warm LP screen
    /// that is gone; it stays only because the end-to-end benchmark still
    /// reads it, and goes with the benchmark PR that retires
    /// `bench_e2e`'s replica.
    pub warm_pivots: u64,
    /// Ignored; always 0, like [`SolveStats::warm_pivots`].
    pub cold_restarts: u64,
}

impl SolveStats {
    /// Copies the cache-side counters out of `cache`.
    ///
    /// Session-cumulative invariant: one `QueryCache` lives for the whole
    /// session and its counters only grow, so copying them (assignment,
    /// **not** addition) yields correct session totals no matter how often
    /// this runs — calling it once per `solve_next` must equal calling it
    /// once at session end.
    pub fn absorb_cache(&mut self, cache: &QueryCache) {
        let cs = cache.stats();
        self.cache_hits = cs.model_reuse;
        self.cache_model_reuse = cs.model_reuse;
        self.split_solves = cs.split_solves;
    }

    /// Closes one walk — a [`solve_next`] call or one generational
    /// expansion: hands its `session` back to `cache` for the next walk
    /// and copies the cache counters.
    pub(crate) fn finish_walk(&mut self, session: PrefixSession, cache: &mut QueryCache) {
        cache.retain_session(session);
        self.absorb_cache(cache);
    }

    /// The session's completeness margin: `Unknown` verdicts as a
    /// fraction of all solver verdicts (`sat + unsat + unknown`), `0.0`
    /// when no queries ran. Every `Unknown` is a path DART could not
    /// decide — Theorem 1(b)'s completeness claim erodes exactly this
    /// fast, which is why the rate is surfaced in the report `Display`
    /// and `dartc --stats` for regression gating.
    pub fn unknown_rate(&self) -> f64 {
        let total = self.sat + self.unsat + self.unknown;
        if total == 0 {
            return 0.0;
        }
        self.unknown as f64 / total as f64
    }
}

/// The next directed step: a branch prediction stack and the input updates
/// that should force it.
#[derive(Debug)]
pub struct NextStep {
    /// Prediction for the next run: the old stack truncated at the flipped
    /// conditional, whose branch bit is inverted (`done` stays false until
    /// the flip is actually observed — Fig. 4).
    pub stack: Vec<BranchRecord>,
    /// Solver model to merge into the tape (`IM'`).
    pub model: Assignment,
}

/// Finds the next branch to force. Walks candidate conditionals (not yet
/// `done`) in strategy order; for each, solves the negated path-constraint
/// prefix; the first satisfiable one wins. Returns `None` when every
/// candidate is done or unsatisfiable — the directed search is over
/// (Fig. 5's `j == -1` case). The [`Scheduler`] is ignored.
#[allow(clippy::too_many_arguments)] // one spot, mirrors Fig. 5's state
pub fn solve_next(
    path: &PathConstraint,
    stack: &[BranchRecord],
    tape: &InputTape,
    solver: &Solver,
    cache: &mut QueryCache,
    strategy: Strategy,
    rng: &mut SmallRng,
    stats: &mut SolveStats,
    faults: &mut FaultState,
    _scheduler: Scheduler,
) -> Option<NextStep> {
    let n = stack.len().min(path.len());
    let mut candidates: Vec<usize> = (0..n).filter(|&j| !stack[j].done).collect();
    match strategy {
        Strategy::Dfs => candidates.reverse(),
        Strategy::RandomBranch => candidates.shuffle(rng),
    }
    // All of this run's queries share prefixes of one path constraint, and
    // under DFS the path repeats the previous run's up to the flipped
    // branch: the cache's retained session keeps that shared prefix and
    // pushes only the new suffix.
    let prefix = &path.constraints()[..n];
    let (mut session, _) = cache.take_session(solver, prefix);
    let mut found = None;
    for &j in &candidates {
        // Injected solver incompleteness: this query is counted and
        // skipped exactly as a genuine `Unknown` verdict would be.
        if faults.force_unknown_next_query() {
            stats.unknown += 1;
            continue;
        }
        let negated = prefix[j].negated();
        match cache.solve_query(&mut session, j, &negated, |v| tape.value_of(v)) {
            SolveOutcome::Sat(model) => {
                stats.sat += 1;
                let mut new_stack: Vec<BranchRecord> = stack[..=j].to_vec();
                new_stack[j].branch = !new_stack[j].branch;
                found = Some(NextStep {
                    stack: new_stack,
                    model,
                });
                break;
            }
            SolveOutcome::Unsat => stats.unsat += 1,
            SolveOutcome::Unknown => stats.unknown += 1,
        }
    }
    stats.finish_walk(session, cache);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::InputKind;
    use dart_solver::{Constraint, LinExpr, RelOp, Var};
    use rand::SeedableRng;

    fn record(branch: bool, done: bool) -> BranchRecord {
        BranchRecord { branch, done }
    }

    /// path: x != 1 (from branch not taken), x != 2.
    fn simple_path() -> (PathConstraint, InputTape) {
        let mut pc = PathConstraint::new();
        pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Ne));
        pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-2), RelOp::Ne));
        let mut tape = InputTape::new(0);
        let _ = tape.take(InputKind::IntLike, || "x".into());
        (pc, tape)
    }

    #[test]
    fn dfs_flips_deepest_first() {
        let (pc, tape) = simple_path();
        let stack = vec![record(false, false), record(false, false)];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stats = SolveStats::default();
        let step = solve_next(
            &pc,
            &stack,
            &tape,
            &Solver::default(),
            &mut QueryCache::default(),
            Strategy::Dfs,
            &mut rng,
            &mut stats,
            &mut FaultState::default(),
            Scheduler::Sequential,
        )
        .expect("solvable");
        assert_eq!(step.stack.len(), 2, "deepest candidate keeps full prefix");
        assert!(step.stack[1].branch, "branch bit flipped");
        assert!(!step.stack[1].done);
        assert_eq!(step.model[&Var(0)], 2, "x forced to 2");
        assert_eq!(stats.sat, 1);
    }

    #[test]
    fn random_branch_flips_some_candidate() {
        let (pc, tape) = simple_path();
        let stack = vec![record(false, false), record(false, false)];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stats = SolveStats::default();
        let step = solve_next(
            &pc,
            &stack,
            &tape,
            &Solver::default(),
            &mut QueryCache::default(),
            Strategy::RandomBranch,
            &mut rng,
            &mut stats,
            &mut FaultState::default(),
            Scheduler::Sequential,
        )
        .expect("solvable");
        assert!(step.stack.len() == 1 || step.stack.len() == 2);
        let j = step.stack.len() - 1;
        assert!(step.stack[j].branch, "flipped");
    }

    #[test]
    fn done_branches_are_skipped() {
        let (pc, tape) = simple_path();
        let stack = vec![record(false, false), record(false, true)];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stats = SolveStats::default();
        let step = solve_next(
            &pc,
            &stack,
            &tape,
            &Solver::default(),
            &mut QueryCache::default(),
            Strategy::Dfs,
            &mut rng,
            &mut stats,
            &mut FaultState::default(),
            Scheduler::Sequential,
        )
        .expect("solvable");
        assert_eq!(step.stack.len(), 1, "done deepest skipped");
    }

    #[test]
    fn all_done_means_search_over() {
        let (pc, tape) = simple_path();
        let stack = vec![record(false, true), record(false, true)];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stats = SolveStats::default();
        assert!(solve_next(
            &pc,
            &stack,
            &tape,
            &Solver::default(),
            &mut QueryCache::default(),
            Strategy::Dfs,
            &mut rng,
            &mut stats,
            &mut FaultState::default(),
            Scheduler::Sequential,
        )
        .is_none());
        assert_eq!(stats, SolveStats::default());
    }

    #[test]
    fn unsat_candidates_fall_through() {
        // path: x == 1 (taken), x != 5. Flipping the deepest asks for
        // x == 1 && x == 5: unsat; must fall back to flipping the first.
        let mut pc = PathConstraint::new();
        pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Eq));
        pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Ne));
        let mut tape = InputTape::new(0);
        let _ = tape.take(InputKind::IntLike, || "x".into());
        let stack = vec![record(true, false), record(false, false)];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stats = SolveStats::default();
        let step = solve_next(
            &pc,
            &stack,
            &tape,
            &Solver::default(),
            &mut QueryCache::default(),
            Strategy::Dfs,
            &mut rng,
            &mut stats,
            &mut FaultState::default(),
            Scheduler::Sequential,
        )
        .expect("first conditional still flippable");
        assert_eq!(step.stack.len(), 1);
        assert!(!step.stack[0].branch, "x == 1 flipped to x != 1");
        assert_eq!(stats.unsat, 1);
        assert_eq!(stats.sat, 1);
        assert_ne!(step.model[&Var(0)], 1);
    }

    /// One DFS walk over `pc` from `stack` with `x` on the tape, and an
    /// injected `Unknown` on query `fault` if any.
    fn walk_with_fault(
        pc: &PathConstraint,
        stack: &[BranchRecord],
        fault: Option<u64>,
    ) -> (Option<NextStep>, SolveStats) {
        let mut tape = InputTape::new(0);
        let _ = tape.take(InputKind::IntLike, || "x".into());
        let config = crate::DartConfig {
            faults: crate::supervise::FaultPlan {
                unknown_on_query: fault,
                ..crate::supervise::FaultPlan::default()
            },
            ..crate::DartConfig::default()
        };
        let mut stats = SolveStats::default();
        let step = solve_next(
            pc,
            stack,
            &tape,
            &Solver::default(),
            &mut QueryCache::default(),
            Strategy::Dfs,
            &mut SmallRng::seed_from_u64(0),
            &mut stats,
            &mut FaultState::for_config(&config),
            Scheduler::Sequential,
        );
        (step, stats)
    }

    /// path: x == 1 (taken), x < 100 (taken), x != 5. The deepest two
    /// flips (x==1 ∧ x<100 ∧ x==5, x==1 ∧ ¬(x<100)) are unsat and the
    /// shallowest (x != 1) wins. An injected `Unknown` on either unsat
    /// query takes that query's verdict and leaves the winner alone.
    #[test]
    fn mixed_walk_counts_faulted_flips_as_unknown() {
        let x = || LinExpr::var(Var(0));
        let mut pc = PathConstraint::new();
        pc.push(Constraint::new(x().offset(-1), RelOp::Eq));
        pc.push(Constraint::new(x().offset(-100), RelOp::Lt));
        pc.push(Constraint::new(x().offset(-5), RelOp::Ne));
        let stack = [
            record(true, false),
            record(true, false),
            record(false, false),
        ];
        for (fault, unsat, unknown) in [(None, 2, 0), (Some(0), 1, 1), (Some(1), 1, 1)] {
            let (step, stats) = walk_with_fault(&pc, &stack, fault);
            let step = step.expect("the shallowest flip is satisfiable");
            assert_eq!(step.stack.len(), 1, "fault={fault:?}");
            assert!(!step.stack[0].branch, "x == 1 flipped to x != 1");
            assert_ne!(step.model[&Var(0)], 1);
            let counts = (stats.sat, stats.unsat, stats.unknown);
            assert_eq!(counts, (1, unsat, unknown), "fault={fault:?}");
        }
    }

    /// path: x != 1, x != 2, x != 3, so every flip is satisfiable and the
    /// first query wins. Only a fault slot consumed before the winner
    /// counts: `k == 0` turns the first query `Unknown` and moves the
    /// winner to the second candidate; later slots are never reached.
    #[test]
    fn fault_slot_counts_only_before_the_winner() {
        let mut pc = PathConstraint::new();
        for k in 1..=3 {
            pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-k), RelOp::Ne));
        }
        let stack = [record(false, false); 3];
        for k in 0..3u64 {
            let (step, stats) = walk_with_fault(&pc, &stack, Some(k));
            let step = step.expect("some candidate is satisfiable");
            // Flipping depth `j`, `x != j + 1`, forces `x == j + 1`.
            let j = if k == 0 { 1 } else { 2 };
            let got = (step.stack.len(), step.model[&Var(0)]);
            assert_eq!(got, (j + 1, j as i64 + 1), "fault on query {k}");
            let counts = (stats.sat, stats.unknown);
            assert_eq!(counts, (1, u64::from(k == 0)), "fault on query {k}");
        }
    }

    #[test]
    fn hint_preserves_unconstrained_inputs() {
        // Two inputs; constraint only mentions x0. x1's hint must survive
        // in the *model* only if mentioned; tape merge handles the rest —
        // here we check the model doesn't clobber x1.
        let mut pc = PathConstraint::new();
        pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-9), RelOp::Ne));
        let mut tape = InputTape::new(0);
        let _ = tape.take(InputKind::IntLike, || "x".into());
        let _ = tape.take(InputKind::IntLike, || "y".into());
        let y_before = tape.value_of(Var(1)).unwrap();
        let stack = vec![record(false, false)];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stats = SolveStats::default();
        let step = solve_next(
            &pc,
            &stack,
            &tape,
            &Solver::default(),
            &mut QueryCache::default(),
            Strategy::Dfs,
            &mut rng,
            &mut stats,
            &mut FaultState::default(),
            Scheduler::Sequential,
        )
        .unwrap();
        tape.apply_model(&step.model);
        assert_eq!(tape.value_of(Var(0)), Some(9));
        assert_eq!(tape.value_of(Var(1)), Some(y_before), "IM + IM' merge");
    }
}
