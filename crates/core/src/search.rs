//! `solve_path_constraint` (paper Fig. 5) and branch-selection strategies.
//!
//! # Parallel candidate fan-out
//!
//! One run's candidate queries are independent conjunctions
//! (`c_0 ∧ … ∧ c_{j-1} ∧ ¬c_j` for different `j`), so with
//! [`Scheduler::Pool`] [`solve_next`] speculates on them on the
//! persistent [`SolvePool`] and then *commits* sequentially, producing a
//! byte-identical [`NextStep`] and byte-identical stats. The scheme rests
//! on one invariant: within a single `solve_next` walk, every query
//! before the winner is `Unsat`/`Unknown`, and those verdicts push no
//! models into the cache's reuse pool — so each candidate's verdict is a
//! function of the cache state *at walk entry*. Pool workers never touch
//! that cache: the committing thread pre-peeks it and dispatches only
//! cache misses. The commit walk then re-consults the model pool per
//! position in strategy order, consumes a worker's fresh verdict only
//! where a synchronous solve would have happened, counts fault-injection
//! slots in the exact sequential order, and stops at the first `Sat` —
//! the same winner the sequential walk picks. Workers past the lowest
//! `Sat` position are cancelled through an atomic high-water mark; since
//! the mark only decreases, a cancelled position is strictly past the
//! final winner, and any position missing a speculative verdict —
//! cancelled, never scheduled, or lost to a worker panic — is covered by
//! the commit walk's synchronous fallback solve, so *which* jobs ran
//! never affects what the walk returns. A generational expansion
//! (`Dart::run_generational`) uses the same fan-out and commit, except
//! that it commits every candidate, so nothing is cancelled.

use crate::pool::{SolvePool, WalkItem, WalkRequest, WalkVerdicts};
use crate::supervise::FaultState;
use crate::tape::InputTape;
use dart_solver::{
    Assignment, CacheStats, Constraint, PrefixSession, QueryCache, SolveOutcome, Solver,
};
use dart_sym::{BranchRecord, PathConstraint};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// How [`solve_next`] fans a run's candidate queries out.
///
/// The scheduler never changes what the walk *returns* — both variants
/// produce a byte-identical [`NextStep`] and byte-identical
/// deterministic stats (see the module docs) — only whether speculative
/// solving runs on other threads.
#[derive(Debug, Clone, Copy)]
pub enum Scheduler<'a> {
    /// Solve every candidate on the calling thread (`solve_threads = 1`).
    Sequential,
    /// Speculate on a persistent work-stealing [`SolvePool`]: long-lived
    /// workers, per-worker deques plus stealing, no per-walk thread
    /// spawns. What `solve_threads > 1` always means.
    Pool(&'a SolvePool),
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
    /// benchmark still reads it, and goes once the benchmark stops doing
    /// so (ROADMAP.md items 1 and 2).
    pub cache_hits: u64,
    /// Queries answered by re-checking a previously computed model
    /// (the counterexample-reuse fast path).
    pub cache_model_reuse: u64,
    /// Solved queries that split into independent variable components.
    pub split_solves: u64,
    /// Speculative worker solves the deterministic commit walk never
    /// consumed (cancelled past the winner, duplicated by a fault shift,
    /// or shadowed by a commit-time cache hit). Scheduling-dependent by
    /// nature: a diagnostic, excluded from the determinism contract.
    pub parallel_wasted: u64,
    /// Pool jobs executed by a worker other than the one they were
    /// queued on. Scheduling-dependent; excluded from the determinism
    /// contract like every counter below.
    pub steals: u64,
    /// Nanoseconds the committing thread spent blocked waiting on the
    /// pool for a walk's last speculative verdict.
    pub pool_idle_ns: u64,
    /// Deepest any pool worker deque got while this session's walks were
    /// being enqueued (a max, not a sum).
    pub max_queue_depth: u64,
    /// Fresh speculative solves per pool worker (index = worker id;
    /// empty unless the session ran on a [`SolvePool`]). On a pool
    /// shared across a sweep these count the whole pool's work as seen
    /// by this session's walks.
    pub per_worker_solves: Vec<u64>,
    /// Ignored; always 0. It once counted the pivots of a warm LP screen
    /// that is gone; it stays only because the end-to-end benchmark still
    /// reads it, and goes with the benchmark's replica of the directed
    /// loop (ROADMAP.md item 3).
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
    /// once at session end. Anything *not* session-cumulative must merge
    /// into the cache before this copy: per-worker speculative shards fold
    /// in through [`QueryCache::absorb_shard`] (`CacheStats: AddAssign`),
    /// so the assignment can no longer silently drop them. The one
    /// counter this method deliberately leaves alone is
    /// [`SolveStats::parallel_wasted`], which each walk's close adds to.
    pub fn absorb_cache(&mut self, cache: &QueryCache) {
        let cs = cache.stats();
        self.cache_hits = cs.model_reuse;
        self.cache_model_reuse = cs.model_reuse;
        self.split_solves = cs.split_solves;
    }

    /// Closes one walk — a [`solve_next`] call or one generational
    /// expansion — on the session totals. Folds in the walk's speculation,
    /// of whose fresh verdicts the commit consumed `consumed`; hands the
    /// committing `session` back to `cache` for the next walk; and copies
    /// the cache counters.
    pub(crate) fn finish_walk(
        &mut self,
        speculated: Option<&WalkVerdicts>,
        consumed: u64,
        session: PrefixSession,
        cache: &mut QueryCache,
    ) {
        if let Some(spec) = speculated {
            // Solver invocations the commit never replayed: count the
            // extra work honestly (`misses` is total solver invocations),
            // and surface it as the wasted-speculation diagnostic.
            let wasted = spec.fresh - consumed;
            self.parallel_wasted += wasted;
            cache.absorb_shard(CacheStats {
                misses: wasted,
                ..CacheStats::default()
            });
            // Scheduler observability: all diagnostics, outside the
            // determinism contract (see `scrub_scheduling`).
            self.steals += spec.steals;
            self.pool_idle_ns += spec.idle_ns;
            self.max_queue_depth = self.max_queue_depth.max(spec.max_queue_depth);
            if self.per_worker_solves.len() < spec.per_worker.len() {
                self.per_worker_solves.resize(spec.per_worker.len(), 0);
            }
            for (acc, w) in self.per_worker_solves.iter_mut().zip(&spec.per_worker) {
                *acc += w;
            }
        }
        cache.retain_session(session);
        self.absorb_cache(cache);
    }

    /// Zeroes every scheduling-dependent diagnostic — the counters the
    /// determinism contract explicitly excludes (`parallel_wasted`,
    /// `steals`, `pool_idle_ns`, `max_queue_depth`, `per_worker_solves`).
    /// After this, two reports of the same session under any scheduler
    /// and thread count compare equal.
    pub fn scrub_scheduling(&mut self) {
        self.parallel_wasted = 0;
        self.steals = 0;
        self.pool_idle_ns = 0;
        self.max_queue_depth = 0;
        self.per_worker_solves.clear();
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
/// (Fig. 5's `j == -1` case).
///
/// With [`Scheduler::Pool`] the candidates are speculatively solved on
/// the pool first, then committed in strategy order: the returned step,
/// the cache contents and every deterministic stat are byte-identical to
/// the sequential walk (see the module docs). [`Scheduler::Sequential`]
/// keeps everything on the calling thread.
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
    scheduler: Scheduler<'_>,
) -> Option<NextStep> {
    let n = stack.len().min(path.len());
    let mut candidates: Vec<usize> = (0..n).filter(|&j| !stack[j].done).collect();
    // The RNG advances identically whatever the scheduler says: thread
    // count must never leak into the random sequence.
    match strategy {
        Strategy::Dfs => candidates.reverse(),
        Strategy::RandomBranch => candidates.shuffle(rng),
    }
    // All of this run's queries share prefixes of one path constraint, and
    // under DFS the path repeats the previous run's up to the flipped
    // branch: the cache's retained session keeps that shared prefix and
    // pushes only the new suffix.
    let prefix = &path.constraints()[..n];
    let mut session = cache.take_session(solver, prefix);
    let mut speculated = speculate(scheduler, prefix, &candidates, &session, tape, cache, true);
    // The commit walk: sequential, in strategy order. Identical to the
    // plain walk except that positions the workers fresh-solved consume
    // the precomputed verdict instead of re-running the solver.
    let mut found = None;
    let mut consumed: u64 = 0;
    for (pos, &j) in candidates.iter().enumerate() {
        // Injected solver incompleteness: this query is counted and
        // skipped exactly as a genuine `Unknown` verdict would be — and
        // the fault slot is consumed at the same logical index as in the
        // sequential walk, so a speculative verdict for this position is
        // simply discarded (it never touched the cache).
        if faults.force_unknown_next_query() {
            stats.unknown += 1;
            continue;
        }
        let negated = prefix[j].negated();
        let pre = speculated.as_mut().and_then(|s| s.verdicts[pos].take());
        let (out, used) =
            cache.solve_query_precomputed(&mut session, j, &negated, |v| tape.value_of(v), pre);
        consumed += u64::from(used);
        match out {
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
    stats.finish_walk(speculated.as_ref(), consumed, session, cache);
    found
}

/// Speculatively solves a walk's candidate queries on the pool, ahead of
/// the sequential commit (see the module docs). `candidates` are depths
/// into `prefix` in commit order; the result holds one verdict slot per
/// candidate position. Returns `None` under [`Scheduler::Sequential`] and
/// when fewer than two candidates need a fresh solve, since the commit
/// then solves at most one query itself anyway.
///
/// Pool workers never see the session's [`QueryCache`]: the committing
/// thread pre-peeks every candidate here, in commit order, and enqueues
/// only positions the model pool cannot answer. A worker's verdict is
/// therefore a pure function of `(solver config, prefix, negated
/// constraint, hint)`, which is exactly what a synchronous solve at the
/// same position would compute against walk-entry cache state.
///
/// `first_sat_wins` picks the dispatch rule. [`solve_next`] commits only
/// its first `Sat` candidate, so a peek that answers `Sat` at position
/// `p` caps speculation at `p`, and a worker `Sat` may lower the cap
/// further mid-flight ([`WalkRequest::cancel_on_sat`]). A generational
/// expansion commits *every* candidate, so every cache miss is
/// dispatched and nothing is cancelled. Cancelled or panicked jobs leave
/// their slot empty and the commit falls back to a synchronous solve, so
/// correctness never depends on which jobs actually ran.
pub(crate) fn speculate(
    scheduler: Scheduler<'_>,
    prefix: &[Constraint],
    candidates: &[usize],
    session: &PrefixSession,
    tape: &InputTape,
    cache: &QueryCache,
    first_sat_wins: bool,
) -> Option<WalkVerdicts> {
    let pool = match scheduler {
        Scheduler::Pool(pool) if candidates.len() > 1 => pool,
        _ => return None,
    };
    let mut items = Vec::new();
    let mut cap = usize::MAX;
    for (pos, &j) in candidates.iter().enumerate() {
        if pos > cap {
            break;
        }
        let negated = prefix[j].negated();
        match cache.peek_query(session, j, &negated, |v| tape.value_of(v)) {
            Some(out) if first_sat_wins && out.is_sat() => cap = pos,
            Some(_) => {}
            None => items.push(WalkItem { pos, j, negated }),
        }
    }
    if items.len() < 2 {
        return None;
    }
    Some(pool.run_walk(
        WalkRequest {
            prefix: prefix.to_vec(),
            items,
            tape: tape.clone(),
            config: *session.solver().config(),
            initial_cap: cap,
            cancel_on_sat: first_sat_wins,
        },
        candidates.len(),
    ))
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

    /// `scrub_scheduling` zeroes exactly the scheduling-dependent
    /// diagnostics and leaves every deterministic counter alone. Both
    /// struct literals are exhaustive (no `..Default::default()`) on
    /// purpose: adding a `SolveStats` field breaks this test at compile
    /// time, forcing a decision about which side of the determinism
    /// contract the new counter falls on.
    #[test]
    fn scrub_scheduling_covers_every_diagnostic_and_nothing_else() {
        let mut stats = SolveStats {
            sat: 1,
            unsat: 2,
            unknown: 3,
            cache_hits: 4,
            cache_model_reuse: 5,
            split_solves: 6,
            parallel_wasted: 7,
            steals: 9,
            pool_idle_ns: 10,
            max_queue_depth: 11,
            per_worker_solves: vec![12, 13],
            warm_pivots: 14,
            cold_restarts: 15,
        };
        stats.scrub_scheduling();
        let expected = SolveStats {
            sat: 1,
            unsat: 2,
            unknown: 3,
            cache_hits: 4,
            cache_model_reuse: 5,
            split_solves: 6,
            parallel_wasted: 0,
            steals: 0,
            pool_idle_ns: 0,
            max_queue_depth: 0,
            per_worker_solves: Vec::new(),
            warm_pivots: 14,
            cold_restarts: 15,
        };
        assert_eq!(stats, expected);
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

    /// Runs `solve_next` with the given scheduler on a three-deep
    /// path whose deepest two flips are unsatisfiable, returning the
    /// step plus stats — the parallel walks must match the sequential
    /// one field for field (minus the scheduling diagnostics).
    fn run_mixed_path(scheduler: Scheduler<'_>) -> (Option<NextStep>, SolveStats, QueryCache) {
        // path: x == 1 (taken), x < 100 (taken), x != 5.
        let mut pc = PathConstraint::new();
        pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Eq));
        pc.push(Constraint::new(
            LinExpr::var(Var(0)).offset(-100),
            RelOp::Lt,
        ));
        pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Ne));
        let mut tape = InputTape::new(0);
        let _ = tape.take(InputKind::IntLike, || "x".into());
        let stack = vec![
            record(true, false),
            record(true, false),
            record(false, false),
        ];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stats = SolveStats::default();
        let mut cache = QueryCache::default();
        let step = solve_next(
            &pc,
            &stack,
            &tape,
            &Solver::default(),
            &mut cache,
            Strategy::Dfs,
            &mut rng,
            &mut stats,
            &mut FaultState::default(),
            scheduler,
        );
        (step, stats, cache)
    }

    #[test]
    fn parallel_walk_matches_sequential_walk() {
        let (seq_step, mut seq_stats, seq_cache) = run_mixed_path(Scheduler::Sequential);
        let pool2 = SolvePool::new(2);
        let pool4 = SolvePool::new(4);
        let schedulers = [Scheduler::Pool(&pool2), Scheduler::Pool(&pool4)];
        for scheduler in schedulers {
            let (par_step, mut par_stats, par_cache) = run_mixed_path(scheduler);
            let (s, p) = (seq_step.as_ref().unwrap(), par_step.as_ref().unwrap());
            assert_eq!(s.stack, p.stack, "{scheduler:?}: same flip");
            assert_eq!(s.model, p.model, "{scheduler:?}: same model");
            seq_stats.scrub_scheduling();
            par_stats.scrub_scheduling();
            assert_eq!(seq_stats, par_stats, "{scheduler:?}: same stats");
            // The committed cache contents match too: the same walk
            // reused pooled models identically on both.
            assert_eq!(
                seq_cache.stats().model_reuse,
                par_cache.stats().model_reuse,
                "{scheduler:?}"
            );
        }
        // The deepest two flips (x==1 ∧ x<100 ∧ x==5, x==1 ∧ ¬(x<100))
        // are unsat; the shallowest (x != 1) wins.
        assert_eq!(seq_stats.unsat, 2);
        assert_eq!(seq_stats.sat, 1);
    }

    /// One pool instance serving many walks in a row keeps producing the
    /// sequential walk's answer — the persistent-worker reuse leaks no
    /// state from one walk into the next.
    #[test]
    fn pooled_walks_stay_sequential_equal_across_reuse() {
        let (seq_step, mut seq_stats, _) = run_mixed_path(Scheduler::Sequential);
        seq_stats.scrub_scheduling();
        let pool = SolvePool::new(3);
        for round in 0..10 {
            let (step, mut stats, _) = run_mixed_path(Scheduler::Pool(&pool));
            let (s, p) = (seq_step.as_ref().unwrap(), step.as_ref().unwrap());
            assert_eq!(s.stack, p.stack, "round {round}");
            assert_eq!(s.model, p.model, "round {round}");
            stats.scrub_scheduling();
            assert_eq!(seq_stats, stats, "round {round}");
        }
    }

    #[test]
    fn parallel_walk_under_fault_matches_sequential_walk() {
        // Force query k Unknown for every k: the fault slot must land on
        // the same logical query whatever the scheduler, including
        // when it shifts the winner past the speculation high-water mark.
        let pool = SolvePool::new(4);
        for k in 0..3u64 {
            let mut outcomes = Vec::new();
            for scheduler in [Scheduler::Sequential, Scheduler::Pool(&pool)] {
                let mut pc = PathConstraint::new();
                pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Ne));
                pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-2), RelOp::Ne));
                pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-3), RelOp::Ne));
                let mut tape = InputTape::new(0);
                let _ = tape.take(InputKind::IntLike, || "x".into());
                let stack = vec![
                    record(false, false),
                    record(false, false),
                    record(false, false),
                ];
                let mut rng = SmallRng::seed_from_u64(0);
                let mut stats = SolveStats::default();
                let config = crate::DartConfig {
                    faults: crate::supervise::FaultPlan {
                        unknown_on_query: Some(k),
                        ..crate::supervise::FaultPlan::default()
                    },
                    ..crate::DartConfig::default()
                };
                let mut faults = FaultState::for_config(&config);
                let step = solve_next(
                    &pc,
                    &stack,
                    &tape,
                    &Solver::default(),
                    &mut QueryCache::default(),
                    Strategy::Dfs,
                    &mut rng,
                    &mut stats,
                    &mut faults,
                    scheduler,
                );
                let step = step.expect("some candidate is satisfiable");
                stats.scrub_scheduling();
                outcomes.push((step.stack, step.model, stats));
            }
            assert_eq!(outcomes[0], outcomes[1], "fault on query {k}");
            // Only a fault slot consumed before the winner registers: with
            // every flip satisfiable the sequential winner is position 0,
            // so only `k == 0` fires — and shifts the winner to position 1,
            // past the speculation high-water mark.
            assert_eq!(
                outcomes[0].2.unknown,
                u64::from(k == 0),
                "fault on query {k}"
            );
        }
    }

    /// On a path mixing satisfiable and unsatisfiable flips, every
    /// scheduler × fault-injection combination returns the same
    /// `NextStep` and the same scrubbed stats as the sequential walk.
    #[test]
    fn mixed_walk_matches_sequential_across_schedulers_and_faults() {
        let pool = SolvePool::new(4);
        for fault in [None, Some(0u64), Some(1u64)] {
            let run = |scheduler: Scheduler<'_>| {
                // x == 1 (taken), x < 100 (taken), x != 5: the deepest two
                // flips are unsat, the shallowest is sat.
                let mut pc = PathConstraint::new();
                pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Eq));
                pc.push(Constraint::new(
                    LinExpr::var(Var(0)).offset(-100),
                    RelOp::Lt,
                ));
                pc.push(Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Ne));
                let mut tape = InputTape::new(0);
                let _ = tape.take(InputKind::IntLike, || "x".into());
                let stack = vec![
                    record(true, false),
                    record(true, false),
                    record(false, false),
                ];
                let mut rng = SmallRng::seed_from_u64(0);
                let mut stats = SolveStats::default();
                let config = crate::DartConfig {
                    faults: crate::supervise::FaultPlan {
                        unknown_on_query: fault,
                        ..crate::supervise::FaultPlan::default()
                    },
                    ..crate::DartConfig::default()
                };
                let mut faults = FaultState::for_config(&config);
                let step = solve_next(
                    &pc,
                    &stack,
                    &tape,
                    &Solver::default(),
                    &mut QueryCache::default(),
                    Strategy::Dfs,
                    &mut rng,
                    &mut stats,
                    &mut faults,
                    scheduler,
                );
                stats.scrub_scheduling();
                (step.map(|s| (s.stack, s.model)), stats)
            };
            assert_eq!(
                run(Scheduler::Sequential),
                run(Scheduler::Pool(&pool)),
                "fault={fault:?}"
            );
        }
    }

    #[test]
    fn wasted_speculation_is_counted() {
        // Sequential: never speculates, never wastes.
        let (_, stats, _) = run_mixed_path(Scheduler::Sequential);
        assert_eq!(stats.parallel_wasted, 0);
        assert!(stats.per_worker_solves.is_empty());
        // Pooled: whatever the scheduling, fresh speculative solves minus
        // commits is bounded by the candidates, and the per-worker
        // partition accounts for every fresh speculative solve the pool
        // performed for this walk.
        let pool = SolvePool::new(4);
        let (_, stats, _) = run_mixed_path(Scheduler::Pool(&pool));
        assert!(stats.parallel_wasted <= 3);
        assert_eq!(stats.per_worker_solves.len(), 4);
    }

    /// The one fan-out keeps both walks' dispatch rules. Scrubbed reports
    /// cannot see a mistake here, because the commit re-solves every
    /// position that lacks a speculative verdict: capping a generational
    /// walk would only lose parallelism, silently.
    #[test]
    fn speculation_keeps_both_dispatch_rules() {
        // x > 0, x < 100, x != 50, x > -5, x < 200. In DFS order
        // (positions 0..5 = depths 4..0) the first two flips are Unsat,
        // each contradicting an earlier bound; the other three are Sat.
        let x = || LinExpr::var(Var(0));
        let mut pc = PathConstraint::new();
        pc.push(Constraint::new(x(), RelOp::Gt));
        pc.push(Constraint::new(x().offset(-100), RelOp::Lt));
        pc.push(Constraint::new(x().offset(-50), RelOp::Ne));
        pc.push(Constraint::new(x().offset(5), RelOp::Gt));
        pc.push(Constraint::new(x().offset(-200), RelOp::Lt));
        let mut tape = InputTape::new(0);
        let _ = tape.take(InputKind::IntLike, || "x".into());
        let prefix = pc.constraints();
        let candidates = [4, 3, 2, 1, 0];
        let pool = SolvePool::new(2);
        let mut cache = QueryCache::default();
        let mut session = cache.take_session(&Solver::default(), prefix);
        let fan_out = |cache: &QueryCache, session: &PrefixSession, first_sat_wins: bool| {
            let pool = Scheduler::Pool(&pool);
            speculate(
                pool,
                prefix,
                &candidates,
                session,
                &tape,
                cache,
                first_sat_wins,
            )
            .expect("at least two cache misses are dispatched")
            .verdicts
        };
        // Cold cache, commit-all: every candidate gets a fresh verdict.
        let all = fan_out(&cache, &session, false);
        assert!(all.iter().all(Option::is_some), "{all:?}");
        // Teach the cache that flipping `x != 50` (position 2) is Sat.
        let hint = |v| tape.value_of(v);
        assert!(cache
            .solve_query(&mut session, 2, &prefix[2].negated(), hint)
            .is_sat());
        // Commit-all still dispatches every other position…
        let all = fan_out(&cache, &session, false);
        let dispatched: Vec<bool> = all.iter().map(Option::is_some).collect();
        assert_eq!(dispatched, [true, true, false, true, true]);
        // …while first-Sat-wins dispatches nothing past the Sat peek.
        let first = fan_out(&cache, &session, true);
        let dispatched: Vec<bool> = first.iter().map(Option::is_some).collect();
        assert_eq!(dispatched, [true, true, false, false, false]);
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
