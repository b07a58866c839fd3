//! `solve_path_constraint` (paper Fig. 5) and branch-selection strategies.
//!
//! # Parallel candidate fan-out
//!
//! One run's candidate queries are independent conjunctions
//! (`c_0 ∧ … ∧ c_{j-1} ∧ ¬c_j` for different `j`), so with a parallel
//! [`Scheduler`] [`solve_next`] speculates on them concurrently and
//! then *commits* sequentially, producing a byte-identical [`NextStep`]
//! and byte-identical stats. The scheme rests on one invariant: within a
//! single `solve_next` walk, every query before the winner is
//! `Unsat`/`Unknown`, and those verdicts push no models into the cache's
//! reuse pool — so each candidate's verdict is a function of the cache
//! state *at walk entry*, which is exactly the state the workers
//! speculate against ([`Scheduler::Scoped`] workers peek it read-only;
//! [`Scheduler::Pool`] workers never touch it at all — the committing
//! thread pre-peeks and only dispatches cache misses). The commit walk
//! then re-runs the real shortcut chain per position in strategy order,
//! consumes a worker's fresh verdict only where a synchronous solve
//! would have happened, counts fault-injection slots in the exact
//! sequential order, and stops at the first `Sat` — the same winner the
//! sequential walk picks. Workers past the lowest `Sat` position are
//! cancelled through an atomic high-water mark; since the mark only
//! decreases, a cancelled position is strictly past the final winner,
//! and any position missing a speculative verdict — cancelled, never
//! scheduled, or lost to a worker panic — is covered by the commit
//! walk's synchronous fallback solve, so *which* jobs ran never affects
//! what the walk returns.

use crate::pool::{SolvePool, WalkItem, WalkRequest};
use crate::supervise::FaultState;
use crate::tape::InputTape;
use dart_solver::{
    Assignment, CacheStats, Constraint, PrefixSession, QueryCache, SessionStats, SolveInfo,
    SolveOutcome, Solver,
};
use dart_sym::{BranchRecord, PathConstraint};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How [`solve_next`] fans a run's candidate queries out.
///
/// The scheduler never changes what the walk *returns* — every variant
/// produces a byte-identical [`NextStep`] and byte-identical
/// deterministic stats (see the module docs) — only how the speculative
/// solving is distributed over threads.
#[derive(Debug, Clone, Copy)]
pub enum Scheduler<'a> {
    /// Solve every candidate on the calling thread (`solve_threads = 1`).
    Sequential,
    /// PR 3's per-call scoped fan-out, now with static contiguous
    /// chunking: thread `t` of `n` owns candidates `[t·⌈m/n⌉, …)`. Kept
    /// as the ablation baseline the work-stealing bench compares
    /// against ([`crate::SchedulerMode::StaticScoped`]); a worker stuck
    /// on one hard query strands the rest of its chunk.
    Scoped(usize),
    /// A persistent work-stealing [`SolvePool`]: long-lived workers,
    /// per-worker deques plus stealing, no per-walk thread spawns. The
    /// production default for `solve_threads > 1`.
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
    /// Queries answered by replaying another session's verdict from an
    /// attached [`dart_solver::SharedVerdictStore`]. Deterministic within
    /// one session; across a sweep it depends on which session published
    /// first — a diagnostic, excluded from cross-session determinism
    /// comparisons.
    pub shared_hits: u64,
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
    /// Dual-simplex pivots performed by warm-started LP resolves
    /// (committed sessions only — pool workers' speculative sessions are
    /// discarded, so the total depends on which walks committed where;
    /// scheduling-dependent, scrubbed like the counters above).
    pub warm_pivots: u64,
    /// Warm LP dictionaries discarded for a cold two-phase solve (first
    /// query of a session, pivot-budget exhaustion, or arithmetic
    /// overflow). Scheduling-dependent for the same reason as
    /// [`SolveStats::warm_pivots`].
    pub cold_restarts: u64,
    /// Portfolio races decided by the FD-search arm (a verified model
    /// beat the LP). Counted only with `--portfolio on`; which arm wins
    /// never changes the committed verdict, but the tally is
    /// mode-dependent, so it is scrubbed with the scheduling counters.
    pub portfolio_fd_wins: u64,
    /// Portfolio races decided by the warm-LP arm (rational infeasibility
    /// beat the FD search). See [`SolveStats::portfolio_fd_wins`].
    pub portfolio_lp_wins: u64,
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
    /// [`SolveStats::parallel_wasted`], which `solve_next` owns and
    /// accumulates additively.
    pub fn absorb_cache(&mut self, cache: &QueryCache) {
        let cs = cache.stats();
        self.cache_hits = cs.hits;
        self.cache_model_reuse = cs.model_reuse;
        self.split_solves = cs.split_solves;
        self.shared_hits = cs.shared_hits;
    }

    /// Adds one walk's LP/portfolio counters: the retained session's
    /// cumulative [`SessionStats`] minus its snapshot at walk entry, so a
    /// session that serves many walks is counted once per walk.
    pub(crate) fn add_session_walk(&mut self, walk: SessionStats) {
        self.warm_pivots += walk.warm_pivots;
        self.cold_restarts += walk.cold_restarts;
        self.portfolio_fd_wins += walk.portfolio_fd_wins;
        self.portfolio_lp_wins += walk.portfolio_lp_wins;
    }

    /// Zeroes every scheduling-dependent diagnostic — the counters the
    /// determinism contract explicitly excludes (`parallel_wasted`,
    /// `shared_hits`, `steals`, `pool_idle_ns`, `max_queue_depth`,
    /// `per_worker_solves`, `warm_pivots`, `cold_restarts`,
    /// `portfolio_fd_wins`, `portfolio_lp_wins`). After this, two reports
    /// of the same session under any scheduler × shared-cache ×
    /// portfolio-mode combination compare equal.
    pub fn scrub_scheduling(&mut self) {
        self.parallel_wasted = 0;
        self.shared_hits = 0;
        self.steals = 0;
        self.pool_idle_ns = 0;
        self.max_queue_depth = 0;
        self.per_worker_solves.clear();
        self.warm_pivots = 0;
        self.cold_restarts = 0;
        self.portfolio_fd_wins = 0;
        self.portfolio_lp_wins = 0;
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
/// With a parallel [`Scheduler`] the candidates are speculatively solved
/// first — on the persistent work-stealing pool or on a per-call scoped
/// fan-out — then committed in strategy order: the returned step, the
/// cache contents and every deterministic stat are byte-identical to the
/// sequential walk (see the module docs). [`Scheduler::Sequential`]
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
    let walk_start = session.stats();
    let mut speculated = match scheduler {
        Scheduler::Pool(pool) if candidates.len() > 1 => speculate_pooled(
            prefix,
            path,
            &candidates,
            &session,
            tape,
            cache,
            solver,
            pool,
        ),
        Scheduler::Scoped(threads) if threads > 1 && candidates.len() > 1 => {
            speculate_scoped(path, &candidates, &session, tape, cache, threads, true)
        }
        _ => Speculation::none(candidates.len()),
    };
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
        let negated = path.constraints()[j].negated();
        let pre = speculated.verdicts[pos].take();
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
    if speculated.fresh > 0 {
        // Solver invocations the commit never replayed: count the extra
        // work honestly (`misses` is total solver invocations), and
        // surface it as the wasted-speculation diagnostic.
        stats.parallel_wasted += speculated.fresh - consumed;
        cache.absorb_shard(CacheStats {
            misses: speculated.fresh - consumed,
            ..CacheStats::default()
        });
    }
    // Scheduler observability: all diagnostics, outside the determinism
    // contract (see `SolveStats::scrub_scheduling`).
    stats.steals += speculated.steals;
    stats.pool_idle_ns += speculated.idle_ns;
    stats.max_queue_depth = stats.max_queue_depth.max(speculated.max_queue_depth);
    if !speculated.per_worker.is_empty() {
        if stats.per_worker_solves.len() < speculated.per_worker.len() {
            stats
                .per_worker_solves
                .resize(speculated.per_worker.len(), 0);
        }
        for (acc, w) in stats
            .per_worker_solves
            .iter_mut()
            .zip(&speculated.per_worker)
        {
            *acc += w;
        }
    }
    // LP/portfolio counters from this walk on the committing session.
    // Speculative pool workers solve on their own sessions that are
    // dropped with the scope, so these totals depend on how much work the
    // commit walk did locally — diagnostics, scrubbed with the rest.
    stats.add_session_walk(session.stats() - walk_start);
    cache.retain_session(session);
    stats.absorb_cache(cache);
    found
}

/// Results of the speculative fan-out: per-position fresh verdicts
/// (`None` where a read-only cache peek already had an answer, the
/// position was cancelled, or no worker reached it), how many fresh
/// solves the workers performed, and the scheduler diagnostics (all zero
/// for the sequential and scoped paths except `fresh`).
pub(crate) struct Speculation {
    pub(crate) verdicts: Vec<Option<(SolveOutcome, SolveInfo)>>,
    pub(crate) fresh: u64,
    pub(crate) steals: u64,
    pub(crate) idle_ns: u64,
    pub(crate) max_queue_depth: u64,
    pub(crate) per_worker: Vec<u64>,
}

impl Speculation {
    pub(crate) fn none(len: usize) -> Speculation {
        Speculation {
            verdicts: (0..len).map(|_| None).collect(),
            fresh: 0,
            steals: 0,
            idle_ns: 0,
            max_queue_depth: 0,
            per_worker: Vec::new(),
        }
    }
}

/// Fans the candidate queries out over a per-call scoped fan-out with
/// *static contiguous chunking*: worker `t` owns positions
/// `[t·⌈m/n⌉, (t+1)·⌈m/n⌉)`, no rebalancing. This is the ablation
/// baseline [`Scheduler::Pool`] is measured against (`bench_smoke`'s
/// `work_steal/skewed_*` workloads): one hard query strands the rest of
/// the owning worker's chunk behind it. Each worker clones the pristine
/// prefix `session` — queries before the winner cannot mutate the cache's
/// model pool, so the walk-entry cache state every worker peeks against
/// is the state the commit walk will see for any position whose verdict
/// it consumes. The first `Sat` lowers the atomic high-water mark, and
/// since the mark only decreases, a worker skipping `p > high_water`
/// can only skip positions strictly past the final winner — never one
/// the commit walk needs (absent fault injection, which the commit walk
/// covers with a synchronous fallback solve).
/// `cancel` selects first-Sat-wins semantics (a `Sat` abandons every
/// deeper position — `solve_next`'s walks) vs. solve-everything
/// semantics (a generational expansion commits every candidate, so
/// nothing is abandoned).
#[allow(clippy::too_many_arguments)] // mirrors solve_next's walk state
fn speculate_scoped(
    path: &PathConstraint,
    candidates: &[usize],
    session: &PrefixSession,
    tape: &InputTape,
    cache: &QueryCache,
    threads: usize,
    cancel: bool,
) -> Speculation {
    let m = candidates.len();
    let slots: Vec<OnceLock<Option<(SolveOutcome, SolveInfo)>>> =
        (0..m).map(|_| OnceLock::new()).collect();
    let high_water = AtomicUsize::new(usize::MAX);
    let workers = threads.min(m);
    let chunk = m.div_ceil(workers);
    std::thread::scope(|scope| {
        let slots = &slots;
        let high_water = &high_water;
        for t in 0..workers {
            scope.spawn(move || {
                let mut sess = session.clone();
                let lo = t * chunk;
                let hi = m.min(lo + chunk);
                for p in lo..hi {
                    if cancel && p > high_water.load(Ordering::Acquire) {
                        continue;
                    }
                    let j = candidates[p];
                    let negated = path.constraints()[j].negated();
                    let (sat, fresh) = match cache
                        .peek_query(&sess, j, &negated, |v| tape.value_of(v))
                    {
                        Some(out) => (out.is_sat(), None),
                        None => {
                            let mut info = SolveInfo::default();
                            let out =
                                sess.solve_query_info(j, &negated, |v| tape.value_of(v), &mut info);
                            (out.is_sat(), Some((out, info)))
                        }
                    };
                    if cancel && sat {
                        high_water.fetch_min(p, Ordering::AcqRel);
                    }
                    let _ = slots[p].set(fresh);
                }
            });
        }
    });
    let verdicts: Vec<Option<(SolveOutcome, SolveInfo)>> = slots
        .into_iter()
        .map(|s| s.into_inner().flatten())
        .collect();
    let fresh = verdicts.iter().filter(|v| v.is_some()).count() as u64;
    Speculation {
        verdicts,
        fresh,
        steals: 0,
        idle_ns: 0,
        max_queue_depth: 0,
        per_worker: Vec::new(),
    }
}

/// Fans the candidate queries out over the persistent work-stealing
/// [`SolvePool`]. Unlike the scoped path, pool workers never see the
/// session's [`QueryCache`] — the committing thread pre-peeks every
/// candidate here, in strategy order, and only enqueues positions no
/// cache tier can answer, so a worker's verdict is a pure function of
/// `(solver config, prefix, negated constraint, hint)` — exactly what a
/// synchronous solve at the same position would compute against
/// walk-entry cache state. A peek that answers `Sat` at position `p`
/// caps speculation at `p` (nothing past it is enqueued); a worker `Sat`
/// may lower the walk's high-water mark further mid-flight. Cancelled or
/// panicked jobs simply leave their slot empty and the commit walk falls
/// back to a synchronous solve, so correctness never depends on which
/// jobs actually ran.
#[allow(clippy::too_many_arguments)] // mirrors solve_next's walk state
fn speculate_pooled(
    prefix: &[Constraint],
    path: &PathConstraint,
    candidates: &[usize],
    session: &PrefixSession,
    tape: &InputTape,
    cache: &QueryCache,
    solver: &Solver,
    pool: &SolvePool,
) -> Speculation {
    let m = candidates.len();
    let mut items = Vec::new();
    let mut initial_cap = usize::MAX;
    for (pos, &j) in candidates.iter().enumerate() {
        if pos > initial_cap {
            break;
        }
        let negated = path.constraints()[j].negated();
        match cache.peek_query(session, j, &negated, |v| tape.value_of(v)) {
            Some(out) => {
                if out.is_sat() {
                    initial_cap = pos;
                }
            }
            None => items.push(WalkItem { pos, j, negated }),
        }
    }
    if items.len() < 2 {
        // Nothing worth dispatching: the commit walk solves at most one
        // fresh query anyway.
        return Speculation::none(m);
    }
    let out = pool.run_walk(
        WalkRequest {
            prefix: prefix.to_vec(),
            items,
            tape: tape.clone(),
            config: *solver.config(),
            initial_cap,
            cancel_on_sat: true,
        },
        m,
    );
    Speculation {
        verdicts: out.verdicts,
        fresh: out.fresh,
        steals: out.steals,
        idle_ns: out.idle_ns,
        max_queue_depth: out.max_queue_depth,
        per_worker: out.per_worker,
    }
}

/// Fans out a generational expansion's candidate queries under
/// `scheduler` and returns their speculative verdicts, indexed by
/// candidate position. Unlike `solve_next`'s first-Sat-wins walks, a
/// generational run commits *every* candidate (each satisfiable negation
/// spawns a child), so no high-water cancellation applies: every cache
/// miss is dispatched and solved. The commit loop in
/// `Dart::run_generational` re-runs the real shortcut chain per
/// candidate in `j` order and consumes a fresh verdict only where a
/// synchronous solve would have happened, so reports are byte-identical
/// to the sequential expansion — same contract as `solve_next`.
#[allow(clippy::too_many_arguments)] // mirrors solve_next's walk state
pub(crate) fn speculate_all(
    prefix: &[Constraint],
    path: &PathConstraint,
    candidates: &[usize],
    session: &PrefixSession,
    tape: &InputTape,
    cache: &QueryCache,
    solver: &Solver,
    scheduler: Scheduler<'_>,
) -> Speculation {
    let m = candidates.len();
    match scheduler {
        Scheduler::Pool(pool) if m > 1 => {
            // Pre-peek every candidate read-only; only cache misses are
            // dispatched (pool workers never see the cache). No Sat cap:
            // every candidate's verdict is wanted.
            let mut items = Vec::new();
            for (pos, &j) in candidates.iter().enumerate() {
                let negated = path.constraints()[j].negated();
                if cache
                    .peek_query(session, j, &negated, |v| tape.value_of(v))
                    .is_none()
                {
                    items.push(WalkItem { pos, j, negated });
                }
            }
            if items.len() < 2 {
                return Speculation::none(m);
            }
            let out = pool.run_walk(
                WalkRequest {
                    prefix: prefix.to_vec(),
                    items,
                    tape: tape.clone(),
                    config: *solver.config(),
                    initial_cap: usize::MAX,
                    cancel_on_sat: false,
                },
                m,
            );
            Speculation {
                verdicts: out.verdicts,
                fresh: out.fresh,
                steals: out.steals,
                idle_ns: out.idle_ns,
                max_queue_depth: out.max_queue_depth,
                per_worker: out.per_worker,
            }
        }
        Scheduler::Scoped(threads) if threads > 1 && m > 1 => {
            speculate_scoped(path, candidates, session, tape, cache, threads, false)
        }
        _ => Speculation::none(m),
    }
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
            shared_hits: 8,
            steals: 9,
            pool_idle_ns: 10,
            max_queue_depth: 11,
            per_worker_solves: vec![12, 13],
            warm_pivots: 14,
            cold_restarts: 15,
            portfolio_fd_wins: 16,
            portfolio_lp_wins: 17,
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
            shared_hits: 0,
            steals: 0,
            pool_idle_ns: 0,
            max_queue_depth: 0,
            per_worker_solves: Vec::new(),
            warm_pivots: 0,
            cold_restarts: 0,
            portfolio_fd_wins: 0,
            portfolio_lp_wins: 0,
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
            &mut QueryCache::new(true),
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
            &mut QueryCache::new(true),
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
            &mut QueryCache::new(true),
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
            &mut QueryCache::new(true),
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
            &mut QueryCache::new(true),
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
        let mut cache = QueryCache::new(true);
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
        let schedulers = [
            Scheduler::Scoped(2),
            Scheduler::Scoped(4),
            Scheduler::Scoped(8),
            Scheduler::Pool(&pool2),
            Scheduler::Pool(&pool4),
        ];
        for scheduler in schedulers {
            let (par_step, mut par_stats, par_cache) = run_mixed_path(scheduler);
            let (s, p) = (seq_step.as_ref().unwrap(), par_step.as_ref().unwrap());
            assert_eq!(s.stack, p.stack, "{scheduler:?}: same flip");
            assert_eq!(s.model, p.model, "{scheduler:?}: same model");
            seq_stats.scrub_scheduling();
            par_stats.scrub_scheduling();
            assert_eq!(seq_stats, par_stats, "{scheduler:?}: same stats");
            // The committed cache contents match too: a rerun of the same
            // walk hits identically on both.
            assert_eq!(
                seq_cache.stats().hits,
                par_cache.stats().hits,
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
            for scheduler in [
                Scheduler::Sequential,
                Scheduler::Scoped(4),
                Scheduler::Pool(&pool),
            ] {
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
                    &mut QueryCache::new(true),
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
            assert_eq!(outcomes[0], outcomes[2], "fault on query {k} (pool)");
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

    /// The portfolio race changes no walk observable: across every
    /// scheduler × fault-injection combination, `solve_next` with a
    /// racing solver returns the same `NextStep` and the same scrubbed
    /// stats as the plain strategy order (the `portfolio_*_wins` and LP
    /// counters are scheduling/mode diagnostics, zeroed by the scrub).
    #[test]
    fn portfolio_walk_matches_plain_across_schedulers_and_faults() {
        let pool = SolvePool::new(4);
        for fault in [None, Some(0u64), Some(1u64)] {
            let run = |portfolio: bool, scheduler: Scheduler<'_>| {
                // A mix of sat and unsat flips so both race outcomes
                // (fd-model wins, LP-infeasibility wins) are exercised:
                // x == 1 (taken), x < 100 (taken), x != 5.
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
                let solver = Solver::new(dart_solver::SolverConfig {
                    portfolio,
                    ..dart_solver::SolverConfig::default()
                });
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
                    &solver,
                    &mut QueryCache::new(true),
                    Strategy::Dfs,
                    &mut rng,
                    &mut stats,
                    &mut faults,
                    scheduler,
                );
                stats.scrub_scheduling();
                (step.map(|s| (s.stack, s.model)), stats)
            };
            let baseline = run(false, Scheduler::Sequential);
            for portfolio in [false, true] {
                for scheduler in [
                    Scheduler::Sequential,
                    Scheduler::Scoped(4),
                    Scheduler::Pool(&pool),
                ] {
                    assert_eq!(
                        baseline,
                        run(portfolio, scheduler),
                        "portfolio={portfolio} {scheduler:?} fault={fault:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn wasted_speculation_is_counted() {
        // Sequential: never speculates, never wastes.
        let (_, stats, _) = run_mixed_path(Scheduler::Sequential);
        assert_eq!(stats.parallel_wasted, 0);
        assert!(stats.per_worker_solves.is_empty());
        // Parallel: whatever the scheduling, fresh speculative solves
        // minus commits is non-negative and bounded by the candidates.
        let (_, stats, _) = run_mixed_path(Scheduler::Scoped(4));
        assert!(stats.parallel_wasted <= 3);
        // Pooled: the per-worker partition accounts for every fresh
        // speculative solve the pool performed for this walk.
        let pool = SolvePool::new(4);
        let (_, stats, _) = run_mixed_path(Scheduler::Pool(&pool));
        assert!(stats.parallel_wasted <= 3);
        assert_eq!(stats.per_worker_solves.len(), 4);
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
            &mut QueryCache::new(true),
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
