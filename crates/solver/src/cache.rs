//! Session-wide solver query cache.
//!
//! A directed session re-issues near-identical queries constantly: DFS
//! revisits the same path prefixes run after run, restarts replay whole
//! query families, and the generational search expands every branch of a
//! path whose prefix it has already reasoned about. [`QueryCache`] keeps
//! two things that make those repeats cheap:
//!
//! 1. A bounded **model pool** for the paper's counterexample-reuse
//!    trick: a model computed for one query often satisfies a later
//!    query over a subset/superset constraint system; checking a handful
//!    of recent models is far cheaper than a fresh solve. The reuse path
//!    re-runs the solver's own cheap probes (hint, then zeros) first and
//!    declines when either would fire, so it never shadows a probe
//!    answer.
//! 2. The engine session's [`PrefixSession`], carried from one walk to
//!    the next ([`QueryCache::take_session`] /
//!    [`QueryCache::retain_session`]), so each walk pushes only the
//!    suffix its path does not share with the previous one. A re-based
//!    session answers exactly as a freshly built one, so retaining it
//!    changes no verdict, model or counter.
//!
//! The cache memoizes no verdicts: every query the pool does not answer
//! goes to the solver. Only `Sat` verdicts push models, so the pool's
//! contents — and with them every answer and counter — are a function of
//! the session's own query stream.
//!
//! # Examples
//!
//! ```
//! use dart_solver::{Constraint, LinExpr, QueryCache, RelOp, Solver, Var};
//!
//! let solver = Solver::default();
//! let mut cache = QueryCache::default();
//! // x0 == 5 under the hint x0 = 7, which defeats both probes: the first
//! // ask is a fresh solve, the second is answered from the model pool.
//! let q = vec![Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Eq)];
//! let first = cache.solve_with_hint(&solver, &q, |_| Some(7));
//! assert!(first.is_sat());
//! assert_eq!(cache.solve_with_hint(&solver, &q, |_| Some(7)), first);
//! assert_eq!((cache.stats().misses, cache.stats().model_reuse), (1, 1));
//! ```

use crate::constraint::Constraint;
use crate::ilp::{Assignment, PrefixSession, SolveInfo, SolveOutcome, Solver};
use crate::linear::Var;

/// How many recent models the counterexample-reuse pool retains.
pub const MODEL_POOL: usize = 64;

/// One query `prefix ∧ last`, borrowed from where its constraints live: a
/// session query's prefix stays in the [`PrefixSession`] and `last` is the
/// negated branch, so no query copies its prefix.
#[derive(Debug, Clone, Copy)]
struct Query<'a> {
    prefix: &'a [Constraint],
    last: Option<&'a Constraint>,
}

impl<'a> Query<'a> {
    /// A plain conjunction, split into its leading constraints and its
    /// last one.
    fn of(constraints: &'a [Constraint]) -> Query<'a> {
        match constraints.split_last() {
            Some((last, prefix)) => Query {
                prefix,
                last: Some(last),
            },
            None => Query {
                prefix: &[],
                last: None,
            },
        }
    }

    /// A session's depth-`j` query: its live prefix, then `negated`.
    fn at(session: &'a PrefixSession, j: usize, negated: &'a Constraint) -> Query<'a> {
        Query {
            prefix: session.prefix_live(j),
            last: Some(negated),
        }
    }

    /// The constraints in query order.
    fn iter(self) -> impl Iterator<Item = &'a Constraint> {
        self.prefix.iter().chain(self.last)
    }

    /// Whether every constraint holds under `lookup`, testing the last —
    /// in a session query, the negated branch — first: the hint and most
    /// pooled models come from runs that took the other side of that
    /// branch, so they fail exactly there. The conjunction is the same in
    /// any order, so the answer is too.
    fn satisfied_by(self, lookup: impl Fn(Var) -> Option<i64>) -> bool {
        self.last.is_none_or(|c| c.satisfied_by(&lookup))
            && self.prefix.iter().all(|c| c.satisfied_by(&lookup))
    }
}

/// Counters describing what the cache did so far; snapshot via
/// [`QueryCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered by re-checking a previously computed model — the
    /// only queries answered without a fresh solve.
    pub model_reuse: u64,
    /// Solved queries that decomposed into >1 independent components.
    pub split_solves: u64,
    /// Queries that went to the underlying solver — including, once
    /// per-worker shards are merged in ([`QueryCache::absorb_shard`]),
    /// speculative solves performed off the main walk.
    pub misses: u64,
}

/// Shard merging: fold a per-worker counter block into a cumulative one.
/// The exhaustive destructuring makes adding a `CacheStats` field without
/// deciding its merge behavior a compile error.
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        let CacheStats {
            model_reuse,
            split_solves,
            misses,
        } = rhs;
        self.model_reuse += model_reuse;
        self.split_solves += split_solves;
        self.misses += misses;
    }
}

/// The model pool and retained prefix session of one engine session; see
/// the module docs.
///
/// Create one per session (per thread in a sweep) — sharing across
/// sessions would not be wrong, but per-session scoping keeps eviction
/// behavior and stats attributable.
#[derive(Debug, Clone, Default)]
pub struct QueryCache {
    models: Vec<Assignment>,
    stats: CacheStats,
    /// The prefix session of the previous walk, kept so the next walk
    /// pushes only its new path suffix (see [`QueryCache::take_session`]).
    session: Option<PrefixSession>,
}

impl QueryCache {
    /// Creates a cache, exactly as [`QueryCache::default`] does. The
    /// argument is ignored: it once switched the verdict tables this cache
    /// no longer has, and it stays only because the end-to-end benchmark
    /// still passes it. It goes with the benchmark's replica of the
    /// directed loop (ROADMAP.md item 3).
    pub fn new(_enabled: bool) -> QueryCache {
        QueryCache::default()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The model pool, oldest first: at most [`MODEL_POOL`] models, the
    /// newest of which is scanned first. A checkpoint saves it, because
    /// which pooled model answers a query decides the model the query
    /// returns.
    pub fn models(&self) -> &[Assignment] {
        &self.models
    }

    /// Replaces the model pool with `models`, oldest first, as
    /// [`QueryCache::models`] returned them; only the newest
    /// [`MODEL_POOL`] are kept. Counters and the retained session are
    /// left alone.
    pub fn restore_models(&mut self, mut models: Vec<Assignment>) {
        models.drain(..models.len().saturating_sub(MODEL_POOL));
        self.models = models;
    }

    /// Folds a per-worker counter shard into this cache's cumulative
    /// stats. Speculative workers count their fresh solves as `misses`;
    /// merging keeps `misses` an honest count of solver invocations
    /// while every report-visible counter (which [`CacheStats`]'s
    /// `AddAssign` would equally merge) is only ever produced by the
    /// deterministic commit walk, so merging cannot skew reports.
    pub fn absorb_shard(&mut self, shard: CacheStats) {
        self.stats += shard;
    }

    /// The prefix session for a walk over `path`: the one the previous
    /// walk retained ([`QueryCache::retain_session`]), re-based onto
    /// `path` with [`PrefixSession::rebase`], or a fresh one when none is
    /// retained or the retained one runs under a different solver
    /// configuration. Either way it answers exactly as a session freshly
    /// built by pushing `path` would.
    pub fn take_session(&mut self, solver: &Solver, path: &[Constraint]) -> PrefixSession {
        let mut session = match self.session.take() {
            Some(s) if s.solver() == solver => s,
            _ => solver.session(),
        };
        session.rebase(path);
        session
    }

    /// Keeps `session` for the next [`QueryCache::take_session`].
    pub fn retain_session(&mut self, session: PrefixSession) {
        self.session = Some(session);
    }

    /// Solves `constraints` under `hint`, consulting the model pool first
    /// and pooling the model of a fresh `Sat`. Semantics match
    /// [`Solver::solve_with_hint`] exactly.
    pub fn solve_with_hint<F>(
        &mut self,
        solver: &Solver,
        constraints: &[Constraint],
        hint: F,
    ) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        if let Some(out) = self.shortcut(solver, Query::of(constraints), &hint) {
            return out;
        }
        let mut info = SolveInfo::default();
        let out = solver.solve_with_hint_info(constraints, &hint, &mut info);
        self.record(info.was_split(), &out);
        out
    }

    /// Session-based variant of [`QueryCache::solve_with_hint`]: the
    /// query is `session`'s live prefix at depth `j`, then `negated`.
    pub fn solve_query<F>(
        &mut self,
        session: &mut PrefixSession,
        j: usize,
        negated: &Constraint,
        hint: F,
    ) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        self.solve_query_precomputed(session, j, negated, hint, None)
            .0
    }

    /// [`QueryCache::solve_query`] with an optional precomputed verdict
    /// from a speculative worker. The model pool runs unchanged, and only
    /// where a fresh solve would happen is the precomputed
    /// `(outcome, info)` consumed in its place (recorded exactly as a
    /// fresh solve would be). Returns the outcome and whether the
    /// precomputed value was consumed; with `None` precomputed, the
    /// fallback is a synchronous solve, so this is exactly `solve_query`.
    ///
    /// Determinism: a consumed speculative verdict must equal what the
    /// synchronous solve would have produced. That holds because a
    /// worker solves the same prefix with the same hint and solver
    /// configuration on a session it builds from the walk's owned copy
    /// of the prefix, and because the committing thread only dispatched
    /// the positions its [`QueryCache::peek_query`] at walk entry could
    /// not answer. Before the walk's winner no query can push a model
    /// (they are all `Unsat`/`Unknown`), so the pool at walk entry
    /// answers identically to the commit walk's pool for every position
    /// that actually consumes a verdict.
    pub fn solve_query_precomputed<F>(
        &mut self,
        session: &mut PrefixSession,
        j: usize,
        negated: &Constraint,
        hint: F,
        precomputed: Option<(SolveOutcome, SolveInfo)>,
    ) -> (SolveOutcome, bool)
    where
        F: Fn(Var) -> Option<i64>,
    {
        let query = Query::at(session, j, negated);
        if let Some(out) = self.shortcut(session.solver(), query, &hint) {
            return (out, false);
        }
        let used = precomputed.is_some();
        let (out, info) = precomputed.unwrap_or_else(|| {
            let mut info = SolveInfo::default();
            (session.solve_query_info(j, negated, &hint, &mut info), info)
        });
        self.record(info.was_split(), &out);
        (out, used)
    }

    /// Read-only preview of a depth-`j` query: would the model pool
    /// answer it without a fresh solve? The committing thread peeks every
    /// candidate before it dispatches a walk to speculative workers,
    /// which never see the cache: it enqueues only the misses, and a peek
    /// that answers `Sat` caps how far a first-`Sat`-wins walk
    /// speculates. Mutates nothing and counts nothing; the deterministic
    /// commit walk consults the pool again.
    pub fn peek_query<F>(
        &self,
        session: &PrefixSession,
        j: usize,
        negated: &Constraint,
        hint: F,
    ) -> Option<SolveOutcome>
    where
        F: Fn(Var) -> Option<i64>,
    {
        self.try_model_reuse(session.solver(), Query::at(session, j, negated), &hint)
            .map(SolveOutcome::Sat)
    }

    /// The pool's answer to `query`, counted as a model reuse.
    fn shortcut<F>(&mut self, solver: &Solver, query: Query<'_>, hint: &F) -> Option<SolveOutcome>
    where
        F: Fn(Var) -> Option<i64>,
    {
        let model = self.try_model_reuse(solver, query, hint)?;
        self.stats.model_reuse += 1;
        Some(SolveOutcome::Sat(model))
    }

    /// The counterexample-reuse fast path. Replays the solver's own cheap
    /// probes first and declines when either would fire, so this path
    /// only answers queries the solver would have sent to a full search —
    /// then scans the pool, newest first, for a model that satisfies
    /// every constraint (the last one tested first, see
    /// [`Query::satisfied_by`]).
    fn try_model_reuse<F>(&self, solver: &Solver, query: Query<'_>, hint: &F) -> Option<Assignment>
    where
        F: Fn(Var) -> Option<i64>,
    {
        let b = solver.config().default_bounds;
        let probe =
            |pick: &dyn Fn(Var) -> i64| query.satisfied_by(|v| Some(pick(v).clamp(b.lo, b.hi)));
        if probe(&|v| hint(v).unwrap_or(0)) || probe(&|_| 0) {
            return None; // the solver's probes settle this; don't shadow them
        }
        for m in self.models.iter().rev() {
            let pick = |v: Var| m.get(&v).copied().unwrap_or(0);
            if probe(&pick) {
                let model: Assignment = query
                    .iter()
                    .flat_map(|c| c.vars())
                    .map(|v| (v, pick(v).clamp(b.lo, b.hi)))
                    .collect();
                return Some(model);
            }
        }
        None
    }

    /// Accounts for one solved query and pools its model if it has one.
    fn record(&mut self, was_split: bool, out: &SolveOutcome) {
        self.stats.misses += 1;
        if was_split {
            self.stats.split_solves += 1;
        }
        if let SolveOutcome::Sat(m) = out {
            if self.models.len() == MODEL_POOL {
                self.models.remove(0);
            }
            self.models.push(m.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::RelOp;
    use crate::linear::LinExpr;

    fn eq(v: u32, k: i64) -> Constraint {
        Constraint::new(LinExpr::var(Var(v)).offset(-k), RelOp::Eq)
    }

    fn ne(v: u32, k: i64) -> Constraint {
        Constraint::new(LinExpr::var(Var(v)).offset(-k), RelOp::Ne)
    }

    #[test]
    fn unsat_repeats_are_fresh_solves() {
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        let q = vec![eq(0, 3), eq(0, 4)];
        for _ in 0..2 {
            assert_eq!(
                cache.solve_with_hint(&solver, &q, |_| None),
                SolveOutcome::Unsat
            );
        }
        assert_eq!(cache.stats().misses, 2, "no verdict is memoized");
        assert_eq!(cache.stats().model_reuse, 0);
    }

    #[test]
    fn sat_repeat_is_answered_from_the_pool_regardless_of_hint() {
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        // Forced model; hints 7 and 8 violate it, so neither probe fires.
        let q = vec![eq(0, 5)];
        let m1 = cache.solve_with_hint(&solver, &q, |_| Some(7));
        let m2 = cache.solve_with_hint(&solver, &q, |_| Some(7));
        let m3 = cache.solve_with_hint(&solver, &q, |_| Some(8));
        assert!(m1.is_sat());
        assert_eq!(m1, m2);
        assert_eq!(m1, m3);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().model_reuse, 2);
    }

    #[test]
    fn model_reuse_fires_on_subset_query() {
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        // First query pins x0 = 5 with a hint that defeats both probes.
        let full = vec![eq(0, 5), ne(1, 0)];
        let out = cache.solve_with_hint(&solver, &full, |_| Some(-1));
        assert!(out.is_sat());
        // Subset query: same hint defeats the probes again, but the pooled
        // model satisfies it.
        let sub = vec![eq(0, 5)];
        let out = cache.solve_with_hint(&solver, &sub, |_| Some(-1));
        assert!(out.is_sat());
        assert_eq!(cache.stats().model_reuse, 1);
    }

    #[test]
    fn peek_agrees_with_shortcut_and_mutates_nothing() {
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        // x1 != 0, then x0 == 5; the hint -1 defeats both probes.
        let prefix = ne(1, 0);
        let negated = eq(0, 5);
        let mut sess = solver.session();
        sess.push(&prefix);
        assert_eq!(
            cache.peek_query(&sess, 1, &negated, |_| Some(-1)),
            None,
            "cold cache has no answer"
        );
        let solved = cache.solve_query(&mut sess, 1, &negated, |_| Some(-1));
        assert!(solved.is_sat());
        let stats = cache.stats();
        let peeked = cache.peek_query(&sess, 1, &negated, |_| Some(-1));
        assert_eq!(peeked, Some(solved), "the pooled model answers");
        assert_eq!(cache.stats(), stats, "peeking counts nothing");
        assert_eq!(
            Some(cache.solve_query(&mut sess, 1, &negated, |_| Some(-1))),
            peeked
        );
        assert_eq!(cache.stats().model_reuse, stats.model_reuse + 1);
        assert_eq!(cache.stats().misses, stats.misses);
    }

    /// A restored pool answers exactly as the pool it was copied from.
    #[test]
    fn restored_pool_answers_like_the_original() {
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        for k in 0..(MODEL_POOL as i64 + 3) {
            assert!(cache
                .solve_with_hint(&solver, &[eq(0, k)], |_| Some(-1))
                .is_sat());
        }
        assert_eq!(cache.models().len(), MODEL_POOL, "the pool is bounded");
        let mut restored = QueryCache::default();
        restored.restore_models(cache.models().to_vec());
        assert_eq!(restored.models(), cache.models());
        let q = [eq(0, 40)];
        assert_eq!(
            restored.solve_with_hint(&solver, &q, |_| Some(-1)),
            cache.solve_with_hint(&solver, &q, |_| Some(-1))
        );
        assert_eq!(restored.stats().model_reuse, 1);
        // An oversized pool keeps its newest models.
        let mut extra = cache.models().to_vec();
        extra.insert(0, Assignment::from([(Var(9), 9)]));
        restored.restore_models(extra);
        assert_eq!(restored.models(), cache.models());
    }

    #[test]
    fn cache_stats_add_assign_merges_every_field() {
        let mut a = CacheStats {
            model_reuse: 2,
            split_solves: 3,
            misses: 4,
        };
        let b = CacheStats {
            model_reuse: 20,
            split_solves: 30,
            misses: 40,
        };
        a += b;
        assert_eq!(
            a,
            CacheStats {
                model_reuse: 22,
                split_solves: 33,
                misses: 44,
            }
        );
    }

    #[test]
    fn retained_session_is_rebased_or_discarded_on_a_config_change() {
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        let path = vec![eq(0, 1), ne(1, 2)];
        let sess = cache.take_session(&solver, &path);
        assert_eq!(sess.depth(), 2);
        cache.retain_session(sess);
        // Same configuration: the retained session is re-based, keeping
        // the shared first constraint.
        let next = vec![eq(0, 1), eq(1, 2), ne(0, 3)];
        let sess = cache.take_session(&solver, &next);
        assert_eq!((sess.depth(), sess.common_prefix(&next)), (3, 3));
        cache.retain_session(sess);
        // Another configuration: a fresh session under that configuration.
        let other = Solver::new(crate::ilp::SolverConfig {
            max_fd_nodes: 1,
            ..crate::ilp::SolverConfig::default()
        });
        let sess = cache.take_session(&other, &path);
        assert_eq!(sess.solver(), &other);
        assert_eq!(sess.depth(), 2);
    }
}
