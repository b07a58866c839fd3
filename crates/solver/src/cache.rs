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
//!    answer. For a query of the retained session, the scan remembers,
//!    per model, how many leading constraints of the session's live
//!    prefix the model was found to satisfy, so a prefix constraint is
//!    checked against a model at most once between re-bases. That does
//!    not change which model answers.
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
use crate::ilp::{Assignment, Bounds, PrefixSession, SolveInfo, SolveOutcome, Solver};
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

    /// The constraints in scan order: the last — in a session query, the
    /// negated branch — first, then the prefix. The hint and most pooled
    /// models come from runs that took the other side of that branch, so
    /// they fail exactly there. The conjunction is the same in any order,
    /// so every answer is too.
    fn scan_order(self) -> impl Iterator<Item = &'a Constraint> {
        self.last.into_iter().chain(self.prefix)
    }
}

/// Counters describing what the cache did so far; snapshot via
/// [`QueryCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered by re-checking a previously computed model — the
    /// only queries answered without a fresh solve.
    pub model_reuse: u64,
    /// Solved queries that decomposed into >1 independent components
    /// ([`crate::SolveInfo::components`]). A session query splits only
    /// after the hint and all-zeros probes, so one they answer never
    /// counts; a plain query splits before them.
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
    /// For each pooled model, what session scans have found out about
    /// the live prefix of the session stamped `prefix_stamp`; see
    /// [`Known`]. Learned only when a scan needs it, and cut back to the
    /// surviving prefix when [`QueryCache::take_session`] re-bases the
    /// session. Meaningless when `prefix_stamp` is `None`.
    known: Vec<Known>,
    prefix_stamp: Option<u64>,
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
        self.known = vec![Known::default(); models.len()];
        self.models = models;
    }

    /// Replaces the counters with `stats`, as [`QueryCache::stats`]
    /// returned them: a resumed session continues its checkpoint's
    /// counts.
    pub fn restore_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
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
    /// built by pushing `path` would. Also returns how many leading
    /// constraints of `path` the re-base kept (0 for a fresh session).
    pub fn take_session(&mut self, solver: &Solver, path: &[Constraint]) -> (PrefixSession, usize) {
        let mut session = match self.session.take() {
            Some(s) if s.solver() == solver => s,
            _ => solver.session(),
        };
        let tracked = self.prefix_stamp == Some(session.stamp());
        let (keep, live) = session.rebase_kept(path);
        // Knowledge about popped constraints is dropped.
        let live = if tracked { live } else { 0 };
        for known in &mut self.known {
            if known.holds >= live {
                *known = Known {
                    holds: live,
                    fails_next: false,
                };
            }
        }
        self.prefix_stamp = Some(session.stamp());
        (session, keep)
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
        let b = solver.config().default_bounds;
        if let Some(model) = reuse(&self.models, Track::Cold, b, Query::of(constraints), &hint) {
            self.stats.model_reuse += 1;
            return SolveOutcome::Sat(model);
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
        let track = match self.prefix_stamp == Some(session.stamp()) {
            true => Track::Learn(&mut self.known),
            false => Track::Cold,
        };
        let b = session.solver().config().default_bounds;
        let query = Query::at(session, j, negated);
        if let Some(model) = reuse(&self.models, track, b, query, &hint) {
            self.stats.model_reuse += 1;
            return (SolveOutcome::Sat(model), false);
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
        let track = match self.prefix_stamp == Some(session.stamp()) {
            true => Track::Read(&self.known),
            false => Track::Cold,
        };
        let b = session.solver().config().default_bounds;
        let query = Query::at(session, j, negated);
        reuse(&self.models, track, b, query, &hint).map(SolveOutcome::Sat)
    }

    /// Accounts for one solved query and pools its model if it has one.
    /// Nothing is known yet about how the new model fares against the
    /// tracked session's prefix.
    fn record(&mut self, was_split: bool, out: &SolveOutcome) {
        self.stats.misses += 1;
        if was_split {
            self.stats.split_solves += 1;
        }
        if let SolveOutcome::Sat(m) = out {
            if self.models.len() == MODEL_POOL {
                self.models.remove(0);
                self.known.remove(0);
            }
            self.models.push(m.clone());
            self.known.push(Known::default());
        }
    }
}

/// The counterexample-reuse fast path. Replays the solver's own cheap
/// probes first and declines when either would fire, so this path only
/// answers queries the solver would have sent to a full search — then
/// scans `models`, newest first, for one that satisfies every constraint:
/// the last one first (see [`Query::scan_order`]), then the prefix
/// constraints that `track` does not already vouch for. Every value is
/// clamped into the box `b`, as the probes clamp it. What `track` knows
/// only skips checks whose outcome it records, so the answer is the same
/// as checking every constraint.
fn reuse<F>(
    models: &[Assignment],
    mut track: Track<'_>,
    b: Bounds,
    query: Query<'_>,
    hint: &F,
) -> Option<Assignment>
where
    F: Fn(Var) -> Option<i64>,
{
    let holds = |c: &Constraint, pick: &dyn Fn(Var) -> i64| {
        c.satisfied_by(|v| Some(pick(v).clamp(b.lo, b.hi)))
    };
    let probe = |pick: &dyn Fn(Var) -> i64| query.scan_order().all(|c| holds(c, pick));
    if probe(&|v| hint(v).unwrap_or(0)) || probe(&|_| 0) {
        return None; // the solver's probes settle this; don't shadow them
    }
    // An empty query holds under the zeros probe, so it has a last one.
    let (last, prefix) = (query.last?, query.prefix);
    for (i, model) in models.iter().enumerate().rev() {
        let k = track.get(i);
        if k.fails_next && k.holds < prefix.len() {
            continue;
        }
        let pick = |v: Var| model.get(&v).copied().unwrap_or(0);
        if !holds(last, &pick) {
            continue;
        }
        if k.holds < prefix.len() {
            let rest = prefix[k.holds..].iter();
            let passed = k.holds + rest.take_while(|c| holds(c, &pick)).count();
            let fails_next = passed < prefix.len();
            track.set(
                i,
                Known {
                    holds: passed,
                    fails_next,
                },
            );
            if fails_next {
                continue;
            }
        }
        let vars = query.scan_order().flat_map(|c| c.vars());
        return Some(vars.map(|v| (v, pick(v).clamp(b.lo, b.hi))).collect());
    }
    None
}

/// What a session scan has found out about one pooled model against the
/// tracked session's live prefix, each value clamped into the session's
/// box: it satisfies the first `holds` live constraints, and, when
/// `fails_next`, not the one after them.
#[derive(Debug, Clone, Copy, Default)]
struct Known {
    holds: usize,
    fails_next: bool,
}

/// How a pool scan uses what is [`Known`] about each pooled model.
enum Track<'a> {
    /// Nothing is known: each model is checked against every constraint
    /// (a plain query, or a session the cache does not track).
    Cold,
    /// What earlier scans of the tracked session found, not extended (a
    /// peek).
    Read(&'a [Known]),
    /// What earlier scans of the tracked session found, extended by this
    /// scan.
    Learn(&'a mut [Known]),
}

impl Track<'_> {
    fn get(&self, i: usize) -> Known {
        match self {
            Track::Cold => Known::default(),
            Track::Read(known) => known[i],
            Track::Learn(known) => known[i],
        }
    }

    fn set(&mut self, i: usize, k: Known) {
        if let Track::Learn(known) = self {
            known[i] = k;
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
        let (sess, kept) = cache.take_session(&solver, &path);
        assert_eq!((sess.depth(), kept), (2, 0));
        cache.retain_session(sess);
        // Same configuration: the retained session is re-based, keeping
        // the shared first constraint.
        let next = vec![eq(0, 1), eq(1, 2), ne(0, 3)];
        let (sess, kept) = cache.take_session(&solver, &next);
        assert_eq!((sess.depth(), sess.common_prefix(&next), kept), (3, 3, 1));
        cache.retain_session(sess);
        // Another configuration: a fresh session under that configuration.
        let other = Solver::new(crate::ilp::SolverConfig {
            max_fd_nodes: 1,
            ..crate::ilp::SolverConfig::default()
        });
        let (sess, kept) = cache.take_session(&other, &path);
        assert_eq!(sess.solver(), &other);
        assert_eq!((sess.depth(), kept), (2, 0));
    }

    /// A model naming `Var(u32::MAX)` restores, scans and answers like
    /// any other: nothing in the pool is sized by a variable's number.
    #[test]
    fn extreme_variable_numbers_are_pooled() {
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        let top = Var(u32::MAX);
        cache.restore_models(vec![
            Assignment::from([(top, 5), (Var(0), -1)]),
            Assignment::from([(Var(1 << 31), 9)]),
        ]);
        let q = [Constraint::new(LinExpr::var(top).offset(-5), RelOp::Eq)];
        assert_eq!(
            cache.solve_with_hint(&solver, &q, |_| Some(7)),
            SolveOutcome::Sat(Assignment::from([(top, 5)]))
        );
        assert_eq!(cache.stats().model_reuse, 1);
    }

    /// The scan as it was before scans learned what each model satisfies:
    /// every constraint checked against every model, the last one first.
    fn reference_scan(
        models: &[Assignment],
        solver: &Solver,
        query: &[Constraint],
        hint: &dyn Fn(Var) -> Option<i64>,
    ) -> Option<Assignment> {
        let b = solver.config().default_bounds;
        let (last, prefix) = query.split_last()?;
        let probe = |pick: &dyn Fn(Var) -> i64| {
            let lookup = |v: Var| Some(pick(v).clamp(b.lo, b.hi));
            last.satisfied_by(lookup) && prefix.iter().all(|c| c.satisfied_by(lookup))
        };
        if probe(&|v| hint(v).unwrap_or(0)) || probe(&|_| 0) {
            return None;
        }
        models.iter().rev().find_map(|m| {
            let pick = |v: Var| m.get(&v).copied().unwrap_or(0);
            probe(&pick).then(|| {
                query
                    .iter()
                    .flat_map(|c| c.vars())
                    .map(|v| (v, pick(v).clamp(b.lo, b.hi)))
                    .collect()
            })
        })
    }

    mod scan {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Mostly a handful of variables; some spread over hundreds, and
        /// a few at the top of the range.
        fn var() -> impl Strategy<Value = Var> {
            prop_oneof![
                8 => (0u32..6).prop_map(Var),
                2 => (6u32..400).prop_map(Var),
                1 => prop_oneof![Just(u32::MAX), Just(u32::MAX - 1), Just(1 << 31)].prop_map(Var),
            ]
        }

        fn value() -> impl Strategy<Value = i64> {
            prop_oneof![8 => -6i64..=6, 1 => any::<i64>()]
        }

        fn model() -> impl Strategy<Value = Assignment> {
            vec((var(), value()), 0..5).prop_map(|pairs| pairs.into_iter().collect())
        }

        fn constraint() -> impl Strategy<Value = Constraint> {
            let op = prop_oneof![
                Just(RelOp::Eq),
                Just(RelOp::Ne),
                Just(RelOp::Lt),
                Just(RelOp::Le),
                Just(RelOp::Gt),
                Just(RelOp::Ge),
            ];
            (vec((var(), value()), 0..3), value(), op)
                .prop_map(|(terms, k, op)| Constraint::new(LinExpr::from_terms(terms, k), op))
        }

        fn solver() -> impl Strategy<Value = Solver> {
            prop_oneof![
                Just(Solver::default()),
                (-4i64..=2, 0i64..=4).prop_map(|(lo, width)| {
                    Solver::new(crate::ilp::SolverConfig {
                        default_bounds: crate::ilp::Bounds::new(lo, lo + width),
                        ..crate::ilp::SolverConfig::default()
                    })
                }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A plain query's scan returns exactly what the reference
            /// scan returns, newest model first, over pools filled by
            /// solves (evicting past `MODEL_POOL`) or restored from a
            /// checkpoint.
            #[test]
            fn plain_scan_matches_the_reference_scan(
                pool in vec(model(), 0..80),
                restored in any::<bool>(),
                queries in vec((vec(constraint(), 1..5), vec(value(), 6)), 1..6),
                solver in solver(),
            ) {
                let mut cache = QueryCache::default();
                if restored {
                    cache.restore_models(pool);
                } else {
                    for m in pool {
                        cache.record(false, &SolveOutcome::Sat(m));
                    }
                }
                let b = solver.config().default_bounds;
                for (query, hint) in &queries {
                    let hint = |v: Var| hint.get(v.index()).copied();
                    let got = reuse(cache.models(), Track::Cold, b, Query::of(query), &hint);
                    let want = reference_scan(cache.models(), &solver, query, &hint);
                    prop_assert_eq!(got, want, "query {:?}", query);
                }
            }

            /// A session query's scan, with what it learned about each
            /// model's prefix kept across queries and re-bases, returns
            /// exactly what the reference scan returns, over a sequence of
            /// walks whose paths share and change prefixes, whose fresh
            /// solves pool models (past `MODEL_POOL` when the pool starts
            /// full), and whose session is sometimes changed behind the
            /// cache's back or whose pool is restored mid-session.
            #[test]
            fn session_scan_matches_the_reference_scan(
                prefill in vec(model(), 0..70),
                first in vec(constraint(), 1..6),
                steps in vec((0usize..7, vec(constraint(), 0..4), vec(value(), 6), 0u8..8), 1..8),
                solver in solver(),
            ) {
                let mut cache = QueryCache::default();
                cache.restore_models(prefill);
                let mut path = first;
                for (keep, suffix, hint, flags) in steps {
                    path.truncate(keep);
                    path.extend(suffix);
                    if path.is_empty() {
                        continue;
                    }
                    let (mut session, _) = cache.take_session(&solver, &path);
                    prop_assert_eq!(cache.prefix_stamp, Some(session.stamp()));
                    if flags & 1 != 0 {
                        let last = path[path.len() - 1].clone();
                        session.pop();
                        session.push(&last);
                    }
                    if flags & 2 != 0 {
                        cache.restore_models(cache.models().to_vec());
                    }
                    let hint = |v: Var| hint.get(v.index()).copied();
                    for j in (0..path.len()).rev() {
                        let negated = path[j].negated();
                        let mut query = session.prefix_live(j).to_vec();
                        query.push(negated.clone());
                        // Peeking scans with what the solves so far have
                        // learned about each model, and learns nothing.
                        let got = cache.peek_query(&session, j, &negated, hint);
                        let want = reference_scan(cache.models(), &solver, &query, &hint);
                        prop_assert_eq!(got, want.map(SolveOutcome::Sat), "j={} of {:?}", j, &path);
                        let _ = cache.solve_query(&mut session, j, &negated, hint);
                    }
                    cache.retain_session(session);
                }
            }
        }
    }
}
