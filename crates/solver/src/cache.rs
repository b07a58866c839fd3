//! Session-wide solver query cache.
//!
//! A directed session re-issues near-identical queries constantly: DFS
//! revisits the same path prefixes run after run, restarts replay whole
//! query families, and the generational search expands every branch of a
//! path whose prefix it has already reasoned about. [`QueryCache`]
//! memoizes solver verdicts across those repeats, with three stores:
//!
//! 1. **Unsat verdicts**, keyed by the *canonicalized constraint set*
//!    alone. An `Unsat` answer is a completed refutation, independent of
//!    the concrete hint, so any re-encounter of the same set (in any
//!    order) replays it.
//! 2. **Sat / Unknown verdicts**, keyed by the canonical set *plus the
//!    hint's projection onto the query variables*. These outcomes can
//!    depend on the hint (the feasibility search is hint-guided), so the
//!    key pins down the solver's exact inputs and a hit is a byte-exact
//!    replay of what the solver would have recomputed.
//! 3. A bounded **model pool** for the paper's counterexample-reuse
//!    trick: a model computed for one query often satisfies a later
//!    query over a subset/superset constraint system; checking a handful
//!    of recent models is far cheaper than a fresh solve.
//!
//! Determinism contract: with the cache *enabled vs. disabled*, a
//! directed session must produce a byte-identical [`report`]. Stores 1
//! and 2 guarantee this by construction — an `Unsat` verdict is
//! hint-independent, and an exact `(set, hint)` entry replays a
//! deterministic function. The model pool is different: which model it
//! returns depends on pool contents, so gating it on the toggle would
//! let cache-on sessions hand out different (equally valid) models than
//! cache-off ones. It is therefore **always on**, like constraint
//! splitting — a solving-strategy layer rather than a memoization layer
//! — and both modes push and scan identically, so the pool's answers
//! cannot depend on the toggle. Ordering matters for the same reason:
//! the pool is scanned *before* the exact store, because a pooled model
//! can shadow an exact entry and the disabled path consults the pool
//! first; an exact `Sat` replay is therefore only reachable after the
//! pool evicted the entry's model, exactly where a fresh deterministic
//! solve recomputes it. The reuse path also re-runs the solver's own
//! cheap probes (hint, then zeros) first and declines when either would
//! fire, so it never shadows a probe answer.
//!
//! A [`SharedVerdictStore`] may be layered *under* the session stores
//! (see [`QueryCache::attach_shared`]): it is consulted only after every
//! session-local shortcut misses — exactly where a fresh solve would
//! happen — and a hit is recorded with **as-if-fresh accounting**
//! (`QueryCache::record` runs as if the session had solved the query
//! itself, and `misses`/`split_solves` move identically), so every
//! report-visible counter stays independent of what other sessions
//! published. Only [`CacheStats::shared_hits`] reveals the reuse.
//!
//! The cache also carries the engine session's [`PrefixSession`] from one
//! walk to the next ([`QueryCache::take_session`] /
//! [`QueryCache::retain_session`]), so each walk pushes only the suffix
//! its path does not share with the previous one. A re-based session
//! answers exactly as a freshly built one, so retaining it changes no
//! verdict, model or counter.
//!
//! [`report`]: SolveOutcome
//!
//! # Examples
//!
//! ```
//! use dart_solver::{Constraint, LinExpr, QueryCache, RelOp, Solver, Var};
//!
//! let solver = Solver::default();
//! let mut cache = QueryCache::new(true);
//! // x0 == 3 ∧ x0 == 4 is unsat; the second ask is answered by the cache.
//! let q = vec![
//!     Constraint::new(LinExpr::var(Var(0)).offset(-3), RelOp::Eq),
//!     Constraint::new(LinExpr::var(Var(0)).offset(-4), RelOp::Eq),
//! ];
//! assert!(!cache.solve_with_hint(&solver, &q, |_| None).is_sat());
//! assert!(!cache.solve_with_hint(&solver, &q, |_| None).is_sat());
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use crate::constraint::Constraint;
use crate::ilp::{Assignment, PrefixSession, SolveInfo, SolveOutcome, Solver};
use crate::linear::Var;
use crate::shared::SharedVerdictStore;

/// How many recent models the counterexample-reuse pool retains.
const MODEL_POOL: usize = 64;

/// Canonical fingerprint of a constraint set: one byte string per
/// constraint (relational operator, then the expression's sorted
/// `(var, coeff)` terms, then the constant), with the per-constraint
/// strings sorted so the key is order-insensitive. [`seq_key`] builds the
/// same fingerprints *without* the final sort — an order-sensitive
/// variant for stores whose entries replay order-dependent solver runs.
pub(crate) type SetKey = Vec<Vec<u8>>;

/// The hint's projection onto a query's variables, in sorted var order.
pub(crate) type HintKey = Vec<(u32, Option<i64>)>;

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
    /// Queries answered without a fresh solve while the cache was
    /// enabled: verdict replays plus pool answers. Always 0 disabled.
    pub hits: u64,
    /// Queries answered by re-checking a previously computed model.
    /// Counted in both modes — the pool is part of the solving strategy
    /// and runs regardless of the toggle (see the module docs).
    pub model_reuse: u64,
    /// Solved queries that decomposed into >1 independent components.
    pub split_solves: u64,
    /// Queries that went to the underlying solver — including, once
    /// per-worker shards are merged in ([`QueryCache::absorb_shard`]),
    /// speculative solves performed off the main walk.
    pub misses: u64,
    /// Queries answered by replaying a verdict another session published
    /// to an attached [`SharedVerdictStore`]. Counted *in addition to*
    /// the as-if-fresh accounting of such a hit (which bumps `misses`,
    /// not `hits`), so every other counter stays independent of what the
    /// rest of a sweep did. Inherently scheduling-dependent across a
    /// sweep — a diagnostic, not part of the determinism contract.
    pub shared_hits: u64,
}

/// Shard merging: fold a per-worker counter block into a cumulative one.
/// The exhaustive destructuring makes adding a `CacheStats` field without
/// deciding its merge behavior a compile error.
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        let CacheStats {
            hits,
            model_reuse,
            split_solves,
            misses,
            shared_hits,
        } = rhs;
        self.hits += hits;
        self.model_reuse += model_reuse;
        self.split_solves += split_solves;
        self.misses += misses;
        self.shared_hits += shared_hits;
    }
}

/// A memo table over [`Solver`] verdicts for one engine session. See the
/// module docs for the key discipline and the determinism contract.
///
/// Create one per session (per thread in a sweep) — sharing across
/// sessions would not be wrong, but per-session scoping keeps eviction
/// behavior and stats attributable.
#[derive(Debug, Clone, Default)]
pub struct QueryCache {
    enabled: bool,
    unsat: HashMap<SetKey, ()>,
    exact: HashMap<(SetKey, HintKey), SolveOutcome>,
    models: Vec<Assignment>,
    stats: CacheStats,
    /// Cross-session verdict store, consulted after every session-local
    /// shortcut misses; `None` (the default) keeps the cache
    /// session-private. Independent of `enabled`: the store replays
    /// fresh solves, not session memoization.
    shared: Option<Arc<SharedVerdictStore>>,
    /// The prefix session of the previous walk, kept so the next walk
    /// pushes only its new path suffix (see [`QueryCache::take_session`]).
    session: Option<PrefixSession>,
}

impl QueryCache {
    /// Creates a cache. When `enabled` is false the verdict stores are
    /// skipped — those queries go to the solver — but the model pool
    /// still runs: it is kept active in both modes precisely so the
    /// toggle cannot change which model any query receives. The stats
    /// still count misses, reuse, and split solves either way, so
    /// reports stay comparable.
    pub fn new(enabled: bool) -> QueryCache {
        QueryCache {
            enabled,
            ..QueryCache::default()
        }
    }

    /// Whether lookups/stores are active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Layers `store` under this cache: once every session-local shortcut
    /// misses, the store is consulted before (and fresh verdicts are
    /// published after) the solver runs. All caches sharing one store
    /// must drive solvers with the same configuration — see the
    /// [`crate::shared`] module docs for the determinism discipline.
    pub fn attach_shared(&mut self, store: Arc<SharedVerdictStore>) {
        self.shared = Some(store);
    }

    /// The attached cross-session store, if any.
    pub fn shared(&self) -> Option<&Arc<SharedVerdictStore>> {
        self.shared.as_ref()
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

    /// Solves `constraints` under `hint`, consulting the cache first and
    /// recording the verdict on a miss. Semantics match
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
        let query = Query::of(constraints);
        let key = self.enabled.then(|| set_key(query.iter()));
        if let Some(out) = self.shortcut(solver, &key, query, &hint) {
            return out;
        }
        if let Some(out) = self.shared_replay(&key, query, &hint) {
            return out;
        }
        let mut info = SolveInfo::default();
        let out = solver.solve_with_hint_info(constraints, &hint, &mut info);
        self.record(key, query, &hint, info.was_split(), &out);
        self.publish_shared(query, &hint, info.was_split(), &out);
        out
    }

    /// Session-based variant of [`QueryCache::solve_with_hint`]: the
    /// prefix comes from `session`'s incremental state at depth `j`, the
    /// cache key from the same live constraints, so plain and session
    /// call sites share verdicts.
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
    /// from a speculative worker. The shortcut chain runs unchanged —
    /// session stores, then the shared store — and only where a fresh
    /// solve would happen is the precomputed `(outcome, info)` consumed
    /// in its place (recorded and published exactly as a fresh solve
    /// would be). Returns the outcome and whether the precomputed value
    /// was consumed; with `None` precomputed, the fallback is a
    /// synchronous solve, so this is exactly `solve_query`.
    ///
    /// Determinism: a consumed speculative verdict must equal what the
    /// synchronous solve would have produced. That holds because a
    /// worker solves the same prefix with the same hint and solver
    /// configuration on a session it builds from the walk's owned copy
    /// of the prefix, and because the committing thread only dispatched
    /// the positions its [`QueryCache::peek_query`] at walk entry could
    /// not answer. Before the walk's winner no query can push a model
    /// (they are all `Unsat`/`Unknown`), so the cache state at walk
    /// entry answers shortcuts identically to the commit walk's state for
    /// every position that actually consumes a verdict.
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
        let key = self.enabled.then(|| set_key(query.iter()));
        if let Some(out) = self.shortcut(session.solver(), &key, query, &hint) {
            return (out, false);
        }
        if let Some(out) = self.shared_replay(&key, query, &hint) {
            return (out, false);
        }
        let used = precomputed.is_some();
        let (out, info) = match precomputed {
            Some(pre) => pre,
            None => {
                // Solving borrows the session mutably, so the query view
                // is taken again below.
                let mut info = SolveInfo::default();
                (session.solve_query_info(j, negated, &hint, &mut info), info)
            }
        };
        let query = Query::at(session, j, negated);
        self.record(key, query, &hint, info.was_split(), &out);
        self.publish_shared(query, &hint, info.was_split(), &out);
        (out, used)
    }

    /// Read-only preview of a depth-`j` query: would the session stores,
    /// model pool or shared store answer it without a fresh solve? The
    /// committing thread peeks every candidate before it dispatches a
    /// walk to speculative workers, which never see the cache: it
    /// enqueues only the misses, and a peek that answers `Sat` caps how
    /// far a first-`Sat`-wins walk speculates. Mutates nothing and counts
    /// nothing; the deterministic commit walk re-runs the real shortcut
    /// chain.
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
        let query = Query::at(session, j, negated);
        let key = self.enabled.then(|| set_key(query.iter()));
        if let Some(key) = &key {
            if self.unsat.contains_key(key) {
                return Some(SolveOutcome::Unsat);
            }
        }
        if let Some(m) = self.try_model_reuse(session.solver(), query, &hint) {
            return Some(SolveOutcome::Sat(m));
        }
        if let Some(key) = &key {
            let full_key = (key.clone(), hint_key(query, &hint));
            if let Some(out) = self.exact.get(&full_key).cloned() {
                return Some(out);
            }
        }
        let store = self.shared.as_ref()?;
        let set = key.unwrap_or_else(|| set_key(query.iter()));
        if store.lookup_unsat(&set).is_some() {
            return Some(SolveOutcome::Unsat);
        }
        store
            .lookup_exact(&seq_key(query.iter()), &hint_key(query, &hint))
            .map(|(out, _)| out)
    }

    /// Shared-store consult, placed exactly where a fresh solve would
    /// happen. A hit replays the publisher's verdict with as-if-fresh
    /// accounting: [`QueryCache::record`] runs as if this session had
    /// solved the query (pool push, session-store promotion, `misses`
    /// and `split_solves`), plus the `shared_hits` diagnostic.
    fn shared_replay<F>(
        &mut self,
        key: &Option<SetKey>,
        query: Query<'_>,
        hint: &F,
    ) -> Option<SolveOutcome>
    where
        F: Fn(Var) -> Option<i64>,
    {
        let store = self.shared.clone()?;
        let set = match key {
            Some(k) => k.clone(),
            None => set_key(query.iter()),
        };
        let (out, was_split) = match store.lookup_unsat(&set) {
            Some(was_split) => (SolveOutcome::Unsat, was_split),
            None => store.lookup_exact(&seq_key(query.iter()), &hint_key(query, hint))?,
        };
        self.record(key.clone(), query, hint, was_split, &out);
        self.stats.shared_hits += 1;
        Some(out)
    }

    /// Publishes a fresh verdict to the attached store (no-op without
    /// one): refutations to the hint-free canonical unsat tier,
    /// `Sat`/`Unknown` to the ordered exact tier.
    fn publish_shared<F>(&mut self, query: Query<'_>, hint: &F, was_split: bool, out: &SolveOutcome)
    where
        F: Fn(Var) -> Option<i64>,
    {
        let Some(store) = &self.shared else { return };
        match out {
            SolveOutcome::Unsat => store.publish_unsat(set_key(query.iter()), was_split),
            SolveOutcome::Sat(_) | SolveOutcome::Unknown => store.publish_exact(
                seq_key(query.iter()),
                hint_key(query, hint),
                out.clone(),
                was_split,
            ),
        }
    }

    /// Everything that can answer a query without a fresh solve, in the
    /// order the determinism contract requires: unsat store (enabled
    /// only; hint-independent, and no pooled model can satisfy an unsat
    /// set, so skipping the pool changes nothing) → model pool (both
    /// modes) → exact store (enabled only; reachable only where the
    /// disabled path's fresh solve recomputes the stored answer).
    fn shortcut<F>(
        &mut self,
        solver: &Solver,
        key: &Option<SetKey>,
        query: Query<'_>,
        hint: &F,
    ) -> Option<SolveOutcome>
    where
        F: Fn(Var) -> Option<i64>,
    {
        if let Some(key) = key {
            if self.unsat.contains_key(key) {
                self.stats.hits += 1;
                return Some(SolveOutcome::Unsat);
            }
        }
        if let Some(m) = self.try_model_reuse(solver, query, hint) {
            self.stats.model_reuse += 1;
            if self.enabled {
                self.stats.hits += 1;
            }
            return Some(SolveOutcome::Sat(m));
        }
        if let Some(key) = key {
            let full_key = (key.clone(), hint_key(query, hint));
            if let Some(out) = self.exact.get(&full_key).cloned() {
                self.stats.hits += 1;
                if let SolveOutcome::Sat(m) = &out {
                    // The disabled path re-solves and re-pushes here;
                    // mirror it so the pools stay in lockstep.
                    self.push_model(m.clone());
                }
                return Some(out);
            }
        }
        None
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

    fn push_model(&mut self, m: Assignment) {
        if self.models.len() == MODEL_POOL {
            self.models.remove(0);
        }
        self.models.push(m);
    }

    /// Accounts for and stores one solved query's verdict. Runs for fresh
    /// solves *and* for shared-store replays (with the publisher's
    /// `was_split`), which is what keeps every counter it touches
    /// independent of whether another session did the solving.
    fn record<F>(
        &mut self,
        key: Option<SetKey>,
        query: Query<'_>,
        hint: &F,
        was_split: bool,
        out: &SolveOutcome,
    ) where
        F: Fn(Var) -> Option<i64>,
    {
        self.stats.misses += 1;
        if was_split {
            self.stats.split_solves += 1;
        }
        // The pool push is unconditional — both modes solve the same
        // queries with the same outcomes, so unconditional pushes keep
        // the pools in lockstep and the toggle invisible.
        if let SolveOutcome::Sat(m) = out {
            self.push_model(m.clone());
        }
        let Some(key) = key else { return };
        match out {
            SolveOutcome::Unsat => {
                self.unsat.insert(key, ());
            }
            SolveOutcome::Sat(_) | SolveOutcome::Unknown => {
                self.exact.insert((key, hint_key(query, hint)), out.clone());
            }
        }
    }
}

/// Canonical, order-insensitive fingerprint of a constraint set.
pub(crate) fn set_key<'a>(constraints: impl Iterator<Item = &'a Constraint>) -> SetKey {
    let mut key: SetKey = constraints.map(fingerprint).collect();
    key.sort_unstable();
    key
}

/// Order-*sensitive* fingerprint of a constraint sequence: the same
/// per-constraint bytes as [`set_key`], unsorted. Used for the shared
/// store's exact tier, whose entries replay hint-guided solver runs that
/// walk constraints in sequence order.
pub(crate) fn seq_key<'a>(constraints: impl Iterator<Item = &'a Constraint>) -> SetKey {
    constraints.map(fingerprint).collect()
}

/// One constraint's byte fingerprint: op tag, then each `(var, coeff)`
/// term (the expression iterates in sorted var order), then the constant.
fn fingerprint(c: &Constraint) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(c.op as u8);
    for (v, a) in c.expr.iter() {
        out.extend_from_slice(&v.0.to_le_bytes());
        out.extend_from_slice(&a.to_le_bytes());
    }
    out.push(0xFF); // terms/constant separator
    out.extend_from_slice(&c.expr.constant().to_le_bytes());
    out
}

/// The hint projected onto the query's variables, sorted and deduplicated.
fn hint_key<F>(query: Query<'_>, hint: &F) -> HintKey
where
    F: Fn(Var) -> Option<i64>,
{
    let mut key: HintKey = query
        .iter()
        .flat_map(|c| c.vars())
        .map(|v| (v.0, hint(v)))
        .collect();
    key.sort_unstable();
    key.dedup();
    key
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
    fn unsat_replay_is_order_insensitive() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(true);
        let a = vec![eq(0, 3), eq(0, 4)];
        let b = vec![eq(0, 4), eq(0, 3)];
        assert_eq!(
            cache.solve_with_hint(&solver, &a, |_| None),
            SolveOutcome::Unsat
        );
        assert_eq!(
            cache.solve_with_hint(&solver, &b, |_| None),
            SolveOutcome::Unsat
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn sat_repeat_is_answered_from_the_pool_regardless_of_hint() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(true);
        // Forced model; hints 7 and 8 violate it, so neither probe fires.
        let q = vec![eq(0, 5)];
        let m1 = cache.solve_with_hint(&solver, &q, |_| Some(7));
        let m2 = cache.solve_with_hint(&solver, &q, |_| Some(7));
        let m3 = cache.solve_with_hint(&solver, &q, |_| Some(8));
        assert!(m1.is_sat());
        assert_eq!(m1, m2);
        assert_eq!(m1, m3);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().model_reuse, 2);
    }

    #[test]
    fn exact_replay_fires_after_pool_eviction() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(true);
        // Pin x0 = 5, then flood the pool with models that violate it.
        let q = vec![eq(0, 5)];
        let first = cache.solve_with_hint(&solver, &q, |_| Some(-1));
        assert!(first.is_sat());
        for k in 1000..1000 + super::MODEL_POOL as i64 {
            assert!(cache
                .solve_with_hint(&solver, &[eq(0, k)], |_| Some(-1))
                .is_sat());
        }
        let stats = cache.stats();
        let again = cache.solve_with_hint(&solver, &q, |_| Some(-1));
        assert_eq!(first, again);
        assert_eq!(cache.stats().misses, stats.misses, "no fresh solve");
        assert_eq!(cache.stats().hits, stats.hits + 1);
        assert_eq!(cache.stats().model_reuse, stats.model_reuse, "pool missed");
    }

    #[test]
    fn disabled_cache_never_hits() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(false);
        let q = vec![eq(0, 3), eq(0, 4)];
        for _ in 0..3 {
            assert_eq!(
                cache.solve_with_hint(&solver, &q, |_| None),
                SolveOutcome::Unsat
            );
        }
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn toggle_never_changes_an_answer() {
        let solver = Solver::default();
        let mut on = QueryCache::new(true);
        let mut off = QueryCache::new(false);
        // Repeats, subsets, an unsat set, and shifting hints: every
        // query must get byte-identical answers from both caches.
        let queries: Vec<(Vec<Constraint>, i64)> = vec![
            (vec![eq(0, 5), ne(1, 0)], -1),
            (vec![eq(0, 5)], -1),
            (vec![eq(0, 5), ne(1, 0)], -2),
            (vec![eq(0, 3), eq(0, 4)], 0),
            (vec![ne(1, 0)], -1),
            (vec![eq(0, 5), ne(1, 0)], -1),
        ];
        for (q, h) in &queries {
            let a = on.solve_with_hint(&solver, q, |_| Some(*h));
            let b = off.solve_with_hint(&solver, q, |_| Some(*h));
            assert_eq!(a, b, "query {q:?} hint {h}");
        }
        assert_eq!(off.stats().hits, 0);
        assert_eq!(on.stats().model_reuse, off.stats().model_reuse);
        assert!(on.stats().misses <= off.stats().misses);
    }

    #[test]
    fn model_reuse_fires_on_subset_query() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(true);
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
    fn shared_store_replays_across_caches_with_as_if_fresh_accounting() {
        let solver = Solver::default();
        let store = Arc::new(SharedVerdictStore::new());
        let q = vec![eq(0, 3), eq(0, 4)];
        let mut a = QueryCache::new(true);
        a.attach_shared(store.clone());
        assert_eq!(
            a.solve_with_hint(&solver, &q, |_| None),
            SolveOutcome::Unsat
        );
        // A solitary cache solving the same query, for reference stats.
        let mut solo = QueryCache::new(true);
        assert_eq!(
            solo.solve_with_hint(&solver, &q, |_| None),
            SolveOutcome::Unsat
        );

        let mut b = QueryCache::new(true);
        b.attach_shared(store);
        assert_eq!(
            b.solve_with_hint(&solver, &q, |_| None),
            SolveOutcome::Unsat
        );
        let (bs, ss) = (b.stats(), solo.stats());
        assert_eq!(bs.shared_hits, 1, "answered by the store");
        // Every other counter matches a session that solved it itself.
        assert_eq!(
            (bs.hits, bs.model_reuse, bs.split_solves, bs.misses),
            (ss.hits, ss.model_reuse, ss.split_solves, ss.misses)
        );
        // The replay also promoted the verdict into b's own unsat store.
        assert_eq!(
            b.solve_with_hint(&solver, &q, |_| None),
            SolveOutcome::Unsat
        );
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().shared_hits, 1, "no second store consult hit");
    }

    #[test]
    fn shared_sat_replay_feeds_the_model_pool() {
        let solver = Solver::default();
        let store = Arc::new(SharedVerdictStore::new());
        // Hint -1 defeats both probes, so the query takes a real solve.
        let q = vec![eq(0, 5)];
        let mut a = QueryCache::new(true);
        a.attach_shared(store.clone());
        let first = a.solve_with_hint(&solver, &q, |_| Some(-1));
        assert!(first.is_sat());

        let mut b = QueryCache::new(true);
        b.attach_shared(store);
        let replay = b.solve_with_hint(&solver, &q, |_| Some(-1));
        assert_eq!(first, replay, "exact-tier replay of the same solve");
        assert_eq!(b.stats().shared_hits, 1);
        // The replayed model entered b's pool: a superset query that the
        // probes cannot settle is now answered by model reuse.
        let sub = vec![eq(0, 5), ne(1, 7)];
        assert!(b.solve_with_hint(&solver, &sub, |_| Some(-1)).is_sat());
        assert_eq!(b.stats().model_reuse, 1);
    }

    #[test]
    fn shared_store_works_with_session_stores_disabled() {
        let solver = Solver::default();
        let store = Arc::new(SharedVerdictStore::new());
        let q = vec![eq(0, 3), eq(0, 4)];
        let mut a = QueryCache::new(false);
        a.attach_shared(store.clone());
        assert_eq!(
            a.solve_with_hint(&solver, &q, |_| None),
            SolveOutcome::Unsat
        );
        let mut b = QueryCache::new(false);
        b.attach_shared(store);
        for _ in 0..2 {
            assert_eq!(
                b.solve_with_hint(&solver, &q, |_| None),
                SolveOutcome::Unsat
            );
        }
        assert_eq!(b.stats().hits, 0, "session memoization stays off");
        assert_eq!(b.stats().shared_hits, 2);
    }

    #[test]
    fn peek_agrees_with_shortcut_and_mutates_nothing() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(true);
        let prefix = eq(0, 1);
        let negated = eq(0, 2);
        let mut sess = solver.session();
        sess.push(&prefix);
        assert_eq!(
            cache.peek_query(&sess, 1, &negated, |_| Some(1)),
            None,
            "cold cache has no answer"
        );
        assert_eq!(
            cache.solve_query(&mut sess, 1, &negated, |_| Some(1)),
            SolveOutcome::Unsat
        );
        let stats = cache.stats();
        assert_eq!(
            cache.peek_query(&sess, 1, &negated, |_| Some(1)),
            Some(SolveOutcome::Unsat)
        );
        assert_eq!(cache.stats(), stats, "peeking counts nothing");
    }

    #[test]
    fn cache_stats_add_assign_merges_every_field() {
        let mut a = CacheStats {
            hits: 1,
            model_reuse: 2,
            split_solves: 3,
            misses: 4,
            shared_hits: 5,
        };
        let b = CacheStats {
            hits: 10,
            model_reuse: 20,
            split_solves: 30,
            misses: 40,
            shared_hits: 50,
        };
        a += b;
        assert_eq!(
            a,
            CacheStats {
                hits: 11,
                model_reuse: 22,
                split_solves: 33,
                misses: 44,
                shared_hits: 55,
            }
        );
    }

    #[test]
    fn session_and_plain_call_sites_share_verdicts() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(true);
        let prefix = eq(0, 1);
        let negated = eq(0, 2);
        let q = vec![prefix.clone(), negated.clone()];
        assert_eq!(
            cache.solve_with_hint(&solver, &q, |_| Some(1)),
            SolveOutcome::Unsat
        );
        let mut sess = solver.session();
        sess.push(&prefix);
        assert_eq!(
            cache.solve_query(&mut sess, 1, &negated, |_| Some(1)),
            SolveOutcome::Unsat
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn retained_session_is_rebased_or_discarded_on_a_config_change() {
        let solver = Solver::default();
        let mut cache = QueryCache::new(true);
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
