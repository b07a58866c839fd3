//! Integer feasibility: interval propagation, exclusion points, and branch &
//! bound over the exact simplex.
//!
//! This is the solver DART calls on every `solve_path_constraint` (Fig. 5 of
//! the paper). The theory is conjunctions of linear integer constraints over
//! boxed variables (program inputs are 32-bit words, §2.2). `!=` constraints
//! on a single variable become *excluded points*; multi-variable `!=` is
//! case-split. Everything else reduces to `<= 0` rows which are decided by
//! interval propagation plus branch & bound on the LP relaxation.

use crate::constraint::{Constraint, NormalForm};
use crate::linear::Var;
use crate::rational::{ArithError, Rat};
use crate::simplex::{feasible_point, Lp, LpResult, LpRow, LpSession};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Inclusive variable bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Bounds {
    /// The 32-bit signed box used for DART program inputs.
    pub const I32: Bounds = Bounds {
        lo: i32::MIN as i64,
        hi: i32::MAX as i64,
    };

    /// Creates bounds, panicking if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Bounds {
        assert!(lo <= hi, "empty bounds {lo}..={hi}");
        Bounds { lo, hi }
    }
}

impl Default for Bounds {
    fn default() -> Bounds {
        Bounds::I32
    }
}

/// A satisfying assignment: values for every variable the constraints
/// mention. Variables not mentioned are unconstrained and keep whatever value
/// the caller already had (the paper's `IM + IM'` update).
pub type Assignment = BTreeMap<Var, i64>;

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A model was found.
    Sat(Assignment),
    /// The conjunction is unsatisfiable over the boxed integers.
    Unsat,
    /// The solver gave up (arithmetic overflow or resource cap). DART treats
    /// this like `Unsat` for search purposes but records it separately so a
    /// search that hit `Unknown` is never reported as *complete*.
    Unknown,
}

impl SolveOutcome {
    /// Whether this outcome carries a model.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }
}

/// Per-query diagnostics filled in by [`Solver::solve_with_hint_info`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveInfo {
    /// Variable-connected components the query split into (0 when the
    /// query was settled before partitioning, 1 when it was connected).
    pub components: usize,
}

impl SolveInfo {
    /// Whether independence splitting actually partitioned the query.
    pub fn was_split(&self) -> bool {
        self.components > 1
    }
}

/// Per-session solver-internal counters, snapshot via
/// [`PrefixSession::stats`]: warm-LP engine activity plus portfolio race
/// outcomes. All four are scheduling-dependent diagnostics (they vary with
/// cache state, speculation and the portfolio toggle), never observables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Dual-simplex pivots performed by the warm LP engine.
    pub warm_pivots: u64,
    /// Warm-engine dictionary builds/fallbacks to the cold two-phase
    /// simplex.
    pub cold_restarts: u64,
    /// Portfolio races settled decisively by the FD arm (a model).
    pub portfolio_fd_wins: u64,
    /// Portfolio races settled decisively by the LP arm (a refutation).
    pub portfolio_lp_wins: u64,
}

/// The counters accumulated between an earlier snapshot (`rhs`) and this
/// one. The exhaustive destructuring makes adding a field without deciding
/// how it differences a compile error.
impl std::ops::Sub for SessionStats {
    type Output = SessionStats;

    fn sub(self, rhs: SessionStats) -> SessionStats {
        let SessionStats {
            warm_pivots,
            cold_restarts,
            portfolio_fd_wins,
            portfolio_lp_wins,
        } = rhs;
        SessionStats {
            warm_pivots: self.warm_pivots - warm_pivots,
            cold_restarts: self.cold_restarts - cold_restarts,
            portfolio_fd_wins: self.portfolio_fd_wins - portfolio_fd_wins,
            portfolio_lp_wins: self.portfolio_lp_wins - portfolio_lp_wins,
        }
    }
}

/// Tunable solver limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Box applied to every variable (program inputs are 32-bit words).
    pub default_bounds: Bounds,
    /// Maximum branch & bound nodes per case-split leaf.
    pub max_bb_nodes: usize,
    /// Maximum assign-and-propagate nodes per case-split leaf (the
    /// hint-guided finite-domain search tried before LP branch & bound).
    pub max_fd_nodes: usize,
    /// Maximum feasibility checks per query (bounds the lazy case
    /// analysis over multi-variable `!=`).
    pub max_ne_leaves: usize,
    /// Maximum interval-propagation sweeps.
    pub max_propagation_rounds: usize,
    /// Wall-clock deadline per query. When set, a query that runs past it
    /// stops at the next search node and returns [`SolveOutcome::Unknown`]
    /// — sound degradation (DART records `Unknown` as incompleteness,
    /// never as `Unsat`). `None` (the default) means node budgets alone
    /// bound the query, with zero timing overhead.
    pub deadline: Option<Duration>,
    /// Race the hint-guided FD search against the shared-prefix LP screen
    /// on two threads per session query, first *decisive* verdict wins
    /// (see [`PrefixSession`]). The commit rule is deterministic, so
    /// outcomes — and report bytes — are identical to the sequential
    /// pipeline; only wall-clock time changes. Off by default.
    pub portfolio: bool,
    /// Warm-start the shared-prefix LP with a persistent dual-simplex
    /// dictionary ([`LpSession::with_warm`]). On by default; turning it
    /// off restores the cold re-solve engine for ablation. Verdicts are
    /// identical either way.
    pub lp_warm: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            default_bounds: Bounds::I32,
            max_bb_nodes: 20_000,
            max_fd_nodes: 4_000,
            max_ne_leaves: 512,
            max_propagation_rounds: 100,
            deadline: None,
            portfolio: false,
            lp_warm: true,
        }
    }
}

/// Why a search gave up: an arithmetic/budget failure, or the per-query
/// wall-clock deadline. Both surface as [`SolveOutcome::Unknown`].
#[derive(Debug)]
enum Stop {
    Arith(ArithError),
    Deadline,
}

impl From<ArithError> for Stop {
    fn from(e: ArithError) -> Stop {
        Stop::Arith(e)
    }
}

/// Per-query deadline clock, started when the query enters the solver.
/// With no deadline configured and no cancel token attached,
/// [`QueryClock::expired`] never touches the system clock.
#[derive(Debug, Clone, Copy)]
struct QueryClock<'a> {
    deadline: Option<Instant>,
    /// Cooperative cancel token, set by a racing portfolio arm's decisive
    /// finish; observed at every point the deadline is. Cancellation rides
    /// the same give-up paths as deadline expiry, so cancelled searches
    /// degrade to indecision, never to a wrong verdict.
    cancel: Option<&'a AtomicBool>,
}

impl QueryClock<'_> {
    fn start(deadline: Option<Duration>) -> QueryClock<'static> {
        QueryClock {
            deadline: deadline.map(|d| Instant::now() + d),
            cancel: None,
        }
    }

    /// The same deadline, additionally observing `cancel`.
    fn with_cancel<'a>(&self, cancel: &'a AtomicBool) -> QueryClock<'a> {
        QueryClock {
            deadline: self.deadline,
            cancel: Some(cancel),
        }
    }

    fn expired(&self) -> bool {
        self.cancel.is_some_and(|t| t.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Decision procedure for conjunctions of linear integer constraints over
/// boxed variables.
///
/// # Examples
///
/// ```
/// use dart_solver::{Constraint, LinExpr, RelOp, Solver, SolveOutcome, Var};
///
/// let solver = Solver::default();
/// // x0 == 10  and  x0 - x1 > 0
/// let cs = vec![
///     Constraint::new(LinExpr::var(Var(0)).offset(-10), RelOp::Eq),
///     Constraint::new(LinExpr::var(Var(0)).sub(&LinExpr::var(Var(1))), RelOp::Gt),
/// ];
/// match solver.solve(&cs) {
///     SolveOutcome::Sat(model) => {
///         assert_eq!(model[&Var(0)], 10);
///         assert!(model[&Var(1)] < 10);
///     }
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with the given limits.
    pub fn new(config: SolverConfig) -> Solver {
        Solver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Starts an incremental prefix session: push the path constraints of a
    /// run once, then answer each `negated_prefix(j)` query from the shared
    /// prefix state instead of rebuilding it (see [`PrefixSession`]). The
    /// session keeps its own copy of this solver's configuration.
    pub fn session(&self) -> PrefixSession {
        PrefixSession::new(*self)
    }

    /// Solves the conjunction of `constraints`.
    pub fn solve(&self, constraints: &[Constraint]) -> SolveOutcome {
        self.solve_with_hint(constraints, |_| None)
    }

    /// Solves the conjunction, preferring values from `hint` where possible
    /// (DART passes the previous run's input vector so solutions stay close
    /// to the already-explored execution).
    pub fn solve_with_hint<F>(&self, constraints: &[Constraint], hint: F) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        let mut info = SolveInfo::default();
        self.solve_with_hint_info(constraints, hint, &mut info)
    }

    /// [`Solver::solve_with_hint`] that also reports per-query diagnostics
    /// (how many independent components the query split into).
    pub fn solve_with_hint_info<F>(
        &self,
        constraints: &[Constraint],
        hint: F,
        info: &mut SolveInfo,
    ) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        // 1. Triviality screening.
        let mut live: Vec<&Constraint> = Vec::with_capacity(constraints.len());
        for c in constraints {
            match c.triviality() {
                Some(true) => {}
                Some(false) => return SolveOutcome::Unsat,
                None => live.push(c),
            }
        }

        // 2. GCD integrality test: `sum a_i x_i + k == 0` has no integer
        //    solution unless gcd(a_i) divides k. Detects integrality gaps
        //    that branch & bound would otherwise crawl over.
        for c in &live {
            if gcd_infeasible(c) {
                return SolveOutcome::Unsat;
            }
        }
        if live.is_empty() {
            return SolveOutcome::Sat(Assignment::new());
        }

        // 3. Constraint-independence splitting: partition the conjunction
        //    into variable-connected components and decide each one on its
        //    own. A DART `negated_prefix(j)` query only *changes* the
        //    component containing the negated constraint's variables — every
        //    other component is already satisfied by the previous run's
        //    input vector, so its per-component hint probe answers it
        //    without any search.
        let clock = QueryClock::start(self.config.deadline);
        let components = connected_components(&live);
        info.components = components.len();
        if components.len() == 1 {
            return self.solve_component(&live, &hint, &clock);
        }
        let mut model = Assignment::new();
        for comp in &components {
            let subset: Vec<&Constraint> = comp.iter().map(|&i| live[i]).collect();
            match self.solve_component(&subset, &hint, &clock) {
                SolveOutcome::Sat(part) => model.extend(part),
                SolveOutcome::Unsat => return SolveOutcome::Unsat,
                SolveOutcome::Unknown => return SolveOutcome::Unknown,
            }
        }
        SolveOutcome::Sat(model)
    }

    /// Decides one variable-connected conjunction of non-trivial
    /// constraints: cheap probes, normalization, then the lazy `!=` case
    /// analysis over interval propagation + branch & bound.
    fn solve_component<F>(&self, live: &[&Constraint], hint: &F, clock: &QueryClock) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        // Dense variable numbering.
        let mut vars: Vec<Var> = Vec::new();
        let mut var_idx: HashMap<Var, usize> = HashMap::new();
        for c in live {
            for v in c.vars() {
                var_idx.entry(v).or_insert_with(|| {
                    vars.push(v);
                    vars.len() - 1
                });
            }
        }
        let n = vars.len();
        if n == 0 {
            return SolveOutcome::Sat(Assignment::new());
        }

        // Cheap probes against the *original* constraints: the hint
        // itself, then all-zeros clamped into range.
        let b = self.config.default_bounds;
        if let Some(m) = probe_model(live, &vars, b, &|v| hint(v).unwrap_or(0)) {
            return SolveOutcome::Sat(m);
        }
        if let Some(m) = probe_model(live, &vars, b, &|_| 0) {
            return SolveOutcome::Sat(m);
        }

        // Normalize. Single-variable `!=` becomes an excluded point;
        // multi-variable `!=` is case-split.
        let (mut rows, exclusions, mut splits) = normalize_live(live, &var_idx, n);

        // Lazy splitting over multi-variable `!=`: solve without them,
        // and only split on one that the found model violates. Unsat
        // without the disequalities settles the query in one step.
        let mut leaves_left = self.config.max_ne_leaves.max(1);
        let hint_vals: Vec<i64> = vars.iter().map(|&v| hint(v).unwrap_or(0)).collect();
        let boxes = vec![(b.lo as i128, b.hi as i128); n];
        let outcome = self.lazy_solve(
            &mut rows,
            &mut splits,
            &exclusions,
            &hint_vals,
            &boxes,
            &mut leaves_left,
            clock,
        );
        match outcome {
            Ok(Some(sol)) => {
                let model: Assignment = vars.iter().map(|&v| (v, sol[var_idx[&v]])).collect();
                // Defensive final check of the original constraints.
                if live
                    .iter()
                    .all(|c| c.satisfied_by(|v| model.get(&v).copied()))
                {
                    SolveOutcome::Sat(model)
                } else {
                    SolveOutcome::Unknown
                }
            }
            Ok(None) => SolveOutcome::Unsat,
            Err(Stop::Deadline) => {
                debug_log("query deadline expired");
                SolveOutcome::Unknown
            }
            Err(Stop::Arith(e)) => {
                debug_log(&format!("arithmetic/bb failure: {e:?}"));
                SolveOutcome::Unknown
            }
        }
    }

    /// Decides `rows ∧ exclusions` (no disequalities), using the
    /// hint-guided finite-domain search first and LP branch & bound as the
    /// complete fallback. Consumes one unit of `leaves_left`.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn feasible(
        &self,
        rows: &[Row],
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        init_boxes: &[(i128, i128)],
        leaves_left: &mut usize,
        clock: &QueryClock,
    ) -> Result<Option<Vec<i64>>, Stop> {
        if *leaves_left == 0 {
            return Err(ArithError::Overflow.into()); // budget: Unknown upstream
        }
        if clock.expired() {
            return Err(Stop::Deadline);
        }
        *leaves_left -= 1;
        let boxes = init_boxes.to_vec();
        let mut fd_budget = self.config.max_fd_nodes;
        if let Some(sol) =
            self.fd_search(rows, boxes.clone(), exclusions, hint, &mut fd_budget, clock)
        {
            return Ok(Some(sol));
        }
        let mut budget = self.config.max_bb_nodes;
        self.branch_bound(rows, boxes, exclusions, hint, &mut budget, clock)
    }

    /// Lazy case analysis over multi-variable `!=` constraints: solve the
    /// inequality/equality skeleton; if the model violates some
    /// disequality, branch on *that one* (hint-preferred side first) and
    /// recurse with the chosen side added as a row. Unsat skeletons prune
    /// whole subtrees, so the 2^k eager expansion never materializes.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn lazy_solve(
        &self,
        rows: &mut Vec<Row>,
        splits: &mut Vec<NeSplit>,
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        init_boxes: &[(i128, i128)],
        leaves_left: &mut usize,
        clock: &QueryClock,
    ) -> Result<Option<Vec<i64>>, Stop> {
        let sol = match self.feasible(rows, exclusions, hint, init_boxes, leaves_left, clock)? {
            Some(sol) => sol,
            None => return Ok(None),
        };
        let violated = splits.iter().position(|ne| ne.violated_by(&sol));
        let Some(i) = violated else {
            return Ok(Some(sol));
        };
        let ne = splits.swap_remove(i);
        // Prefer the side the hint already satisfies.
        let hint_ok = |r: &Row| r.eval(hint) <= r.rhs;
        let order: [Row; 2] = if hint_ok(&ne.hi_side) && !hint_ok(&ne.lo_side) {
            [ne.hi_side.clone(), ne.lo_side.clone()]
        } else {
            [ne.lo_side.clone(), ne.hi_side.clone()]
        };
        let mut found = None;
        for side in order {
            rows.push(side);
            let res = self.lazy_solve(
                rows,
                splits,
                exclusions,
                hint,
                init_boxes,
                leaves_left,
                clock,
            );
            rows.pop();
            match res {
                Ok(Some(sol)) => {
                    found = Some(sol);
                    break;
                }
                Ok(None) => {}
                Err(e) => {
                    splits.push(ne);
                    return Err(e);
                }
            }
        }
        splits.push(ne);
        Ok(found)
    }

    /// One full FD strategy pass for a session query: hint-guided search
    /// from the warm boxes, then verification against the case splits and
    /// the original constraints. `None` is indecision (budget, deadline,
    /// cancellation, or an unverified candidate), never unsat — exactly
    /// the sequential pipeline's fall-through condition.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn fd_strategy(
        &self,
        q_rows: &[Row],
        q_boxes: &[(i128, i128)],
        q_excl: &[BTreeSet<i64>],
        hint_vals: &[i64],
        q_splits: &[NeSplit],
        q_live: &[&Constraint],
        q_vars: &[Var],
        clock: &QueryClock,
    ) -> Option<Assignment> {
        let mut fd_budget = self.config.max_fd_nodes;
        let sol = self.fd_search(
            q_rows,
            q_boxes.to_vec(),
            q_excl,
            hint_vals,
            &mut fd_budget,
            clock,
        )?;
        if q_splits.iter().any(|ne| ne.violated_by(&sol)) {
            return None;
        }
        let model: Assignment = q_vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, sol[i]))
            .collect();
        if q_live
            .iter()
            .all(|c| c.satisfied_by(|v| model.get(&v).copied()))
        {
            Some(model)
        } else {
            None
        }
    }

    /// Hint-guided assign-and-propagate search.
    ///
    /// Picks variables in order, tries a handful of candidate values per
    /// variable (the hint clamped into the current box, then the box edges,
    /// then hint±1), propagating intervals after each assignment and
    /// backtracking on wipe-out. This finds models near the previous input
    /// vector (DART's `IM + IM'` behaviour) on the small, mostly-unit
    /// systems path constraints produce. It is *incomplete*: `None` means
    /// "not found within budget", never "unsat".
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn fd_search(
        &self,
        rows: &[Row],
        mut boxes: Vec<(i128, i128)>,
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        budget: &mut usize,
        clock: &QueryClock,
    ) -> Option<Vec<i64>> {
        if *budget == 0 || clock.expired() {
            return None;
        }
        *budget -= 1;
        if !self.propagate(rows, &mut boxes) {
            return None;
        }

        // Find the first unfixed variable.
        let next = boxes.iter().position(|&(lo, hi)| lo < hi);
        let Some(i) = next else {
            // All fixed: verify rows and exclusions.
            let cand: Vec<i64> = boxes.iter().map(|&(lo, _)| lo as i64).collect();
            let ok = rows.iter().all(|r| r.eval(&cand) <= r.rhs)
                && cand
                    .iter()
                    .enumerate()
                    .all(|(j, v)| !exclusions[j].contains(v));
            return if ok { Some(cand) } else { None };
        };

        let (lo, hi) = boxes[i];
        let pref = (hint.get(i).copied().unwrap_or(0) as i128).clamp(lo, hi) as i64;
        let mut tried: Vec<i64> = Vec::with_capacity(5);
        let mut candidates: Vec<i64> = Vec::with_capacity(5);
        for raw in [
            Some(pref),
            pick_in_box(lo, hi, &exclusions[i], pref),
            Some(lo as i64),
            Some(hi as i64),
            pick_in_box(lo, hi, &exclusions[i], (lo + (hi - lo) / 2) as i64),
        ]
        .into_iter()
        .flatten()
        {
            if !tried.contains(&raw) && !exclusions[i].contains(&raw) {
                tried.push(raw);
                candidates.push(raw);
            }
        }
        for val in candidates {
            let mut sub = boxes.clone();
            sub[i] = (val as i128, val as i128);
            if let Some(sol) = self.fd_search(rows, sub, exclusions, hint, budget, clock) {
                return Some(sol);
            }
            if *budget == 0 {
                return None;
            }
        }
        None
    }

    /// Integer feasibility of `rows` within `boxes`, avoiding excluded
    /// points, by interval propagation + LP relaxation + branching.
    ///
    /// Iterative depth-first worklist (recursion here can reach thousands of
    /// nodes on 32-bit boxes, which would overflow the call stack).
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn branch_bound(
        &self,
        rows: &[Row],
        boxes: Vec<(i128, i128)>,
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        budget: &mut usize,
        clock: &QueryClock,
    ) -> Result<Option<Vec<i64>>, Stop> {
        let mut work: Vec<Vec<(i128, i128)>> = vec![boxes];
        while let Some(mut boxes) = work.pop() {
            if clock.expired() {
                return Err(Stop::Deadline);
            }
            if *budget == 0 {
                return Err(ArithError::Overflow.into()); // treated as Unknown upstream
            }
            *budget -= 1;

            if !self.propagate(rows, &mut boxes) {
                continue;
            }

            // Integer probe: clamp the hint into the boxes, dodge
            // exclusions, then verify all rows.
            if let Some(cand) = probe_candidate(&boxes, exclusions, hint) {
                if rows.iter().all(|r| r.eval(&cand) <= r.rhs) {
                    return Ok(Some(cand));
                }
            }

            // LP relaxation on shifted variables y = x - lo >= 0.
            let lp = build_lp(rows, &boxes)?;
            let point = match feasible_point(&lp)? {
                LpResult::Infeasible => continue,
                LpResult::Feasible(p) => p,
            };
            let xs: Vec<Rat> = point
                .iter()
                .zip(&boxes)
                .map(|(y, &(lo, _))| y.add(Rat::from_int(lo)))
                .collect::<Result<_, _>>()?;
            if (*budget).is_multiple_of(1000) {
                debug_log(&format!("bb budget={budget} vertex={xs:?} boxes={boxes:?}"));
            }

            // Rounding probes: snap the (possibly fractional) vertex to
            // nearby integer points and verify. Without this, vertices that
            // sit just off the integer grid make plain branching crawl one
            // unit per node across a 2^32-wide box.
            for mode in [Rounding::Nearest, Rounding::Floor, Rounding::Ceil] {
                let snapped: Vec<i64> = xs
                    .iter()
                    .zip(&boxes)
                    .map(|(v, &(lo, hi))| {
                        let raw = match mode {
                            Rounding::Nearest => v.round(),
                            Rounding::Floor => v.floor(),
                            Rounding::Ceil => v.ceil(),
                        };
                        raw.clamp(lo, hi) as i64
                    })
                    .collect();
                if let Some(cand) = adjust_for_exclusions(&snapped, &boxes, exclusions) {
                    if rows.iter().all(|r| r.eval(&cand) <= r.rhs) {
                        return Ok(Some(cand));
                    }
                }
            }

            // All-integer vertex that avoids exclusions?
            if xs.iter().all(|v| v.is_integer()) {
                let cand: Vec<i64> = xs.iter().map(|v| v.numer() as i64).collect();
                if cand
                    .iter()
                    .enumerate()
                    .all(|(i, v)| !exclusions[i].contains(v))
                {
                    debug_assert!(rows.iter().all(|r| r.eval(&cand) <= r.rhs));
                    return Ok(Some(cand));
                }
                // Integer vertex on an excluded point: split around it.
                let i = cand
                    .iter()
                    .enumerate()
                    .find(|(i, v)| exclusions[*i].contains(v))
                    .map(|(i, _)| i)
                    .expect("some excluded");
                let p = cand[i] as i128;
                push_child(&mut work, &boxes, i, Some(p + 1), None);
                push_child(&mut work, &boxes, i, None, Some(p - 1));
                continue;
            }

            // Fractional: branch on the first fractional variable. Push the
            // half containing the rounded value last so it is explored first.
            let (i, val) = xs
                .iter()
                .enumerate()
                .find(|(_, v)| !v.is_integer())
                .map(|(i, v)| (i, *v))
                .expect("some fractional");
            let floor = val.floor();
            let left_first = val.sub(Rat::from_int(floor))? <= Rat::new(1, 2)?;
            let (first, second) = if left_first {
                ((None, Some(floor)), (Some(floor + 1), None))
            } else {
                ((Some(floor + 1), None), (None, Some(floor)))
            };
            push_child(&mut work, &boxes, i, second.0, second.1);
            push_child(&mut work, &boxes, i, first.0, first.1);
        }
        Ok(None)
    }

    /// Iterated interval propagation. Returns `false` on emptiness.
    fn propagate(&self, rows: &[Row], boxes: &mut [(i128, i128)]) -> bool {
        for _ in 0..self.config.max_propagation_rounds {
            let mut changed = false;
            for row in rows {
                // Minimum achievable value of the row's lhs.
                let mut min_sum: i128 = 0;
                for &(j, a) in &row.coeffs {
                    let (lo, hi) = boxes[j];
                    min_sum += if a > 0 {
                        a as i128 * lo
                    } else {
                        a as i128 * hi
                    };
                }
                if row.coeffs.is_empty() {
                    if row.rhs < 0 {
                        return false;
                    }
                    continue;
                }
                if min_sum > row.rhs {
                    return false;
                }
                for &(j, a) in &row.coeffs {
                    let (lo, hi) = boxes[j];
                    let own_min = if a > 0 {
                        a as i128 * lo
                    } else {
                        a as i128 * hi
                    };
                    let rest_min = min_sum - own_min;
                    let slack = row.rhs - rest_min; // a*x <= slack
                    if a > 0 {
                        let new_hi = slack.div_euclid(a as i128);
                        if new_hi < hi {
                            boxes[j].1 = new_hi;
                            changed = true;
                        }
                    } else {
                        let na = -(a as i128); // -a*x >= -slack => x >= ceil(-slack/ -a*... )
                        let new_lo = -(slack.div_euclid(na));
                        if new_lo > lo {
                            boxes[j].0 = new_lo;
                            changed = true;
                        }
                    }
                    if boxes[j].0 > boxes[j].1 {
                        return false;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        true
    }
}

/// Per-push snapshot of a [`PrefixSession`]: the cumulative state after the
/// corresponding constraint was pushed.
#[derive(Debug, Clone)]
struct Frame {
    /// The pushed constraint, compared by [`PrefixSession::rebase`].
    pushed: Constraint,
    live_len: usize,
    vars_len: usize,
    rows_len: usize,
    splits_len: usize,
    /// This push's contribution to the shared-prefix LP (already shifted to
    /// nonnegative variables), re-pushed lazily on out-of-order queries.
    lp_rows: Vec<LpRow>,
    /// Exclusion sets after this push (one per numbered variable).
    exclusions: Vec<BTreeSet<i64>>,
    /// Interval-propagated boxes for the whole prefix up to this push.
    boxes: Vec<(i128, i128)>,
    /// The prefix up to this push is known unsatisfiable (trivially false
    /// constraint, GCD integrality gap, or propagation wipe-out).
    infeasible: bool,
}

/// The shared-prefix LP of a [`PrefixSession`]: its frame stack mirrors
/// the session's frames up to `synced`; queries at shallower depths pop it
/// lazily, deeper ones re-push the stored frame rows.
#[derive(Debug, Clone)]
struct PrefixLp {
    lp: LpSession,
    /// How many leading frames the LP currently has pushed.
    synced: usize,
}

impl PrefixLp {
    /// Pops the LP back to at most `depth` frames.
    fn truncate(&mut self, depth: usize) {
        if self.synced > depth {
            self.lp.pop_to(depth);
            self.synced = depth;
        }
    }

    /// Brings the LP to exactly the first `j` of `frames` and widens it to
    /// at least `n` columns (a deeper earlier query may already have
    /// widened it further; the extra zero columns don't change
    /// feasibility). `false` means the LP screen must be skipped for this
    /// query: a rejected width change, which cannot happen with the
    /// monotone widths used here, degrades the screen instead of aborting.
    fn sync(&mut self, frames: &[Frame], j: usize, n: usize) -> bool {
        self.truncate(j);
        while self.synced < j {
            let f = &frames[self.synced];
            if self
                .lp
                .grow_vars(f.vars_len.max(self.lp.num_vars()))
                .is_err()
            {
                return false;
            }
            self.lp.push_frame(f.lp_rows.clone());
            self.synced += 1;
        }
        self.lp.grow_vars(n.max(self.lp.num_vars())).is_ok()
    }
}

/// Incremental solving of the directed search's `negated_prefix(j)`
/// queries.
///
/// The directed search (paper Fig. 5) solves, for each candidate branch `j`
/// of a run, the query `c_0 ∧ … ∧ c_{j-1} ∧ ¬c_j`. A fresh
/// [`Solver::solve_with_hint`] per query re-screens, re-numbers,
/// re-normalizes and re-propagates the shared prefix from scratch — O(n²)
/// constraint work per run. A `PrefixSession` does that work once per
/// *pushed constraint* instead: [`PrefixSession::push`] extends the dense
/// numbering, the normalized rows and the interval-propagation fixpoint
/// incrementally, and [`PrefixSession::solve_query`] starts from the
/// snapshot at depth `j` — it also screens the query against a shared-prefix
/// LP ([`LpSession`]) whose tableau and last feasible vertex persist across
/// queries.
///
/// One session serves a whole DART session, not one run. Under
/// depth-first order each new path repeats the previous one up to the
/// flipped branch, so [`PrefixSession::rebase`] retracts the session to
/// the longest prefix it shares with the new path and pushes only the
/// rest. The shared prefix is found by comparing constraints by value,
/// not by trusting the flipped index: an earlier constraint changes
/// between runs when a non-linear term is concretized to a different
/// value. A re-based session answers every query exactly as a session
/// freshly built by pushing the same path would — outcome and model. Each
/// frame is a function of the constraints pushed before it, and a pop
/// restores the numbering, rows and case splits to the surviving frame.
/// The one state that outlives a pop, the shared-prefix LP, only screens
/// for rational infeasibility, which its exact simplex decides the same
/// whatever dictionary or cached vertex it starts from (its witness point
/// is never returned as a model).
///
/// Outcomes are equisatisfiable with `solve_with_hint` on the same
/// conjunction; the concrete model may differ (the session's tighter warm
/// boxes can steer the search to a different — equally valid — solution).
///
/// # Examples
///
/// ```
/// use dart_solver::{Constraint, LinExpr, RelOp, Solver, Var};
///
/// let solver = Solver::default();
/// let mut sess = solver.session();
/// // Path: x0 == 1, then x0 != 5.
/// let first = Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Eq);
/// sess.push(&first);
/// sess.push(&Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Ne));
/// // Query j=1: x0 == 1 ∧ x0 == 5 — unsat.
/// let neg = Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Eq);
/// assert!(!sess.solve_query(1, &neg, |_| None).is_sat());
/// // Query j=0: x0 != 1 — sat.
/// let neg = Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Ne);
/// assert!(sess.solve_query(0, &neg, |_| None).is_sat());
/// // The next run's path shares the first constraint: re-basing keeps it
/// // and pushes only the new second one.
/// let next = [first, Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Eq)];
/// assert_eq!(sess.common_prefix(&next), 1);
/// sess.rebase(&next);
/// assert_eq!(sess.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixSession {
    /// The solver this session runs on: its own copy of the configuration,
    /// so a session can outlive the `Solver` it was started from.
    solver: Solver,
    /// Non-trivial pushed constraints, in push order.
    live: Vec<Constraint>,
    /// Dense variable numbering, append-only across pushes.
    vars: Vec<Var>,
    var_idx: HashMap<Var, usize>,
    /// Normalized `<= 0` rows of the live prefix.
    rows: Vec<Row>,
    /// Multi-variable `!=` case splits of the live prefix.
    splits: Vec<NeSplit>,
    lp: PrefixLp,
    frames: Vec<Frame>,
    /// Portfolio race outcomes (the LP counters live in `lp`).
    stats: SessionStats,
}

impl PrefixSession {
    fn new(solver: Solver) -> PrefixSession {
        PrefixSession {
            solver,
            live: Vec::new(),
            vars: Vec::new(),
            var_idx: HashMap::new(),
            rows: Vec::new(),
            splits: Vec::new(),
            lp: PrefixLp {
                lp: LpSession::with_warm(0, solver.config.lp_warm),
                synced: 0,
            },
            frames: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// Number of pushed constraints.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Solver-internal counters accumulated over this session's queries:
    /// warm-LP pivots and restarts plus portfolio race wins. Cumulative
    /// over the session's lifetime; subtract an earlier snapshot to count
    /// one walk.
    pub fn stats(&self) -> SessionStats {
        let lp = self.lp.lp.stats();
        SessionStats {
            warm_pivots: lp.warm_pivots,
            cold_restarts: lp.cold_restarts,
            ..self.stats
        }
    }

    /// The solver this session runs on.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Pushes the next path constraint, extending the numbering, the
    /// normalized rows and the propagated boxes incrementally.
    pub fn push(&mut self, c: &Constraint) {
        let b = self.solver.config.default_bounds;
        let mut frame = match self.frames.last() {
            Some(f) => Frame {
                pushed: c.clone(),
                live_len: f.live_len,
                vars_len: f.vars_len,
                rows_len: f.rows_len,
                splits_len: f.splits_len,
                lp_rows: Vec::new(),
                exclusions: f.exclusions.clone(),
                boxes: f.boxes.clone(),
                infeasible: f.infeasible,
            },
            None => Frame {
                pushed: c.clone(),
                live_len: 0,
                vars_len: 0,
                rows_len: 0,
                splits_len: 0,
                lp_rows: Vec::new(),
                exclusions: Vec::new(),
                boxes: Vec::new(),
                infeasible: false,
            },
        };
        let screened = match c.triviality() {
            Some(true) => None,
            Some(false) => {
                frame.infeasible = true;
                None
            }
            None if gcd_infeasible(c) => {
                frame.infeasible = true;
                None
            }
            None => Some(c),
        };
        if let Some(c) = screened.filter(|_| !frame.infeasible) {
            self.live.push(c.clone());
            frame.live_len += 1;
            let first_new_var = self.vars.len();
            for v in c.vars() {
                if let std::collections::hash_map::Entry::Vacant(e) = self.var_idx.entry(v) {
                    e.insert(self.vars.len());
                    self.vars.push(v);
                }
            }
            frame.vars_len = self.vars.len();
            frame.exclusions.resize_with(frame.vars_len, BTreeSet::new);
            frame
                .boxes
                .resize(frame.vars_len, (b.lo as i128, b.hi as i128));
            normalize_one(
                c,
                &self.var_idx,
                &mut self.rows,
                &mut frame.exclusions,
                &mut self.splits,
            );
            let new_rows = &self.rows[frame.rows_len..];
            frame.lp_rows = shift_lp_rows(new_rows, b, first_new_var, frame.vars_len);
            frame.rows_len = self.rows.len();
            frame.splits_len = self.splits.len();
            if !self
                .solver
                .propagate(&self.rows[..frame.rows_len], &mut frame.boxes)
            {
                frame.infeasible = true;
            }
        }
        self.frames.push(frame);
    }

    /// Removes the most recently pushed constraint.
    ///
    /// # Panics
    ///
    /// Panics if the session is empty.
    pub fn pop(&mut self) {
        let depth = self.frames.len().checked_sub(1);
        self.truncate(depth.expect("pop on an empty PrefixSession"));
    }

    /// Pops every constraint pushed after the first `depth`.
    fn truncate(&mut self, depth: usize) {
        self.frames.truncate(depth);
        let (live_len, vars_len, rows_len, splits_len) = self
            .frames
            .last()
            .map(|f| (f.live_len, f.vars_len, f.rows_len, f.splits_len))
            .unwrap_or((0, 0, 0, 0));
        for v in self.vars.drain(vars_len..) {
            self.var_idx.remove(&v);
        }
        self.live.truncate(live_len);
        self.rows.truncate(rows_len);
        self.splits.truncate(splits_len);
        self.lp.truncate(depth);
    }

    /// How many leading constraints of `path` this session has pushed:
    /// the length of the longest common prefix, compared by value.
    pub fn common_prefix(&self, path: &[Constraint]) -> usize {
        self.frames
            .iter()
            .zip(path)
            .take_while(|(f, c)| f.pushed == **c)
            .count()
    }

    /// Re-bases the session onto `path`: pops back to the longest prefix
    /// it shares with `path` ([`PrefixSession::common_prefix`]), then
    /// pushes the rest. Afterwards the session answers every query as one
    /// freshly built by pushing `path` would (see the type docs).
    pub fn rebase(&mut self, path: &[Constraint]) {
        let keep = self.common_prefix(path);
        self.truncate(keep);
        for c in &path[keep..] {
            self.push(c);
        }
    }

    /// Solves `pushed[0] ∧ … ∧ pushed[j-1] ∧ negated` — the directed
    /// search's `negated_prefix(j)` with the prefix taken from this
    /// session's snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `j` exceeds [`PrefixSession::depth`].
    pub fn solve_query<F>(&mut self, j: usize, negated: &Constraint, hint: F) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        let mut info = SolveInfo::default();
        self.solve_query_info(j, negated, hint, &mut info)
    }

    /// The live (non-trivial) prefix constraints visible to a depth-`j`
    /// query, in push order.
    pub fn prefix_live(&self, j: usize) -> &[Constraint] {
        let live_len = if j == 0 {
            0
        } else {
            self.frames[j - 1].live_len
        };
        &self.live[..live_len]
    }

    /// Like [`PrefixSession::solve_query`], additionally reporting how the
    /// query decomposed into independent components via `info`.
    pub fn solve_query_info<F>(
        &mut self,
        j: usize,
        negated: &Constraint,
        hint: F,
        info: &mut SolveInfo,
    ) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        assert!(j <= self.frames.len(), "query depth {j} beyond session");
        let clock = QueryClock::start(self.solver.config.deadline);
        let b = self.solver.config.default_bounds;
        let prefix = j.checked_sub(1).map(|i| &self.frames[i]);
        if prefix.is_some_and(|f| f.infeasible) {
            return SolveOutcome::Unsat;
        }
        let (live_len, vars_len, rows_len, splits_len) = prefix.map_or((0, 0, 0, 0), |f| {
            (f.live_len, f.vars_len, f.rows_len, f.splits_len)
        });

        // Screen the negated constraint.
        let neg_live = match negated.triviality() {
            Some(true) => None,
            Some(false) => return SolveOutcome::Unsat,
            None if gcd_infeasible(negated) => return SolveOutcome::Unsat,
            None => Some(negated),
        };
        let q_live: Vec<&Constraint> = self.live[..live_len].iter().chain(neg_live).collect();
        if q_live.is_empty() {
            return SolveOutcome::Sat(Assignment::new());
        }

        // Extend the prefix numbering with the negated constraint's new
        // variables (session vars numbered deeper than the prefix are
        // renumbered fresh for this query).
        let mut q_vars: Vec<Var> = self.vars[..vars_len].to_vec();
        let mut q_idx: HashMap<Var, usize> =
            q_vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        if let Some(c) = neg_live {
            for v in c.vars() {
                if let std::collections::hash_map::Entry::Vacant(e) = q_idx.entry(v) {
                    e.insert(q_vars.len());
                    q_vars.push(v);
                }
            }
        }
        let n = q_vars.len();

        // Cheap probes: the hint, then all-zeros.
        if let Some(m) = probe_model(&q_live, &q_vars, b, &|v| hint(v).unwrap_or(0)) {
            return SolveOutcome::Sat(m);
        }
        if let Some(m) = probe_model(&q_live, &q_vars, b, &|_| 0) {
            return SolveOutcome::Sat(m);
        }

        // Constraint-independence splitting: when the negated constraint's
        // variable-connected component is independent of the rest of the
        // query, solve only that component and fill the other components
        // straight from the hint — they are the previous run's path
        // constraints, which that run's inputs satisfied by construction.
        let components = connected_components(&q_live);
        info.components = components.len();
        if neg_live.is_some() && components.len() > 1 {
            let neg_idx = q_live.len() - 1;
            let pick = |v: Var| hint(v).unwrap_or(0).clamp(b.lo, b.hi);
            let mut neg_comp: &[usize] = &[];
            let mut rest_ok = true;
            let mut fill = Assignment::new();
            for comp in &components {
                if comp.contains(&neg_idx) {
                    neg_comp = comp;
                    continue;
                }
                for &ci in comp {
                    if q_live[ci].satisfied_by(|v| Some(pick(v))) {
                        for v in q_live[ci].vars() {
                            fill.insert(v, pick(v));
                        }
                    } else {
                        rest_ok = false;
                        break;
                    }
                }
                if !rest_ok {
                    break;
                }
            }
            if rest_ok {
                let comp_live: Vec<&Constraint> = neg_comp.iter().map(|&i| q_live[i]).collect();
                match self.solver.solve_component(&comp_live, &hint, &clock) {
                    SolveOutcome::Sat(part) => {
                        fill.extend(part);
                        return SolveOutcome::Sat(fill);
                    }
                    SolveOutcome::Unsat => return SolveOutcome::Unsat,
                    // An unknown component verdict loses no information:
                    // fall through to the full warm-state solve below.
                    SolveOutcome::Unknown => {}
                }
            }
        }

        // Query state = prefix snapshots + the negated constraint.
        let mut q_rows = self.rows[..rows_len].to_vec();
        let mut q_splits = self.splits[..splits_len].to_vec();
        let (mut q_excl, mut q_boxes) = prefix.map_or((Vec::new(), Vec::new()), |f| {
            (f.exclusions.clone(), f.boxes.clone())
        });
        q_excl.resize_with(n, BTreeSet::new);
        q_boxes.resize(n, (b.lo as i128, b.hi as i128));
        let first_new_row = q_rows.len();
        if let Some(c) = neg_live {
            normalize_one(c, &q_idx, &mut q_rows, &mut q_excl, &mut q_splits);
        }

        // Warm-started interval propagation: the prefix part of `q_boxes`
        // is already at its fixpoint, so only the negated rows do work.
        if !self.solver.propagate(&q_rows, &mut q_boxes) {
            return SolveOutcome::Unsat;
        }

        // The two decisive strategies: the hint-guided finite-domain pass
        // (settles easy `Sat` queries — path constraints are mostly unit
        // systems) and the shared-prefix LP screen (an infeasible rational
        // relaxation ⇒ integer unsat, settling `Unsat` queries without any
        // branch & bound). The sequential pipeline runs FD first and the
        // LP only on a miss; the portfolio races them on two threads with
        // a deterministic first-decisive-verdict commit rule.
        let hint_vals: Vec<i64> = q_vars.iter().map(|&v| hint(v).unwrap_or(0)).collect();
        if self.solver.config.portfolio && self.lp.sync(&self.frames, j, n) {
            let neg_lp = shift_lp_rows(&q_rows[first_new_row..], b, vars_len, n);
            if let Some(outcome) = race_strategies(
                &self.solver,
                &mut self.lp.lp,
                &mut self.stats,
                &q_rows,
                &q_boxes,
                &q_excl,
                &hint_vals,
                &q_splits,
                &q_live,
                &q_vars,
                neg_lp,
                &clock,
            ) {
                return outcome;
            }
        } else {
            if let Some(model) = self.solver.fd_strategy(
                &q_rows, &q_boxes, &q_excl, &hint_vals, &q_splits, &q_live, &q_vars, &clock,
            ) {
                return SolveOutcome::Sat(model);
            }
            // The LP's cached vertex survives pops, so sibling queries
            // usually answer by point checks; on a miss the warm
            // dictionary repairs with a few dual pivots.
            if self.lp.sync(&self.frames, j, n) {
                let neg_lp = shift_lp_rows(&q_rows[first_new_row..], b, vars_len, n);
                let lp = &mut self.lp.lp;
                let mark = lp.push_frame(neg_lp);
                let verdict = lp.feasible();
                lp.pop_to(mark);
                match verdict {
                    Ok(LpResult::Infeasible) => return SolveOutcome::Unsat,
                    Ok(LpResult::Feasible(_)) => {}
                    Err(_) => {} // no information; fall through to the full solve
                }
            }
        }

        // Full integer solve from the warm state.
        let mut leaves_left = self.solver.config.max_ne_leaves.max(1);
        let outcome = self.solver.lazy_solve(
            &mut q_rows,
            &mut q_splits,
            &q_excl,
            &hint_vals,
            &q_boxes,
            &mut leaves_left,
            &clock,
        );
        match outcome {
            Ok(Some(sol)) => {
                let model: Assignment = q_vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, sol[i]))
                    .collect();
                if q_live
                    .iter()
                    .all(|c| c.satisfied_by(|v| model.get(&v).copied()))
                {
                    SolveOutcome::Sat(model)
                } else {
                    SolveOutcome::Unknown
                }
            }
            Ok(None) => SolveOutcome::Unsat,
            Err(Stop::Deadline) => {
                debug_log("query deadline expired (session)");
                SolveOutcome::Unknown
            }
            Err(Stop::Arith(e)) => {
                debug_log(&format!("arithmetic/bb failure (session): {e:?}"));
                SolveOutcome::Unknown
            }
        }
    }
}

/// Races the FD and warm-LP strategies on two threads. Only a
/// *decisive* arm — an FD model, or an LP refutation of the rational
/// relaxation — cancels its peer and commits. Sound strategies cannot
/// both be decisive on one query, each arm is deterministic given its
/// inputs, and a cancelled arm was provably headed for indecision
/// (the canceller's verdict forecloses its decisive outcome), so the
/// committed verdict is independent of timing and thread count.
/// `None` — both arms indecisive — falls through to the same complete
/// solve the sequential pipeline uses.
#[allow(clippy::too_many_arguments)] // internal; mirrors the search state
fn race_strategies(
    solver: &Solver,
    lp: &mut LpSession,
    stats: &mut SessionStats,
    q_rows: &[Row],
    q_boxes: &[(i128, i128)],
    q_excl: &[BTreeSet<i64>],
    hint_vals: &[i64],
    q_splits: &[NeSplit],
    q_live: &[&Constraint],
    q_vars: &[Var],
    neg_lp: Vec<LpRow>,
    clock: &QueryClock,
) -> Option<SolveOutcome> {
    let fd_cancel = AtomicBool::new(false);
    let lp_cancel = AtomicBool::new(false);
    let (fd_model, lp_verdict) = std::thread::scope(|scope| {
        let fd_arm = scope.spawn(|| {
            let fd_clock = clock.with_cancel(&fd_cancel);
            let model = solver.fd_strategy(
                q_rows, q_boxes, q_excl, hint_vals, q_splits, q_live, q_vars, &fd_clock,
            );
            if model.is_some() {
                lp_cancel.store(true, Ordering::Relaxed);
            }
            model
        });
        // The LP arm runs on the calling thread.
        let mark = lp.push_frame(neg_lp);
        let verdict = lp.feasible_cancellable(Some(&lp_cancel));
        lp.pop_to(mark);
        if matches!(verdict, Ok(Some(LpResult::Infeasible))) {
            fd_cancel.store(true, Ordering::Relaxed);
        }
        let model = fd_arm.join().expect("fd strategy panicked");
        (model, verdict)
    });
    if let Ok(Some(LpResult::Infeasible)) = lp_verdict {
        debug_assert!(fd_model.is_none(), "sound strategies cannot disagree");
        stats.portfolio_lp_wins += 1;
        return Some(SolveOutcome::Unsat);
    }
    if let Some(model) = fd_model {
        stats.portfolio_fd_wins += 1;
        return Some(SolveOutcome::Sat(model));
    }
    None
}

/// Normalizes one non-trivial constraint into rows / an exclusion point / a
/// case split, over the numbering `var_idx`.
fn normalize_one(
    c: &Constraint,
    var_idx: &HashMap<Var, usize>,
    rows: &mut Vec<Row>,
    exclusions: &mut [BTreeSet<i64>],
    splits: &mut Vec<NeSplit>,
) {
    match c.normalize() {
        NormalForm::Conj(list) => {
            for le in list {
                rows.push(Row::from_le(&le.expr, var_idx));
            }
        }
        NormalForm::Disj(a, bside) => {
            if c.expr.num_vars() == 1 {
                // a*x + k != 0: excluded point when a | -k. Otherwise the
                // constraint is trivially true, and so it is when the point
                // lies outside `i64`, where no boxed variable can reach it.
                let (v, coeff) = c.expr.iter().next().expect("one var");
                let (k, coeff) = (c.expr.constant() as i128, coeff as i128);
                if (-k) % coeff == 0 {
                    if let Ok(point) = i64::try_from((-k) / coeff) {
                        exclusions[var_idx[&v]].insert(point);
                    }
                }
            } else {
                splits.push(NeSplit {
                    diff: Row::from_le(&c.expr, var_idx),
                    lo_side: Row::from_le(&a.expr, var_idx),
                    hi_side: Row::from_le(&bside.expr, var_idx),
                });
            }
        }
    }
}

/// Probes one concrete pick against the original constraints; returns the
/// model over `vars` (clamped into bounds) when every constraint holds.
/// The last constraint — a query's negated branch — is tested first: the
/// hint and most other picks come from runs that took the other side of
/// that branch, so they fail exactly there.
fn probe_model(
    live: &[&Constraint],
    vars: &[Var],
    b: Bounds,
    pick: &dyn Fn(Var) -> i64,
) -> Option<Assignment> {
    let holds = |c: &&Constraint| c.satisfied_by(|v| Some(pick(v).clamp(b.lo, b.hi)));
    let (last, rest) = live.split_last()?;
    if holds(last) && rest.iter().all(holds) {
        Some(
            vars.iter()
                .map(|&v| (v, pick(v).clamp(b.lo, b.hi)))
                .collect(),
        )
    } else {
        None
    }
}

/// Shifts integer rows to the LP's nonnegative variables `y = x - lo`
/// (every variable uses the session-wide default box), and appends the
/// upper-bound rows `y_v <= hi - lo` for the variables numbered in
/// `first_new_var..n` (each variable's bound row is emitted exactly once,
/// by the frame that introduced it).
fn shift_lp_rows(rows: &[Row], b: Bounds, first_new_var: usize, n: usize) -> Vec<LpRow> {
    let lo = b.lo as i128;
    let width = b.hi as i128 - lo;
    let mut out = Vec::with_capacity(rows.len() + n - first_new_var);
    for row in rows {
        let mut coeffs = vec![Rat::ZERO; n];
        let mut shift: i128 = 0;
        for &(idx, a) in &row.coeffs {
            coeffs[idx] = Rat::from_int(a as i128);
            shift += a as i128 * lo;
        }
        out.push(LpRow {
            coeffs,
            rhs: Rat::from_int(row.rhs - shift),
        });
    }
    for v in first_new_var..n {
        let mut coeffs = vec![Rat::ZERO; n];
        coeffs[v] = Rat::ONE;
        out.push(LpRow {
            coeffs,
            rhs: Rat::from_int(width),
        });
    }
    out
}

/// Emits a diagnostic line when `DART_SOLVER_DEBUG` is set; `Unknown`
/// outcomes are otherwise silent by design.
fn debug_log(msg: &str) {
    if std::env::var_os("DART_SOLVER_DEBUG").is_some() {
        eprintln!("dart-solver: {msg}");
    }
}

/// Whether an equality constraint fails the GCD integrality test:
/// `sum a_i x_i + k == 0` has no integer solution unless gcd(a_i) | k.
fn gcd_infeasible(c: &Constraint) -> bool {
    if !matches!(c.op, crate::constraint::RelOp::Eq) {
        return false;
    }
    let g = c
        .expr
        .iter()
        .fold(0i128, |acc, (_, a)| gcd_i128(acc, a as i128));
    g != 0 && c.expr.constant() as i128 % g != 0
}

/// Partitions `live` into variable-connected components (union-find over
/// the constraints' variables). Components are returned in order of their
/// first constraint, each listing constraint indices in input order, so the
/// partition is deterministic.
fn connected_components(live: &[&Constraint]) -> Vec<Vec<usize>> {
    // Union-find over constraint indices, joined through shared variables.
    let mut parent: Vec<usize> = (0..live.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut owner: HashMap<Var, usize> = HashMap::new();
    for (i, c) in live.iter().enumerate() {
        for v in c.vars() {
            match owner.entry(v) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let a = find(&mut parent, *e.get());
                    let b = find(&mut parent, i);
                    if a != b {
                        // Attach the later root under the earlier one.
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        parent[hi] = lo;
                    }
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..live.len() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    groups.into_values().collect()
}

/// Normalizes non-trivial constraints into `<= 0` rows, single-variable
/// exclusion points, and multi-variable `!=` case splits, over the dense
/// numbering `var_idx` (`n` variables).
fn normalize_live(
    live: &[&Constraint],
    var_idx: &HashMap<Var, usize>,
    n: usize,
) -> (Vec<Row>, Vec<BTreeSet<i64>>, Vec<NeSplit>) {
    let mut rows = Vec::new();
    let mut exclusions = vec![BTreeSet::new(); n];
    let mut splits = Vec::new();
    for c in live {
        normalize_one(c, var_idx, &mut rows, &mut exclusions, &mut splits);
    }
    (rows, exclusions, splits)
}

/// Greatest common divisor of the magnitudes (`gcd(0, a) = |a|`), in
/// `i128` so that `|i64::MIN|` is representable.
fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Rounding mode used when snapping LP vertices to the integer grid.
#[derive(Debug, Clone, Copy)]
enum Rounding {
    Nearest,
    Floor,
    Ceil,
}

/// Nudges each coordinate off excluded points (staying inside its box);
/// returns `None` if some box is fully excluded.
fn adjust_for_exclusions(
    cand: &[i64],
    boxes: &[(i128, i128)],
    exclusions: &[BTreeSet<i64>],
) -> Option<Vec<i64>> {
    cand.iter()
        .zip(boxes)
        .zip(exclusions)
        .map(|((&v, &(lo, hi)), excl)| pick_in_box(lo, hi, excl, v))
        .collect()
}

/// Pushes a child box with variable `i` capped to `[lo_cap, hi_cap]` onto the
/// branch & bound worklist, skipping empty boxes.
fn push_child(
    work: &mut Vec<Vec<(i128, i128)>>,
    boxes: &[(i128, i128)],
    i: usize,
    lo_cap: Option<i128>,
    hi_cap: Option<i128>,
) {
    let mut sub = boxes.to_vec();
    if let Some(l) = lo_cap {
        sub[i].0 = sub[i].0.max(l);
    }
    if let Some(h) = hi_cap {
        sub[i].1 = sub[i].1.min(h);
    }
    if sub[i].0 <= sub[i].1 {
        work.push(sub);
    }
}

/// A multi-variable disequality `lin != 0`, kept for lazy case analysis:
/// `lo_side` is `lin <= -1`, `hi_side` is `lin >= 1` (as a `<=` row).
#[derive(Debug, Clone)]
struct NeSplit {
    /// `lin <= 0`-shaped row whose tightness identifies violation:
    /// the disequality is violated exactly when `lin == 0`.
    diff: Row,
    lo_side: Row,
    hi_side: Row,
}

impl NeSplit {
    fn violated_by(&self, sol: &[i64]) -> bool {
        self.diff.eval(sol) == self.diff.rhs
    }
}

/// A normalized row `sum coeffs · x <= rhs` over dense variable indices.
/// The right-hand side is `i128`: it is a negated `i64` constant, and
/// `-i64::MIN` does not fit in `i64`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    coeffs: Vec<(usize, i64)>,
    rhs: i128,
}

impl Row {
    /// From a `LeZero` expression `e <= 0`: `terms <= -constant`.
    fn from_le(expr: &crate::linear::LinExpr, var_idx: &HashMap<Var, usize>) -> Row {
        Row {
            coeffs: expr.iter().map(|(v, c)| (var_idx[&v], c)).collect(),
            rhs: -(expr.constant() as i128),
        }
    }

    fn eval(&self, xs: &[i64]) -> i128 {
        self.coeffs
            .iter()
            .map(|&(j, a)| a as i128 * xs[j] as i128)
            .sum()
    }
}

/// Builds the shifted LP: variables `y = x - lo >= 0`, rows plus upper-bound
/// rows `y_j <= hi_j - lo_j`.
fn build_lp(rows: &[Row], boxes: &[(i128, i128)]) -> Result<Lp, ArithError> {
    let n = boxes.len();
    let mut lp_rows = Vec::with_capacity(rows.len() + n);
    for row in rows {
        let mut coeffs = vec![Rat::ZERO; n];
        let mut shift: i128 = 0;
        for &(j, a) in &row.coeffs {
            coeffs[j] = coeffs[j].add(Rat::from_int(a as i128))?;
            shift += a as i128 * boxes[j].0;
        }
        lp_rows.push(LpRow {
            coeffs,
            rhs: Rat::from_int(row.rhs - shift),
        });
    }
    for (j, &(lo, hi)) in boxes.iter().enumerate() {
        let mut coeffs = vec![Rat::ZERO; n];
        coeffs[j] = Rat::ONE;
        lp_rows.push(LpRow {
            coeffs,
            rhs: Rat::from_int(hi - lo),
        });
    }
    Ok(Lp {
        num_vars: n,
        rows: lp_rows,
    })
}

/// Picks an integer point inside the boxes, near `hint`, avoiding excluded
/// values; returns `None` if some box is fully excluded.
fn probe_candidate(
    boxes: &[(i128, i128)],
    exclusions: &[BTreeSet<i64>],
    hint: &[i64],
) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(boxes.len());
    for (j, &(lo, hi)) in boxes.iter().enumerate() {
        let preferred = (hint.get(j).copied().unwrap_or(0) as i128).clamp(lo, hi) as i64;
        out.push(pick_in_box(lo, hi, &exclusions[j], preferred)?);
    }
    Some(out)
}

/// Finds a value in `[lo, hi]` not in `excl`, as close to `preferred` as a
/// bounded scan allows.
fn pick_in_box(lo: i128, hi: i128, excl: &BTreeSet<i64>, preferred: i64) -> Option<i64> {
    let in_box = |v: i128| v >= lo && v <= hi;
    let ok = |v: i64| !excl.contains(&v);
    if in_box(preferred as i128) && ok(preferred) {
        return Some(preferred);
    }
    // Local scan around the preferred value.
    for d in 1..=(excl.len() as i128 + 2).min(256) {
        for v in [preferred as i128 + d, preferred as i128 - d] {
            if in_box(v) && ok(v as i64) {
                return Some(v as i64);
            }
        }
    }
    // Scan inward from the box edges; |excl| is finite so this terminates
    // with an answer whenever the box has more points than exclusions.
    let width = hi - lo + 1;
    let steps = (excl.len() as i128 + 1).min(width);
    for d in 0..steps {
        for v in [lo + d, hi - d] {
            if in_box(v) && ok(v as i64) {
                return Some(v as i64);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::RelOp;
    use crate::linear::LinExpr;

    fn v(i: u32) -> LinExpr {
        LinExpr::var(Var(i))
    }
    fn solver() -> Solver {
        Solver::default()
    }

    fn expect_model(cs: &[Constraint]) -> Assignment {
        match solver().solve(cs) {
            SolveOutcome::Sat(m) => {
                for c in cs {
                    assert!(
                        c.satisfied_by(|var| m.get(&var).copied()),
                        "model {m:?} violates {c}"
                    );
                }
                m
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn empty_conjunction() {
        assert_eq!(solver().solve(&[]), SolveOutcome::Sat(Assignment::new()));
    }

    #[test]
    fn single_equality() {
        let m = expect_model(&[Constraint::new(v(0).offset(-10), RelOp::Eq)]);
        assert_eq!(m[&Var(0)], 10);
    }

    #[test]
    fn paper_example_h() {
        // Path constraint from §2.1: x != y, then force 2x == x + 10,
        // i.e. x - 10 == 0 with x != y.
        let cs = [
            Constraint::new(v(0).sub(&v(1)), RelOp::Ne),
            Constraint::new(v(0).offset(-10), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 10);
        assert_ne!(m[&Var(1)], 10);
    }

    #[test]
    fn paper_example_2_4_infeasible() {
        // (x == y) and (y == x + 10): infeasible.
        let cs = [
            Constraint::new(v(0).sub(&v(1)), RelOp::Eq),
            Constraint::new(v(1).sub(&v(0)).offset(-10), RelOp::Eq),
        ];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn zero_deadline_degrades_to_unknown() {
        // An already-expired deadline must never panic or spin: every
        // query that reaches the search degrades to Unknown (treated as
        // incompleteness by the driver), and the same query still solves
        // once the deadline is lifted.
        let s = Solver::new(SolverConfig {
            deadline: Some(Duration::ZERO),
            ..SolverConfig::default()
        });
        let cs = [Constraint::new(v(0).offset(-10), RelOp::Eq)];
        assert_eq!(s.solve(&cs), SolveOutcome::Unknown);
        assert!(matches!(solver().solve(&cs), SolveOutcome::Sat(_)));
    }

    #[test]
    fn session_queries_in_decreasing_depth_shrink_the_query() {
        // Regression: the shared-prefix LP screen grows the LP session to
        // the query's variable count. A DFS walk issues deepest queries
        // first, so a *shallower* follow-up query has fewer variables —
        // growing the already-widened LP "down" must be a no-op, not a
        // panic. Budgets are pinned tiny so every query falls through the
        // probes and the finite-domain pass into the LP screen.
        let s = Solver::new(SolverConfig {
            max_fd_nodes: 1,
            max_bb_nodes: 4,
            max_ne_leaves: 4,
            ..SolverConfig::default()
        });
        let mut sess = s.session();
        // z == 0, then 2x - 2y + z != 1 (three variables at depth 2).
        sess.push(&Constraint::new(v(0), RelOp::Eq));
        sess.push(&Constraint::new(
            v(1).scaled(2).sub(&v(2).scaled(2)).add(&v(0)).offset(-1),
            RelOp::Ne,
        ));
        // Deepest flip first: parity-infeasible, reaches the LP screen
        // and widens the shared LP to all three variables.
        let deep = Constraint::new(
            v(1).scaled(2).sub(&v(2).scaled(2)).add(&v(0)).offset(-1),
            RelOp::Eq,
        );
        let out = sess.solve_query(1, &deep, |_| None);
        assert!(!out.is_sat(), "2x - 2y == 1 under z == 0 has no model");
        // Shallower flip second: a single-variable query against the
        // now-wider LP.
        let shallow = Constraint::new(v(0), RelOp::Ne);
        let out = sess.solve_query(0, &shallow, |_| None);
        match out {
            SolveOutcome::Sat(m) => assert_ne!(m[&Var(0)], 0),
            SolveOutcome::Unknown => {}
            SolveOutcome::Unsat => panic!("z != 0 alone is satisfiable"),
        }
    }

    #[test]
    fn session_zero_deadline_degrades_to_unknown() {
        let s = Solver::new(SolverConfig {
            deadline: Some(Duration::ZERO),
            ..SolverConfig::default()
        });
        let mut sess = s.session();
        sess.push(&Constraint::new(v(0).offset(-3), RelOp::Ge));
        let negated = Constraint::new(v(0).offset(-10), RelOp::Eq);
        assert_eq!(
            sess.solve_query(1, &negated, |_| None),
            SolveOutcome::Unknown
        );
    }

    #[test]
    fn exclusion_points() {
        // x != 0, x != 1, x != 2, 0 <= x <= 3  =>  x == 3.
        let cs = [
            Constraint::new(v(0), RelOp::Ne),
            Constraint::new(v(0).offset(-1), RelOp::Ne),
            Constraint::new(v(0).offset(-2), RelOp::Ne),
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(0).offset(-3), RelOp::Le),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 3);
    }

    #[test]
    fn fully_excluded_interval_unsat() {
        // 0 <= x <= 1, x != 0, x != 1.
        let cs = [
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(0).offset(-1), RelOp::Le),
            Constraint::new(v(0), RelOp::Ne),
            Constraint::new(v(0).offset(-1), RelOp::Ne),
        ];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn multi_var_ne_split() {
        // x + y == 4 and x - y != 0 and 0 <= x,y <= 2: forces {x,y} = {0..2},
        // e.g. (1,3) out of range; valid: x=0,y=4 out; so x,y in {2,2} is the
        // only sum-4 point in the box but it violates !=, except (0,4)… the
        // box caps at 2, so the only candidates are (2,2): unsat.
        let cs = [
            Constraint::new(v(0).add(&v(1)).offset(-4), RelOp::Eq),
            Constraint::new(v(0).sub(&v(1)), RelOp::Ne),
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(1), RelOp::Ge),
            Constraint::new(v(0).offset(-2), RelOp::Le),
            Constraint::new(v(1).offset(-2), RelOp::Le),
        ];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn multi_var_ne_split_sat() {
        // x + y == 4, x != y, 0 <= x,y <= 3.
        let cs = [
            Constraint::new(v(0).add(&v(1)).offset(-4), RelOp::Eq),
            Constraint::new(v(0).sub(&v(1)), RelOp::Ne),
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(1), RelOp::Ge),
            Constraint::new(v(0).offset(-3), RelOp::Le),
            Constraint::new(v(1).offset(-3), RelOp::Le),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)] + m[&Var(1)], 4);
        assert_ne!(m[&Var(0)], m[&Var(1)]);
    }

    #[test]
    fn strict_inequalities_over_integers() {
        // 2x > 5 and 2x < 8  =>  x == 3.
        let cs = [
            Constraint::new(v(0).scaled(2).offset(-5), RelOp::Gt),
            Constraint::new(v(0).scaled(2).offset(-8), RelOp::Lt),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 3);
    }

    #[test]
    fn integrality_gap_detected() {
        // 2x == 1 has a rational solution but no integer one.
        let cs = [Constraint::new(v(0).scaled(2).offset(-1), RelOp::Eq)];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn hint_is_respected_when_consistent() {
        // x >= 5; hint says x = 100: expect exactly 100 back.
        let cs = [Constraint::new(v(0).offset(-5), RelOp::Ge)];
        let out = solver().solve_with_hint(&cs, |_| Some(100));
        match out {
            SolveOutcome::Sat(m) => assert_eq!(m[&Var(0)], 100),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn hint_overridden_when_inconsistent() {
        let cs = [Constraint::new(v(0).offset(-5), RelOp::Ge)];
        let out = solver().solve_with_hint(&cs, |_| Some(3));
        match out {
            SolveOutcome::Sat(m) => assert!(m[&Var(0)] >= 5),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unmentioned_vars_absent_from_model() {
        let cs = [Constraint::new(v(7).offset(-1), RelOp::Eq)];
        let m = expect_model(&cs);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&Var(7)));
    }

    #[test]
    fn bounds_are_enforced() {
        // x >= 2^31 is outside the 32-bit box.
        let cs = [Constraint::new(
            v(0).offset(-(i32::MAX as i64) - 1),
            RelOp::Ge,
        )];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn boundary_values_reachable() {
        let cs = [Constraint::new(v(0).offset(-(i32::MAX as i64)), RelOp::Ge)];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], i32::MAX as i64);
        let cs = [Constraint::new(v(0).offset(-(i32::MIN as i64)), RelOp::Le)];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], i32::MIN as i64);
    }

    #[test]
    fn dense_system() {
        // x0 + x1 + x2 == 6, x0 == x1, x1 == x2  =>  all 2.
        let sum = v(0).add(&v(1)).add(&v(2)).offset(-6);
        let cs = [
            Constraint::new(sum, RelOp::Eq),
            Constraint::new(v(0).sub(&v(1)), RelOp::Eq),
            Constraint::new(v(1).sub(&v(2)), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 2);
        assert_eq!(m[&Var(1)], 2);
        assert_eq!(m[&Var(2)], 2);
    }

    #[test]
    fn needham_style_chain() {
        // A chain of equalities like nonce-matching constraints:
        // m1 == 100, m2 == m1 + 1, m3 == m2 + 1.
        let cs = [
            Constraint::new(v(0).offset(-100), RelOp::Eq),
            Constraint::new(v(1).sub(&v(0)).offset(-1), RelOp::Eq),
            Constraint::new(v(2).sub(&v(1)).offset(-1), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(2)], 102);
    }

    #[test]
    fn trivially_false_constant() {
        let cs = [Constraint::new(LinExpr::constant_expr(1), RelOp::Eq)];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn trivially_true_constants_skipped() {
        let cs = [
            Constraint::new(LinExpr::constant_expr(0), RelOp::Eq),
            Constraint::new(v(0).offset(-2), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 2);
    }

    #[test]
    fn i64_min_constant_is_not_refuted() {
        // Regression: `x + i64::MIN <= 0` normalizes to `x <= 2^63`. The
        // right-hand side used to be negated in `i64`, wrapping to
        // `x <= i64::MIN` in release builds (a false Unsat) and panicking
        // in debug builds.
        let cs = [
            Constraint::new(v(0).offset(i64::MIN), RelOp::Le),
            Constraint::new(v(0).offset(-5), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 5);
    }

    #[test]
    fn excluded_point_arithmetic_does_not_overflow() {
        // Regression: `-x + i64::MIN != 0` excludes `x = i64::MIN`; the
        // excluded point used to be computed as `(-k) % coeff` in `i64`,
        // which panics on `i64::MIN % -1` even in release builds.
        let mut sess = solver().session();
        sess.push(&Constraint::new(
            v(0).scaled(-1).offset(i64::MIN),
            RelOp::Ne,
        ));
        let neg = Constraint::new(v(0).offset(-3), RelOp::Eq);
        assert_eq!(
            sess.solve_query(1, &neg, |_| None),
            SolveOutcome::Sat(Assignment::from([(Var(0), 3)]))
        );
        // `x + i64::MIN != 0` excludes `x = 2^63`, outside `i64`: no point
        // is recorded, and the plain solver agrees.
        let cs = [
            Constraint::new(v(0).offset(i64::MIN), RelOp::Ne),
            Constraint::new(v(0).offset(-7), RelOp::Eq),
        ];
        assert_eq!(expect_model(&cs)[&Var(0)], 7);
        let mut sess = solver().session();
        sess.push(&cs[0]);
        assert!(sess.solve_query(1, &cs[1], |_| None).is_sat());
    }

    #[test]
    fn i64_min_coefficients_do_not_overflow() {
        // The GCD integrality test and interval propagation both take the
        // magnitude of a coefficient, which for `i64::MIN` only fits in
        // `i128`. `i64::MIN * x == 1` has no integer solution.
        let cs = [Constraint::new(v(0).scaled(i64::MIN).offset(-1), RelOp::Eq)];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
        // `i64::MIN * x <= 0` forces `x >= 0`.
        let cs = [
            Constraint::new(v(0).scaled(i64::MIN), RelOp::Le),
            Constraint::new(v(0).offset(1), RelOp::Le),
        ];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn common_prefix_stops_at_a_changed_earlier_constraint() {
        // Two paths that agree on their first and last constraints but
        // differ in the middle one (a concretized non-linear term took a
        // different value): only the first frame is shared, and re-basing
        // re-pushes everything after it.
        let a = [
            Constraint::new(v(0).offset(-1), RelOp::Ge),
            Constraint::new(v(1).offset(-4), RelOp::Eq),
            Constraint::new(v(0).offset(-9), RelOp::Ne),
        ];
        let mut b = a.clone();
        b[1] = Constraint::new(v(1).offset(-6), RelOp::Eq);
        let mut sess = solver().session();
        sess.rebase(&a);
        assert_eq!(sess.common_prefix(&a), 3);
        assert_eq!(sess.common_prefix(&b), 1, "stops at the changed constraint");
        assert_eq!(sess.common_prefix(&b[..1]), 1);
        sess.rebase(&b);
        assert_eq!(sess.depth(), 3);
        assert_eq!(sess.common_prefix(&b), 3);
        // The re-pushed middle constraint is live: flipping the last one
        // must respect y == 6, not the popped y == 4.
        let neg = b[2].negated();
        match sess.solve_query(2, &neg, |_| Some(0)) {
            SolveOutcome::Sat(m) => {
                assert_eq!(m[&Var(0)], 9);
                assert_eq!(m[&Var(1)], 6);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
