//! Integer feasibility: interval propagation, exclusion points, and branch &
//! bound over the exact simplex.
//!
//! This is the solver DART calls on every `solve_path_constraint` (Fig. 5 of
//! the paper). The theory is conjunctions of linear integer constraints over
//! boxed variables (program inputs are 32-bit words, §2.2). `!=` constraints
//! on a single variable become *excluded points*; multi-variable `!=` is
//! case-split. Everything else reduces to `<= 0` rows which are decided by
//! interval propagation plus branch & bound on the LP relaxation.

use crate::constraint::Constraint;
use crate::linear::{eval_terms, Var, VarMap};
use crate::rational::{ArithError, Rat};
use crate::simplex::{feasible_point, Lp, LpResult, LpRow};
use std::collections::{BTreeMap, BTreeSet};
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

/// Per-query diagnostics filled in by [`Solver::solve_with_hint_info`]
/// and [`PrefixSession::solve_query_info`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveInfo {
    /// Variable-connected components the query split into: 0 when the
    /// query was settled before the split, 1 when it was connected. The
    /// two paths split at different points:
    /// - [`Solver::solve_with_hint_info`] splits right after its
    ///   triviality and GCD screens and probes each component afterwards,
    ///   so a query its probes answer still counts its components;
    /// - [`PrefixSession::solve_query_info`], which every engine query
    ///   takes, probes the hint and all-zeros first and splits only what
    ///   they leave, so a query the probes answer counts 0, as does one
    ///   whose prefix is already infeasible.
    pub components: usize,
}

impl SolveInfo {
    /// Whether independence splitting actually partitioned the query.
    pub fn was_split(&self) -> bool {
        self.components > 1
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
    /// Ignored. It once raced the finite-domain search against an LP
    /// screen on two threads, a race that is gone; it stays only because
    /// the end-to-end benchmark still sets it, and goes with the
    /// benchmark PR that retires `bench_e2e`'s replica.
    pub portfolio: bool,
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
/// With no deadline configured, [`QueryClock::expired`] never touches the
/// system clock.
#[derive(Debug, Clone, Copy)]
struct QueryClock {
    deadline: Option<Instant>,
}

impl QueryClock {
    fn start(deadline: Option<Duration>) -> QueryClock {
        QueryClock {
            deadline: deadline.map(|d| Instant::now() + d),
        }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
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
        let numbering = Numbering::of(live);
        let vars = &numbering.vars;
        let n = vars.len();
        if n == 0 {
            return SolveOutcome::Sat(Assignment::new());
        }

        // Cheap probes against the *original* constraints: the hint
        // itself, then all-zeros clamped into range. The last constraint
        // — a query's negated branch — is tested first: the hint and
        // most other picks come from runs that took the other side of
        // that branch, so they fail exactly there.
        let b = self.config.default_bounds;
        let holds = |vals: &[i64]| {
            let last = live.len() - 1;
            let mut order = std::iter::once(last).chain(0..last);
            order.all(|k| holds_at(live[k], numbering.terms(k), vals))
        };
        let model_of = |vals: &[i64]| -> Assignment {
            vars.iter().copied().zip(vals.iter().copied()).collect()
        };
        let picks: Vec<i64> = vars
            .iter()
            .map(|&v| hint(v).unwrap_or(0).clamp(b.lo, b.hi))
            .collect();
        if holds(&picks) {
            return SolveOutcome::Sat(model_of(&picks));
        }
        let zeros = vec![0i64.clamp(b.lo, b.hi); n];
        if holds(&zeros) {
            return SolveOutcome::Sat(model_of(&zeros));
        }

        // Normalize. Single-variable `!=` becomes an excluded point;
        // multi-variable `!=` is case-split.
        let (mut rows, exclusions, mut splits) = normalize_live(live, &numbering);

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
            // Defensive final check of the original constraints.
            Ok(Some(sol)) if holds(&sol) => SolveOutcome::Sat(model_of(&sol)),
            Ok(Some(_)) => SolveOutcome::Unknown,
            Ok(None) => SolveOutcome::Unsat,
            Err(Stop::Deadline) => {
                debug_log(|| "query deadline expired".to_string());
                SolveOutcome::Unknown
            }
            Err(Stop::Arith(e)) => {
                debug_log(|| format!("arithmetic/bb failure: {e:?}"));
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
                debug_log(|| format!("bb budget={budget} vertex={xs:?} boxes={boxes:?}"));
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
        !matches!(self.propagate_from(rows, 0, boxes), Propagation::Empty)
    }

    /// Iterated interval propagation whose first round visits only
    /// `rows[first..]`; later rounds visit every row. When `boxes` are
    /// already a fixpoint of `rows[..first]` this is exactly
    /// [`Solver::propagate`] over all of `rows`: a row that narrowed
    /// nothing in a round that changed nothing narrows nothing again.
    fn propagate_from(
        &self,
        rows: &[Row],
        first: usize,
        boxes: &mut [(i128, i128)],
    ) -> Propagation {
        let mut round = &rows[first..];
        for _ in 0..self.config.max_propagation_rounds {
            let mut changed = false;
            for row in round {
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
                        return Propagation::Empty;
                    }
                    continue;
                }
                if min_sum > row.rhs {
                    return Propagation::Empty;
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
                        // Unit coefficients, the common case, skip the
                        // 128-bit division.
                        let new_hi = if a == 1 {
                            slack
                        } else {
                            slack.div_euclid(a as i128)
                        };
                        if new_hi < hi {
                            boxes[j].1 = new_hi;
                            changed = true;
                        }
                    } else {
                        let na = -(a as i128); // -a*x >= -slack => x >= ceil(-slack/ -a*... )
                        let new_lo = if na == 1 {
                            -slack
                        } else {
                            -(slack.div_euclid(na))
                        };
                        if new_lo > lo {
                            boxes[j].0 = new_lo;
                            changed = true;
                        }
                    }
                    if boxes[j].0 > boxes[j].1 {
                        return Propagation::Empty;
                    }
                }
            }
            if !changed {
                return Propagation::Fixpoint;
            }
            round = rows;
        }
        Propagation::Capped
    }
}

/// How [`Solver::propagate_from`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Propagation {
    /// Some box emptied: the rows are infeasible.
    Empty,
    /// A round changed nothing: the boxes are a fixpoint of the rows.
    Fixpoint,
    /// The round cap stopped it while boxes were still narrowing.
    Capped,
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
    /// Length of the session's exclusion-point log after this push.
    exclusions_len: usize,
    /// Interval-propagated boxes for the whole prefix up to this push.
    boxes: Vec<(i128, i128)>,
    /// The prefix up to this push is known unsatisfiable (trivially false
    /// constraint, GCD integrality gap, or propagation wipe-out).
    infeasible: bool,
    /// The boxes are a fixpoint of the rows up to this push: the last
    /// propagation round changed nothing. The next push, and a query at
    /// this depth, then start propagating from their own new rows, since
    /// the old rows cannot narrow a fixpoint. `false` when propagation
    /// stopped at [`SolverConfig::max_propagation_rounds`].
    settled: bool,
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
/// incrementally (propagating the new rows first when the previous
/// boxes were a fixpoint), and [`PrefixSession::solve_query`] starts from
/// the snapshot at depth `j`. A query takes one path: the hint and
/// all-zeros probes, the split into independent components, propagation
/// of the negated rows from the snapshot's boxes, then the same
/// finite-domain search and branch & bound that [`Solver::solve`] runs on
/// each component. The probes and the split read the prefix through the
/// session's dense numbering, which each live constraint records at push
/// time, so a query hashes only the negated constraint's variables.
///
/// One session serves a whole DART session, not one run. Under
/// depth-first order each new path repeats the previous one up to the
/// flipped branch, so [`PrefixSession::rebase`] retracts the session to
/// the longest prefix it shares with the new path and pushes only the
/// rest. The shared prefix is found by comparing constraints by value,
/// not by trusting the flipped index: an earlier constraint changes
/// between runs when a non-linear term is concretized to a different
/// value. A re-based session answers every query exactly as a session
/// freshly built by pushing the same path would — outcome and model.
/// Every piece of session state is a function of its frames: each frame
/// is a function of the constraints pushed before it, and a pop restores
/// the numbering, rows, exclusion points and case splits to the surviving
/// frame, so nothing outlives a pop.
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
    /// Each live constraint's terms as indices into `vars`, in term
    /// order, concatenated: `live[k]`'s end at `live_ends[k]`.
    live_terms: Vec<usize>,
    live_ends: Vec<usize>,
    /// Dense variable numbering, append-only across pushes.
    vars: Vec<Var>,
    var_idx: VarMap<usize>,
    /// Normalized `<= 0` rows of the live prefix.
    rows: Vec<Row>,
    /// Multi-variable `!=` case splits of the live prefix.
    splits: Vec<NeSplit>,
    /// Single-variable `!=` exclusion points of the live prefix, as
    /// `(variable index, point)` in push order. Only a query's full solve
    /// reads them, so no frame copies them.
    exclusions: Vec<(usize, i64)>,
    frames: Vec<Frame>,
    /// Names the session's current state: a fresh value from a
    /// process-wide counter on creation and on every push or pop, so no
    /// two states share one (a clone shares its original's until either
    /// changes). The query cache keys what it knows about the live
    /// prefix by it.
    stamp: u64,
}

/// A stamp no prefix session state has carried before.
fn next_stamp() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl PrefixSession {
    fn new(solver: Solver) -> PrefixSession {
        PrefixSession {
            stamp: next_stamp(),
            solver,
            live: Vec::new(),
            live_terms: Vec::new(),
            live_ends: Vec::new(),
            vars: Vec::new(),
            var_idx: VarMap::default(),
            rows: Vec::new(),
            splits: Vec::new(),
            exclusions: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Number of pushed constraints.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The solver this session runs on.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Pushes the next path constraint, extending the numbering, the
    /// normalized rows and the propagated boxes incrementally.
    pub fn push(&mut self, c: &Constraint) {
        self.stamp = next_stamp();
        let b = self.solver.config.default_bounds;
        let mut frame = match self.frames.last() {
            Some(f) => Frame {
                pushed: c.clone(),
                boxes: f.boxes.clone(),
                ..*f
            },
            None => Frame {
                pushed: c.clone(),
                live_len: 0,
                vars_len: 0,
                rows_len: 0,
                splits_len: 0,
                exclusions_len: 0,
                boxes: Vec::new(),
                infeasible: false,
                settled: true,
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
            let start = self.live_terms.len();
            for v in c.vars() {
                let next = self.vars.len();
                let i = *self.var_idx.entry(v).or_insert(next);
                if i == next {
                    self.vars.push(v);
                }
                self.live_terms.push(i);
            }
            self.live_ends.push(self.live_terms.len());
            frame.vars_len = self.vars.len();
            frame
                .boxes
                .resize(frame.vars_len, (b.lo as i128, b.hi as i128));
            normalize_one(
                c,
                &self.live_terms[start..],
                &mut self.rows,
                &mut self.exclusions,
                &mut self.splits,
            );
            // A settled parent's boxes are a fixpoint of its rows, which
            // the new variables do not appear in: the first round needs
            // to visit only the new rows.
            let first = if frame.settled { frame.rows_len } else { 0 };
            frame.rows_len = self.rows.len();
            frame.splits_len = self.splits.len();
            frame.exclusions_len = self.exclusions.len();
            match self
                .solver
                .propagate_from(&self.rows, first, &mut frame.boxes)
            {
                Propagation::Empty => frame.infeasible = true,
                Propagation::Fixpoint => frame.settled = true,
                Propagation::Capped => frame.settled = false,
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
        if depth < self.frames.len() {
            self.stamp = next_stamp();
        }
        self.frames.truncate(depth);
        let (live_len, vars_len, rows_len, splits_len, exclusions_len) = self
            .frames
            .last()
            .map(|f| {
                (
                    f.live_len,
                    f.vars_len,
                    f.rows_len,
                    f.splits_len,
                    f.exclusions_len,
                )
            })
            .unwrap_or((0, 0, 0, 0, 0));
        for v in self.vars.drain(vars_len..) {
            self.var_idx.remove(&v);
        }
        self.live.truncate(live_len);
        self.live_ends.truncate(live_len);
        self.live_terms
            .truncate(self.live_ends.last().copied().unwrap_or(0));
        self.rows.truncate(rows_len);
        self.splits.truncate(splits_len);
        self.exclusions.truncate(exclusions_len);
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
        self.rebase_kept(path);
    }

    /// [`PrefixSession::rebase`], returning how many pushed constraints
    /// and how many live ones the re-base kept.
    pub(crate) fn rebase_kept(&mut self, path: &[Constraint]) -> (usize, usize) {
        let keep = self.common_prefix(path);
        self.truncate(keep);
        let live = self.prefix_live(keep).len();
        for c in &path[keep..] {
            self.push(c);
        }
        (keep, live)
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

    /// The session state's stamp (see the field).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// The terms of live constraint `k`, as indices into the numbering.
    fn live_terms(&self, k: usize) -> &[usize] {
        let start = k.checked_sub(1).map_or(0, |p| self.live_ends[p]);
        &self.live_terms[start..self.live_ends[k]]
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
        let (live_len, vars_len, rows_len, splits_len, exclusions_len, settled) =
            prefix.map_or((0, 0, 0, 0, 0, true), |f| {
                (
                    f.live_len,
                    f.vars_len,
                    f.rows_len,
                    f.splits_len,
                    f.exclusions_len,
                    f.settled,
                )
            });

        // Screen the negated constraint.
        let neg_live = match negated.triviality() {
            Some(true) => None,
            Some(false) => return SolveOutcome::Unsat,
            None if gcd_infeasible(negated) => return SolveOutcome::Unsat,
            None => Some(negated),
        };
        if live_len == 0 && neg_live.is_none() {
            return SolveOutcome::Sat(Assignment::new());
        }

        // The query numbering: the prefix's variables keep their session
        // indices, and the negated constraint's other variables follow
        // in order of appearance (session variables numbered deeper than
        // the prefix are renumbered fresh for this query).
        let mut fresh: Vec<Var> = Vec::new();
        let neg_terms: Vec<usize> = neg_live.map_or_else(Vec::new, |c| {
            c.vars()
                .map(|v| match self.var_idx.get(&v) {
                    Some(&i) if i < vars_len => i,
                    _ => {
                        fresh.push(v);
                        vars_len + fresh.len() - 1
                    }
                })
                .collect()
        });
        let n = vars_len + fresh.len();
        let q_var = |i: usize| match i.checked_sub(vars_len) {
            None => self.vars[i],
            Some(f) => fresh[f],
        };
        // Whether every query constraint holds under `vals`, testing the
        // negated one first: the hint and most other picks come from runs
        // that took the other side of that branch, so they fail there.
        let holds = |vals: &[i64]| {
            neg_live.is_none_or(|c| holds_at(c, &neg_terms, vals))
                && (0..live_len).all(|k| holds_at(&self.live[k], self.live_terms(k), vals))
        };
        let model_of =
            |vals: &[i64]| -> Assignment { (0..n).map(|i| (q_var(i), vals[i])).collect() };

        // Cheap probes: the hint, then all-zeros, clamped into the box.
        let picks: Vec<i64> = (0..n)
            .map(|i| hint(q_var(i)).unwrap_or(0).clamp(b.lo, b.hi))
            .collect();
        if holds(&picks) {
            return SolveOutcome::Sat(model_of(&picks));
        }
        let zeros = vec![0i64.clamp(b.lo, b.hi); n];
        if holds(&zeros) {
            return SolveOutcome::Sat(model_of(&zeros));
        }

        // Constraint-independence splitting: when the negated constraint's
        // variable-connected component is independent of the rest of the
        // query, solve only that component and fill the other components
        // straight from the hint — they are the previous run's path
        // constraints, which that run's inputs satisfied by construction.
        // The union-find runs over the query numbering, and components are
        // numbered in order of their first constraint.
        let mut uf = UnionFind::with_len(n);
        let query_terms = (0..live_len)
            .map(|k| self.live_terms(k))
            .chain(neg_live.map(|_| &neg_terms[..]));
        let firsts: Vec<Option<usize>> = query_terms
            .map(|terms| {
                let (&first, rest) = terms.split_first()?;
                for &i in rest {
                    uf.union(first, i);
                }
                Some(first)
            })
            .collect();
        let (component, count) = uf.group(&firsts);
        info.components = count;
        if neg_live.is_some() && count > 1 {
            let neg_component = component[live_len];
            let rest_ok = (0..live_len).all(|k| {
                component[k] == neg_component || holds_at(&self.live[k], self.live_terms(k), &picks)
            });
            if rest_ok {
                let comp_live: Vec<&Constraint> = (0..live_len)
                    .filter(|&k| component[k] == neg_component)
                    .map(|k| &self.live[k])
                    .chain(neg_live)
                    .collect();
                match self.solver.solve_component(&comp_live, &hint, &clock) {
                    SolveOutcome::Sat(part) => {
                        // Every variable of the other components, at its
                        // clamped hint value: pointer slots hold heap
                        // addresses that the clamp changes.
                        let neg_root = firsts[live_len].map(|i| uf.find(i));
                        let mut fill: Assignment = (0..n)
                            .filter(|&i| Some(uf.find(i)) != neg_root)
                            .map(|i| (q_var(i), picks[i]))
                            .collect();
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
        let mut q_points = self.exclusions[..exclusions_len].to_vec();
        let mut q_boxes = prefix.map_or_else(Vec::new, |f| f.boxes.clone());
        q_boxes.resize(n, (b.lo as i128, b.hi as i128));
        if let Some(c) = neg_live {
            normalize_one(c, &neg_terms, &mut q_rows, &mut q_points, &mut q_splits);
        }
        let q_excl = exclusion_sets(n, &q_points);

        // Warm-started interval propagation: a settled prefix's boxes are
        // already a fixpoint of its rows, so the first round visits only
        // the negated rows.
        let first = if settled { rows_len } else { 0 };
        if self.solver.propagate_from(&q_rows, first, &mut q_boxes) == Propagation::Empty {
            return SolveOutcome::Unsat;
        }

        // Full integer solve from the warm state: the hint-guided
        // finite-domain search settles the easy `Sat` queries (path
        // constraints are mostly unit systems), and branch & bound, whose
        // root LP relaxation refutes what the search cannot, decides the
        // rest.
        let hint_vals: Vec<i64> = (0..n).map(|i| hint(q_var(i)).unwrap_or(0)).collect();
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
            Ok(Some(sol)) if holds(&sol) => SolveOutcome::Sat(model_of(&sol)),
            Ok(Some(_)) => SolveOutcome::Unknown,
            Ok(None) => SolveOutcome::Unsat,
            Err(Stop::Deadline) => {
                debug_log(|| "query deadline expired (session)".to_string());
                SolveOutcome::Unknown
            }
            Err(Stop::Arith(e)) => {
                debug_log(|| format!("arithmetic/bb failure (session): {e:?}"));
                SolveOutcome::Unknown
            }
        }
    }
}

/// Normalizes one non-trivial constraint into rows / an exclusion point / a
/// case split, as [`Constraint::normalize`] does, without building the
/// intermediate expressions. `terms` numbers the variables of `c`'s terms,
/// in term order; normalization only negates and offsets an expression,
/// so every normalized row has the same variables in the same order.
/// Exclusion points are logged as `(variable index, point)`.
fn normalize_one(
    c: &Constraint,
    terms: &[usize],
    rows: &mut Vec<Row>,
    exclusions: &mut Vec<(usize, i64)>,
    splits: &mut Vec<NeSplit>,
) {
    use crate::constraint::RelOp;
    let row = |negate: bool, bump: i64| Row::of(c, terms, negate, bump);
    match c.op {
        RelOp::Le => rows.push(row(false, 0)),
        RelOp::Lt => rows.push(row(false, 1)),
        RelOp::Ge => rows.push(row(true, 0)),
        RelOp::Gt => rows.push(row(true, 1)),
        RelOp::Eq => rows.extend([row(false, 0), row(true, 0)]),
        RelOp::Ne => {
            if let ([(_, coeff)], [i]) = (c.expr.terms(), terms) {
                // a*x + k != 0: excluded point when a | -k. Otherwise the
                // constraint is trivially true, and so it is when the point
                // lies outside `i64`, where no boxed variable can reach it.
                let (k, coeff) = (c.expr.constant() as i128, *coeff as i128);
                if (-k) % coeff == 0 {
                    if let Ok(point) = i64::try_from((-k) / coeff) {
                        exclusions.push((*i, point));
                    }
                }
            } else {
                // `e != 0` is `e <= -1` or `-e <= -1`.
                splits.push(NeSplit {
                    diff: row(false, 0),
                    lo_side: row(false, 1),
                    hi_side: row(true, 1),
                });
            }
        }
    }
}

/// Per-variable exclusion sets for `n` variables from a log of
/// `(variable index, point)` entries.
fn exclusion_sets(n: usize, points: &[(usize, i64)]) -> Vec<BTreeSet<i64>> {
    let mut sets = vec![BTreeSet::new(); n];
    for &(i, point) in points {
        sets[i].insert(point);
    }
    sets
}

/// Whether `c` holds when the variable of its `k`-th term reads
/// `vals[terms[k]]` — [`Constraint::satisfied_by`] over a dense
/// numbering.
fn holds_at(c: &Constraint, terms: &[usize], vals: &[i64]) -> bool {
    let values = c.expr.iter().zip(terms).map(|((_, a), &i)| (a, vals[i]));
    c.op.holds(eval_terms(c.expr.constant(), values))
}

/// Emits a diagnostic line when `DART_SOLVER_DEBUG` is set; `Unknown`
/// outcomes are otherwise silent by design. The variable is read once per
/// process, and `msg` runs only when it is set.
fn debug_log(msg: impl FnOnce() -> String) {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if *ENABLED.get_or_init(|| std::env::var_os("DART_SOLVER_DEBUG").is_some()) {
        eprintln!("dart-solver: {}", msg());
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

/// A dense numbering of the variables of a constraint list, in order of
/// first appearance, with each constraint's terms as indices into it.
#[derive(Debug, Default)]
struct Numbering {
    vars: Vec<Var>,
    terms: Vec<usize>,
    /// Where each constraint's terms end in `terms`.
    ends: Vec<usize>,
}

impl Numbering {
    fn of(live: &[&Constraint]) -> Numbering {
        let mut index: VarMap<usize> = VarMap::default();
        let mut numbering = Numbering::default();
        for c in live {
            for v in c.vars() {
                let next = numbering.vars.len();
                let i = *index.entry(v).or_insert(next);
                if i == next {
                    numbering.vars.push(v);
                }
                numbering.terms.push(i);
            }
            numbering.ends.push(numbering.terms.len());
        }
        numbering
    }

    /// Constraint `k`'s terms.
    fn terms(&self, k: usize) -> &[usize] {
        let start = k.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.terms[start..self.ends[k]]
    }
}

/// Union-find over dense variable indices; the earlier root wins a union.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn with_len(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = i;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            self.parent[a.max(b)] = a.min(b);
        }
    }

    /// Numbers the component of each constraint, given one variable of
    /// each (`None` for a constraint without variables, which is a
    /// component of its own), in order of first constraint. Returns the
    /// numbers and how many components there are.
    fn group(&mut self, firsts: &[Option<usize>]) -> (Vec<usize>, usize) {
        let mut id = vec![usize::MAX; self.parent.len()];
        let mut count = 0;
        let component = firsts
            .iter()
            .map(|first| {
                let root = first.map(|v| self.find(v));
                match root.map(|r| id[r]) {
                    Some(known) if known != usize::MAX => known,
                    _ => {
                        if let Some(r) = root {
                            id[r] = count;
                        }
                        count += 1;
                        count - 1
                    }
                }
            })
            .collect();
        (component, count)
    }
}

/// Partitions `live` into variable-connected components: a union-find
/// over the variables, numbered locally. Components are returned in order
/// of their first constraint, each listing constraint indices in input
/// order, so the partition is deterministic.
fn connected_components(live: &[&Constraint]) -> Vec<Vec<usize>> {
    let numbering = Numbering::of(live);
    let mut uf = UnionFind::with_len(numbering.vars.len());
    let firsts: Vec<Option<usize>> = (0..live.len())
        .map(|k| {
            let (&first, rest) = numbering.terms(k).split_first()?;
            for &i in rest {
                uf.union(first, i);
            }
            Some(first)
        })
        .collect();
    let (component, count) = uf.group(&firsts);
    let mut groups = vec![Vec::new(); count];
    for (k, c) in component.into_iter().enumerate() {
        groups[c].push(k);
    }
    groups
}

/// Normalizes non-trivial constraints into `<= 0` rows, single-variable
/// exclusion points, and multi-variable `!=` case splits, over
/// `numbering`.
fn normalize_live(
    live: &[&Constraint],
    numbering: &Numbering,
) -> (Vec<Row>, Vec<BTreeSet<i64>>, Vec<NeSplit>) {
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut splits = Vec::new();
    for (k, c) in live.iter().enumerate() {
        normalize_one(c, numbering.terms(k), &mut rows, &mut points, &mut splits);
    }
    (rows, exclusion_sets(numbering.vars.len(), &points), splits)
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
    /// From a `LeZero` expression `e <= 0`: `terms <= -constant`, with
    /// `e`'s `k`-th variable numbered `terms[k]`.
    #[cfg(test)]
    fn from_le(expr: &crate::linear::LinExpr, terms: &[usize]) -> Row {
        debug_assert_eq!(expr.num_vars(), terms.len());
        Row {
            coeffs: expr.iter().zip(terms).map(|((_, c), &i)| (i, c)).collect(),
            rhs: -(expr.constant() as i128),
        }
    }

    /// The row of `(±c.expr) + bump <= 0`, negated (`negate`) and offset
    /// with the saturating arithmetic of [`LinExpr::scaled`] and
    /// [`LinExpr::offset`](crate::linear::LinExpr::offset), as
    /// [`Constraint::normalize`] builds it; `c`'s `k`-th variable is
    /// numbered `terms[k]`.
    ///
    /// [`LinExpr::scaled`]: crate::linear::LinExpr::scaled
    fn of(c: &Constraint, terms: &[usize], negate: bool, bump: i64) -> Row {
        debug_assert_eq!(c.expr.num_vars(), terms.len());
        let sign = |x: i64| if negate { x.saturating_mul(-1) } else { x };
        let coeffs = c.expr.terms().iter().zip(terms);
        Row {
            coeffs: coeffs.map(|(&(_, a), &i)| (i, sign(a))).collect(),
            rhs: -(sign(c.expr.constant()).saturating_add(bump) as i128),
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
        // A DFS walk issues the deepest query first, so a *shallower*
        // follow-up query numbers fewer variables than the one before
        // it: the session must answer it from the shallower snapshot,
        // not panic on the narrower numbering. Budgets are pinned tiny so
        // every query falls through the probes into the search.
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
        // Deepest flip first: parity-infeasible, over all three
        // variables.
        let deep = Constraint::new(
            v(1).scaled(2).sub(&v(2).scaled(2)).add(&v(0)).offset(-1),
            RelOp::Eq,
        );
        let out = sess.solve_query(1, &deep, |_| None);
        assert!(!out.is_sat(), "2x - 2y == 1 under z == 0 has no model");
        // Shallower flip second: a single-variable query.
        let shallow = Constraint::new(v(0), RelOp::Ne);
        let out = sess.solve_query(0, &shallow, |_| None);
        match out {
            SolveOutcome::Sat(m) => assert_ne!(m[&Var(0)], 0),
            SolveOutcome::Unknown => {}
            SolveOutcome::Unsat => panic!("z != 0 alone is satisfiable"),
        }
    }

    /// `SolveInfo::components` on each path: the plain solver splits
    /// before its probes, a session after them, so a query the hint
    /// answers counts its two components on the plain path and none in a
    /// session. A query the probes leave splits on both.
    #[test]
    fn sessions_count_components_after_the_probes() {
        let s = Solver::default();
        // x0 <= 5, then the flip x1 >= 3: independent variables.
        let prefix = Constraint::new(v(0).offset(-5), RelOp::Le);
        let negated = Constraint::new(v(1).offset(-3), RelOp::Ge);
        let components = |hint: &dyn Fn(Var) -> Option<i64>| {
            let mut plain = SolveInfo::default();
            let query = [prefix.clone(), negated.clone()];
            assert!(s.solve_with_hint_info(&query, hint, &mut plain).is_sat());
            let mut sess = s.session();
            sess.push(&prefix);
            let mut session = SolveInfo::default();
            assert!(sess
                .solve_query_info(1, &negated, hint, &mut session)
                .is_sat());
            (plain.components, session.components)
        };
        // The hint (x0 = 1, x1 = 4) satisfies the whole query.
        assert_eq!(
            components(&|v| Some(if v == Var(0) { 1 } else { 4 })),
            (2, 0)
        );
        // Neither the hint (x1 = -7) nor all-zeros satisfies the flip.
        assert_eq!(
            components(&|v| Some(if v == Var(0) { 1 } else { -7 })),
            (2, 2)
        );
    }

    /// A query the finite-domain search cannot refute still comes back
    /// `Unsat`: a difference chain closed by its own negation is
    /// infeasible, but propagation over 32-bit boxes narrows each bound
    /// by one per sweep, so the search spends its whole node budget
    /// without a wipe-out. Branch & bound's root LP relaxation refutes it.
    #[test]
    fn fd_hard_difference_chain_is_refuted_by_branch_and_bound() {
        let s = Solver::new(SolverConfig {
            max_fd_nodes: 2_000,
            ..SolverConfig::default()
        });
        let path = [
            Constraint::new(v(1).sub(&v(0)).offset(-1), RelOp::Ge), // x1 >= x0 + 1
            Constraint::new(v(2).sub(&v(1)).offset(-1), RelOp::Ge), // x2 >= x1 + 1
            Constraint::new(v(2).sub(&v(0)).offset(-2), RelOp::Ge), // x2 >= x0 + 2
        ];
        // ¬(x2 >= x0 + 2) = x2 <= x0 + 1, contradicting the chain.
        let negated = path[2].negated();
        let mut sess = s.session();
        for c in &path {
            sess.push(c);
        }
        for _ in 0..4 {
            assert_eq!(
                sess.solve_query(2, &negated, |_| Some(0)),
                SolveOutcome::Unsat
            );
        }
        let query = [path[0].clone(), path[1].clone(), negated.clone()];
        assert_eq!(s.solve(&query), SolveOutcome::Unsat);
        assert_eq!(s.solve_with_hint(&query, |_| Some(0)), SolveOutcome::Unsat);
        // The root node alone decides it, and nothing before branch &
        // bound does: with no node budget the query is undecided.
        for (max_bb_nodes, expected) in [(1, SolveOutcome::Unsat), (0, SolveOutcome::Unknown)] {
            let s = Solver::new(SolverConfig {
                max_fd_nodes: 2_000,
                max_bb_nodes,
                ..SolverConfig::default()
            });
            let mut sess = s.session();
            for c in &path {
                sess.push(c);
            }
            assert_eq!(sess.solve_query(2, &negated, |_| Some(0)), expected);
            assert_eq!(s.solve(&query), expected);
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

    /// Asserts that `sess`, built by pushing `path`, matches full first
    /// propagation rounds. Each frame's boxes must equal a full
    /// [`Solver::propagate`] of its rows from the previous frame's boxes,
    /// recomputed here; and every flip must be answered as by a session
    /// whose frames are all marked unsettled, so that its queries run a
    /// full first round too.
    fn assert_full_first_rounds(sess: &mut PrefixSession, path: &[Constraint]) {
        let b = sess.solver.config.default_bounds;
        let (mut boxes, mut live_len) = (Vec::new(), 0);
        for (k, f) in sess.frames.iter().enumerate() {
            if f.infeasible {
                break;
            }
            if f.live_len > live_len {
                boxes.resize(f.vars_len, (b.lo as i128, b.hi as i128));
                assert!(sess.solver.propagate(&sess.rows[..f.rows_len], &mut boxes));
                live_len = f.live_len;
            }
            assert_eq!(boxes, f.boxes, "frame {k} of {path:?}");
        }
        let mut full = sess.solver.session();
        for c in path {
            full.push(c);
            if let Some(f) = full.frames.last_mut() {
                f.settled = false;
            }
        }
        for j in (0..path.len()).rev() {
            let negated = path[j].negated();
            let (mut ia, mut ib) = (SolveInfo::default(), SolveInfo::default());
            assert_eq!(
                sess.solve_query_info(j, &negated, |_| Some(1), &mut ia),
                full.solve_query_info(j, &negated, |_| Some(1), &mut ib),
                "j={j} of {path:?}"
            );
            assert_eq!(ia, ib, "j={j} of {path:?}");
        }
    }

    /// `x0 < x1` then `x1 < x0` is infeasible, but propagation over
    /// 32-bit boxes narrows it by one unit per round and never empties a
    /// box within the round cap. The frame after it is not a fixpoint, so
    /// the push after it must run a full first round, and every later
    /// frame must equal a session that always does.
    #[test]
    fn capped_propagation_keeps_the_full_first_round() {
        let s = Solver::new(SolverConfig {
            max_propagation_rounds: 3,
            max_fd_nodes: 1,
            max_bb_nodes: 4,
            ..SolverConfig::default()
        });
        let path = [
            Constraint::new(v(0).sub(&v(1)), RelOp::Lt),
            Constraint::new(v(1).sub(&v(0)), RelOp::Lt),
            Constraint::new(v(0).add(&v(2)).offset(-7), RelOp::Le),
            Constraint::new(v(2).offset(-1), RelOp::Ge),
        ];
        let mut sess = s.session();
        for c in &path {
            sess.push(c);
        }
        let cycle = &sess.frames[1];
        assert!(
            !cycle.settled && !cycle.infeasible,
            "the cycle outlasts the cap"
        );
        assert!(sess.frames[0].settled);
        assert_full_first_rounds(&mut sess, &path);
    }

    /// `Var(u32::MAX)` is numbered densely like any other variable: no
    /// storage is sized by a variable's number.
    #[test]
    fn extreme_variable_numbers_solve() {
        let top = Var(u32::MAX);
        let cs = [
            Constraint::new(LinExpr::var(top).offset(-5), RelOp::Eq),
            Constraint::new(v(0).sub(&LinExpr::var(top)), RelOp::Ne),
            Constraint::new(v(0).offset(-5), RelOp::Ge),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&top], 5);
        assert!(m[&Var(0)] > 5);
        let mut sess = solver().session();
        sess.push(&cs[0]);
        sess.push(&cs[1]);
        assert!(sess.solve_query(2, &cs[2].negated(), |_| None).is_sat());
    }

    /// Interval propagation that visits every row in every round, the
    /// first one included.
    fn propagate_every_row(rows: &[Row], boxes: &mut [(i128, i128)], rounds: usize) -> Propagation {
        for _ in 0..rounds {
            let mut changed = false;
            for row in rows {
                let min = |(lo, hi): (i128, i128), a: i64| {
                    if a > 0 {
                        a as i128 * lo
                    } else {
                        a as i128 * hi
                    }
                };
                let min_sum: i128 = row.coeffs.iter().map(|&(j, a)| min(boxes[j], a)).sum();
                if min_sum > row.rhs {
                    return Propagation::Empty;
                }
                for &(j, a) in &row.coeffs {
                    let slack = row.rhs - (min_sum - min(boxes[j], a));
                    if a > 0 {
                        let new_hi = slack.div_euclid(a as i128);
                        if new_hi < boxes[j].1 {
                            boxes[j].1 = new_hi;
                            changed = true;
                        }
                    } else {
                        let new_lo = -(slack.div_euclid(-(a as i128)));
                        if new_lo > boxes[j].0 {
                            boxes[j].0 = new_lo;
                            changed = true;
                        }
                    }
                    if boxes[j].0 > boxes[j].1 {
                        return Propagation::Empty;
                    }
                }
            }
            if !changed {
                return Propagation::Fixpoint;
            }
        }
        Propagation::Capped
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Starting from `first` when the boxes are a fixpoint of the
        /// rows before it gives exactly the verdict and boxes of a first
        /// round over every row, round caps included.
        #[test]
        fn first_round_from_a_fixpoint_matches_every_row(
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..4, proptest::prop_oneof![-3i64..=3, -40i64..=40]), 0..4),
                    -30i64..=30,
                ),
                1..9,
            ),
            boxes in proptest::collection::vec((-50i64..=0, 0i64..=50), 4),
            wide in proptest::prelude::any::<bool>(),
            first in 0usize..9,
            rounds in proptest::prop_oneof![1usize..5, proptest::strategy::Just(100usize)],
        ) {
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(coeffs, rhs)| Row {
                    coeffs: coeffs.into_iter().filter(|&(_, a)| a != 0).collect(),
                    rhs: i128::from(rhs),
                })
                .collect();
            let mut boxes: Vec<(i128, i128)> =
                boxes.into_iter().map(|(lo, hi)| (i128::from(lo), i128::from(hi))).collect();
            if wide {
                boxes = vec![(i32::MIN as i128, i32::MAX as i128); 4];
            }
            let s = Solver::new(SolverConfig {
                max_propagation_rounds: rounds,
                ..SolverConfig::default()
            });
            // Settle the rows before `first`, or start from scratch.
            let mut first = first.min(rows.len());
            if propagate_every_row(&rows[..first], &mut boxes, rounds) != Propagation::Fixpoint {
                first = 0;
            }
            let mut want = boxes.clone();
            let verdict = propagate_every_row(&rows, &mut want, rounds);
            let mut got = boxes;
            proptest::prop_assert_eq!(s.propagate_from(&rows, first, &mut got), verdict);
            if verdict != Propagation::Empty {
                proptest::prop_assert_eq!(got, want);
            }
        }

        /// `normalize_one` builds exactly the rows, exclusion points and
        /// case splits of [`Constraint::normalize`]'s forms, saturation at
        /// the `i64` extremes included.
        #[test]
        fn direct_rows_match_normalize(
            terms in proptest::collection::vec(
                (
                    0u32..5,
                    proptest::prop_oneof![
                        -4i64..=4,
                        proptest::strategy::Just(i64::MIN),
                        proptest::strategy::Just(i64::MAX),
                    ],
                ),
                1..4,
            ),
            k in proptest::prop_oneof![
                -9i64..=9,
                proptest::strategy::Just(i64::MIN),
                proptest::strategy::Just(i64::MAX),
                proptest::strategy::Just(i64::MAX - 1),
            ],
            op in 0usize..6,
        ) {
            use crate::constraint::NormalForm;
            const OPS: [RelOp; 6] = [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge];
            let c = Constraint::new(
                LinExpr::from_terms(terms.into_iter().map(|(x, a)| (Var(x), a)), k),
                OPS[op],
            );
            if c.triviality().is_some() {
                return Ok(());
            }
            let idx: Vec<usize> = (0..c.expr.num_vars()).map(|i| 10 + i).collect();
            let (mut rows, mut points, mut splits) = (Vec::new(), Vec::new(), Vec::new());
            normalize_one(&c, &idx, &mut rows, &mut points, &mut splits);
            match c.normalize() {
                NormalForm::Conj(list) => {
                    let want: Vec<Row> = list.iter().map(|le| Row::from_le(&le.expr, &idx)).collect();
                    proptest::prop_assert_eq!(rows, want);
                    proptest::prop_assert!(points.is_empty() && splits.is_empty());
                }
                NormalForm::Disj(a, b) if c.expr.num_vars() > 1 => {
                    proptest::prop_assert!(rows.is_empty() && points.is_empty());
                    proptest::prop_assert_eq!(splits.len(), 1);
                    let ne = &splits[0];
                    proptest::prop_assert_eq!(&ne.diff, &Row::from_le(&c.expr, &idx));
                    proptest::prop_assert_eq!(&ne.lo_side, &Row::from_le(&a.expr, &idx));
                    proptest::prop_assert_eq!(&ne.hi_side, &Row::from_le(&b.expr, &idx));
                }
                NormalForm::Disj(..) => {
                    proptest::prop_assert!(rows.is_empty() && splits.is_empty());
                    proptest::prop_assert!(points.len() <= 1);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Propagating only a push's new rows from a settled frame gives
        /// exactly the boxes, verdicts and models of a full first round,
        /// over random paths and round caps (a small cap leaves frames
        /// unsettled).
        #[test]
        fn settled_pushes_match_full_first_rounds(
            path in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..4, -3i64..=3), 1..3),
                    -6i64..=6,
                    0usize..6,
                ),
                1..7,
            ),
            rounds in proptest::prop_oneof![1usize..4, proptest::strategy::Just(100usize)],
        ) {
            const OPS: [RelOp; 6] = [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge];
            let path: Vec<Constraint> = path
                .into_iter()
                .map(|(terms, k, op)| {
                    let terms = terms.into_iter().map(|(x, c)| (Var(x), c));
                    Constraint::new(LinExpr::from_terms(terms, k), OPS[op])
                })
                .collect();
            let s = Solver::new(SolverConfig {
                max_propagation_rounds: rounds,
                max_fd_nodes: 8,
                max_bb_nodes: 16,
                ..SolverConfig::default()
            });
            let mut sess = s.session();
            for c in &path {
                sess.push(c);
            }
            assert_full_first_rounds(&mut sess, &path);
        }
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
