//! Exact two-phase simplex over rationals (feasibility form).
//!
//! Solves: find `y >= 0` with `A y <= b` (all data exact [`Rat`]s), returning
//! a vertex of the polyhedron or a proof of infeasibility. Bland's rule is
//! used throughout, so the method terminates on every input. This is the
//! engine under the integer solver ([`crate::Solver`]), which adds variable
//! boxes and branch & bound — together they play the role `lp_solve` plays in
//! the DART paper (§3.3).

use crate::rational::{ArithError, ArithResult, Rat};
use std::sync::atomic::{AtomicBool, Ordering};

/// One inequality row `sum coeffs[j] * y_j <= rhs` of an [`Lp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpRow {
    /// Dense coefficients, one per decision variable.
    pub coeffs: Vec<Rat>,
    /// Right-hand side bound.
    pub rhs: Rat,
}

/// A linear feasibility problem over nonnegative variables:
/// `A y <= b`, `y >= 0`.
#[derive(Debug, Clone, Default)]
pub struct Lp {
    /// Number of decision variables.
    pub num_vars: usize,
    /// Inequality rows.
    pub rows: Vec<LpRow>,
}

/// Result of an LP feasibility check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpResult {
    /// No point satisfies all rows.
    Infeasible,
    /// A satisfying vertex, one value per decision variable.
    Feasible(Vec<Rat>),
}

/// Dictionary-based simplex state.
///
/// Invariant: `x_{basic[i]} = b[i] + sum_j a[i][j] * x_{nonbasic[j]}` with all
/// `b[i] >= 0` once the initial pivot has restored feasibility.
struct Dictionary {
    /// Variable id basic in each row. Ids: 0 = artificial, `1..=n` decision,
    /// `n+1..` slack.
    basic: Vec<usize>,
    /// Variable id for each column.
    nonbasic: Vec<usize>,
    /// Row constants.
    b: Vec<Rat>,
    /// Row coefficients, `a[row][col]`.
    a: Vec<Vec<Rat>>,
    /// Objective coefficients per column (we maximize `z = obj · x_N`).
    obj: Vec<Rat>,
    /// Objective constant.
    obj_const: Rat,
}

impl Dictionary {
    /// Performs the pivot swapping `basic[r]` with `nonbasic[c]`.
    fn pivot(&mut self, r: usize, c: usize) -> ArithResult<()> {
        let piv = self.a[r][c];
        debug_assert!(!piv.is_zero(), "pivot on zero coefficient");
        let inv = Rat::ONE.div(piv)?;

        // Rewrite row r to define the entering variable.
        let old_basic = self.basic[r];
        let new_b_r = self.b[r].neg().mul(inv)?;
        let ncols = self.nonbasic.len();
        let mut new_row = vec![Rat::ZERO; ncols];
        for (j, slot) in new_row.iter_mut().enumerate() {
            if j == c {
                *slot = inv; // coefficient of the leaving (old basic) var
            } else {
                *slot = self.a[r][j].neg().mul(inv)?;
            }
        }

        // Substitute into every other row.
        for i in 0..self.basic.len() {
            if i == r {
                continue;
            }
            let k = self.a[i][c];
            if k.is_zero() {
                continue;
            }
            self.b[i] = self.b[i].add(k.mul(new_b_r)?)?;
            for (j, &nr) in new_row.iter().enumerate() {
                if j == c {
                    self.a[i][j] = k.mul(nr)?;
                } else {
                    self.a[i][j] = self.a[i][j].add(k.mul(nr)?)?;
                }
            }
        }

        // Substitute into the objective.
        let k = self.obj[c];
        if !k.is_zero() {
            self.obj_const = self.obj_const.add(k.mul(new_b_r)?)?;
            for (j, &nr) in new_row.iter().enumerate() {
                if j == c {
                    self.obj[j] = k.mul(nr)?;
                } else {
                    self.obj[j] = self.obj[j].add(k.mul(nr)?)?;
                }
            }
        }

        self.b[r] = new_b_r;
        self.a[r] = new_row;
        self.basic[r] = self.nonbasic[c];
        self.nonbasic[c] = old_basic;
        Ok(())
    }

    /// Runs the simplex loop with Bland's rule until optimal or unbounded.
    /// Returns `true` if an optimum was reached, `false` if unbounded.
    fn optimize(&mut self) -> ArithResult<bool> {
        loop {
            // Entering: smallest-id nonbasic variable with positive objective
            // coefficient (Bland's anti-cycling rule).
            let mut entering: Option<usize> = None;
            for j in 0..self.nonbasic.len() {
                if self.obj[j].is_positive() {
                    match entering {
                        Some(e) if self.nonbasic[e] <= self.nonbasic[j] => {}
                        _ => entering = Some(j),
                    }
                }
            }
            let Some(c) = entering else {
                return Ok(true); // optimal
            };

            // Leaving: tightest ratio among rows that bound the increase,
            // tie-broken by smallest basic id.
            let mut leaving: Option<(usize, Rat)> = None;
            for i in 0..self.basic.len() {
                if self.a[i][c].is_negative() {
                    let ratio = self.b[i].div(self.a[i][c].neg())?;
                    match &leaving {
                        Some((best_i, best)) => {
                            if ratio < *best
                                || (ratio == *best && self.basic[i] < self.basic[*best_i])
                            {
                                leaving = Some((i, ratio));
                            }
                        }
                        None => leaving = Some((i, ratio)),
                    }
                }
            }
            let Some((r, _)) = leaving else {
                return Ok(false); // unbounded
            };
            self.pivot(r, c)?;
        }
    }

    /// Current value of variable `id` (0 for nonbasic).
    fn value_of(&self, id: usize) -> Rat {
        for (i, &bv) in self.basic.iter().enumerate() {
            if bv == id {
                return self.b[i];
            }
        }
        Rat::ZERO
    }
}

/// Finds a feasible point of `lp`, or reports infeasibility.
///
/// # Errors
///
/// Returns [`ArithError`] if exact arithmetic overflows `i128` (the caller
/// treats this as an *unknown* answer, never as unsat).
///
/// # Examples
///
/// ```
/// use dart_solver::rational::Rat;
/// use dart_solver::simplex::{feasible_point, Lp, LpRow, LpResult};
///
/// // y0 <= 3, -y0 <= -2  (i.e. 2 <= y0 <= 3)
/// let lp = Lp {
///     num_vars: 1,
///     rows: vec![
///         LpRow { coeffs: vec![Rat::from_int(1)], rhs: Rat::from_int(3) },
///         LpRow { coeffs: vec![Rat::from_int(-1)], rhs: Rat::from_int(-2) },
///     ],
/// };
/// match feasible_point(&lp)? {
///     LpResult::Feasible(point) => {
///         assert!(point[0] >= Rat::from_int(2) && point[0] <= Rat::from_int(3));
///     }
///     LpResult::Infeasible => panic!("should be feasible"),
/// }
/// # Ok::<(), dart_solver::rational::ArithError>(())
/// ```
pub fn feasible_point(lp: &Lp) -> ArithResult<LpResult> {
    let n = lp.num_vars;
    let m = lp.rows.len();
    if m == 0 {
        return Ok(LpResult::Feasible(vec![Rat::ZERO; n]));
    }
    for row in &lp.rows {
        debug_assert_eq!(row.coeffs.len(), n, "row width mismatch");
    }

    // Quick accept: the origin.
    if lp.rows.iter().all(|r| !r.rhs.is_negative()) {
        return Ok(LpResult::Feasible(vec![Rat::ZERO; n]));
    }

    // Build the phase-1 dictionary with artificial variable x0:
    //   slack_i = rhs_i - sum a_ij y_j + x0
    // Columns: [x0, y_1, ..., y_n]; maximize z = -x0.
    let mut dict = Dictionary {
        basic: (0..m).map(|i| n + 1 + i).collect(),
        nonbasic: std::iter::once(0).chain(1..=n).collect(),
        b: lp.rows.iter().map(|r| r.rhs).collect(),
        a: lp
            .rows
            .iter()
            .map(|r| {
                std::iter::once(Rat::ONE)
                    .chain(r.coeffs.iter().map(|c| c.neg()))
                    .collect()
            })
            .collect(),
        obj: std::iter::once(Rat::from_int(-1))
            .chain(std::iter::repeat_n(Rat::ZERO, n))
            .collect(),
        obj_const: Rat::ZERO,
    };

    // Initial pivot: bring x0 into the basis at the most negative row, which
    // restores b >= 0 everywhere (every row has +1 in the x0 column).
    let worst = (0..m)
        .min_by(|&i, &j| dict.b[i].cmp(&dict.b[j]))
        .expect("m > 0");
    dict.pivot(worst, 0)?;
    debug_assert!(dict.b.iter().all(|v| !v.is_negative()));

    let optimal = dict.optimize()?;
    if !optimal {
        // Phase-1 objective -x0 <= 0 is bounded; unbounded cannot happen.
        return Err(ArithError::Overflow);
    }
    if dict.obj_const.is_negative() {
        return Ok(LpResult::Infeasible);
    }

    // Feasible. x0 may remain basic at value 0 (degenerate); its value does
    // not affect the decision variables we read out, because with x0 = 0 the
    // remaining assignment satisfies the original rows.
    let point = (1..=n).map(|id| dict.value_of(id)).collect();
    Ok(LpResult::Feasible(point))
}

/// Error from [`LpSession::grow_vars`]: sessions can only widen; narrowing
/// would silently drop row coefficients. Callers degrade (skip the LP
/// screen, answer unknown) rather than abort, per the engine-wide
/// no-panic policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkError {
    /// The rejected target width.
    pub requested: usize,
    /// The session's current width.
    pub current: usize,
}

impl std::fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot shrink an LpSession from {} to {} variables",
            self.current, self.requested
        )
    }
}

impl std::error::Error for ShrinkError {}

/// Warm-engine counters, snapshot via [`LpSession::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Dual pivots performed by the persistent dictionary (feasibility
    /// repairs plus row-retraction pivots).
    pub warm_pivots: u64,
    /// Times the warm engine built its dictionary from scratch or
    /// discarded it and fell back to the cold two-phase solve.
    pub cold_restarts: u64,
}

/// Slack-variable id base for the warm dictionary. Decision variables use
/// ids `1..=num_vars`; each mirrored row gets a fresh monotone slack id at
/// or above this base, so growing the variable count never renumbers a
/// slack and Bland's smallest-id order stays stable across push/pop.
const SLACK_BASE: usize = 1 << 32;

/// Dual-repair pivot budget per resolve: generous slack over the expected
/// handful of pivots. Bland's rule terminates without it; the budget only
/// bounds pathological pivot chains by forcing a cold fallback.
const WARM_PIVOT_BASE: usize = 1024;
const WARM_PIVOT_PER_ROW: usize = 64;

/// Outcome of one warm dual-repair loop.
enum Repair {
    /// Every row constant is nonnegative: the basis point is feasible.
    Feasible,
    /// Some row certifies infeasibility: a negative constant with no
    /// positive coefficient means its basic variable stays negative for
    /// every nonnegative nonbasic assignment.
    Infeasible,
    /// The cancel token was observed set; the dictionary stays valid.
    Cancelled,
    /// Pivot budget exhausted; the caller discards the dictionary and
    /// falls back to the cold solve.
    Exhausted,
}

/// Persistent objective-free simplex dictionary mirroring an
/// [`LpSession`]'s row stack.
///
/// Invariant: `x_basic[i] = b[i] + sum_j a[i][j] * x_nonbasic[j]` describes
/// exactly the system `slack_k = rhs_k - row_k · y` over the mirrored rows;
/// the basis point (nonbasic vars at 0) is feasible iff every `b[i] >= 0`.
/// There is no objective row: with all objective coefficients pinned at
/// zero, dual feasibility holds trivially and stays preserved by every
/// pivot, so feasibility repair after retracting a frame and pushing a
/// negated row is a plain dual-simplex loop under Bland's rule.
#[derive(Debug, Clone)]
struct WarmDict {
    /// Basic variable id per dictionary row.
    basic: Vec<usize>,
    /// Nonbasic variable id per dictionary column.
    nonbasic: Vec<usize>,
    /// Row constants.
    b: Vec<Rat>,
    /// Row coefficients, `a[row][col]`.
    a: Vec<Vec<Rat>>,
    /// Slack id of each mirrored session row, oldest first.
    slacks: Vec<usize>,
    /// Monotone slack-id allocator; ids are never reused.
    next_slack: usize,
    /// Decision-variable count (columns start as ids `1..=num_vars`).
    num_vars: usize,
}

impl WarmDict {
    /// A rowless dictionary: all decision variables nonbasic at zero.
    fn fresh(num_vars: usize) -> WarmDict {
        WarmDict {
            basic: Vec::new(),
            nonbasic: (1..=num_vars).collect(),
            b: Vec::new(),
            a: Vec::new(),
            slacks: Vec::new(),
            next_slack: SLACK_BASE,
            num_vars,
        }
    }

    /// Number of mirrored rows.
    fn rows(&self) -> usize {
        self.basic.len()
    }

    fn row_of(&self, id: usize) -> Option<usize> {
        self.basic.iter().position(|&v| v == id)
    }

    fn col_of(&self, id: usize) -> Option<usize> {
        self.nonbasic.iter().position(|&v| v == id)
    }

    /// Appends zero columns for new decision variables `..=num_vars`.
    /// A variable absent from every mirrored row is exactly a zero column.
    fn grow_vars(&mut self, num_vars: usize) {
        for id in self.num_vars + 1..=num_vars {
            self.nonbasic.push(id);
            for row in &mut self.a {
                row.push(Rat::ZERO);
            }
        }
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Performs the pivot swapping `basic[r]` with `nonbasic[c]` — the
    /// same row algebra as [`Dictionary::pivot`], minus the objective.
    fn pivot(&mut self, r: usize, c: usize) -> ArithResult<()> {
        let piv = self.a[r][c];
        debug_assert!(!piv.is_zero(), "pivot on zero coefficient");
        let inv = Rat::ONE.div(piv)?;

        let old_basic = self.basic[r];
        let new_b_r = self.b[r].neg().mul(inv)?;
        let ncols = self.nonbasic.len();
        let mut new_row = vec![Rat::ZERO; ncols];
        for (j, slot) in new_row.iter_mut().enumerate() {
            if j == c {
                *slot = inv;
            } else {
                *slot = self.a[r][j].neg().mul(inv)?;
            }
        }

        for i in 0..self.basic.len() {
            if i == r {
                continue;
            }
            let k = self.a[i][c];
            if k.is_zero() {
                continue;
            }
            self.b[i] = self.b[i].add(k.mul(new_b_r)?)?;
            for (j, &nr) in new_row.iter().enumerate() {
                if j == c {
                    self.a[i][j] = k.mul(nr)?;
                } else {
                    self.a[i][j] = self.a[i][j].add(k.mul(nr)?)?;
                }
            }
        }

        self.b[r] = new_b_r;
        self.a[r] = new_row;
        self.basic[r] = self.nonbasic[c];
        self.nonbasic[c] = old_basic;
        Ok(())
    }

    /// Appends a session row `coeffs · y <= rhs` as a fresh basic slack:
    /// `s = rhs - sum_j coeffs[j] y_j`, with every *basic* decision
    /// variable substituted by its dictionary row so the invariant holds
    /// immediately. The new constant may be negative; the next
    /// [`WarmDict::dual_repair`] restores feasibility.
    fn push_row(&mut self, coeffs: &[Rat], rhs: Rat) -> ArithResult<()> {
        let mut b_new = rhs;
        let mut row = vec![Rat::ZERO; self.nonbasic.len()];
        for (j, &c) in coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            let id = j + 1;
            if let Some(col) = self.col_of(id) {
                row[col] = row[col].sub(c)?;
            } else {
                let r = self.row_of(id).expect("decision var basic or nonbasic");
                b_new = b_new.sub(c.mul(self.b[r])?)?;
                for (cell, &av) in row.iter_mut().zip(&self.a[r]) {
                    if !av.is_zero() {
                        *cell = cell.sub(c.mul(av)?)?;
                    }
                }
            }
        }
        self.basic.push(self.next_slack);
        self.slacks.push(self.next_slack);
        self.next_slack += 1;
        self.b.push(b_new);
        self.a.push(row);
        Ok(())
    }

    /// Retracts mirrored rows until `keep` remain (session rows only ever
    /// retract as a suffix). A row whose slack is basic is deleted
    /// outright — a basic variable appears in no other row, so the
    /// remaining rows are exactly the smaller system. A nonbasic slack is
    /// first pivoted back into the basis; its column cannot be all zeros
    /// because pivots are invertible row operations and the slack's
    /// original column was a unit vector.
    fn retract_to(&mut self, keep: usize, pivots: &mut u64) -> ArithResult<()> {
        while self.slacks.len() > keep {
            let id = self.slacks.pop().expect("nonempty");
            let r = match self.row_of(id) {
                Some(r) => r,
                None => {
                    let c = self.col_of(id).expect("slack is basic or nonbasic");
                    let r = (0..self.basic.len())
                        .filter(|&i| !self.a[i][c].is_zero())
                        .min_by_key(|&i| self.basic[i])
                        .ok_or(ArithError::Overflow)?; // unreachable; defensive
                    self.pivot(r, c)?;
                    *pivots += 1;
                    self.row_of(id).expect("just pivoted in")
                }
            };
            self.basic.swap_remove(r);
            self.b.swap_remove(r);
            self.a.swap_remove(r);
        }
        Ok(())
    }

    /// Dual-simplex feasibility repair under Bland's rule: the leaving
    /// variable is the smallest basic id among negative-constant rows, the
    /// entering variable the smallest nonbasic id with a positive
    /// coefficient there (the pivot makes that row's new constant
    /// `-b[r]/a[r][c] >= 0`). With the objective identically zero, dual
    /// feasibility is trivial, so this is Bland's primal rule on the dual
    /// program and terminates.
    fn dual_repair(
        &mut self,
        mut budget: usize,
        cancel: Option<&AtomicBool>,
        pivots: &mut u64,
    ) -> ArithResult<Repair> {
        loop {
            let r = (0..self.basic.len())
                .filter(|&i| self.b[i].is_negative())
                .min_by_key(|&i| self.basic[i]);
            let Some(r) = r else {
                return Ok(Repair::Feasible);
            };
            let c = (0..self.nonbasic.len())
                .filter(|&j| self.a[r][j].is_positive())
                .min_by_key(|&j| self.nonbasic[j]);
            let Some(c) = c else {
                return Ok(Repair::Infeasible);
            };
            if cancel.is_some_and(|t| t.load(Ordering::Relaxed)) {
                return Ok(Repair::Cancelled);
            }
            if budget == 0 {
                return Ok(Repair::Exhausted);
            }
            budget -= 1;
            self.pivot(r, c)?;
            *pivots += 1;
        }
    }

    /// Current value of variable `id` (0 when nonbasic).
    fn value_of(&self, id: usize) -> Rat {
        self.row_of(id).map_or(Rat::ZERO, |r| self.b[r])
    }

    /// The basis point restricted to the decision variables.
    fn point(&self, num_vars: usize) -> Vec<Rat> {
        (1..=num_vars).map(|id| self.value_of(id)).collect()
    }
}

/// Syncs `dict` to `rows` (retract to the `synced` prefix, grow columns,
/// push the suffix) and repairs feasibility. A free function rather than a
/// method so [`LpSession`] can keep borrowing its other fields.
fn warm_attempt(
    dict: &mut WarmDict,
    rows: &[LpRow],
    synced: usize,
    num_vars: usize,
    cancel: Option<&AtomicBool>,
    pivots: &mut u64,
) -> ArithResult<Repair> {
    dict.retract_to(synced, pivots)?;
    dict.grow_vars(num_vars);
    for row in &rows[synced..] {
        dict.push_row(&row.coeffs, row.rhs)?;
    }
    let budget = WARM_PIVOT_BASE + WARM_PIVOT_PER_ROW * dict.rows();
    dict.dual_repair(budget, cancel, pivots)
}

/// Incremental LP feasibility over a push/pop row stack.
///
/// DART's directed search issues, for one run, a family of queries that all
/// share a prefix of rows; a fresh simplex per query rebuilds the same
/// tableau over and over. `LpSession` keeps the rows as a stack with frame
/// markers and caches the last feasible vertex: a pushed frame whose rows
/// the cached vertex already satisfies is answered by a point check instead
/// of a phase-1 solve, and *popping* rows never invalidates the cache (a
/// point satisfying a superset of rows satisfies any subset).
///
/// When the vertex cache misses, the default *warm* engine keeps a
/// dual-simplex dictionary (`WarmDict`) alive across push/pop: retracting
/// a frame and pushing a negated row repairs feasibility with a handful of
/// dual pivots instead of a fresh two-phase solve, falling back to the cold
/// Phase 1 only when a pivot budget or exact arithmetic gives out.
/// [`LpSession::with_warm`] selects the engine; verdicts are identical
/// either way (exact rationals — feasibility has one answer), only the
/// witness vertex may differ.
///
/// # Examples
///
/// ```
/// use dart_solver::rational::Rat;
/// use dart_solver::simplex::{LpRow, LpResult, LpSession};
///
/// let mut sess = LpSession::new(1);
/// sess.push_frame(vec![LpRow { coeffs: vec![Rat::from_int(1)], rhs: Rat::from_int(3) }]);
/// assert!(matches!(sess.feasible()?, LpResult::Feasible(_)));
/// let mark = sess.push_frame(vec![LpRow { coeffs: vec![Rat::from_int(-1)], rhs: Rat::from_int(-5) }]);
/// assert!(matches!(sess.feasible()?, LpResult::Infeasible));
/// sess.pop_to(mark);
/// assert!(matches!(sess.feasible()?, LpResult::Feasible(_)));
/// # Ok::<(), dart_solver::rational::ArithError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LpSession {
    num_vars: usize,
    rows: Vec<LpRow>,
    frames: Vec<usize>,
    /// A vertex known to satisfy some prefix of `rows`; `valid_rows` says
    /// how many leading rows it was last checked against.
    last_point: Option<Vec<Rat>>,
    /// Warm dual-simplex engine on/off (see [`LpSession::with_warm`]).
    warm: bool,
    /// The persistent dictionary; `None` until first warm use or after a
    /// fallback discarded it (rebuilt lazily on the next solve).
    dict: Option<WarmDict>,
    /// How many leading `rows` the dictionary currently mirrors.
    dict_rows: usize,
    stats: LpStats,
}

impl Default for LpSession {
    fn default() -> LpSession {
        LpSession::new(0)
    }
}

impl LpSession {
    /// An empty session over `num_vars` nonnegative variables, using the
    /// warm dual-simplex engine.
    pub fn new(num_vars: usize) -> LpSession {
        LpSession::with_warm(num_vars, true)
    }

    /// An empty session choosing the resolve engine: `warm = true` keeps a
    /// dual-simplex dictionary alive across push/pop (the default);
    /// `warm = false` re-runs the cold two-phase simplex on every vertex
    /// cache miss — kept for ablation and benchmarking.
    pub fn with_warm(num_vars: usize, warm: bool) -> LpSession {
        LpSession {
            num_vars,
            rows: Vec::new(),
            frames: Vec::new(),
            last_point: None,
            warm,
            dict: None,
            dict_rows: 0,
            stats: LpStats::default(),
        }
    }

    /// Warm-engine counters accumulated over the session's lifetime.
    pub fn stats(&self) -> LpStats {
        self.stats
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of pushed frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Grows the variable count, zero-padding existing rows, the cached
    /// point, and the warm dictionary's columns.
    ///
    /// # Errors
    ///
    /// Returns [`ShrinkError`] when `num_vars` is below the current width:
    /// shrinking would drop row coefficients (pop frames instead). The
    /// session is left untouched, so callers can degrade gracefully.
    pub fn grow_vars(&mut self, num_vars: usize) -> Result<(), ShrinkError> {
        if num_vars < self.num_vars {
            return Err(ShrinkError {
                requested: num_vars,
                current: self.num_vars,
            });
        }
        if num_vars == self.num_vars {
            return Ok(());
        }
        for row in &mut self.rows {
            row.coeffs.resize(num_vars, Rat::ZERO);
        }
        if let Some(p) = &mut self.last_point {
            p.resize(num_vars, Rat::ZERO);
        }
        if let Some(d) = &mut self.dict {
            d.grow_vars(num_vars);
        }
        self.num_vars = num_vars;
        Ok(())
    }

    /// Pushes a frame of rows; returns the depth to give [`LpSession::pop_to`]
    /// to undo it. Rows narrower than `num_vars` are zero-padded.
    pub fn push_frame(&mut self, rows: Vec<LpRow>) -> usize {
        let mark = self.frames.len();
        self.frames.push(self.rows.len());
        for mut row in rows {
            debug_assert!(row.coeffs.len() <= self.num_vars, "row wider than session");
            row.coeffs.resize(self.num_vars, Rat::ZERO);
            self.rows.push(row);
        }
        mark
    }

    /// Pops frames until `depth` frames remain. The cached vertex stays
    /// valid: it satisfied a superset of the remaining rows. The warm
    /// dictionary is retracted lazily, at the next solve.
    pub fn pop_to(&mut self, depth: usize) {
        assert!(depth <= self.frames.len(), "pop_to past the stack");
        if let Some(&row_len) = self.frames.get(depth) {
            self.rows.truncate(row_len);
            self.frames.truncate(depth);
            self.dict_rows = self.dict_rows.min(self.rows.len());
        }
    }

    /// Whether `point` satisfies every current row.
    fn satisfies(&self, point: &[Rat]) -> ArithResult<bool> {
        for row in &self.rows {
            let mut acc = Rat::ZERO;
            for (c, v) in row.coeffs.iter().zip(point) {
                if !c.is_zero() && !v.is_zero() {
                    acc = acc.add(c.mul(*v)?)?;
                }
            }
            if acc > row.rhs {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// LP feasibility of the current row stack. Answers from the cached
    /// vertex when it still satisfies every row; otherwise resolves with
    /// the warm dictionary (or the cold two-phase simplex, per
    /// [`LpSession::with_warm`]) and caches the fresh vertex.
    pub fn feasible(&mut self) -> ArithResult<LpResult> {
        let result = self.feasible_cancellable(None)?;
        Ok(result.expect("solve without a cancel token cannot be cancelled"))
    }

    /// [`LpSession::feasible`] with a cooperative cancel token: returns
    /// `Ok(None)` when `cancel` is observed set (checked between pivots in
    /// the warm engine, and once up front otherwise). A cancelled solve
    /// leaves the session consistent; the next call simply resumes.
    pub fn feasible_cancellable(
        &mut self,
        cancel: Option<&AtomicBool>,
    ) -> ArithResult<Option<LpResult>> {
        if let Some(p) = &self.last_point {
            if self.satisfies(p)? {
                return Ok(Some(LpResult::Feasible(p.clone())));
            }
        }
        if cancel.is_some_and(|t| t.load(Ordering::Relaxed)) {
            return Ok(None);
        }
        if self.warm {
            self.warm_feasible(cancel)
        } else {
            self.cold_feasible().map(Some)
        }
    }

    /// The warm path: sync the persistent dictionary to the current row
    /// stack, then repair primal feasibility with dual pivots. Budget
    /// blow-out or an arithmetic failure discards the dictionary and
    /// answers this one query cold; the next call rebuilds warm state.
    fn warm_feasible(&mut self, cancel: Option<&AtomicBool>) -> ArithResult<Option<LpResult>> {
        if self.dict.is_none() {
            self.stats.cold_restarts += 1;
            self.dict = Some(WarmDict::fresh(self.num_vars));
            self.dict_rows = 0;
        }
        let mut pivots = 0u64;
        let attempt = warm_attempt(
            self.dict.as_mut().expect("ensured above"),
            &self.rows,
            self.dict_rows,
            self.num_vars,
            cancel,
            &mut pivots,
        );
        self.stats.warm_pivots += pivots;
        match attempt {
            Ok(Repair::Feasible) => {
                self.dict_rows = self.rows.len();
                let point = self.dict.as_ref().expect("present").point(self.num_vars);
                debug_assert!(matches!(self.satisfies(&point), Ok(true)));
                self.last_point = Some(point.clone());
                Ok(Some(LpResult::Feasible(point)))
            }
            Ok(Repair::Infeasible) => {
                self.dict_rows = self.rows.len();
                Ok(Some(LpResult::Infeasible))
            }
            Ok(Repair::Cancelled) => {
                self.dict_rows = self.rows.len();
                Ok(None)
            }
            Ok(Repair::Exhausted) | Err(_) => {
                self.dict = None;
                self.dict_rows = 0;
                self.stats.cold_restarts += 1;
                self.cold_feasible().map(Some)
            }
        }
    }

    /// The cold path: a fresh two-phase simplex over the full row stack.
    fn cold_feasible(&mut self) -> ArithResult<LpResult> {
        let lp = Lp {
            num_vars: self.num_vars,
            rows: self.rows.clone(),
        };
        match feasible_point(&lp)? {
            LpResult::Feasible(p) => {
                self.last_point = Some(p.clone());
                Ok(LpResult::Feasible(p))
            }
            LpResult::Infeasible => Ok(LpResult::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::from_int(n)
    }
    fn rr(n: i128, d: i128) -> Rat {
        Rat::new(n, d).unwrap()
    }

    fn check_feasible(lp: &Lp) -> Vec<Rat> {
        match feasible_point(lp).unwrap() {
            LpResult::Feasible(p) => {
                for row in &lp.rows {
                    let mut acc = Rat::ZERO;
                    for (c, v) in row.coeffs.iter().zip(&p) {
                        acc = acc.add(c.mul(*v).unwrap()).unwrap();
                    }
                    assert!(acc <= row.rhs, "row violated: {acc} > {}", row.rhs);
                }
                for v in &p {
                    assert!(!v.is_negative(), "negative decision variable");
                }
                p
            }
            LpResult::Infeasible => panic!("expected feasible"),
        }
    }

    #[test]
    fn empty_problem_is_feasible() {
        let lp = Lp {
            num_vars: 3,
            rows: vec![],
        };
        assert_eq!(
            feasible_point(&lp).unwrap(),
            LpResult::Feasible(vec![Rat::ZERO; 3])
        );
    }

    #[test]
    fn origin_fast_path() {
        let lp = Lp {
            num_vars: 2,
            rows: vec![LpRow {
                coeffs: vec![r(1), r(1)],
                rhs: r(10),
            }],
        };
        assert_eq!(
            feasible_point(&lp).unwrap(),
            LpResult::Feasible(vec![Rat::ZERO; 2])
        );
    }

    #[test]
    fn simple_band() {
        // 2 <= y0 <= 3
        let lp = Lp {
            num_vars: 1,
            rows: vec![
                LpRow {
                    coeffs: vec![r(1)],
                    rhs: r(3),
                },
                LpRow {
                    coeffs: vec![r(-1)],
                    rhs: r(-2),
                },
            ],
        };
        let p = check_feasible(&lp);
        assert!(p[0] >= r(2) && p[0] <= r(3));
    }

    #[test]
    fn infeasible_band() {
        // y0 <= 1 and y0 >= 2
        let lp = Lp {
            num_vars: 1,
            rows: vec![
                LpRow {
                    coeffs: vec![r(1)],
                    rhs: r(1),
                },
                LpRow {
                    coeffs: vec![r(-1)],
                    rhs: r(-2),
                },
            ],
        };
        assert_eq!(feasible_point(&lp).unwrap(), LpResult::Infeasible);
    }

    #[test]
    fn equality_via_two_rows() {
        // y0 + y1 == 5 (as <= and >=), y0 >= 2
        let lp = Lp {
            num_vars: 2,
            rows: vec![
                LpRow {
                    coeffs: vec![r(1), r(1)],
                    rhs: r(5),
                },
                LpRow {
                    coeffs: vec![r(-1), r(-1)],
                    rhs: r(-5),
                },
                LpRow {
                    coeffs: vec![r(-1), r(0)],
                    rhs: r(-2),
                },
            ],
        };
        let p = check_feasible(&lp);
        assert_eq!(p[0].add(p[1]).unwrap(), r(5));
        assert!(p[0] >= r(2));
    }

    #[test]
    fn fractional_vertex() {
        // 2*y0 >= 1, y0 <= 1/2  =>  y0 == 1/2 exactly.
        let lp = Lp {
            num_vars: 1,
            rows: vec![
                LpRow {
                    coeffs: vec![r(-2)],
                    rhs: r(-1),
                },
                LpRow {
                    coeffs: vec![r(1)],
                    rhs: rr(1, 2),
                },
            ],
        };
        let p = check_feasible(&lp);
        assert_eq!(p[0], rr(1, 2));
    }

    #[test]
    fn infeasible_three_way() {
        // y0 - y1 <= -1, y1 - y2 <= -1, y2 - y0 <= -1 sums to 0 <= -3.
        let lp = Lp {
            num_vars: 3,
            rows: vec![
                LpRow {
                    coeffs: vec![r(1), r(-1), r(0)],
                    rhs: r(-1),
                },
                LpRow {
                    coeffs: vec![r(0), r(1), r(-1)],
                    rhs: r(-1),
                },
                LpRow {
                    coeffs: vec![r(-1), r(0), r(1)],
                    rhs: r(-1),
                },
            ],
        };
        assert_eq!(feasible_point(&lp).unwrap(), LpResult::Infeasible);
    }

    #[test]
    fn chain_of_differences() {
        // y_{i+1} >= y_i + 1 for a chain of 10, y9 <= 100.
        let n = 10;
        let mut rows = Vec::new();
        for i in 0..n - 1 {
            let mut coeffs = vec![r(0); n];
            coeffs[i] = r(1);
            coeffs[i + 1] = r(-1);
            rows.push(LpRow { coeffs, rhs: r(-1) });
        }
        let mut coeffs = vec![r(0); n];
        coeffs[n - 1] = r(1);
        rows.push(LpRow {
            coeffs,
            rhs: r(100),
        });
        // Force away from the origin: y0 >= 1.
        let mut coeffs = vec![r(0); n];
        coeffs[0] = r(-1);
        rows.push(LpRow { coeffs, rhs: r(-1) });
        let lp = Lp { num_vars: n, rows };
        let p = check_feasible(&lp);
        for i in 0..n - 1 {
            assert!(p[i + 1] >= p[i].add(r(1)).unwrap());
        }
    }

    #[test]
    fn session_point_reuse_and_popping() {
        // Band 2 <= y0 <= 3 split across frames; a third frame makes it
        // infeasible; popping restores feasibility without a re-solve.
        let mut sess = LpSession::new(1);
        sess.push_frame(vec![LpRow {
            coeffs: vec![r(1)],
            rhs: r(3),
        }]);
        let p1 = match sess.feasible().unwrap() {
            LpResult::Feasible(p) => p,
            other => panic!("expected feasible, got {other:?}"),
        };
        let mark = sess.push_frame(vec![LpRow {
            coeffs: vec![r(-1)],
            rhs: r(0),
        }]);
        // The cached vertex already satisfies -y0 <= 0: reuse, same point.
        match sess.feasible().unwrap() {
            LpResult::Feasible(p) => assert_eq!(p, p1),
            other => panic!("expected feasible, got {other:?}"),
        }
        sess.push_frame(vec![LpRow {
            coeffs: vec![r(-1)],
            rhs: r(-5),
        }]);
        assert_eq!(sess.feasible().unwrap(), LpResult::Infeasible);
        sess.pop_to(mark);
        assert!(matches!(sess.feasible().unwrap(), LpResult::Feasible(_)));
        assert_eq!(sess.depth(), 1);
    }

    #[test]
    fn session_grow_vars_pads() {
        let mut sess = LpSession::new(1);
        sess.push_frame(vec![LpRow {
            coeffs: vec![r(-1)],
            rhs: r(-2),
        }]);
        assert!(matches!(sess.feasible().unwrap(), LpResult::Feasible(_)));
        sess.grow_vars(3).unwrap();
        sess.push_frame(vec![LpRow {
            coeffs: vec![r(0), r(-1), r(0)],
            rhs: r(-1),
        }]);
        match sess.feasible().unwrap() {
            LpResult::Feasible(p) => {
                assert_eq!(p.len(), 3);
                assert!(p[0] >= r(2) && p[1] >= r(1));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn grow_vars_rejects_shrinking_without_damage() {
        let mut sess = LpSession::new(3);
        sess.push_frame(vec![LpRow {
            coeffs: vec![r(-1), r(0), r(0)],
            rhs: r(-2),
        }]);
        let err = sess.grow_vars(1).expect_err("shrinking must be rejected");
        assert_eq!(
            err,
            ShrinkError {
                requested: 1,
                current: 3
            }
        );
        assert!(err.to_string().contains("cannot shrink"));
        // The session is untouched and still solvable.
        assert_eq!(sess.num_vars(), 3);
        assert!(matches!(sess.feasible().unwrap(), LpResult::Feasible(_)));
        // Growing to the current width is a no-op Ok.
        sess.grow_vars(3).unwrap();
    }

    /// Drives a warm and a cold session through the same scripted
    /// push/solve/pop sequence and checks verdicts stay identical, the
    /// warm witness satisfies the row stack, and the warm engine actually
    /// pivots instead of restarting.
    #[test]
    fn warm_session_matches_cold_across_push_pop() {
        let mut warm = LpSession::with_warm(3, true);
        let mut cold = LpSession::with_warm(3, false);
        // A prefix chain y0 >= 1, y1 >= y0 + 1, y2 >= y1 + 1, y2 <= 100.
        let prefix = vec![
            LpRow {
                coeffs: vec![r(-1), r(0), r(0)],
                rhs: r(-1),
            },
            LpRow {
                coeffs: vec![r(1), r(-1), r(0)],
                rhs: r(-1),
            },
            LpRow {
                coeffs: vec![r(0), r(1), r(-1)],
                rhs: r(-1),
            },
            LpRow {
                coeffs: vec![r(0), r(0), r(1)],
                rhs: r(1000),
            },
        ];
        warm.push_frame(prefix.clone());
        cold.push_frame(prefix);
        // Scratch queries: alternately feasible (y2 >= 10k) and infeasible
        // (y0 >= 2000 against y2 <= 1000 via the chain), always cutting
        // off the cached vertex so both engines must really solve.
        for k in 1..20i128 {
            let scratch = if k % 3 == 0 {
                LpRow {
                    coeffs: vec![r(-1), r(0), r(0)],
                    rhs: r(-2000),
                }
            } else {
                LpRow {
                    coeffs: vec![r(0), r(0), r(-1)],
                    rhs: r(-10 * k),
                }
            };
            let mark_w = warm.push_frame(vec![scratch.clone()]);
            let mark_c = cold.push_frame(vec![scratch]);
            let vw = warm.feasible().unwrap();
            let vc = cold.feasible().unwrap();
            assert_eq!(
                matches!(vw, LpResult::Feasible(_)),
                matches!(vc, LpResult::Feasible(_)),
                "verdicts diverged at k={k}"
            );
            assert_eq!(matches!(vw, LpResult::Infeasible), k % 3 == 0);
            if let LpResult::Feasible(p) = &vw {
                assert!(warm.satisfies(p).unwrap(), "warm witness violates rows");
                assert!(!p.iter().any(|v| v.is_negative()));
            }
            warm.pop_to(mark_w);
            cold.pop_to(mark_c);
        }
        let stats = warm.stats();
        assert!(stats.warm_pivots > 0, "warm engine never pivoted");
        assert_eq!(
            stats.cold_restarts, 1,
            "only the initial dictionary build should be cold"
        );
        assert_eq!(cold.stats(), LpStats::default());
    }

    /// Popping a frame whose slack went nonbasic (it was pivoted during a
    /// repair) exercises the pivot-back-in retraction path.
    #[test]
    fn warm_retraction_handles_nonbasic_slacks() {
        let mut sess = LpSession::new(2);
        sess.push_frame(vec![LpRow {
            coeffs: vec![r(1), r(1)],
            rhs: r(10),
        }]);
        // Force a repair that pivots the scratch slack's row.
        let mark = sess.push_frame(vec![LpRow {
            coeffs: vec![r(-1), r(0)],
            rhs: r(-4),
        }]);
        assert!(matches!(sess.feasible().unwrap(), LpResult::Feasible(_)));
        sess.pop_to(mark);
        // And again with a conflicting scratch: the old scratch row must
        // be fully gone or y0 >= 4 would linger and flip this verdict.
        sess.push_frame(vec![LpRow {
            coeffs: vec![r(1), r(0)],
            rhs: r(3),
        }]);
        match sess.feasible().unwrap() {
            LpResult::Feasible(p) => assert!(p[0] <= r(3)),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_equalities() {
        // y0 == 0 expressed twice plus y0 <= 5: solution must be 0.
        let lp = Lp {
            num_vars: 1,
            rows: vec![
                LpRow {
                    coeffs: vec![r(1)],
                    rhs: r(0),
                },
                LpRow {
                    coeffs: vec![r(-1)],
                    rhs: r(0),
                },
                LpRow {
                    coeffs: vec![r(1)],
                    rhs: r(5),
                },
            ],
        };
        let p = check_feasible(&lp);
        assert_eq!(p[0], r(0));
    }
}
