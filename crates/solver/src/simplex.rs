//! Exact two-phase simplex over rationals (feasibility form).
//!
//! Solves: find `y >= 0` with `A y <= b` (all data exact [`Rat`]s), returning
//! a vertex of the polyhedron or a proof of infeasibility. Bland's rule is
//! used throughout, so the method terminates on every input. This is the
//! engine under the integer solver ([`crate::Solver`]), which adds variable
//! boxes and branch & bound — together they play the role `lp_solve` plays in
//! the DART paper (§3.3).

use crate::rational::{ArithError, ArithResult, Rat};

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
