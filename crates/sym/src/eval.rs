//! `evaluate_symbolic` — the paper's Fig. 1, with per-node concrete fallback.
//!
//! Evaluation returns a linear form ([`LinExpr`]) for every expression. When
//! a node cannot be represented linearly, *that node* (not the whole
//! expression) is replaced by its concrete value and a [`Completeness`] flag
//! is cleared, so e.g. `x*y + z` still yields `c + z` with `c` the concrete
//! value of `x*y` — exactly the paper's behaviour.

use crate::memory::SymMemory;
use dart_ram::{eval_concrete, BinOp, Expr, MemView, UnOp};
use dart_solver::{Constraint, LinExpr, RelOp};

/// The two completeness flags of the paper (§2.3): both must still hold when
/// the directed search finishes for DART to claim full path coverage
/// (Theorem 1(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completeness {
    /// Cleared when a non-linear operation forced a concrete fallback.
    pub all_linear: bool,
    /// Cleared when a dereference's address depended on an input.
    pub all_locs_definite: bool,
}

impl Completeness {
    /// Both flags set.
    pub fn new() -> Completeness {
        Completeness {
            all_linear: true,
            all_locs_definite: true,
        }
    }

    /// Whether the symbolic execution stayed complete.
    pub fn holds(&self) -> bool {
        self.all_linear && self.all_locs_definite
    }
}

impl Default for Completeness {
    fn default() -> Completeness {
        Completeness::new()
    }
}

/// A folded constant, and whether it is known to equal `eval_concrete`
/// of its subtree: no saturated fold, no fault and no cancelled form
/// below it.
#[derive(Clone, Copy)]
struct Num {
    value: i64,
    exact: bool,
}

impl Num {
    fn exact(value: i64) -> Num {
        Num { value, exact: true }
    }

    /// A value `eval_concrete` need not agree with.
    fn inexact(value: i64) -> Num {
        Num {
            value,
            exact: false,
        }
    }

    /// `value`, folded from operands that were all exact iff `exact`:
    /// exact when they were and the machine computes `machine` from them.
    fn folded(value: i64, machine: i64, exact: bool) -> Num {
        Num {
            value,
            exact: exact && value == machine,
        }
    }
}

/// A subexpression's value during one evaluation pass: a constant, or a
/// form over at least one input variable. Constants never become a
/// [`LinExpr`], and a form whose terms cancel (`x - x`) becomes a
/// constant, so every later decision sees it as one.
enum Val {
    Const(Num),
    Form(LinExpr),
}

impl Val {
    /// `form`, or the constant its terms cancelled to.
    fn of_form(form: LinExpr) -> Val {
        if form.is_constant() {
            Val::Const(Num::inexact(form.constant()))
        } else {
            Val::Form(form)
        }
    }

    fn into_form(self) -> LinExpr {
        match self {
            Val::Const(n) => LinExpr::constant_expr(n.value),
            Val::Form(form) => form,
        }
    }
}

/// Concrete value of `e`. Faults yield 0 — the concrete interpreter will
/// fault on the same expression and terminate the run, so the placeholder
/// value is never used.
fn concrete(e: &Expr, view: &dyn MemView) -> Val {
    Val::Const(match eval_concrete(e, view) {
        Ok(value) => Num::exact(value),
        Err(_) => Num::inexact(0),
    })
}

/// `a + b`, folding constants with [`LinExpr::add`]'s saturating sum.
fn add(a: Val, b: Val) -> Val {
    match (a, b) {
        (Val::Const(x), Val::Const(y)) => Val::Const(Num::folded(
            x.value.saturating_add(y.value),
            x.value.wrapping_add(y.value),
            x.exact && y.exact,
        )),
        (Val::Form(mut f), Val::Const(k)) | (Val::Const(k), Val::Form(mut f)) => {
            f.add_constant(k.value);
            Val::Form(f)
        }
        (Val::Form(f), Val::Form(g)) => Val::of_form(f.add(&g)),
    }
}

/// `a - b` as [`LinExpr::sub`] computes it: `a + b·(-1)`, each step
/// saturating.
fn sub(a: Val, b: Val) -> Val {
    match (a, b) {
        (Val::Const(x), Val::Const(y)) => Val::Const(Num::folded(
            x.value.saturating_add(y.value.saturating_mul(-1)),
            x.value.wrapping_sub(y.value),
            x.exact && y.exact,
        )),
        (Val::Form(mut f), Val::Const(k)) => {
            f.add_constant(k.value.saturating_mul(-1));
            Val::Form(f)
        }
        (Val::Const(k), Val::Form(g)) => {
            let mut f = g.into_scaled(-1);
            f.add_constant(k.value);
            Val::Form(f)
        }
        (Val::Form(f), Val::Form(g)) => Val::of_form(f.sub(&g)),
    }
}

/// One pass over `e`: see [`eval_symbolic`].
fn eval(e: &Expr, view: &dyn MemView, sym: &SymMemory, flags: &mut Completeness) -> Val {
    match e {
        Expr::Const(c) => Val::Const(Num::exact(*c)),
        Expr::FrameBase => Val::Const(Num::exact(view.frame_base())),
        Expr::Load(addr) => match eval(addr, view, sym, flags) {
            // Definite location: S(m) if tracked, else M(m).
            Val::Const(m) => match sym.get(m.value) {
                Some(form) => Val::of_form(form.clone()),
                // `m` is the address the machine computes, so M(m) is the
                // load's concrete value without walking the address again.
                None if m.exact => Val::Const(match view.load(m.value) {
                    Ok(value) => Num::exact(value),
                    Err(_) => Num::inexact(0),
                }),
                None => concrete(e, view),
            },
            Val::Form(_) => {
                // Paper: "the program dereferences a pointer whose value
                // depends on some input parameter" — fall back.
                flags.all_locs_definite = false;
                concrete(e, view)
            }
        },
        Expr::Unary(op, inner) => match (op, eval(inner, view, sym, flags)) {
            (UnOp::Neg, Val::Const(x)) => Val::Const(Num::folded(
                x.value.saturating_mul(-1),
                x.value.wrapping_neg(),
                x.exact,
            )),
            (UnOp::Neg, Val::Form(f)) => Val::Form(f.into_scaled(-1)),
            // ~x == -x - 1 over two's complement: still linear.
            (UnOp::BitNot, Val::Const(x)) => Val::Const(Num::folded(
                x.value.saturating_mul(-1).saturating_add(-1),
                !x.value,
                x.exact,
            )),
            (UnOp::BitNot, Val::Form(f)) => {
                let mut f = f.into_scaled(-1);
                f.add_constant(-1);
                Val::Form(f)
            }
            (UnOp::Not, Val::Const(x)) => Val::Const(Num {
                value: i64::from(x.value == 0),
                exact: x.exact,
            }),
            (UnOp::Not, Val::Form(_)) => {
                // Logical not of a symbolic value is not linear.
                flags.all_linear = false;
                concrete(e, view)
            }
        },
        Expr::Binary(op, l, r) => {
            let a = eval(l, view, sym, flags);
            let b = eval(r, view, sym, flags);
            match (op, a, b) {
                (BinOp::Add, a, b) => add(a, b),
                (BinOp::Sub, a, b) => sub(a, b),
                // Every other operator folds as the machine computes it:
                // a wrapping `*`, and `/` or `%` by zero as its fault.
                (_, Val::Const(x), Val::Const(y)) => {
                    match dart_ram::apply_binop(*op, x.value, y.value) {
                        Ok(value) => Val::Const(Num {
                            value,
                            exact: x.exact && y.exact,
                        }),
                        Err(_) => concrete(e, view),
                    }
                }
                (BinOp::Mul, Val::Const(k), Val::Form(f))
                | (BinOp::Mul, Val::Form(f), Val::Const(k)) => Val::of_form(f.into_scaled(k.value)),
                _ => {
                    // Fig. 1: "if not one of f' or f'' is a constant c then
                    // all_linear = 0, return evaluate_concrete" — and so
                    // for every other operator with a symbolic operand
                    // (division, bit operations, a comparison used as a
                    // value, which yields 0/1).
                    flags.all_linear = false;
                    concrete(e, view)
                }
            }
        }
    }
}

/// Evaluates `e` to a linear form over input variables (paper Fig. 1).
///
/// `view` is the *concrete* machine state (pre-step), `sym` the symbolic
/// memory `S`. Non-linear nodes and input-dependent dereferences fall back
/// to their concrete values, clearing the corresponding flag in `flags`.
///
/// One pass computes the result. A subtree that reads no tracked cell
/// folds to a constant without building a form: `+`, `-`, unary `-` and
/// `~` saturate as [`LinExpr`]'s operations do, every other operator is
/// the machine's own. A definite load reads `M` at its folded address
/// whenever that constant is known to be the machine's own address.
pub fn eval_symbolic(
    e: &Expr,
    view: &dyn MemView,
    sym: &SymMemory,
    flags: &mut Completeness,
) -> LinExpr {
    eval(e, view, sym, flags).into_form()
}

/// Evaluates a branch condition to the symbolic predicate meaning "the
/// condition is **true**", or `None` when the condition is concrete or left
/// the linear theory (no constraint is recorded — the paper's non-linear
/// `foobar` case: "no constraint is generated for the branching statement
/// in line 2 since it is non-linear").
///
/// Conditions of comparison shape `l op r` become `l - r  op  0`; `!c`
/// negates the inner predicate; any other expression `e` becomes `e != 0`.
/// A condition whose evaluation required *any* concrete fallback is dropped
/// wholesale (the completeness flags still record the incompleteness), so
/// the search never forces a branch based on a half-concrete predicate.
pub fn eval_predicate(
    cond: &Expr,
    view: &dyn MemView,
    sym: &SymMemory,
    flags: &mut Completeness,
) -> Option<Constraint> {
    // Evaluate under fresh local flags so taint from *this* condition is
    // detectable even when a flag was already cleared earlier in the run;
    // then merge into the run-wide flags.
    let mut local = Completeness::new();
    let (value, rel) = match cond {
        Expr::Binary(op, l, r) if op.is_comparison() => {
            let a = eval(l, view, sym, &mut local);
            let b = eval(r, view, sym, &mut local);
            let rel = match op {
                BinOp::Eq => RelOp::Eq,
                BinOp::Ne => RelOp::Ne,
                BinOp::Lt => RelOp::Lt,
                BinOp::Le => RelOp::Le,
                BinOp::Gt => RelOp::Gt,
                BinOp::Ge => RelOp::Ge,
                _ => unreachable!("guarded by is_comparison"),
            };
            (sub(a, b), rel)
        }
        Expr::Unary(UnOp::Not, inner) => {
            return eval_predicate(inner, view, sym, flags).map(|mut c| {
                c.op = c.op.negated();
                c
            });
        }
        _ => (eval(cond, view, sym, &mut local), RelOp::Ne),
    };
    flags.all_linear &= local.all_linear;
    flags.all_locs_definite &= local.all_locs_definite;
    match value {
        Val::Form(form) if local.holds() => Some(Constraint::new(form, rel)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_ram::Fault;
    use dart_solver::Var;
    use std::collections::HashMap;

    struct FakeMem {
        cells: HashMap<i64, i64>,
    }

    impl MemView for FakeMem {
        fn load(&self, addr: i64) -> Result<i64, Fault> {
            self.cells
                .get(&addr)
                .copied()
                .ok_or(Fault::OutOfBounds { addr })
        }
        fn frame_base(&self) -> i64 {
            100
        }
    }

    /// State: inputs x at 100 (=7) and y at 101 (=9); plain cell 102 (=5).
    fn setup() -> (FakeMem, SymMemory, Var, Var) {
        let mem = FakeMem {
            cells: [(100, 7), (101, 9), (102, 5), (103, 101)]
                .into_iter()
                .collect(),
        };
        let mut sym = SymMemory::new();
        let x = sym.bind_input(100);
        let y = sym.bind_input(101);
        (mem, sym, x, y)
    }

    fn load(addr: i64) -> Expr {
        Expr::load(Expr::Const(addr))
    }

    #[test]
    fn input_reads_are_symbolic() {
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let v = eval_symbolic(&load(100), &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::var(x));
        assert!(flags.holds());
    }

    #[test]
    fn untracked_reads_are_concrete() {
        let (mem, sym, _, _) = setup();
        let mut flags = Completeness::new();
        let v = eval_symbolic(&load(102), &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::constant_expr(5));
        assert!(flags.holds());
    }

    #[test]
    fn linear_combination_paper_f() {
        // The paper's f(x) = 2 * x: expression 2 * M[100] -> 2x.
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let e = Expr::binary(BinOp::Mul, Expr::Const(2), load(100));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::var(x).scaled(2));
        assert!(flags.all_linear);
    }

    #[test]
    fn nonlinear_multiplication_falls_back_per_node() {
        // x*y + z where z is untracked: becomes 63 + 5 = constant 68 overall,
        // but the key check is all_linear cleared and value == concrete.
        let (mem, sym, _, _) = setup();
        let mut flags = Completeness::new();
        let e = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, load(100), load(101)),
            load(102),
        );
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::constant_expr(7 * 9 + 5));
        assert!(!flags.all_linear);
        assert!(flags.all_locs_definite);
    }

    #[test]
    fn nonlinear_node_keeps_sibling_symbolic() {
        // (x*y) + x: the mul node falls back to 63 but x stays symbolic.
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let e = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, load(100), load(101)),
            load(100),
        );
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::var(x).offset(63));
        assert!(!flags.all_linear);
    }

    #[test]
    fn constant_times_symbolic_either_side() {
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        // Symbolic on the left of the constant.
        let e = Expr::binary(BinOp::Mul, load(100), Expr::Const(3));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::var(x).scaled(3));
        // Symbolic on the right of the constant.
        let e = Expr::binary(BinOp::Mul, Expr::Const(-2), load(100));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::var(x).scaled(-2));
        assert!(flags.all_linear);
    }

    #[test]
    fn input_dependent_dereference_clears_flag() {
        // M[M[103]]: cell 103 holds 101 (concrete, fine). M[M[100]]: address
        // depends on input x -> fallback + all_locs_definite cleared.
        let (mem, sym, _, y) = setup();
        let mut flags = Completeness::new();
        let e = Expr::load(load(103));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        // Address 101 is input y: symbolic!
        assert_eq!(v, LinExpr::var(y));
        assert!(flags.holds());

        let e = Expr::load(load(100));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        // Concrete fallback: M[7] is unmapped -> placeholder 0 (machine
        // would fault here anyway).
        assert_eq!(v, LinExpr::constant_expr(0));
        assert!(!flags.all_locs_definite);
    }

    #[test]
    fn bitnot_is_linear() {
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let e = Expr::unary(UnOp::BitNot, load(100));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::var(x).scaled(-1).offset(-1));
        assert!(flags.holds());
        // Semantics check: ~7 == -8 == -x-1 at x=7.
        assert_eq!(v.eval_with(|_| Some(7)), -8);
    }

    #[test]
    fn neg_is_linear() {
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let e = Expr::unary(UnOp::Neg, load(100));
        assert_eq!(
            eval_symbolic(&e, &mem, &sym, &mut flags),
            LinExpr::var(x).scaled(-1)
        );
        assert!(flags.holds());
    }

    #[test]
    fn division_by_symbolic_falls_back() {
        let (mem, sym, _, _) = setup();
        let mut flags = Completeness::new();
        let e = Expr::binary(BinOp::Div, Expr::Const(100), load(100));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::constant_expr(100 / 7));
        assert!(!flags.all_linear);
    }

    #[test]
    fn comparison_as_value_falls_back() {
        let (mem, sym, _, _) = setup();
        let mut flags = Completeness::new();
        let e = Expr::binary(BinOp::Lt, load(100), load(101));
        let v = eval_symbolic(&e, &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::constant_expr(1)); // 7 < 9
        assert!(!flags.all_linear);
    }

    #[test]
    fn symbolic_store_propagates_through_s() {
        // z = y; then x == z should relate x and y (paper §2.4).
        let (mem, mut sym, x, y) = setup();
        let mut flags = Completeness::new();
        let z_val = eval_symbolic(&load(101), &mem, &sym, &mut flags);
        sym.set(102, z_val); // z lives at 102
        let pred = eval_predicate(
            &Expr::binary(BinOp::Eq, load(100), load(102)),
            &mem,
            &sym,
            &mut flags,
        )
        .expect("symbolic predicate");
        // Predicate: x - y == 0.
        assert_eq!(pred.expr, LinExpr::var(x).sub(&LinExpr::var(y)));
        assert_eq!(pred.op, RelOp::Eq);
    }

    #[test]
    fn predicate_extraction_all_ops() {
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let cases = [
            (BinOp::Eq, RelOp::Eq),
            (BinOp::Ne, RelOp::Ne),
            (BinOp::Lt, RelOp::Lt),
            (BinOp::Le, RelOp::Le),
            (BinOp::Gt, RelOp::Gt),
            (BinOp::Ge, RelOp::Ge),
        ];
        for (bop, rop) in cases {
            let cond = Expr::binary(bop, load(100), Expr::Const(10));
            let pred = eval_predicate(&cond, &mem, &sym, &mut flags).unwrap();
            assert_eq!(pred.op, rop);
            assert_eq!(pred.expr, LinExpr::var(x).offset(-10));
        }
        assert!(flags.holds());
    }

    #[test]
    fn concrete_condition_yields_no_predicate() {
        let (mem, sym, _, _) = setup();
        let mut flags = Completeness::new();
        let cond = Expr::binary(BinOp::Lt, Expr::Const(1), Expr::Const(2));
        assert_eq!(eval_predicate(&cond, &mem, &sym, &mut flags), None);
    }

    #[test]
    fn nonlinear_condition_yields_no_predicate_foobar() {
        // The paper's foobar: if (x*x*x > 0) — non-linear, so no constraint
        // is generated, but all_linear is cleared.
        let (mem, sym, _, _) = setup();
        let mut flags = Completeness::new();
        let xxx = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Mul, load(100), load(100)),
            load(100),
        );
        let cond = Expr::binary(BinOp::Gt, xxx, Expr::Const(0));
        assert_eq!(eval_predicate(&cond, &mem, &sym, &mut flags), None);
        assert!(!flags.all_linear);
    }

    #[test]
    fn negated_condition_predicate() {
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let cond = Expr::unary(
            UnOp::Not,
            Expr::binary(BinOp::Eq, load(100), Expr::Const(3)),
        );
        let pred = eval_predicate(&cond, &mem, &sym, &mut flags).unwrap();
        assert_eq!(pred.op, RelOp::Ne);
        assert_eq!(pred.expr, LinExpr::var(x).offset(-3));
    }

    #[test]
    fn bare_symbolic_condition_is_ne_zero() {
        // if (x) … records x != 0.
        let (mem, sym, x, _) = setup();
        let mut flags = Completeness::new();
        let pred = eval_predicate(&load(100), &mem, &sym, &mut flags).unwrap();
        assert_eq!(pred, Constraint::new(LinExpr::var(x), RelOp::Ne));
    }

    /// A form whose terms cancel is a constant, but not necessarily the
    /// machine's value: here `S` holds a saturated `x + MAX` where the
    /// machine wrapped to `x + MIN`. A load through the difference reads
    /// `M` where the machine does, not at the folded address.
    #[test]
    fn cancelled_form_address_reads_where_the_machine_does() {
        let (x_val, a, b) = (7i64, 200, 201);
        let mem = FakeMem {
            cells: [
                (a, x_val.wrapping_add(i64::MIN)),
                (b, x_val),
                (i64::MIN, 22),
                (i64::MAX, 11),
            ]
            .into_iter()
            .collect(),
        };
        let mut sym = SymMemory::new();
        let x = sym.bind_input(b);
        sym.set(a, LinExpr::var(x).offset(i64::MAX));
        let diff = Expr::binary(BinOp::Sub, load(a), load(b));
        let mut flags = Completeness::new();
        assert_eq!(
            eval_symbolic(&diff, &mem, &sym, &mut flags),
            LinExpr::constant_expr(i64::MAX)
        );
        let v = eval_symbolic(&Expr::load(diff), &mem, &sym, &mut flags);
        assert_eq!(v, LinExpr::constant_expr(22));
        assert!(flags.holds(), "a cancelled address is definite");
    }

    /// Soundness: on every expressible form, the symbolic value evaluated at
    /// the *current* input values equals the concrete value.
    #[test]
    fn symbolic_generalizes_concrete() {
        let (mem, sym, x, y) = setup();
        let inputs = move |v: Var| {
            Some(if v == x {
                7
            } else if v == y {
                9
            } else {
                0
            })
        };
        let exprs = vec![
            load(100),
            Expr::binary(BinOp::Add, load(100), load(101)),
            Expr::binary(BinOp::Mul, Expr::Const(3), load(101)),
            Expr::binary(BinOp::Sub, load(100), Expr::Const(10)),
            Expr::unary(UnOp::BitNot, load(100)),
            Expr::unary(UnOp::Neg, load(101)),
            Expr::binary(BinOp::Mul, load(100), load(101)), // fallback path
            Expr::binary(BinOp::Div, load(100), Expr::Const(2)), // fallback path
        ];
        for e in exprs {
            let mut flags = Completeness::new();
            let symv = eval_symbolic(&e, &mem, &sym, &mut flags);
            let conc = eval_concrete(&e, &mem).unwrap();
            assert_eq!(symv.eval_with(inputs), conc as i128, "expr {e}");
        }
    }
}
