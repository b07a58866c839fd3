//! Differential test of the one-pass evaluator against the two-pass one
//! it replaced: the `reference` module below is the earlier
//! `eval_symbolic`, `eval_predicate`, `concrete_form` and `constant_of`,
//! copied verbatim, which built a `LinExpr` for every node and evaluated
//! every fallback and definite load through `eval_concrete`.
//!
//! Expressions mix constants at and next to `i64::MIN`/`MAX` (so folds
//! saturate, and the folded and machine addresses of a load part ways),
//! arbitrary words, `FrameBase`, nested loads, loads at computed and
//! faulting addresses, and every operator. Memory holds cells at the
//! extreme addresses too, some of them tracked with forms of extreme
//! coefficients, and evaluation starts from every state of the two
//! completeness flags. Forms, predicates and flags must all be equal.

use dart_ram::{BinOp, Expr, Fault, MemView, UnOp};
use dart_solver::{LinExpr, Var};
use dart_sym::{eval_predicate, eval_symbolic, Completeness, SymMemory};
use proptest::prelude::*;
use std::collections::HashMap;

mod reference {
    use dart_ram::{eval_concrete, BinOp, Expr, MemView, UnOp};
    use dart_solver::{Constraint, LinExpr, RelOp};
    use dart_sym::{Completeness, SymMemory};

    /// Concrete value of `e`, as a constant linear form. Faults yield 0 — the
    /// concrete interpreter will fault on the same expression and terminate the
    /// run, so the placeholder value is never used.
    fn concrete_form(e: &Expr, view: &dyn MemView) -> LinExpr {
        LinExpr::constant_expr(eval_concrete(e, view).unwrap_or(0))
    }

    /// Evaluates `e` to a linear form over input variables (paper Fig. 1).
    ///
    /// `view` is the *concrete* machine state (pre-step), `sym` the symbolic
    /// memory `S`. Non-linear nodes and input-dependent dereferences fall back
    /// to their concrete values, clearing the corresponding flag in `flags`.
    pub fn eval_symbolic(
        e: &Expr,
        view: &dyn MemView,
        sym: &SymMemory,
        flags: &mut Completeness,
    ) -> LinExpr {
        match e {
            Expr::Const(c) => LinExpr::constant_expr(*c),
            Expr::FrameBase => LinExpr::constant_expr(view.frame_base()),
            Expr::Load(addr) => {
                let a = eval_symbolic(addr, view, sym, flags);
                if let Some(c) = constant_of(&a) {
                    // Definite location: S(m) if tracked, else M(m).
                    match sym.get(c) {
                        Some(form) => form.clone(),
                        None => concrete_form(e, view),
                    }
                } else {
                    // Paper: "the program dereferences a pointer whose value
                    // depends on some input parameter" — fall back.
                    flags.all_locs_definite = false;
                    concrete_form(e, view)
                }
            }
            Expr::Unary(op, inner) => {
                let v = eval_symbolic(inner, view, sym, flags);
                match op {
                    UnOp::Neg => v.scaled(-1),
                    // ~x == -x - 1 over two's complement: still linear.
                    UnOp::BitNot => v.scaled(-1).offset(-1),
                    UnOp::Not => {
                        if let Some(c) = constant_of(&v) {
                            LinExpr::constant_expr(i64::from(c == 0))
                        } else {
                            // Logical not of a symbolic value is not linear.
                            flags.all_linear = false;
                            concrete_form(e, view)
                        }
                    }
                }
            }
            Expr::Binary(op, l, r) => {
                let a = eval_symbolic(l, view, sym, flags);
                let b = eval_symbolic(r, view, sym, flags);
                match op {
                    BinOp::Add => a.add(&b),
                    BinOp::Sub => a.sub(&b),
                    BinOp::Mul => match (constant_of(&a), constant_of(&b)) {
                        (Some(ca), Some(cb)) => LinExpr::constant_expr(ca.wrapping_mul(cb)),
                        (Some(ca), None) => b.scaled(ca),
                        (None, Some(cb)) => a.scaled(cb),
                        (None, None) => {
                            // Fig. 1: "if not one of f' or f'' is a constant c
                            // then all_linear = 0, return evaluate_concrete".
                            flags.all_linear = false;
                            concrete_form(e, view)
                        }
                    },
                    BinOp::Div
                    | BinOp::Rem
                    | BinOp::BitAnd
                    | BinOp::BitOr
                    | BinOp::BitXor
                    | BinOp::Shl
                    | BinOp::Shr => match (constant_of(&a), constant_of(&b)) {
                        (Some(ca), Some(cb)) => match dart_ram::apply_binop(*op, ca, cb) {
                            Ok(v) => LinExpr::constant_expr(v),
                            Err(_) => concrete_form(e, view),
                        },
                        _ => {
                            flags.all_linear = false;
                            concrete_form(e, view)
                        }
                    },
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        // A comparison used as a *value* (e.g. `b = (x < y)`)
                        // yields 0/1 — not linear in the inputs.
                        match (constant_of(&a), constant_of(&b)) {
                            (Some(ca), Some(cb)) => {
                                let v = dart_ram::apply_binop(*op, ca, cb)
                                    .expect("comparisons cannot fault");
                                LinExpr::constant_expr(v)
                            }
                            _ => {
                                flags.all_linear = false;
                                concrete_form(e, view)
                            }
                        }
                    }
                }
            }
        }
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
        match cond {
            Expr::Binary(op, l, r) if op.is_comparison() => {
                // Evaluate under fresh local flags so taint from *this*
                // condition is detectable even when a flag was already cleared
                // earlier in the run; then merge into the run-wide flags.
                let mut local = Completeness::new();
                let a = eval_symbolic(l, view, sym, &mut local);
                let b = eval_symbolic(r, view, sym, &mut local);
                flags.all_linear &= local.all_linear;
                flags.all_locs_definite &= local.all_locs_definite;
                if !local.holds() {
                    return None;
                }
                let diff = a.sub(&b);
                if diff.is_constant() {
                    return None;
                }
                let rel = match op {
                    BinOp::Eq => RelOp::Eq,
                    BinOp::Ne => RelOp::Ne,
                    BinOp::Lt => RelOp::Lt,
                    BinOp::Le => RelOp::Le,
                    BinOp::Gt => RelOp::Gt,
                    BinOp::Ge => RelOp::Ge,
                    _ => unreachable!("guarded by is_comparison"),
                };
                Some(Constraint::new(diff, rel))
            }
            Expr::Unary(UnOp::Not, inner) => {
                eval_predicate(inner, view, sym, flags).map(|c| c.negated())
            }
            _ => {
                let mut local = Completeness::new();
                let v = eval_symbolic(cond, view, sym, &mut local);
                flags.all_linear &= local.all_linear;
                flags.all_locs_definite &= local.all_locs_definite;
                if !local.holds() || v.is_constant() {
                    None
                } else {
                    Some(Constraint::new(v, RelOp::Ne))
                }
            }
        }
    }

    /// `Some(c)` iff the form has no variables.
    fn constant_of(e: &LinExpr) -> Option<i64> {
        if e.is_constant() {
            Some(e.constant())
        } else {
            None
        }
    }
}

/// The frame base, just below the cells a frame-relative load reads.
const FRAME: i64 = 1000;

/// Every address that holds a cell: a frame's worth of slots, and the
/// extreme addresses a saturated or wrapped fold lands on.
const ADDRS: [i64; 16] = [
    FRAME,
    FRAME + 1,
    FRAME + 2,
    FRAME + 3,
    i64::MIN,
    i64::MIN + 1,
    i64::MAX,
    i64::MAX - 1,
    -2,
    -1,
    1,
    2,
    0x1000,
    0x1001,
    0x1_0000_0000,
    0x100_0000_0000,
];

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
        FRAME
    }
}

/// Words that make folds overflow, land on cells, or do neither.
fn word() -> BoxedStrategy<i64> {
    prop_oneof![
        3 => prop_oneof![
            Just(i64::MIN),
            Just(i64::MIN + 1),
            Just(i64::MIN + 2),
            Just(i64::MAX),
            Just(i64::MAX - 1),
            Just(i64::MAX - 2),
        ],
        3 => (0..ADDRS.len()).prop_map(|i| ADDRS[i]),
        3 => -4i64..=4,
        1 => any::<i64>(),
    ]
    .boxed()
}

fn binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::BitAnd),
        Just(BinOp::BitOr),
        Just(BinOp::BitXor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
    ]
}

fn unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![Just(UnOp::Neg), Just(UnOp::Not), Just(UnOp::BitNot)]
}

/// Expressions over constants, the frame base and loads: at a cell, at a
/// frame slot, and at any computed (possibly faulting) address.
fn ram_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        3 => word().prop_map(Expr::Const),
        1 => Just(Expr::FrameBase),
        3 => (0..ADDRS.len()).prop_map(|i| Expr::load(Expr::Const(ADDRS[i]))),
        2 => (0u32..4).prop_map(Expr::local),
    ];
    leaf.prop_recursive(5, 32, 2, |inner| {
        prop_oneof![
            2 => inner.clone().prop_map(Expr::load),
            // A load through a difference, which cancels when both sides
            // read cells of the same terms.
            1 => (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::load(Expr::binary(BinOp::Sub, l, r))),
            2 => (unop(), inner.clone()).prop_map(|(op, e)| Expr::unary(op, e)),
            5 => (binop(), inner.clone(), inner.clone())
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
        ]
    })
}

/// A non-constant form over the first four inputs. Two times in three it
/// takes one of three fixed term lists, so cells often share their terms
/// and a difference of two loads cancels to a constant (`x - x`).
fn form() -> impl Strategy<Value = LinExpr> {
    const SHAPES: [&[(u32, i64)]; 3] = [
        &[(0, 1)],
        &[(1, -2), (2, 1)],
        &[(0, i64::MIN), (3, i64::MAX)],
    ];
    let shared = (0..SHAPES.len(), word()).prop_map(|(shape, k)| {
        LinExpr::from_terms(SHAPES[shape].iter().map(|&(v, c)| (Var(v), c)), k)
    });
    let random = (
        0u32..4,
        word(),
        proptest::collection::vec((0u32..4, word()), 0..3),
        word(),
    )
        .prop_map(|(v, c, rest, k)| {
            let mut f = LinExpr::from_terms(rest.into_iter().map(|(v, c)| (Var(v), c)), k);
            // At least one term survives whatever `rest` cancelled.
            if f.is_constant() {
                f = f.add(&LinExpr::var(Var(v)).scaled(c.max(1)));
            }
            f
        });
    prop_oneof![2 => shared, 1 => random]
}

/// Cell values at every address of `ADDRS`, and which of them `S` tracks.
fn state() -> impl Strategy<Value = (Vec<i64>, Vec<Option<LinExpr>>)> {
    (
        proptest::collection::vec(word(), ADDRS.len()),
        proptest::collection::vec(prop_oneof![Just(None), form().prop_map(Some)], ADDRS.len()),
    )
}

fn build((values, tracked): (Vec<i64>, Vec<Option<LinExpr>>)) -> (FakeMem, SymMemory) {
    let mem = FakeMem {
        cells: ADDRS.iter().copied().zip(values).collect(),
    };
    let mut sym = SymMemory::new();
    for (&addr, form) in ADDRS.iter().zip(tracked) {
        if let Some(form) = form {
            sym.set(addr, form);
        }
    }
    (mem, sym)
}

fn flags((all_linear, all_locs_definite): (bool, bool)) -> Completeness {
    Completeness {
        all_linear,
        all_locs_definite,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn one_pass_forms_and_flags_match_the_reference(
        e in ram_expr(),
        st in state(),
        start in (any::<bool>(), any::<bool>()),
    ) {
        let (mem, sym) = build(st);
        let (mut want_flags, mut got_flags) = (flags(start), flags(start));
        let want = reference::eval_symbolic(&e, &mem, &sym, &mut want_flags);
        let got = eval_symbolic(&e, &mem, &sym, &mut got_flags);
        prop_assert_eq!(&got, &want, "expr {}", e);
        prop_assert_eq!(got_flags, want_flags, "expr {}", e);
    }

    #[test]
    fn one_pass_predicates_and_flags_match_the_reference(
        e in ram_expr(),
        negate in any::<bool>(),
        st in state(),
        start in (any::<bool>(), any::<bool>()),
    ) {
        let cond = if negate { Expr::unary(UnOp::Not, e) } else { e };
        let (mem, sym) = build(st);
        let (mut want_flags, mut got_flags) = (flags(start), flags(start));
        let want = reference::eval_predicate(&cond, &mem, &sym, &mut want_flags);
        let got = eval_predicate(&cond, &mem, &sym, &mut got_flags);
        prop_assert_eq!(&got, &want, "cond {}", cond);
        prop_assert_eq!(got_flags, want_flags, "cond {}", cond);
    }
}
