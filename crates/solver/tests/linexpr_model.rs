//! `LinExpr` against a reference model.
//!
//! The model is a `BTreeMap` from variable to coefficient plus a
//! constant, with the saturating arithmetic `LinExpr` promises. Random
//! sequences of constructors and operations run on both, with
//! coefficients and constants at and near `i64::MIN` and `i64::MAX`, and
//! every observation must agree: term order, coefficients, evaluation,
//! `Display`, equality and hashing.

use dart_solver::{LinExpr, Var};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

const NUM_VARS: u32 = 6;

#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    terms: BTreeMap<Var, i64>,
    constant: i64,
}

impl Model {
    fn constant_expr(constant: i64) -> Model {
        Model {
            terms: BTreeMap::new(),
            constant,
        }
    }

    fn var(v: Var) -> Model {
        Model {
            terms: BTreeMap::from([(v, 1)]),
            constant: 0,
        }
    }

    fn from_terms(terms: &[(Var, i64)], constant: i64) -> Model {
        let mut m = Model::constant_expr(constant);
        for &(v, c) in terms {
            m.add_term(v, c);
        }
        m
    }

    fn add_term(&mut self, v: Var, c: i64) {
        if c == 0 {
            return;
        }
        let entry = self.terms.entry(v).or_insert(0);
        *entry = entry.saturating_add(c);
        if *entry == 0 {
            self.terms.remove(&v);
        }
    }

    fn add(&self, other: &Model) -> Model {
        let mut out = self.clone();
        for (&v, &c) in &other.terms {
            out.add_term(v, c);
        }
        out.constant = out.constant.saturating_add(other.constant);
        out
    }

    fn sub(&self, other: &Model) -> Model {
        self.add(&other.scaled(-1))
    }

    fn scaled(&self, k: i64) -> Model {
        if k == 0 {
            return Model::default();
        }
        Model {
            terms: self
                .terms
                .iter()
                .map(|(&v, &c)| (v, c.saturating_mul(k)))
                .collect(),
            constant: self.constant.saturating_mul(k),
        }
    }

    fn offset(&self, c: i64) -> Model {
        Model {
            terms: self.terms.clone(),
            constant: self.constant.saturating_add(c),
        }
    }

    /// The exact value, clamped to `i128`. Each value splits as
    /// `hi * 2^32 + lo` with `0 <= lo < 2^32`, which keeps both partial
    /// sums far inside `i128`.
    fn eval(&self, values: &[Option<i64>]) -> i128 {
        let (mut hi, mut lo) = (0i128, i128::from(self.constant));
        for (&v, &c) in &self.terms {
            let x = values[v.index()].unwrap_or(0);
            hi += i128::from(c) * i128::from(x >> 32);
            lo += i128::from(c) * i128::from(x & 0xFFFF_FFFF);
        }
        // value = hi * 2^32 + lo, renormalized so that 0 <= lo < 2^32.
        let hi = hi + (lo >> 32);
        let lo = lo & 0xFFFF_FFFF;
        if hi >= 1 << 95 {
            i128::MAX
        } else if hi < -(1 << 95) {
            i128::MIN
        } else {
            (hi << 32) + lo
        }
    }

    /// `2*x0 - x3 + 7`-style rendering: unit coefficients are implicit,
    /// and zero constants are omitted unless nothing else is printed.
    fn render(&self) -> String {
        let mut out = String::new();
        for (&v, &c) in &self.terms {
            let sign = match (out.is_empty(), c < 0) {
                (true, false) => "",
                (true, true) => "-",
                (false, false) => " + ",
                (false, true) => " - ",
            };
            out.push_str(sign);
            match c.unsigned_abs() {
                1 => out.push_str(&v.to_string()),
                mag => out.push_str(&format!("{mag}*{v}")),
            }
        }
        if out.is_empty() {
            return self.constant.to_string();
        }
        if self.constant > 0 {
            out.push_str(&format!(" + {}", self.constant));
        } else if self.constant < 0 {
            out.push_str(&format!(" - {}", self.constant.unsigned_abs()));
        }
        out
    }
}

/// One constructor or operation; `usize` operands index the pool of
/// values built so far, modulo its length.
#[derive(Debug, Clone)]
enum Op {
    Var(u32),
    Constant(i64),
    FromTerms(Vec<(u32, i64)>, i64),
    AddTerm(usize, u32, i64),
    Add(usize, usize),
    Sub(usize, usize),
    Scaled(usize, i64),
    Offset(usize, i64),
}

/// Coefficients and constants: the identities, small values that cancel
/// often, the saturation boundaries, and anything else.
fn coeff() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(1i64),
        Just(-1i64),
        -4i64..=4,
        i64::MIN..=i64::MIN + 2,
        i64::MAX - 2..=i64::MAX,
        any::<i64>(),
    ]
}

fn var() -> impl Strategy<Value = u32> {
    0..NUM_VARS
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        var().prop_map(Op::Var),
        coeff().prop_map(Op::Constant),
        (vec((var(), coeff()), 0..6), coeff()).prop_map(|(terms, k)| Op::FromTerms(terms, k)),
        3 => (any::<usize>(), var(), coeff()).prop_map(|(i, v, c)| Op::AddTerm(i, v, c)),
        3 => (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::Add(i, j)),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::Sub(i, j)),
        2 => (any::<usize>(), coeff()).prop_map(|(i, k)| Op::Scaled(i, k)),
        2 => (any::<usize>(), coeff()).prop_map(|(i, k)| Op::Offset(i, k)),
    ]
}

fn hash_of(e: &LinExpr) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// Every observation of `e` agrees with its model `m`.
fn check(e: &LinExpr, m: &Model, values: &[Option<i64>]) -> Result<(), TestCaseError> {
    let terms: Vec<(Var, i64)> = m.terms.iter().map(|(&v, &c)| (v, c)).collect();
    prop_assert_eq!(e.iter().collect::<Vec<_>>(), terms.clone());
    prop_assert_eq!(
        e.vars().collect::<Vec<_>>(),
        m.terms.keys().copied().collect::<Vec<_>>()
    );
    for v in (0..NUM_VARS).map(Var) {
        prop_assert_eq!(e.coeff(v), m.terms.get(&v).copied().unwrap_or(0));
    }
    prop_assert_eq!(e.num_vars(), m.terms.len());
    prop_assert_eq!(e.is_constant(), m.terms.is_empty());
    prop_assert_eq!(e.constant(), m.constant);
    prop_assert_eq!(e.eval_with(|v| values[v.index()]), m.eval(values));
    prop_assert_eq!(e.to_string(), m.render());
    // The same value built another way, inserting every term in front.
    let rebuilt = LinExpr::from_terms(terms.into_iter().rev(), m.constant);
    prop_assert_eq!(&rebuilt, e);
    prop_assert_eq!(hash_of(&rebuilt), hash_of(e));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn linexpr_matches_btreemap_model(
        ops in vec(op(), 1..40),
        values in vec(proptest::option::of(coeff()), NUM_VARS as usize),
    ) {
        let mut pool = vec![(LinExpr::zero(), Model::default())];
        for op in ops {
            let len = pool.len();
            let pick = |i: usize| &pool[i % len];
            let next = match op {
                Op::Var(v) => (LinExpr::var(Var(v)), Model::var(Var(v))),
                Op::Constant(c) => (LinExpr::constant_expr(c), Model::constant_expr(c)),
                Op::FromTerms(terms, k) => {
                    let terms: Vec<(Var, i64)> =
                        terms.into_iter().map(|(v, c)| (Var(v), c)).collect();
                    (
                        LinExpr::from_terms(terms.iter().copied(), k),
                        Model::from_terms(&terms, k),
                    )
                }
                Op::AddTerm(i, v, c) => {
                    let (e, m) = &mut pool[i % len];
                    e.add_term(Var(v), c);
                    m.add_term(Var(v), c);
                    continue;
                }
                Op::Add(i, j) => {
                    let ((a, ma), (b, mb)) = (pick(i), pick(j));
                    (a.add(b), ma.add(mb))
                }
                Op::Sub(i, j) => {
                    let ((a, ma), (b, mb)) = (pick(i), pick(j));
                    (a.sub(b), ma.sub(mb))
                }
                Op::Scaled(i, k) => {
                    let (a, ma) = pick(i);
                    (a.scaled(k), ma.scaled(k))
                }
                Op::Offset(i, k) => {
                    let (a, ma) = pick(i);
                    (a.offset(k), ma.offset(k))
                }
            };
            pool.push(next);
        }
        for (e, m) in &pool {
            check(e, m, &values)?;
        }
        // Equal models, and only those, give equal expressions.
        for (a, ma) in &pool {
            for (b, mb) in &pool {
                prop_assert_eq!(a == b, ma == mb, "{} vs {}", a, b);
                if a == b {
                    prop_assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }
}
