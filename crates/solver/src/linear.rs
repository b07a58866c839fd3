//! Linear expressions over solver variables with `i64` coefficients.
//!
//! DART's symbolic layer only ever produces *linear* forms (everything else
//! falls back to concrete evaluation — the `all_linear` completeness flag of
//! the paper), so a linear expression plus a relational operator is the whole
//! constraint language.

use std::cmp::Ordering;
use std::fmt;

/// A solver variable, identified by a dense index.
///
/// In DART, every variable corresponds to one *input memory location* (§3.1
/// of the paper: "inputs to a C program are defined as memory locations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `sum(coeff_i * var_i) + constant` with exact `i64`
/// coefficients.
///
/// The terms are a flat vector kept sorted by variable, with at most one
/// entry per variable and never a zero coefficient. Equality, hashing,
/// iteration and `Display` therefore all see one canonical term order.
///
/// # Examples
///
/// ```
/// use dart_solver::linear::{LinExpr, Var};
///
/// // 2*x0 - x1 + 7
/// let e = LinExpr::var(Var(0)).scaled(2).add(&LinExpr::var(Var(1)).scaled(-1)).offset(7);
/// assert_eq!(e.coeff(Var(0)), 2);
/// assert_eq!(e.constant(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    terms: Vec<(Var, i64)>,
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant_expr(c: i64) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable with coefficient 1.
    pub fn var(v: Var) -> LinExpr {
        LinExpr {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// Builds an expression from `(var, coeff)` pairs and a constant.
    /// Zero coefficients are dropped; duplicate variables are summed.
    pub fn from_terms<I: IntoIterator<Item = (Var, i64)>>(iter: I, constant: i64) -> LinExpr {
        let mut e = LinExpr::constant_expr(constant);
        for (v, c) in iter {
            e.add_term(v, c);
        }
        e
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> i64 {
        self.position(v).map_or(0, |i| self.terms[i].1)
    }

    /// The constant term.
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// Whether the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over `(var, coeff)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.terms.iter().copied()
    }

    /// The `(var, coeff)` terms in variable order, as a slice.
    pub(crate) fn terms(&self) -> &[(Var, i64)] {
        &self.terms
    }

    /// The set of variables mentioned, in order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Where `v`'s term is (`Ok`) or would be inserted (`Err`).
    fn position(&self, v: Var) -> Result<usize, usize> {
        self.terms.binary_search_by_key(&v, |&(u, _)| u)
    }

    /// Adds `coeff * v` in place, dropping the term if it cancels to zero.
    /// Saturates on `i64` overflow (overflowed constraints are later caught by
    /// the exact simplex as `Unknown`; saturation merely keeps this type total).
    pub fn add_term(&mut self, v: Var, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match self.position(v) {
            Ok(i) => match self.terms[i].1.saturating_add(coeff) {
                0 => {
                    self.terms.remove(i);
                }
                c => self.terms[i].1 = c,
            },
            Err(i) => self.terms.insert(i, (v, coeff)),
        }
    }

    /// Returns `self + other`: one merge of the two sorted term vectors.
    #[must_use]
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let (a, b) = (&self.terms, &other.terms);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let ((va, ca), (vb, cb)) = (a[i], b[j]);
            match va.cmp(&vb) {
                Ordering::Less => {
                    terms.push((va, ca));
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push((vb, cb));
                    j += 1;
                }
                Ordering::Equal => {
                    let c = ca.saturating_add(cb);
                    if c != 0 {
                        terms.push((va, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&a[i..]);
        terms.extend_from_slice(&b[j..]);
        LinExpr {
            terms,
            constant: self.constant.saturating_add(other.constant),
        }
    }

    /// Returns `self - other`.
    #[must_use]
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scaled(-1))
    }

    /// Returns `self * k`.
    #[must_use]
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        // A product of two nonzero factors is nonzero, saturated or not.
        let terms = self
            .terms
            .iter()
            .map(|&(v, c)| (v, c.saturating_mul(k)))
            .collect();
        LinExpr {
            terms,
            constant: self.constant.saturating_mul(k),
        }
    }

    /// Returns `self * k`, reusing `self`'s terms: [`LinExpr::scaled`]
    /// without the copy.
    #[must_use]
    pub fn into_scaled(mut self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        for (_, c) in &mut self.terms {
            *c = c.saturating_mul(k);
        }
        self.constant = self.constant.saturating_mul(k);
        self
    }

    /// Returns `self + c`.
    #[must_use]
    pub fn offset(&self, c: i64) -> LinExpr {
        let mut out = self.clone();
        out.add_constant(c);
        out
    }

    /// Adds `c` to the constant term in place: [`LinExpr::offset`]
    /// without the copy. Saturates like every other operation here.
    pub fn add_constant(&mut self, c: i64) {
        self.constant = self.constant.saturating_add(c);
    }

    /// Evaluates the expression under an assignment, as `i128` to avoid
    /// intermediate overflow; variables absent from `lookup` evaluate as 0.
    /// A value outside the `i128` range (two or more near-extreme terms)
    /// clamps to `i128::MIN` or `i128::MAX`, so its sign stays exact.
    pub fn eval_with<F: Fn(Var) -> Option<i64>>(&self, lookup: F) -> i128 {
        eval_terms(
            self.constant,
            self.iter().map(|(v, c)| (c, lookup(v).unwrap_or(0))),
        )
    }
}

/// `constant + Σ coeff · value` over `(coeff, value)` pairs, in `i128` and
/// clamped as [`LinExpr::eval_with`] documents. Shared by every evaluator
/// that reads values some other way than through a `Var` lookup (the
/// model pool's slots, a prefix session's dense numbering), so they all
/// compute the same value.
pub(crate) fn eval_terms(constant: i64, terms: impl Iterator<Item = (i64, i64)>) -> i128 {
    // Every product is below 2^127 in magnitude, so the exact value is
    // `acc + wraps * 2^128`.
    let mut acc = i128::from(constant);
    let mut wraps: i64 = 0;
    for (c, x) in terms {
        let term = i128::from(c) * i128::from(x);
        let (sum, wrapped) = acc.overflowing_add(term);
        if wrapped {
            wraps += if term > 0 { 1 } else { -1 };
        }
        acc = sum;
    }
    match wraps.cmp(&0) {
        Ordering::Less => i128::MIN,
        Ordering::Equal => acc,
        Ordering::Greater => i128::MAX,
    }
}

/// A `HashMap` keyed by [`Var`] that hashes with one multiply instead of
/// SipHash, for the solver's dense numberings (a prefix session's, a
/// component's), which look variables up on every query. Their variables
/// come from path constraints, whose numbers are input-tape indices, not
/// from outside text; the model pool, whose variables a checkpoint names,
/// hashes nothing.
pub(crate) type VarMap<V> = std::collections::HashMap<Var, V, BuildVarHasher>;

/// Builds [`VarHasher`]s for [`VarMap`].
pub(crate) type BuildVarHasher = std::hash::BuildHasherDefault<VarHasher>;

/// Fibonacci hashing of a `Var`'s number. The product's low bits depend
/// only on the number's low bits, and `HashMap` picks a bucket from the
/// low bits, so `finish` folds the high half, which mixes every bit of
/// the number, into the low half: numbers that differ only in high bits
/// (multiples of 1024, say) still spread over the buckets.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct VarHasher(u64);

impl std::hash::Hasher for VarHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", c.unsigned_abs())?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", self.constant.unsigned_abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Var {
        Var(0)
    }
    fn y() -> Var {
        Var(1)
    }

    /// Numbers that share their low bits still land in many buckets: a
    /// `HashMap` of 64 entries picks one by the hash's low 6 bits or so.
    #[test]
    fn var_hashes_spread_numbers_that_share_low_bits() {
        use std::hash::BuildHasher;
        let buckets: std::collections::BTreeSet<u64> = (0..64u32)
            .map(|k| BuildVarHasher::default().hash_one(Var(k << 10)) & 63)
            .collect();
        assert!(buckets.len() >= 32, "{} of 64 buckets", buckets.len());
    }

    #[test]
    fn var_and_constant() {
        let e = LinExpr::var(x()).offset(3);
        assert_eq!(e.coeff(x()), 1);
        assert_eq!(e.coeff(y()), 0);
        assert_eq!(e.constant(), 3);
        assert!(!e.is_constant());
        assert!(LinExpr::constant_expr(9).is_constant());
    }

    #[test]
    fn cancellation_drops_terms() {
        let e = LinExpr::var(x()).sub(&LinExpr::var(x()));
        assert!(e.is_constant());
        assert_eq!(e.num_vars(), 0);
    }

    #[test]
    fn from_terms_sums_duplicates() {
        let e = LinExpr::from_terms([(x(), 2), (x(), 3), (y(), 0)], -1);
        assert_eq!(e.coeff(x()), 5);
        assert_eq!(e.num_vars(), 1);
        assert_eq!(e.constant(), -1);
    }

    #[test]
    fn scaling() {
        let e = LinExpr::from_terms([(x(), 2), (y(), -1)], 4).scaled(-3);
        assert_eq!(e.coeff(x()), -6);
        assert_eq!(e.coeff(y()), 3);
        assert_eq!(e.constant(), -12);
        assert_eq!(e.scaled(0), LinExpr::zero());
    }

    #[test]
    fn in_place_forms_match_the_copying_ones() {
        let extremes = [
            i64::MIN,
            i64::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i64::MAX - 1,
            i64::MAX,
        ];
        for &a in &extremes {
            for &k in &extremes {
                let e = LinExpr::from_terms([(x(), a), (y(), 3)], a);
                assert_eq!(e.clone().into_scaled(k), e.scaled(k), "{e} * {k}");
                let mut shifted = e.clone();
                shifted.add_constant(k);
                assert_eq!(shifted, e.offset(k), "{e} + {k}");
            }
        }
    }

    #[test]
    fn evaluation() {
        let e = LinExpr::from_terms([(x(), 2), (y(), -1)], 10);
        let val = e.eval_with(|v| if v == x() { Some(3) } else { Some(4) });
        assert_eq!(val, 2 * 3 - 4 + 10);
        // Missing variables default to 0.
        assert_eq!(e.eval_with(|_| None), 10);
        // Two products of 2^126 leave i128 and clamp; two of -2^126 + 2^63
        // stay inside and three do not; a third product of opposite sign
        // brings the first sum back inside.
        let (min, max) = (|_| Some(i64::MIN), |_| Some(i64::MAX));
        let two = LinExpr::from_terms([(x(), i64::MIN), (y(), i64::MIN)], 0);
        assert_eq!(two.eval_with(min), i128::MAX);
        assert_eq!(two.eval_with(max), i128::MIN + (1 << 64));
        let with_third =
            |c| LinExpr::from_terms([(x(), i64::MIN), (y(), i64::MIN), (Var(2), c)], 0);
        assert_eq!(with_third(i64::MIN).eval_with(max), i128::MIN);
        assert_eq!(with_third(i64::MAX).eval_with(min), (1 << 126) + (1 << 63));
    }

    #[test]
    fn display_formatting() {
        let e = LinExpr::from_terms([(x(), 1), (y(), -2)], -7);
        assert_eq!(e.to_string(), "x0 - 2*x1 - 7");
        assert_eq!(LinExpr::constant_expr(0).to_string(), "0");
        assert_eq!(LinExpr::var(y()).scaled(-1).to_string(), "-x1");
        let extreme = LinExpr::from_terms([(x(), 1), (y(), i64::MIN)], i64::MIN);
        assert_eq!(
            extreme.to_string(),
            "x0 - 9223372036854775808*x1 - 9223372036854775808"
        );
    }
}
