//! Path constraints and per-branch records.
//!
//! A run's path constraint is the conjunction of the symbolic branch
//! predicates observed, in execution order (paper §2.1). Alongside it the
//! driver keeps one [`BranchRecord`] per *symbolic* conditional — the
//! paper's `stack` of `(branch, done)` pairs (Fig. 3/4) that directs the
//! search between runs.

use dart_solver::Constraint;
use std::fmt;

/// One record per executed symbolic conditional — the paper's
/// `stack[i] = (stack[i].branch, stack[i].done)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRecord {
    /// Which way the conditional went (`true` = then-branch).
    pub branch: bool,
    /// Whether both sides of this conditional (with the same prefix) have
    /// been explored.
    pub done: bool,
}

impl BranchRecord {
    /// A fresh record for a just-executed branch, not yet exhausted.
    pub fn taken(branch: bool) -> BranchRecord {
        BranchRecord {
            branch,
            done: false,
        }
    }
}

/// The conjunction of branch predicates collected during one run, each
/// oriented so that it *held* on the executed path.
#[derive(Debug, Clone, Default)]
pub struct PathConstraint {
    constraints: Vec<Constraint>,
}

impl PathConstraint {
    /// An empty path constraint.
    pub fn new() -> PathConstraint {
        PathConstraint::default()
    }

    /// Appends the predicate of the latest symbolic conditional.
    pub fn push(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Keeps the first `len` conjuncts (all of them if there are fewer):
    /// the path of a run prefix, which a run resumed after that prefix
    /// extends.
    pub fn truncate(&mut self, len: usize) {
        self.constraints.truncate(len);
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether no conjuncts were collected.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The conjuncts in execution order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The prefix `[0, j]` with conjunct `j` negated — the query
    /// `solve_path_constraint` sends to the solver (paper Fig. 5:
    /// `path_constraint[j] = neg(path_constraint[j])`).
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    pub fn negated_prefix(&self, j: usize) -> Vec<Constraint> {
        assert!(j < self.constraints.len(), "prefix index out of range");
        let mut out: Vec<Constraint> = self.constraints[..j].to_vec();
        out.push(self.constraints[j].negated());
        out
    }
}

impl fmt::Display for PathConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "(true)");
        }
        let parts: Vec<String> = self.constraints.iter().map(|c| c.to_string()).collect();
        write!(f, "({})", parts.join(") /\\ ("))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_solver::{LinExpr, RelOp, Var};

    fn x_eq(k: i64) -> Constraint {
        Constraint::new(LinExpr::var(Var(0)).offset(-k), RelOp::Eq)
    }

    #[test]
    fn push_and_inspect() {
        let mut pc = PathConstraint::new();
        assert!(pc.is_empty());
        pc.push(x_eq(1));
        pc.push(x_eq(2));
        assert_eq!(pc.len(), 2);
        assert_eq!(pc.constraints()[0], x_eq(1));
    }

    #[test]
    fn truncate_keeps_the_prefix() {
        let mut pc = PathConstraint::new();
        for k in 1..=3 {
            pc.push(x_eq(k));
        }
        pc.truncate(5);
        assert_eq!(pc.len(), 3);
        pc.truncate(1);
        assert_eq!(pc.constraints(), &[x_eq(1)]);
    }

    #[test]
    fn negated_prefix_negates_only_last() {
        let mut pc = PathConstraint::new();
        pc.push(x_eq(1));
        pc.push(x_eq(2));
        pc.push(x_eq(3));
        let q = pc.negated_prefix(1);
        assert_eq!(q.len(), 2);
        assert_eq!(q[0], x_eq(1));
        assert_eq!(q[1], x_eq(2).negated());
    }

    #[test]
    fn negated_prefix_first() {
        let mut pc = PathConstraint::new();
        pc.push(x_eq(1));
        let q = pc.negated_prefix(0);
        assert_eq!(q, vec![x_eq(1).negated()]);
    }

    #[test]
    #[should_panic(expected = "prefix index out of range")]
    fn negated_prefix_out_of_range_panics() {
        let pc = PathConstraint::new();
        let _ = pc.negated_prefix(0);
    }

    #[test]
    fn display_forms() {
        let mut pc = PathConstraint::new();
        assert_eq!(pc.to_string(), "(true)");
        pc.push(x_eq(1));
        pc.push(x_eq(2));
        assert_eq!(pc.to_string(), "(x0 - 1 == 0) /\\ (x0 - 2 == 0)");
    }

    #[test]
    fn branch_record_constructor() {
        let r = BranchRecord::taken(true);
        assert!(r.branch);
        assert!(!r.done);
    }
}
