//! # dart-solver — linear integer constraint solving for DART
//!
//! The DART paper (PLDI 2005, §3.3) uses `lp_solve` to decide the path
//! constraints its directed search collects. This crate is a from-scratch
//! replacement: a decision procedure for **conjunctions of linear integer
//! constraints over boxed (32-bit) variables**, built on an exact-rational
//! two-phase simplex with interval propagation, excluded points for
//! single-variable `!=`, case-splitting for multi-variable `!=`, and branch &
//! bound for integrality.
//!
//! Every query, whether posed to [`Solver::solve`] or to a
//! [`PrefixSession`], is decided the same way: two cheap probes (the hint,
//! then all zeros) and a split into variable-independent components, then
//! interval propagation, a hint-guided finite-domain search for a model
//! and, when it finds none, branch & bound, whose root LP relaxation
//! refutes what the search cannot.
//!
//! The theory is exactly what DART needs and nothing more: any program
//! expression outside it (non-linear arithmetic, input-dependent pointer
//! dereferences) is *not sent here* — the DART engine falls back to concrete
//! values and clears a completeness flag instead (paper §2.3, Fig. 1).
//!
//! Every give-up path is *sound*: node-budget exhaustion, arithmetic
//! overflow and the optional per-query wall-clock deadline
//! ([`SolverConfig::deadline`]) all surface as [`SolveOutcome::Unknown`],
//! which the engine records as incompleteness — never as "unsat".
//!
//! [`QueryCache`] sits between one engine session and its [`Solver`]: a
//! pool of recent models for counterexample reuse plus the retained
//! [`PrefixSession`] of the previous walk. It memoizes no verdicts, so
//! every query the pool does not answer is a fresh solve.
//!
//! ## Quickstart
//!
//! ```
//! use dart_solver::{Constraint, LinExpr, RelOp, Solver, SolveOutcome, Var};
//!
//! // The path constraint of the paper's first example (§2.1):
//! //   x != y  ∧  2x == x + 10
//! let x = LinExpr::var(Var(0));
//! let y = LinExpr::var(Var(1));
//! let path = vec![
//!     Constraint::new(x.sub(&y), RelOp::Ne),
//!     Constraint::new(x.scaled(2).sub(&x.offset(10)), RelOp::Eq),
//! ];
//! match Solver::default().solve(&path) {
//!     SolveOutcome::Sat(model) => assert_eq!(model[&Var(0)], 10),
//!     other => panic!("expected a model, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod constraint;
pub mod ilp;
pub mod linear;
pub mod rational;
pub mod simplex;

pub use cache::{CacheStats, QueryCache, MODEL_POOL};
pub use constraint::{Constraint, LeZero, NormalForm, RelOp};
pub use ilp::{Assignment, Bounds, PrefixSession, SolveInfo, SolveOutcome, Solver, SolverConfig};
pub use linear::{LinExpr, Var};
pub use rational::Rat;
