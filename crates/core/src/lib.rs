//! # dart — Directed Automated Random Testing (PLDI 2005) in Rust
//!
//! A full reproduction of the DART engine of Godefroid, Klarlund and Sen:
//!
//! 1. **Automated interface extraction** — `extern` variables, external
//!    functions and toplevel arguments come from the MiniC compiler
//!    ([`dart_minic::CompiledProgram`]); see [`interface`].
//! 2. **Automatic random test-driver generation** — [`run::RunCtx`]'s
//!    `random_init` (paper Fig. 8) builds random inputs of any type,
//!    including unbounded recursive structures, and simulates external
//!    functions with fresh random values.
//! 3. **Directed search** — [`exec::run_once`] executes the program
//!    concretely and symbolically at once (Fig. 3), collecting a path
//!    constraint; [`search::solve_next`] negates the deepest unexplored
//!    branch predicate and solves it (Fig. 5); [`driver::Dart`] ties it all
//!    together with random restarts (Fig. 2).
//!
//! Errors detected: assertion violations (`abort()`), crashes (NULL
//! dereference, out-of-bounds, division by zero, stack overflow) and
//! non-termination: a loop that writes nothing is proven to repeat its
//! machine state on its second back-edge visit, and any other hang runs
//! into the step budget.
//!
//! ## Quickstart
//!
//! The paper's opening example (§2.1) — random testing can't hit the
//! abort, DART finds it in two runs:
//!
//! ```
//! use dart::{Dart, DartConfig, EngineMode};
//!
//! let compiled = dart_minic::compile(r#"
//!     int f(int x) { return 2 * x; }
//!     int h(int x, int y) {
//!         if (x != y)
//!             if (f(x) == x + 10)
//!                 abort();
//!         return 0;
//!     }
//! "#)?;
//!
//! // Directed: finds the bug immediately.
//! let report = Dart::new(&compiled, "h", DartConfig::default())?.run();
//! assert!(report.found_bug());
//!
//! // Random baseline: hopeless within the same budget.
//! let random = Dart::new(&compiled, "h", DartConfig {
//!     mode: EngineMode::RandomOnly,
//!     max_runs: 1000,
//!     ..DartConfig::default()
//! })?.run();
//! assert!(!random.found_bug());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod exec;
pub mod farm;
pub mod frontier;
pub mod interface;
pub mod replay;
pub mod report;
pub mod run;
pub mod search;
pub mod supervise;
pub mod sweep;
pub mod tape;

pub use driver::{Dart, DartConfig, DartError, EngineMode, ExecTier, PortfolioMode};
pub use exec::{run_once, run_once_in_tier, run_once_traced, RunResult, RunTermination};
pub use farm::{run_farm, run_worker, FarmJob, FarmOptions};
pub use frontier::CheckpointParseError;
pub use interface::{describe_interface, InterfaceReport};
pub use replay::{parse_inputs, replay, replay_traced, serialize_inputs, ReplayParseError};
pub use report::{Bug, BugKind, Outcome, SessionReport};
pub use search::{Scheduler, SolveStats, Strategy};
#[cfg(any(test, feature = "fault-injection"))]
pub use supervise::FaultPlan;
pub use supervise::FaultState;
pub use sweep::{sweep, SweepOutcome, SweepResult};
pub use tape::{InputKind, InputSlot, InputTape};
