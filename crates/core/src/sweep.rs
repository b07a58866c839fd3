//! Parallel API sweeps: test many toplevel functions of one library.
//!
//! The paper's oSIP study (§4.3) points DART at ~600 externally visible
//! functions one at a time. Sessions over different toplevels are
//! independent, so this module fans them out over a scoped thread pool —
//! results are returned in input order and are identical to a sequential
//! sweep (each session's randomness is seeded from its own function name).

use crate::driver::{validate, DartConfig, DartError};
use crate::report::SessionReport;
use crate::supervise;
use dart_minic::CompiledProgram;
use std::time::Duration;

/// How one function's supervised session ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome {
    /// The session ran to completion (possibly only after a retry).
    Finished {
        /// Its session report (boxed: a report is an order of magnitude
        /// larger than the fault arm).
        report: Box<SessionReport>,
        /// Whether this report came from a reseeded retry after an
        /// engine fault.
        retried: bool,
    },
    /// The engine itself panicked while testing this function — on
    /// every attempt, [`DartConfig::max_retries`] included. The rest of
    /// the sweep is unaffected.
    EngineFault {
        /// The panic message of the last attempt.
        message: String,
        /// Whether any reseeded retry was attempted.
        retried: bool,
    },
    /// [`Dart::new`](crate::Dart::new) rejected this function's session:
    /// its checkpoint file is malformed, stale, from another seed or from
    /// another program, say. Never retried: a reseeded retry would only
    /// start afresh under another checkpoint path and hide the error.
    SetupFailed {
        /// The [`DartError`]'s message.
        message: String,
    },
}

/// Outcome of one function's session within a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The toplevel function tested.
    pub function: String,
    /// How its supervised session ended.
    pub outcome: SweepOutcome,
}

impl SweepResult {
    /// The session report, unless the engine faulted on every attempt.
    pub fn report(&self) -> Option<&SessionReport> {
        match &self.outcome {
            SweepOutcome::Finished { report, .. } => Some(report.as_ref()),
            SweepOutcome::EngineFault { .. } | SweepOutcome::SetupFailed { .. } => None,
        }
    }
}

/// Runs a supervised DART session for every named toplevel,
/// `threads`-wide.
///
/// Each session uses `config` with its seed offset by a hash of the
/// function name, so results do not depend on scheduling or on the set of
/// other functions in the sweep. Each session runs under
/// [`std::panic::catch_unwind`]: an engine panic is retried up to
/// [`DartConfig::max_retries`] times with a reseeded RNG, and a session
/// that faults on every attempt yields [`SweepOutcome::EngineFault`] —
/// the sweep always returns one result per requested function. A
/// session that [`Dart::new`](crate::Dart::new) rejects (a bad checkpoint
/// file) yields [`SweepOutcome::SetupFailed`], without a retry.
///
/// # Errors
///
/// [`DartError::UnknownToplevel`] if any name is not a defined function
/// (the whole list is validated up front, before any session runs);
/// [`DartError::InvalidConfig`] if `threads` is 0, or for any config
/// [`Dart::new`](crate::Dart::new) would reject: a
/// [`DartConfig::frontier_budget`] of `Some(0)` or a
/// [`DartConfig::checkpoint`] outside the generational engine.
///
/// # Checkpoints
///
/// When [`DartConfig::checkpoint`] names a base path, every session in
/// the sweep writes its own seed-qualified file
/// (`<base>.<function>-<seed in hex>`): functions must not clobber each
/// other's resume points, and a reseeded retry must not resume the very
/// state that faulted (a checkpoint is only valid under the seed that
/// recorded it).
pub fn sweep(
    compiled: &CompiledProgram,
    toplevels: &[String],
    config: &DartConfig,
    threads: usize,
) -> Result<Vec<SweepResult>, DartError> {
    if threads == 0 {
        return Err(DartError::InvalidConfig(
            "sweep needs at least one thread".to_string(),
        ));
    }
    validate(config)?;
    for name in toplevels {
        if compiled.fn_sig(name).is_none() {
            return Err(DartError::UnknownToplevel(name.clone()));
        }
    }
    Ok(supervise::fan_out(toplevels, threads, |index, name| {
        let (outcome, _) = supervise::retry(config.max_retries, Duration::ZERO, |attempt| {
            Ok(supervise::attempt(
                compiled,
                name,
                index,
                attempt,
                config,
                |_, _| {},
            ))
        });
        SweepResult {
            function: name.clone(),
            outcome,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BugKind, Outcome};
    use crate::supervise::FaultPlan;
    use proptest::prelude::*;
    use std::time::Duration;

    fn library() -> CompiledProgram {
        dart_minic::compile(
            r#"
            struct s { int v; };
            int crashes(struct s *p) { return p->v; }
            int fine(struct s *p) { if (p == NULL) return -1; return p->v; }
            int aborts(int x) { if (x == 7777) abort(); return x; }
            "#,
        )
        .unwrap()
    }

    fn names() -> Vec<String> {
        ["crashes", "fine", "aborts"]
            .into_iter()
            .map(String::from)
            .collect()
    }

    fn config() -> DartConfig {
        DartConfig {
            max_runs: 200,
            ..DartConfig::default()
        }
    }

    fn rep(r: &SweepResult) -> &SessionReport {
        r.report().expect("session finished")
    }

    /// Zeroes the wall-clock fields so outcomes compare
    /// deterministically.
    fn scrubbed(o: &SweepOutcome) -> SweepOutcome {
        match o {
            SweepOutcome::Finished { report, retried } => {
                let mut report = report.clone();
                report.exec_time = Duration::ZERO;
                report.solve_time = Duration::ZERO;
                SweepOutcome::Finished {
                    report,
                    retried: *retried,
                }
            }
            fault => fault.clone(),
        }
    }

    #[test]
    fn sweep_tests_each_function() {
        let compiled = library();
        let results = sweep(&compiled, &names(), &config(), 3).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].function, "crashes");
        assert!(rep(&results[0]).found_bug());
        assert!(!rep(&results[1]).found_bug());
        assert!(rep(&results[2]).found_bug());
    }

    #[test]
    fn parallel_equals_sequential() {
        let compiled = library();
        let wide = sweep(&compiled, &names(), &config(), 4).unwrap();
        let narrow = sweep(&compiled, &names(), &config(), 1).unwrap();
        for (a, b) in wide.iter().zip(&narrow) {
            assert_eq!(a.function, b.function);
            assert_eq!(scrubbed(&a.outcome), scrubbed(&b.outcome));
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        let compiled = library();
        assert!(sweep(&compiled, &[], &config(), 2).unwrap().is_empty());
    }

    #[test]
    fn unknown_toplevel_is_an_error_not_a_panic() {
        let compiled = library();
        let names: Vec<String> = ["crashes", "no_such_function"]
            .into_iter()
            .map(String::from)
            .collect();
        match sweep(&compiled, &names, &config(), 2) {
            Err(DartError::UnknownToplevel(name)) => assert_eq!(name, "no_such_function"),
            other => panic!("expected UnknownToplevel, got {other:?}"),
        }
    }

    #[test]
    fn zero_threads_is_an_error_not_a_panic() {
        let compiled = library();
        match sweep(&compiled, &names(), &config(), 0) {
            Err(DartError::InvalidConfig(reason)) => assert!(reason.contains("thread")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// The frontier knobs are validated up front: a zero budget and a
    /// checkpoint outside the generational engine both fail before any
    /// session spawns.
    #[test]
    fn frontier_misconfigurations_are_errors_not_panics() {
        let compiled = library();
        let zero_budget = DartConfig {
            mode: crate::EngineMode::Generational,
            frontier_budget: Some(0),
            ..config()
        };
        match sweep(&compiled, &names(), &zero_budget, 2) {
            Err(DartError::InvalidConfig(reason)) => assert!(reason.contains("frontier_budget")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let misplaced_checkpoint = DartConfig {
            checkpoint: Some(std::path::PathBuf::from("cp.txt")),
            ..config()
        };
        match sweep(&compiled, &names(), &misplaced_checkpoint, 2) {
            Err(DartError::InvalidConfig(reason)) => assert!(reason.contains("generational")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// The ISSUE's acceptance scenario: a library containing an injected
    /// panicking session, an OOM-looping target and a deadline-blowing
    /// target still yields one result per function — the faulted ones
    /// tagged `EngineFault` / OOM-bug / `DeadlineExceeded`, all others
    /// byte-identical to an uninjected sweep with the same seed.
    #[test]
    fn faulted_sweep_returns_results_for_every_function() {
        let compiled = dart_minic::compile(
            r#"
            struct s { int v; };
            int crashes(struct s *p) { return p->v; }
            int fine(int x) { if (x == 2) return 1; return 0; }
            int aborts(int x) { if (x == 7777) abort(); return x; }
            int panicky(int x) { if (x == 3) return 1; return 0; }
            int oomer(int x) {
                int *p;
                while (1) { p = malloc(64); }
                return 0;
            }
            int hog(int x) {
                int lo;
                int hi;
                int mid;
                int i;
                lo = 0;
                hi = 1;
                i = 0;
                while (i < 40) { hi = hi + hi; i = i + 1; }
                i = 0;
                while (i < 40) {
                    mid = (lo + hi) / 2;
                    if (x < mid) { hi = mid; } else { lo = mid; }
                    i = i + 1;
                }
                return lo;
            }
            "#,
        )
        .unwrap();
        let names: Vec<String> = ["crashes", "fine", "aborts", "panicky", "oomer", "hog"]
            .into_iter()
            .map(String::from)
            .collect();
        let mut config = DartConfig {
            max_runs: 1_000_000,
            deadline: Some(Duration::from_millis(100)),
            ..DartConfig::default()
        };
        // `oomer` allocates without bound: cap every run's footprint.
        config.machine.budget.max_alloc_words = 4096;
        let clean = sweep(&compiled, &names, &config, 3).unwrap();

        config.faults = FaultPlan {
            panic_in_session: Some(3), // `panicky`'s input-order index
            ..FaultPlan::default()
        };
        let faulted = sweep(&compiled, &names, &config, 3).unwrap();

        assert_eq!(faulted.len(), names.len());
        // The injected panic faults its own session (on the retry too)…
        match &faulted[3].outcome {
            SweepOutcome::EngineFault { message, retried } => {
                assert!(message.contains("injected fault: panic in session 3"));
                assert!(*retried, "one reseeded retry was attempted");
            }
            other => panic!("expected EngineFault, got {other:?}"),
        }
        // …the OOM looper terminates via the allocation budget…
        let oom_report = rep(&faulted[4]);
        assert_eq!(oom_report.bugs[0].kind, BugKind::OutOfMemory);
        // …the path-rich target stops at the session deadline, keeping
        // its partial results…
        let hog_report = rep(&faulted[5]);
        assert_eq!(hog_report.outcome, Outcome::DeadlineExceeded);
        assert!(hog_report.runs > 0, "partial results are retained");
        // …and every non-faulted function is byte-identical to the
        // uninjected sweep (deadline-bounded sessions excepted: their run
        // counts are wall-clock-dependent in both sweeps).
        for (i, (f, c)) in faulted.iter().zip(&clean).enumerate() {
            assert_eq!(f.function, c.function);
            if i == 3 || i == 5 {
                continue;
            }
            assert_eq!(scrubbed(&f.outcome), scrubbed(&c.outcome), "{}", f.function);
        }
        assert_eq!(rep(&clean[5]).outcome, Outcome::DeadlineExceeded);
    }

    /// A 20-function library for the fault-injection proptests: every
    /// function has one symbolic branch, so each session issues solver
    /// queries and allocates call frames — all three fault kinds have
    /// sites to land on.
    fn library20() -> (CompiledProgram, Vec<String>) {
        let mut src = String::new();
        let mut names = Vec::new();
        for i in 0..20 {
            src.push_str(&format!(
                "int f{i}(int x) {{ if (x == {i}) return 1; return 0; }}\n"
            ));
            names.push(format!("f{i}"));
        }
        (dart_minic::compile(&src).unwrap(), names)
    }

    fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
        (
            proptest::option::of(0usize..20),
            proptest::option::of(0u64..6),
            proptest::option::of(0u64..4),
        )
            .prop_map(|(panic, query, alloc)| FaultPlan {
                panic_in_session: panic,
                unknown_on_query: query,
                deny_alloc: alloc,
                ..FaultPlan::default()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// No random fault plan ever loses a non-faulted function's
        /// result: the sweep returns one result per function, in input
        /// order, and only the session named by `panic_in_session` may
        /// be an `EngineFault`.
        #[test]
        fn no_fault_plan_loses_a_result(plan in plan_strategy()) {
            let (compiled, names) = library20();
            let config = DartConfig {
                max_runs: 20,
                faults: plan,
                ..DartConfig::default()
            };
            let results = sweep(&compiled, &names, &config, 4).unwrap();
            prop_assert_eq!(results.len(), names.len());
            for (i, r) in results.iter().enumerate() {
                prop_assert_eq!(&r.function, &names[i]);
                match &r.outcome {
                    SweepOutcome::Finished { .. } => {
                        prop_assert_ne!(Some(i), plan.panic_in_session);
                    }
                    SweepOutcome::EngineFault { retried, .. } => {
                        prop_assert_eq!(Some(i), plan.panic_in_session);
                        prop_assert!(*retried);
                    }
                    SweepOutcome::SetupFailed { message } => {
                        prop_assert!(false, "no checkpoint, yet {}", message);
                    }
                }
            }
        }

        /// Scheduling independence survives fault injection: a 4-thread
        /// faulted sweep equals the sequential one outcome-for-outcome.
        #[test]
        fn parallel_equals_sequential_with_faults(plan in plan_strategy()) {
            let (compiled, names) = library20();
            let config = DartConfig {
                max_runs: 20,
                faults: plan,
                ..DartConfig::default()
            };
            let wide = sweep(&compiled, &names, &config, 4).unwrap();
            let narrow = sweep(&compiled, &names, &config, 1).unwrap();
            for (a, b) in wide.iter().zip(&narrow) {
                prop_assert_eq!(&a.function, &b.function);
                prop_assert_eq!(scrubbed(&a.outcome), scrubbed(&b.outcome));
            }
        }
    }
}
