//! Repository-level robustness tests: resource budgets, deadlines and
//! supervised sweeps, exercised through the public API exactly as an
//! embedding application would.
//!
//! The fault-injection hooks themselves are feature-gated; the tests that
//! need them are behind `cfg(feature = "fault-injection")` and run in the
//! CI pass that enables the feature.

use dart::{BugKind, Dart, DartConfig, DartError, Outcome, SweepOutcome};
use dart_ram::{MachineConfig, ResourceBudget};
use std::time::Duration;

fn budgeted(max_alloc_words: u64) -> DartConfig {
    DartConfig {
        max_runs: 100,
        seed: 1,
        machine: MachineConfig {
            budget: ResourceBudget { max_alloc_words },
            ..MachineConfig::default()
        },
        ..DartConfig::default()
    }
}

/// Two fixed heap allocations (4 + 3 words) on top of the toplevel's
/// 4-word stack frame: 11 words allocated in total, no symbolic branches.
const TWO_MALLOCS: &str = r#"
    void f(int x) {
        int *a;
        int *b;
        a = malloc(4);
        b = malloc(3);
    }
"#;

#[test]
fn alloc_budget_boundary_is_inclusive_through_the_public_api() {
    let compiled = dart_minic::compile(TWO_MALLOCS).unwrap();

    // Landing exactly on the cap is allowed...
    let report = Dart::new(&compiled, "f", budgeted(11)).unwrap().run();
    assert!(!report.found_bug(), "{report}");
    assert_eq!(report.outcome, Outcome::Complete);

    // ...one word less and the second malloc trips the budget.
    let report = Dart::new(&compiled, "f", budgeted(10)).unwrap().run();
    let bug = report.bug().expect("budget exhaustion is a bug by default");
    assert!(matches!(bug.kind, BugKind::OutOfMemory));

    // The default budget is unbounded.
    let report = Dart::new(&compiled, "f", budgeted(u64::MAX)).unwrap().run();
    assert!(!report.found_bug());
}

#[test]
fn oom_can_be_downgraded_to_incompleteness() {
    let compiled = dart_minic::compile(TWO_MALLOCS).unwrap();
    let config = DartConfig {
        oom_is_bug: false,
        ..budgeted(10)
    };
    let report = Dart::new(&compiled, "f", config).unwrap().run();
    assert!(!report.found_bug(), "downgraded: {report}");
    assert_ne!(
        report.outcome,
        Outcome::Complete,
        "a truncated run must not claim completeness"
    );
}

#[test]
fn session_deadline_degrades_to_partial_results() {
    // A 40-level binary search over [0, 2^40): every branch splits the
    // remaining interval strictly in half, so the ~2^40 feasible paths are
    // all distinct and the frontier can never drain. The deadline is the
    // only way out, however fast the engine gets.
    let compiled = dart_minic::compile(
        r#"
        int hog(int x) {
            int lo;
            int hi;
            int mid;
            int i;
            lo = 0;
            hi = 1;
            i = 0;
            while (i < 40) {
                hi = hi + hi;
                i = i + 1;
            }
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
    let config = DartConfig {
        max_runs: u64::MAX,
        seed: 1,
        deadline: Some(Duration::from_millis(50)),
        ..DartConfig::default()
    };
    let report = Dart::new(&compiled, "hog", config).unwrap().run();
    assert_eq!(report.outcome, Outcome::DeadlineExceeded);
    assert!(report.runs > 0, "partial results survive: {report}");
}

#[test]
fn expired_solver_deadline_is_incompleteness_not_unsat() {
    // With a zero per-query solver deadline every query degrades to
    // Unknown; the session must then refuse to claim completeness even
    // though the program is trivially explorable.
    let compiled = dart_minic::compile("void f(int x) { if (x == 7) abort(); }").unwrap();
    let mut config = DartConfig {
        max_runs: 50,
        seed: 1,
        ..DartConfig::default()
    };
    config.solver.deadline = Some(Duration::ZERO);
    let report = Dart::new(&compiled, "f", config).unwrap().run();
    assert_ne!(report.outcome, Outcome::Complete, "{report}");
    assert!(report.solver.unknown > 0, "queries gave up: {report}");
}

#[test]
fn sweep_with_zero_threads_is_a_clean_error() {
    let compiled = dart_minic::compile("int f(int x) { return x; }").unwrap();
    let config = DartConfig::default();
    match dart::sweep(&compiled, &["f".to_string()], &config, 0) {
        Err(DartError::InvalidConfig(reason)) => assert!(reason.contains("thread")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn unfaulted_sweep_finishes_every_function_without_retries() {
    let compiled = dart_minic::compile(
        r#"
        int f(int x) { if (x == 3) abort(); return 0; }
        int g(int x) { return x + 1; }
        "#,
    )
    .unwrap();
    let config = DartConfig {
        max_runs: 100,
        seed: 1,
        ..DartConfig::default()
    };
    let names = vec!["f".to_string(), "g".to_string()];
    let results = dart::sweep(&compiled, &names, &config, 2).unwrap();
    assert_eq!(results.len(), 2);
    for r in &results {
        match &r.outcome {
            SweepOutcome::Finished { retried, .. } => assert!(!retried, "{}", r.function),
            SweepOutcome::EngineFault { message, .. } => {
                panic!("{} faulted without injection: {message}", r.function)
            }
            SweepOutcome::SetupFailed { message } => {
                panic!("{} failed its setup: {message}", r.function)
            }
        }
    }
    assert!(results[0].report().unwrap().found_bug());
    assert!(!results[1].report().unwrap().found_bug());
}

#[cfg(feature = "fault-injection")]
mod faulted {
    use super::*;
    use dart::FaultPlan;

    #[test]
    fn injected_panic_is_isolated_and_reported() {
        let compiled = dart_minic::compile(
            r#"
            int f(int x) { if (x == 1) return 1; return 0; }
            int g(int x) { if (x == 2) return 1; return 0; }
            int h(int x) { if (x == 3) return 1; return 0; }
            "#,
        )
        .unwrap();
        let config = DartConfig {
            max_runs: 100,
            seed: 1,
            faults: FaultPlan {
                panic_in_session: Some(1),
                ..FaultPlan::default()
            },
            ..DartConfig::default()
        };
        let names: Vec<String> = ["f", "g", "h"].iter().map(|s| s.to_string()).collect();
        let results = dart::sweep(&compiled, &names, &config, 2).unwrap();
        assert_eq!(results.len(), 3);
        match &results[1].outcome {
            SweepOutcome::EngineFault { message, retried } => {
                assert!(message.contains("injected fault"), "{message}");
                assert!(retried, "one reseeded retry was attempted");
            }
            other => panic!("expected EngineFault for g, got {other:?}"),
        }
        for i in [0usize, 2] {
            assert!(
                results[i].report().is_some(),
                "{} must survive its neighbour's crash",
                results[i].function
            );
        }
    }
}
