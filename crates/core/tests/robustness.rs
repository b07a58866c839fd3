//! Driver edge cases and configuration corners.

use dart::{Dart, DartConfig, DartError, EngineMode, Outcome};
use dart_ram::MachineConfig;

fn directed(max_runs: u64) -> DartConfig {
    DartConfig {
        max_runs,
        seed: 1,
        ..DartConfig::default()
    }
}

#[test]
fn unknown_toplevel_is_a_clean_error() {
    let compiled = dart_minic::compile("int f() { return 0; }").unwrap();
    match Dart::new(&compiled, "missing", directed(10)) {
        Err(DartError::UnknownToplevel(name)) => assert_eq!(name, "missing"),
        other => panic!("expected UnknownToplevel, got {:?}", other.err()),
    }
}

#[test]
fn zero_run_budget_exhausts_immediately() {
    let compiled = dart_minic::compile("void f(int x) { abort(); }").unwrap();
    let report = Dart::new(&compiled, "f", directed(0)).unwrap().run();
    assert_eq!(report.runs, 0);
    assert_eq!(report.outcome, Outcome::Exhausted);
}

#[test]
fn branchless_program_completes_in_one_run() {
    let compiled = dart_minic::compile("int f(int x) { return x + 1; }").unwrap();
    for mode in [EngineMode::Directed, EngineMode::Generational] {
        let report = Dart::new(
            &compiled,
            "f",
            DartConfig {
                mode,
                max_runs: 100,
                seed: 1,
                ..DartConfig::default()
            },
        )
        .unwrap()
        .run();
        assert_eq!(report.outcome, Outcome::Complete, "{mode:?}");
        assert_eq!(report.runs, 1, "{mode:?}");
        assert_eq!(report.branch_sites, 0);
    }
}

#[test]
fn depth_zero_runs_nothing_but_terminates() {
    let compiled = dart_minic::compile("void f(int x) { abort(); }").unwrap();
    let report = Dart::new(
        &compiled,
        "f",
        DartConfig {
            depth: 0,
            max_runs: 100,
            seed: 1,
            ..DartConfig::default()
        },
    )
    .unwrap()
    .run();
    assert!(!report.found_bug(), "nothing executes at depth 0");
    assert_eq!(report.outcome, Outcome::Complete);
}

#[test]
fn no_argument_toplevel_with_extern_inputs() {
    let compiled = dart_minic::compile(
        r#"
        extern int setting;
        void poll() { if (setting == 31337) abort(); }
        "#,
    )
    .unwrap();
    let report = Dart::new(&compiled, "poll", directed(100)).unwrap().run();
    let bug = report
        .bug()
        .expect("extern var directed to the magic value");
    assert_eq!(bug.inputs[0].value, 31337);
}

#[test]
fn all_bugs_mode_collects_several() {
    // Three separately-reachable aborts; with stop_at_first_bug off the
    // session keeps exploring and reports each failing run.
    let compiled = dart_minic::compile(
        r#"
        void f(int x) {
            if (x == 1) abort();
            if (x == 2) abort();
            if (x == 3) abort();
        }
        "#,
    )
    .unwrap();
    let report = Dart::new(
        &compiled,
        "f",
        DartConfig {
            stop_at_first_bug: false,
            max_runs: 100,
            seed: 1,
            ..DartConfig::default()
        },
    )
    .unwrap()
    .run();
    assert_eq!(report.bugs.len(), 3, "{report}");
    let mut witnesses: Vec<i64> = report.bugs.iter().map(|b| b.inputs[0].value).collect();
    witnesses.sort_unstable();
    assert_eq!(witnesses, vec![1, 2, 3]);
}

#[test]
fn nontermination_can_be_tolerated() {
    let compiled =
        dart_minic::compile("void f(int x) { while (x == 9) { } if (x == 5) abort(); }").unwrap();
    // As a bug: the spin at x == 9 is reported once directed there.
    let strict = Dart::new(
        &compiled,
        "f",
        DartConfig {
            machine: MachineConfig {
                max_steps: 5_000,
                ..MachineConfig::default()
            },
            max_runs: 100,
            seed: 1,
            ..DartConfig::default()
        },
    )
    .unwrap()
    .run();
    assert!(strict.found_bug());

    // Tolerated: the search keeps going and finds the abort instead, but
    // may never claim completeness.
    let tolerant = Dart::new(
        &compiled,
        "f",
        DartConfig {
            nontermination_is_bug: false,
            machine: MachineConfig {
                max_steps: 5_000,
                ..MachineConfig::default()
            },
            max_runs: 200,
            seed: 1,
            ..DartConfig::default()
        },
    )
    .unwrap()
    .run();
    match tolerant.bug() {
        Some(bug) => assert!(
            matches!(bug.kind, dart::BugKind::Abort(_)),
            "only the abort counts: {bug}"
        ),
        None => panic!("abort at x == 5 should be found"),
    }
}

/// A proven write-free hang is handled exactly like a budget hang, on both
/// tiers: reported as non-termination by default, and with
/// `nontermination_is_bug = false` it is skipped but still forbids a
/// completeness claim.
#[test]
fn proven_hangs_are_bugs_or_incompleteness() {
    use dart::{BugKind, ExecTier};
    let compiled = dart_minic::compile("void f(int x) { while (x == 9) { } }").unwrap();
    for exec_tier in [ExecTier::Interp, ExecTier::Compiled] {
        let config = DartConfig {
            exec_tier,
            ..directed(100)
        };
        let strict = Dart::new(&compiled, "f", config.clone()).unwrap().run();
        let bug = strict.bug().expect("the spin at x == 9 is found");
        assert_eq!(bug.kind, BugKind::NonTermination);
        assert_eq!(bug.inputs[0].value, 9);
        assert!(
            strict.steps < 100,
            "proven, not spun to the budget: {} steps",
            strict.steps
        );

        let tolerant = Dart::new(
            &compiled,
            "f",
            DartConfig {
                nontermination_is_bug: false,
                ..config
            },
        )
        .unwrap()
        .run();
        assert!(tolerant.bugs.is_empty(), "{tolerant}");
        assert_eq!(tolerant.outcome, Outcome::Exhausted, "{tolerant}");
    }
}

#[test]
fn timing_fields_are_populated() {
    let compiled = dart_minic::compile("void f(int x) { if (x == 4242) abort(); }").unwrap();
    let report = Dart::new(&compiled, "f", directed(100)).unwrap().run();
    assert!(report.found_bug());
    assert!(report.exec_time > std::time::Duration::ZERO);
    assert!(report.solve_time > std::time::Duration::ZERO);
}

#[test]
fn coverage_counts_are_bounded_by_sites() {
    let compiled = dart_minic::compile(
        r#"
        void f(int x) {
            if (x > 0) { }
            if (x > 10) { }
            if (x > 100) { }
        }
        "#,
    )
    .unwrap();
    let report = Dart::new(&compiled, "f", directed(1000)).unwrap().run();
    assert_eq!(report.outcome, Outcome::Complete);
    assert!(report.branches_covered <= report.branch_sites);
    // Complete exploration covers every feasible direction; all six are
    // feasible here.
    assert_eq!(report.branches_covered, 6);
    assert_eq!(report.branch_sites, 6);
}

#[test]
fn identical_configs_identical_reports() {
    let compiled =
        dart_minic::compile("void f(int x, int y) { if (x + y == 77) if (x - y == 1) abort(); }")
            .unwrap();
    let a = Dart::new(&compiled, "f", directed(1000)).unwrap().run();
    let b = Dart::new(&compiled, "f", directed(1000)).unwrap().run();
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.branches_covered, b.branches_covered);
}
