//! A session's report follows from its program, seed and fault plan
//! alone: two runs of one configuration give equal reports, wall-clock
//! excepted (the randomized proptest at the bottom). The solver query
//! cache's model pool answers a query only with a model that satisfies
//! it, after the solver's own probes declined, and its contents follow
//! from the session's own query stream.

use dart::{Dart, DartConfig, SessionReport, Strategy};
use proptest::prelude::*;
// `dart::Strategy` shadows the prelude's trait of the same name.
use proptest::strategy::Strategy as _;

/// Fig. 1 / §2.1 — the `h` example.
const PAPER_H: &str = r#"
    int f(int x) { return 2 * x; }
    int h(int x, int y) {
        if (x != y)
            if (f(x) == x + 10)
                abort();
        return 0;
    }
"#;

/// A restarting session on the Fig. 1 example: `RandomBranch` never
/// claims completeness, so the driver keeps restarting and each restart
/// replays the same query family with fresh hints.
fn restarting_fig1_config(seed: u64) -> DartConfig {
    DartConfig {
        max_runs: 60,
        seed,
        strategy: Strategy::RandomBranch,
        stop_at_first_bug: false,
        ..DartConfig::default()
    }
}

/// The model-reuse path actually fires under restarts (different hints,
/// same constraint sets), and it is the cache's only answer.
#[test]
fn cache_hits_observed_on_fig1_example() {
    let compiled = dart_minic::compile(PAPER_H).unwrap();
    let report = Dart::new(&compiled, "h", restarting_fig1_config(0))
        .unwrap()
        .run();
    assert!(
        report.solver.cache_model_reuse > 0,
        "fresh hints over known constraint sets should reuse pooled models, got {:?}",
        report.solver
    );
    assert_eq!(report.solver.cache_hits, report.solver.cache_model_reuse);
}

// ---------------------------------------------------------------------
// Randomized determinism
// ---------------------------------------------------------------------

/// One random linear conditional over the two parameters, with small
/// coefficients so queries stay well inside the solver's budgets.
fn cond_strategy() -> impl proptest::strategy::Strategy<Value = String> {
    (1i64..=3, any::<bool>(), 1i64..=3, 0i64..=8, 0usize..6).prop_map(|(a, minus, b, c, op)| {
        let sign = if minus { '-' } else { '+' };
        let op = ["==", "!=", "<", ">", "<=", ">="][op];
        format!("{a}*x {sign} {b}*y {op} {c}")
    })
}

/// A random two-parameter MiniC function: 2–4 linear conditionals,
/// either nested (deep paths — many flip candidates per `solve_next`)
/// or sequential (wide coverage), with an optional reachable `abort()`.
fn program_strategy() -> impl proptest::strategy::Strategy<Value = String> {
    (
        proptest::collection::vec(cond_strategy(), 2..=4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(conds, nested, aborts)| {
            let inner = if aborts { "abort();" } else { "return 9;" };
            let mut body = String::new();
            if nested {
                for c in &conds {
                    body.push_str(&format!("if ({c}) {{ "));
                }
                body.push_str(inner);
                for _ in &conds {
                    body.push_str(" }");
                }
            } else {
                for (i, c) in conds.iter().enumerate() {
                    body.push_str(&format!("if ({c}) {{ r = r + {}; }} ", i + 1));
                }
                if aborts {
                    body.push_str("if (r == 1) { abort(); } ");
                }
            }
            format!("int f(int x, int y) {{ int r; r = 0; {body} return r; }}")
        })
}

/// Runs the generated program. `unknown_on_query` injects solver
/// incompleteness at a random logical query index when the
/// `fault-injection` feature is on (plain builds exercise the fault-free
/// path of the same contract).
fn run_session(
    compiled: &dart_minic::CompiledProgram,
    seed: u64,
    unknown_on_query: Option<u64>,
) -> SessionReport {
    #[cfg(not(feature = "fault-injection"))]
    let _ = unknown_on_query;
    let config = DartConfig {
        max_runs: 24,
        seed,
        stop_at_first_bug: false,
        record_paths: true,
        #[cfg(feature = "fault-injection")]
        faults: dart::FaultPlan {
            unknown_on_query,
            ..dart::FaultPlan::default()
        },
        ..DartConfig::default()
    };
    Dart::new(compiled, "f", config).unwrap().run()
}

/// Zeroes wall-clock, which the determinism contract excludes.
fn scrub(mut r: SessionReport) -> SessionReport {
    r.exec_time = std::time::Duration::ZERO;
    r.solve_time = std::time::Duration::ZERO;
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The determinism acceptance property: for random programs, random
    /// seeds and random injected-Unknown positions, two runs of one
    /// configuration produce equal `SessionReport`s after scrubbing.
    #[test]
    fn directed_reports_repeat(
        source in program_strategy(),
        seed in 0u64..1024,
        unknown_on_query in proptest::option::of(0u64..8),
    ) {
        let compiled = dart_minic::compile(&source).expect("generated source compiles");
        let first = scrub(run_session(&compiled, seed, unknown_on_query));
        let second = scrub(run_session(&compiled, seed, unknown_on_query));
        prop_assert_eq!(first, second, "source={}", source);
    }
}
