//! The solver query cache must be an invisible optimization: running any
//! session with the cache on vs. off produces the *same report* — same
//! runs, same bugs, same restarts, same outcome, same per-verdict solver
//! counts. Only the cache counters and wall-clock may differ.
//!
//! The same contract extends to the parallel solving layer: any
//! combination of `solve_threads` and `shared_cache` must leave the
//! report byte-identical (wall-clock and the two scheduling diagnostics
//! `parallel_wasted`/`shared_hits` excepted) — see the randomized
//! determinism proptest at the bottom.

use dart::{Dart, DartConfig, EngineMode, ExecTier, SessionReport, Strategy};
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

/// §2.5 — the AC controller state machine.
const AC_CONTROLLER: &str = r#"
    int is_room_hot = 0;
    int is_door_closed = 0;
    int ac = 0;
    void ac_controller(int message) {
        if (message == 0) is_room_hot = 1;
        if (message == 1) is_room_hot = 0;
        if (message == 2) { is_door_closed = 0; ac = 0; }
        if (message == 3) {
            is_door_closed = 1;
            if (is_room_hot) ac = 1;
        }
        if (is_room_hot && is_door_closed && !ac)
            abort();
    }
"#;

/// Everything in a report that describes *what the search did*, as
/// opposed to how fast it did it or how often the cache helped.
fn observable(r: &SessionReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.outcome.clone(),
        r.runs,
        r.bugs.clone(),
        r.divergences,
        r.restarts,
        (r.solver.sat, r.solver.unsat, r.solver.unknown),
        r.steps,
        r.branches_covered,
        r.paths.clone(),
    )
}

fn run_with_cache(source: &str, toplevel: &str, base: &DartConfig, cache: bool) -> SessionReport {
    let compiled = dart_minic::compile(source).unwrap();
    let config = DartConfig {
        solver_cache: cache,
        record_paths: true,
        ..base.clone()
    };
    Dart::new(&compiled, toplevel, config).unwrap().run()
}

fn assert_cache_invisible(source: &str, toplevel: &str, base: &DartConfig) {
    let on = run_with_cache(source, toplevel, base, true);
    let off = run_with_cache(source, toplevel, base, false);
    assert_eq!(
        observable(&on),
        observable(&off),
        "cache on/off must be observationally identical ({toplevel}, {:?})",
        base.mode
    );
    assert_eq!(
        off.solver.cache_hits, 0,
        "a disabled cache must never report hits"
    );
}

#[test]
fn directed_reports_identical_cache_on_and_off() {
    for seed in 0..4 {
        let base = DartConfig {
            max_runs: 500,
            seed,
            stop_at_first_bug: false,
            ..DartConfig::default()
        };
        assert_cache_invisible(PAPER_H, "h", &base);
        let base = DartConfig {
            depth: 2,
            max_runs: 500,
            seed,
            ..DartConfig::default()
        };
        assert_cache_invisible(AC_CONTROLLER, "ac_controller", &base);
    }
}

#[test]
fn generational_reports_identical_cache_on_and_off() {
    for seed in 0..4 {
        let base = DartConfig {
            mode: EngineMode::Generational,
            max_runs: 500,
            seed,
            stop_at_first_bug: false,
            ..DartConfig::default()
        };
        assert_cache_invisible(PAPER_H, "h", &base);
        let base = DartConfig {
            mode: EngineMode::Generational,
            depth: 2,
            max_runs: 500,
            seed,
            ..DartConfig::default()
        };
        assert_cache_invisible(AC_CONTROLLER, "ac_controller", &base);
    }
}

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
/// same constraint sets), so this config is the sharpest determinism
/// probe — and the one the cache-hit acceptance check runs on.
#[test]
fn restarting_sessions_identical_cache_on_and_off() {
    for seed in 0..4 {
        assert_cache_invisible(PAPER_H, "h", &restarting_fig1_config(seed));
    }
}

#[test]
fn cache_hits_observed_on_fig1_example() {
    let report = run_with_cache(PAPER_H, "h", &restarting_fig1_config(0), true);
    assert!(
        report.solver.cache_hits > 0,
        "restarts replay the Fig. 1 query family; expected hits, got {:?}",
        report.solver
    );
    assert!(
        report.solver.cache_model_reuse > 0,
        "fresh hints over known constraint sets should reuse pooled models, got {:?}",
        report.solver
    );
}

// ---------------------------------------------------------------------
// Randomized parallel-solving determinism
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
/// either nested (deep paths — many flip candidates per `solve_next`,
/// the parallel walk's stress case) or sequential (wide coverage), with
/// an optional reachable `abort()`.
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

/// Runs the generated program under one `(solve_threads, shared_cache,
/// exec_tier)` combination. `unknown_on_query` injects solver
/// incompleteness at a random logical query index when the
/// `fault-injection` feature is on (plain builds exercise the fault-free
/// path of the same contract).
fn run_parallel_cfg(
    compiled: &dart_minic::CompiledProgram,
    solve_threads: usize,
    shared_cache: bool,
    exec_tier: ExecTier,
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
        solve_threads,
        shared_cache,
        exec_tier,
        #[cfg(feature = "fault-injection")]
        faults: dart::FaultPlan {
            unknown_on_query,
            ..dart::FaultPlan::default()
        },
        ..DartConfig::default()
    };
    Dart::new(compiled, "f", config).unwrap().run()
}

/// Zeroes wall-clock plus every scheduling diagnostic the parallel
/// layer explicitly excludes from its determinism contract
/// (`parallel_wasted`, `shared_hits`, `steals`, `pool_idle_ns`,
/// `max_queue_depth`, `per_worker_solves`).
fn scrub(mut r: SessionReport) -> SessionReport {
    r.exec_time = std::time::Duration::ZERO;
    r.solve_time = std::time::Duration::ZERO;
    // The block counters are compiled-tier diagnostics (always zero on
    // the interpreter), outside the cross-tier determinism contract.
    r.blocks_fused = 0;
    r.block_fallbacks = 0;
    r.steps_fast_pathed = 0;
    r.solver.scrub_scheduling();
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The determinism acceptance property: for random programs, random
    /// seeds and random injected-Unknown positions, every combination of
    /// `solve_threads` ∈ {1, 4 (the work-stealing pool)} × `shared_cache`
    /// ∈ {off, on} × execution tier ∈ {interpreter, compiled} produces a
    /// byte-identical `SessionReport` after scrubbing.
    #[test]
    fn parallel_and_shared_solving_preserve_reports(
        source in program_strategy(),
        seed in 0u64..1024,
        unknown_on_query in proptest::option::of(0u64..8),
    ) {
        use ExecTier::{Compiled, Interp};
        let compiled = dart_minic::compile(&source).expect("generated source compiles");
        let baseline = scrub(run_parallel_cfg(
            &compiled, 1, false, Interp, seed, unknown_on_query,
        ));
        for (threads, shared, tier) in [
            (4, false, Interp),
            (1, true, Interp),
            (4, true, Interp),
            (1, false, Compiled),
            (4, true, Compiled),
        ] {
            let got = scrub(run_parallel_cfg(
                &compiled, threads, shared, tier, seed, unknown_on_query,
            ));
            prop_assert_eq!(
                &baseline,
                &got,
                "threads={} shared={} tier={:?} source={}",
                threads,
                shared,
                tier,
                source
            );
        }
    }
}
