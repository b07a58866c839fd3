//! The scaled generational engine's contracts:
//!
//! 1. **Determinism** — for a fixed seed and fault plan, two runs of one
//!    configuration produce equal `SessionReport`s (wall-clock
//!    excepted).
//! 2. **Dedup soundness** — path-prefix dedup may only skip *redundant*
//!    derivations: a dedup-on session covers the same branch set and
//!    finds the same bug kinds as a dedup-off session given the same
//!    generous run budget. Only run counts and the completeness claim
//!    may differ.
//! 3. **Checkpoint/resume** — a session killed at an arbitrary point and
//!    resumed from its `--checkpoint` file ends with the report of an
//!    uninterrupted session of the same seed, wall-clock excepted: the
//!    same runs, bugs, recorded paths, counters and outcome.

use dart::{Dart, DartConfig, EngineMode, SessionReport};
use proptest::prelude::*;

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

/// Zeroes wall-clock, which the determinism contract excludes.
fn scrub(mut r: SessionReport) -> SessionReport {
    r.exec_time = std::time::Duration::ZERO;
    r.solve_time = std::time::Duration::ZERO;
    r
}

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
/// either nested (deep paths — many candidate negations per expansion)
/// or sequential (wide trees — many frontier items), with an optional
/// reachable `abort()`.
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

/// Runs a generated program under the generational engine.
/// `unknown_on_query` injects solver incompleteness (and with it,
/// restarts — the dedup set's stress case) when the `fault-injection`
/// feature is on; plain builds exercise the fault-free path of the same
/// contracts.
fn run_generational_cfg(
    compiled: &dart_minic::CompiledProgram,
    dedup: bool,
    seed: u64,
    unknown_on_query: Option<u64>,
) -> SessionReport {
    #[cfg(not(feature = "fault-injection"))]
    let _ = unknown_on_query;
    let config = DartConfig {
        mode: EngineMode::Generational,
        frontier_dedup: dedup,
        max_runs: 200,
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

/// The branch set a session covered, from its recorded paths, plus the
/// set of distinct bug kinds it found — the two observables dedup must
/// preserve.
fn covered_and_bugs(r: &SessionReport) -> (Vec<(usize, bool)>, Vec<String>) {
    let mut covered: Vec<(usize, bool)> = r.paths.iter().flatten().copied().collect();
    covered.sort_unstable();
    covered.dedup();
    let mut kinds: Vec<String> = r.bugs.iter().map(|b| b.kind.to_string()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    (covered, kinds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 1: for random programs, seeds and injected-Unknown
    /// positions, two runs of one configuration produce equal
    /// generational `SessionReport`s after scrubbing — including the
    /// frontier counters (`dedup_hits`/`frontier_evicted`/
    /// `frontier_peak`).
    #[test]
    fn generational_reports_repeat(
        source in program_strategy(),
        seed in 0u64..1024,
        unknown_on_query in proptest::option::of(0u64..8),
    ) {
        let compiled = dart_minic::compile(&source).expect("generated source compiles");
        let first = scrub(run_generational_cfg(&compiled, true, seed, unknown_on_query));
        let second = scrub(run_generational_cfg(&compiled, true, seed, unknown_on_query));
        prop_assert_eq!(first, second, "source={}", &source);
    }

    /// Contract 2: dedup-on explores the same branch set and finds the
    /// same bug kinds as dedup-off. (Outcome and run counts legitimately
    /// differ: a dedup hit clears the completeness claim, so a session
    /// that ever restarted keeps restarting to its run budget instead of
    /// claiming `Complete` — but it may not *lose* coverage or bugs.)
    #[test]
    fn dedup_preserves_coverage_and_bugs(
        source in program_strategy(),
        seed in 0u64..1024,
        unknown_on_query in proptest::option::of(0u64..8),
    ) {
        let compiled = dart_minic::compile(&source).expect("generated source compiles");
        let on = run_generational_cfg(&compiled, true, seed, unknown_on_query);
        let off = run_generational_cfg(&compiled, false, seed, unknown_on_query);
        prop_assert_eq!(
            covered_and_bugs(&on),
            covered_and_bugs(&off),
            "dedup on/off coverage or bug sets diverged (source={})",
            &source
        );
    }
}

/// The dedup set actually fires (the contracts above must not be
/// vacuous): an injected solver give-up forces a restart, and the
/// restart's re-derivations are suppressed and counted.
#[cfg(feature = "fault-injection")]
#[test]
fn dedup_hits_observed_after_forced_restart() {
    let compiled = dart_minic::compile(AC_CONTROLLER).unwrap();
    let config = DartConfig {
        mode: EngineMode::Generational,
        max_runs: 200,
        seed: 0,
        stop_at_first_bug: false,
        faults: dart::FaultPlan {
            unknown_on_query: Some(1),
            ..dart::FaultPlan::default()
        },
        ..DartConfig::default()
    };
    let report = Dart::new(&compiled, "ac_controller", config).unwrap().run();
    assert!(
        report.dedup_hits > 0,
        "restarts re-derive known children; expected dedup hits, got {report}"
    );
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

/// A per-test scratch file under the target-adjacent temp dir, removed
/// on drop so reruns start clean.
struct ScratchFile(std::path::PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> ScratchFile {
        let path = std::env::temp_dir().join(format!(
            "dart-gen-checkpoint-{}-{tag}.txt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        ScratchFile(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn gen_config(seed: u64, max_runs: u64) -> DartConfig {
    DartConfig {
        mode: EngineMode::Generational,
        max_runs,
        seed,
        stop_at_first_bug: false,
        ..DartConfig::default()
    }
}

/// Contract 3, the acceptance scenario: run to completion uninterrupted;
/// then simulate kills by running the same session in small `max_runs`
/// slices, each leg resuming the previous leg's checkpoint file. The
/// final leg's whole report, wall-clock zeroed, must equal the
/// uninterrupted one: the bugs earlier legs found and the paths they
/// recorded included.
#[test]
fn killed_and_resumed_session_matches_uninterrupted() {
    for (tag, source, toplevel) in [("h", PAPER_H, "h"), ("ac", AC_CONTROLLER, "ac_controller")] {
        let compiled = dart_minic::compile(source).unwrap();
        for seed in 0..4u64 {
            for (slice, record_paths) in [(1u64, false), (2, false), (3, false), (2, true)] {
                let config = |max_runs| DartConfig {
                    record_paths,
                    ..gen_config(seed, max_runs)
                };
                let full = Dart::new(&compiled, toplevel, config(500)).unwrap().run();
                assert!(
                    full.runs < 500,
                    "the uninterrupted session must finish naturally to make \
                     the comparison meaningful (got {} runs)",
                    full.runs
                );

                let scratch = ScratchFile(std::env::temp_dir().join(format!(
                    "dart-gen-checkpoint-{}-{tag}-{seed}-{slice}-{record_paths}.txt",
                    std::process::id()
                )));
                let mut budget = slice;
                let resumed = loop {
                    let leg = DartConfig {
                        checkpoint: Some(scratch.0.clone()),
                        ..config(budget)
                    };
                    let leg = Dart::new(&compiled, toplevel, leg).unwrap().run();
                    if leg.outcome != dart::Outcome::Exhausted {
                        break leg;
                    }
                    assert!(budget < 500, "resume chain failed to converge");
                    budget += slice; // "restart the killed process" with more budget
                };
                assert_eq!(
                    scrub(resumed),
                    scrub(full),
                    "{toplevel} seed={seed} slice={slice} record_paths={record_paths}"
                );
            }
        }
    }
}

/// Six inputs, eight independent branches: with a small frontier budget
/// the session evicts from its first restart on and never finishes, so
/// every resume lands mid-search with a full model pool.
const SIX_INPUTS: &str = r#"
    int f(int a, int b, int c, int d, int e, int g) {
        int n = 0;
        if (a > 10) n = n + 1;   if (b > 20) n = n + 2;
        if (c > 30) n = n + 4;   if (d > 40) n = n + 8;
        if (e > 50) n = n + 16;  if (g > 60) n = n + 32;
        if (a + b == 7) n = n + 64;  if (c - d == 9) n = n + 128;
        return n;
    }
"#;

/// Contract 3 for sessions that never finish on their own: an evicting
/// frontier keeps a session restarting until its run budget is spent, so
/// the comparison is at a fixed final budget. The session is killed once
/// (the first leg's budget) and resumed to the final budget; the resumed
/// session must equal the uninterrupted one. Which pooled model answers a
/// query decides the child it derives, and the children decide what the
/// budget evicts, so this holds only if the checkpoint carries the query
/// cache's model pool.
#[test]
fn killed_and_resumed_evicting_session_matches_uninterrupted() {
    let compiled = dart_minic::compile(SIX_INPUTS).unwrap();
    let mut mismatches = Vec::new();
    for budget in [2usize, 4, 8] {
        for seed in 1..=5u64 {
            for (first, last) in [(30u64, 60u64), (17, 90)] {
                let config = |max_runs| DartConfig {
                    frontier_budget: Some(budget),
                    ..gen_config(seed, max_runs)
                };
                let full = Dart::new(&compiled, "f", config(last)).unwrap().run();
                assert_eq!(full.outcome, dart::Outcome::Exhausted);
                assert!(full.frontier_evicted > 0, "budget {budget} evicts");

                let scratch = ScratchFile::new(&format!("evict-{budget}-{seed}-{first}"));
                let mut resumed = None;
                for max_runs in [first, last] {
                    let leg = DartConfig {
                        checkpoint: Some(scratch.0.clone()),
                        ..config(max_runs)
                    };
                    resumed = Some(Dart::new(&compiled, "f", leg).unwrap().run());
                }
                let resumed = scrub(resumed.expect("two legs ran"));
                if resumed != scrub(full.clone()) {
                    mismatches.push(format!(
                        "budget {budget} seed {seed} {first}->{last}: resumed {resumed}, \
                         uninterrupted {full}"
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of 30 resumed sessions differ:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// A checkpoint is only loadable under the seed that recorded it: a
/// mismatched resume is an invalid config, not a silently corrupted
/// session. A malformed file is rejected the same way, and so are the
/// checkpoints of headers v1 to v3 (before the model pool, the solver
/// counters and then the whole report were saved) and a `pool` line that
/// no session writes.
#[test]
fn checkpoint_seed_mismatch_and_garbage_are_rejected() {
    let compiled = dart_minic::compile(PAPER_H).unwrap();
    let scratch = ScratchFile::new("mismatch");
    let config = DartConfig {
        checkpoint: Some(scratch.0.clone()),
        ..gen_config(7, 2)
    };
    let report = Dart::new(&compiled, "h", config).unwrap().run();
    assert_eq!(report.outcome, dart::Outcome::Exhausted);
    assert!(scratch.0.exists(), "an interrupted session left its file");

    let mismatched = DartConfig {
        checkpoint: Some(scratch.0.clone()),
        ..gen_config(8, 500)
    };
    match Dart::new(&compiled, "h", mismatched) {
        Err(dart::DartError::InvalidConfig(reason)) => {
            assert!(reason.contains("seed"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }

    let written = std::fs::read_to_string(&scratch.0).unwrap();
    let pool_line = written
        .lines()
        .find(|l| l.starts_with("pool"))
        .expect("a pool line")
        .to_string();
    let full_pool = format!("pool{}", " 0:1".repeat(65));
    let old_header = |v: &str| written.replacen("checkpoint v4", &format!("checkpoint {v}"), 1);
    for text in [
        "not a checkpoint\n".to_string(),
        old_header("v1"),
        old_header("v2"),
        old_header("v3"),
        written.replace(&pool_line, "pool 0:1,0:2"),
        written.replace(&pool_line, "pool 0:x"),
        written.replace(&pool_line, &full_pool),
    ] {
        std::fs::write(&scratch.0, &text).unwrap();
        let garbage = DartConfig {
            checkpoint: Some(scratch.0.clone()),
            ..gen_config(7, 500)
        };
        match Dart::new(&compiled, "h", garbage) {
            Err(dart::DartError::InvalidConfig(reason)) => {
                assert!(reason.contains("malformed"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }
}

/// Three abort sites behind two inputs.
const THREE_ABORTS: &str = r#"
    int f(int x, int y) {
        if (x > 10)
            abort();
        if (y == 7)
            abort();
        if (x + y == 4)
            abort();
        return 0;
    }
"#;

/// A checkpoint names the program, toplevel and depth that wrote it.
/// Resumed by another program with a function of the same name at the
/// same seed, or by the same program at another depth, it is an invalid
/// config: unchecked, the other program resumed the first one's frontier
/// and coverage and reported `complete` with `branch cov 6/2`.
#[test]
fn checkpoint_of_another_program_is_rejected() {
    let three = dart_minic::compile(THREE_ABORTS).unwrap();
    let other = dart_minic::compile("int f(int x) { if (x == 1) return 1; return 0; }").unwrap();
    let scratch = ScratchFile::new("other-program");
    let config = |max_runs, depth| DartConfig {
        checkpoint: Some(scratch.0.clone()),
        depth,
        ..gen_config(1, max_runs)
    };
    let first = Dart::new(&three, "f", config(4, 1)).unwrap().run();
    assert_eq!(first.outcome, dart::Outcome::Exhausted);
    for (compiled, depth) in [(&other, 1), (&three, 2)] {
        match Dart::new(compiled, "f", config(500, depth)) {
            Err(dart::DartError::InvalidConfig(reason)) => {
                assert!(
                    reason.contains("recorded for a different program"),
                    "{reason}"
                );
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|r| r.run())),
        }
    }
    let resumed = Dart::new(&three, "f", config(500, 1)).unwrap().run();
    let full = Dart::new(&three, "f", gen_config(1, 500)).unwrap().run();
    assert_eq!(scrub(resumed), scrub(full));
}
