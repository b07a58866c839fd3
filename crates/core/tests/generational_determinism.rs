//! The scaled generational engine's contracts:
//!
//! 1. **Scheduling invisibility** — for a fixed seed, every combination
//!    of `solve_threads` × execution tier produces a byte-identical
//!    `SessionReport` (wall-clock and the scheduling diagnostics
//!    excepted). The pooled candidate fan-out is a pure wall-clock
//!    optimization.
//! 2. **Dedup soundness** — path-prefix dedup may only skip *redundant*
//!    derivations: a dedup-on session covers the same branch set and
//!    finds the same bug kinds as a dedup-off session given the same
//!    generous run budget. Only run counts and the completeness claim
//!    may differ.
//! 3. **Checkpoint/resume** — a session killed at an arbitrary point and
//!    resumed from its `--checkpoint` file reaches the same runs,
//!    restarts, steps, coverage, bug set and outcome as an uninterrupted
//!    session of the same seed.

use dart::{Dart, DartConfig, EngineMode, ExecTier, SessionReport};
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

/// Zeroes wall-clock plus every scheduling diagnostic the parallel layer
/// excludes from its determinism contract.
fn scrub(mut r: SessionReport) -> SessionReport {
    r.exec_time = std::time::Duration::ZERO;
    r.solve_time = std::time::Duration::ZERO;
    // Block counters are compiled-tier diagnostics, zero on the
    // interpreter — outside the cross-tier contract.
    r.blocks_fused = 0;
    r.block_fallbacks = 0;
    r.steps_fast_pathed = 0;
    r.solver.scrub_scheduling();
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
/// either nested (deep paths — many candidate negations per expansion,
/// the pooled fan-out's stress case) or sequential (wide trees — many
/// frontier items), with an optional reachable `abort()`.
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

/// Runs a generated program under the generational engine with one
/// `(solve_threads, exec_tier)` combination.
/// `unknown_on_query` injects solver incompleteness (and with it,
/// restarts — the dedup set's stress case) when the `fault-injection`
/// feature is on; plain builds exercise the fault-free path of the same
/// contracts.
fn run_generational_cfg(
    compiled: &dart_minic::CompiledProgram,
    dedup: bool,
    solve_threads: usize,
    exec_tier: ExecTier,
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
        solve_threads,
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
    /// positions, every `solve_threads` × execution tier combination
    /// produces a byte-identical generational `SessionReport` after
    /// scrubbing — including the
    /// frontier counters (`dedup_hits`/`frontier_evicted`/
    /// `frontier_peak`), which are search facts, not scheduling facts.
    #[test]
    fn pooled_generational_solving_preserves_reports(
        source in program_strategy(),
        seed in 0u64..1024,
        unknown_on_query in proptest::option::of(0u64..8),
    ) {
        use ExecTier::{Compiled, Interp};
        let compiled = dart_minic::compile(&source).expect("generated source compiles");
        let baseline = scrub(run_generational_cfg(
            &compiled, true, 1, Interp, seed, unknown_on_query,
        ));
        for (threads, tier) in [(4, Interp), (1, Compiled)] {
            let got = scrub(run_generational_cfg(
                &compiled, true, threads, tier, seed, unknown_on_query,
            ));
            prop_assert_eq!(
                &baseline,
                &got,
                "threads={} tier={:?} source={}",
                threads,
                tier,
                &source
            );
        }
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
        let on = run_generational_cfg(
            &compiled, true, 1, ExecTier::Interp, seed, unknown_on_query,
        );
        let off = run_generational_cfg(
            &compiled, false, 1, ExecTier::Interp, seed, unknown_on_query,
        );
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

/// The resume-visible facts: everything deterministic that the
/// checkpoint must carry across a kill, the solver counters included.
fn resume_observable(r: &SessionReport) -> impl PartialEq + std::fmt::Debug {
    (
        (
            r.solver.sat,
            r.solver.unsat,
            r.solver.unknown,
            r.solver.cache_model_reuse,
            r.solver.split_solves,
        ),
        r.outcome.clone(),
        r.runs,
        r.restarts,
        r.steps,
        r.divergences,
        r.branches_covered,
        r.dedup_hits,
        r.frontier_evicted,
        r.frontier_peak,
    )
}

/// Contract 3, the ISSUE's acceptance scenario: run to completion
/// uninterrupted; then simulate kills by running the same session in
/// small `max_runs` slices, each leg resuming the previous leg's
/// checkpoint file, and compare the final leg (plus the union of bugs
/// found across legs) against the uninterrupted report.
#[test]
fn killed_and_resumed_session_matches_uninterrupted() {
    for (tag, source, toplevel) in [("h", PAPER_H, "h"), ("ac", AC_CONTROLLER, "ac_controller")] {
        let compiled = dart_minic::compile(source).unwrap();
        for seed in 0..4u64 {
            for slice in [1u64, 2, 3] {
                let full = Dart::new(&compiled, toplevel, gen_config(seed, 500))
                    .unwrap()
                    .run();
                assert!(
                    full.runs < 500,
                    "the uninterrupted session must finish naturally to make \
                     the comparison meaningful (got {} runs)",
                    full.runs
                );

                let scratch = ScratchFile(std::env::temp_dir().join(format!(
                    "dart-gen-checkpoint-{}-{tag}-{seed}-{slice}.txt",
                    std::process::id()
                )));
                let mut bugs = Vec::new();
                let mut budget = slice;
                let resumed = loop {
                    let config = DartConfig {
                        checkpoint: Some(scratch.0.clone()),
                        ..gen_config(seed, budget)
                    };
                    let leg = Dart::new(&compiled, toplevel, config).unwrap().run();
                    bugs.extend(leg.bugs.iter().cloned());
                    if leg.outcome != dart::Outcome::Exhausted {
                        break leg;
                    }
                    assert!(budget < 500, "resume chain failed to converge");
                    budget += slice; // "restart the killed process" with more budget
                };

                assert_eq!(
                    resume_observable(&resumed),
                    resume_observable(&full),
                    "{toplevel} seed={seed} slice={slice}"
                );
                assert_eq!(
                    bugs, full.bugs,
                    "union of bugs across legs must equal the uninterrupted \
                     bug list ({toplevel} seed={seed} slice={slice})"
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
                let resumed = resumed.expect("two legs ran");
                if resume_observable(&resumed) != resume_observable(&full) {
                    mismatches.push(format!(
                        "budget {budget} seed {seed} {first}->{last}: resumed {:?}, \
                         uninterrupted {:?}",
                        resume_observable(&resumed),
                        resume_observable(&full)
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

/// Checkpoints are tier-agnostic: a session interrupted on one execution
/// tier resumes on the other without observable difference, because both
/// tiers produce identical run results. Legs alternate interpreter and
/// compiled; the chain must match the uninterrupted interpreter session.
#[test]
fn checkpoint_resume_is_tier_agnostic() {
    let compiled = dart_minic::compile(AC_CONTROLLER).unwrap();
    for seed in 0..3u64 {
        let full = Dart::new(&compiled, "ac_controller", gen_config(seed, 500))
            .unwrap()
            .run();
        assert!(full.runs < 500, "uninterrupted session must finish");

        let scratch = ScratchFile::new(&format!("tier-{seed}"));
        let mut bugs = Vec::new();
        let mut budget = 2u64;
        let mut leg_index = 0;
        let resumed = loop {
            let config = DartConfig {
                checkpoint: Some(scratch.0.clone()),
                exec_tier: if leg_index % 2 == 0 {
                    ExecTier::Interp
                } else {
                    ExecTier::Compiled
                },
                ..gen_config(seed, budget)
            };
            let leg = Dart::new(&compiled, "ac_controller", config).unwrap().run();
            bugs.extend(leg.bugs.iter().cloned());
            if leg.outcome != dart::Outcome::Exhausted {
                break leg;
            }
            assert!(budget < 500, "resume chain failed to converge");
            budget += 2;
            leg_index += 1;
        };

        assert_eq!(
            resume_observable(&resumed),
            resume_observable(&full),
            "seed={seed}"
        );
        assert_eq!(bugs, full.bugs, "seed={seed}");
    }
}

/// A checkpoint is only loadable under the seed that recorded it: a
/// mismatched resume is an invalid config, not a silently corrupted
/// session. A malformed file is rejected the same way, and so are a
/// checkpoint from before the model pool was saved (`v1`), one from
/// before the solver counters were saved (`v2`) and a `pool` line that
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
    let solver_line = written
        .lines()
        .find(|l| l.starts_with("solver"))
        .expect("a solver line")
        .to_string();
    let v2 = written
        .replace("checkpoint v3", "checkpoint v2")
        .replace(&format!("{solver_line}\n"), "");
    let v1 = v2
        .replace("checkpoint v2", "checkpoint v1")
        .replace(&format!("{pool_line}\n"), "");
    let full_pool = format!("pool{}", " 0:1".repeat(65));
    for text in [
        "not a checkpoint\n".to_string(),
        v1,
        v2,
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
