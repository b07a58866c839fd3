//! Acceptance tests for the fuzzing farm: process-isolated sweep shards
//! with a crash-safe persistent fingerprint store and streaming results.
//!
//! The headline properties, exercised through the real `dartc` binary:
//!
//! 1. **Containment** — a worker that `abort()`s (or is killed) takes
//!    down only its own shard; every other function's result is
//!    byte-identical to an undisturbed in-process sweep.
//! 2. **Crash-safe persistence** — generational sessions' dedup
//!    fingerprints persist across farm runs; a corrupt, torn or
//!    older-format store loses records with one warning and is rewritten
//!    clean, and never changes a verdict.
//! 3. **Resumability** — a shard killed with SIGKILL mid-run resumes
//!    from its checkpoint on the next farm run and reaches the same
//!    verdict as an uninterrupted run.
//!
//! The fault-injection plans ride to workers over `DART_FAULT_*`
//! environment variables, so the abort/panic tests need the
//! `fault-injection` feature (CI runs this file with it enabled).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn dartc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dartc"))
}

/// A per-test scratch directory (tests run in one process, so the test
/// name keeps them from clobbering each other).
fn tempdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dart-farm-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three functions with distinct verdicts: a buggy one, a complete
/// bug-free one, and one more buggy one — enough to tell results apart.
fn write_library(dir: &Path) -> PathBuf {
    let path = dir.join("library.mc");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        r#"
        int f(int x) {{ return 2 * x; }}
        int h(int x, int y) {{
            if (x != y)
                if (f(x) == x + 10)
                    abort();
            return 0;
        }}
        int g(int a) {{
            if (a == 12345)
                abort();
            return a;
        }}
        int ok(int z) {{
            if (z > 0) return 1;
            return 0;
        }}
        "#
    )
    .unwrap();
    path
}

fn run(cmd: &mut Command) -> (Option<i32>, String, String) {
    let out = cmd.output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The farm prints the same per-function result table as the in-process
/// sweep; on the same seeds the two must be byte-identical modulo the
/// scheduling-dependent diagnostics (`wasted`, `steals` — see
/// `SolveStats::scrub_scheduling`), which any parallel solver run may
/// vary even between two in-process sweeps.
#[test]
fn farm_output_matches_in_process_sweep() {
    let dir = tempdir("parity");
    let lib = write_library(&dir);
    let sweep_args = ["--sweep", "h,g,ok", "--seed", "7"];
    let (code_a, sweep_out, _) = run(dartc().arg(&lib).args(sweep_args));
    let (code_b, farm_out, _) = run(dartc().arg(&lib).args(sweep_args).arg("--farm"));
    assert_eq!(code_a, Some(1), "two functions have bugs\n{sweep_out}");
    assert_eq!(code_b, code_a);
    assert_eq!(
        scrub_scheduling(&farm_out),
        scrub_scheduling(&sweep_out),
        "farm must reproduce the sweep byte-for-byte"
    );
}

/// `--stream FILE` emits one JSON line per finished function, and a
/// generational farm run with `--checkpoint` persists each session's
/// dedup fingerprints to `--store`. A second run over the same store —
/// with fresh checkpoints, so no session resumes and no fingerprint
/// applies — prints the same tables and keeps every fingerprint.
#[test]
fn store_persists_verdicts_and_second_run_hits_it() {
    let dir = tempdir("store-hits");
    let lib = write_library(&dir);
    let store = dir.join("fingerprints.store");
    let farm_run = |n: usize| {
        let stream = dir.join(format!("run{n}.jsonl"));
        let (_, out, err) = run(dartc()
            .arg(&lib)
            .args(["--sweep", "h,g,ok", "--farm", "--threads", "2"])
            .args(["--mode", "generational", "--checkpoint"])
            .arg(dir.join(format!("cp{n}")))
            .arg("--store")
            .arg(&store)
            .arg("--stream")
            .arg(&stream));
        assert!(err.is_empty(), "no warnings on a clean store\n{err}");
        let jsonl = std::fs::read_to_string(&stream).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3, "one line per function\n{jsonl}");
        for line in &lines {
            assert!(line.starts_with("{\"event\":\"function\","), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"outcome\":\"finished\""), "{line}");
        }
        out
    };
    let fingerprints = || -> Vec<String> {
        let text = std::fs::read_to_string(&store).unwrap();
        assert!(text.starts_with("dart-farm-store v1\n"), "{text}");
        let records: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        assert!(
            records
                .iter()
                .all(|l| l.starts_with("f ") && l.contains(" ~")),
            "checksummed fingerprint records only\n{text}"
        );
        records
    };

    let out1 = farm_run(1);
    let persisted = fingerprints();
    assert!(!persisted.is_empty(), "sessions derived children");
    let out2 = farm_run(2);
    assert_eq!(fingerprints(), persisted, "fingerprints persisted");
    assert_eq!(scrub_scheduling(&out1), scrub_scheduling(&out2));
}

/// Blanks the scheduling-dependent `wasted N | steals K` segment of
/// each result-table line — the counters the determinism contract
/// excludes. Everything else stays byte-exact.
fn scrub_scheduling(table: &str) -> String {
    let mut out = String::new();
    for line in table.lines() {
        match (line.find("| wasted "), line.find(" | frontier")) {
            (Some(a), Some(b)) if a < b => {
                out.push_str(&line[..a]);
                out.push_str("| wasted - | steals -");
                out.push_str(&line[b..]);
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// A corrupted store is truncated with one warning — from the
/// supervisor, which rewrites the store before any worker reads it — and
/// the farm still completes with correct results: persistence can only
/// lose fingerprints, never change a verdict.
#[test]
fn corrupt_store_degrades_to_cold_cache() {
    let dir = tempdir("corrupt");
    let lib = write_library(&dir);
    let store = dir.join("fingerprints.store");
    let farm_run = |n: usize, with_store: bool| {
        let mut cmd = dartc();
        cmd.arg(&lib)
            .args(["--sweep", "h,g,ok", "--farm"])
            .args(["--mode", "generational", "--checkpoint"])
            .arg(dir.join(format!("cp{n}")));
        if with_store {
            cmd.arg("--store").arg(&store);
        }
        run(&mut cmd)
    };

    let (_, reference, _) = farm_run(0, false);
    farm_run(1, true);

    // Flip a byte in the middle of the store: everything from the bad
    // line on is dropped, with a warning.
    let mut text = std::fs::read_to_string(&store).unwrap();
    assert!(text.lines().count() > 1, "fingerprints persisted\n{text}");
    let mid = text.len() / 2;
    text.replace_range(mid..mid + 1, "\u{7f}");
    std::fs::write(&store, &text).unwrap();

    let (code, out, err) = farm_run(2, true);
    assert_eq!(code, Some(1), "bugs still found\n{out}");
    assert_eq!(
        err.matches("warning:").count(),
        1,
        "corruption warns once\n{err}"
    );
    assert_eq!(
        scrub_scheduling(&out),
        scrub_scheduling(&reference),
        "verdicts unchanged"
    );

    // The supervisor rewrote a clean store: a further run loads it
    // silently.
    let (_, _, err) = farm_run(3, true);
    assert!(err.is_empty(), "store healed after rewrite\n{err}");
}

/// A store written when the farm still persisted solver verdicts: the
/// first farm run over it skips the retired `v ` records with one
/// summary warning and rewrites the store before any worker reads it,
/// keeping its fingerprints; a second run warns not at all.
#[test]
fn retired_verdict_records_warn_once_and_fingerprints_survive() {
    let dir = tempdir("retired");
    let lib = write_library(&dir);
    let store = dir.join("old.store");
    let fingerprints = [
        "f 0000000000000001 0000000000000abc",
        "f 0000000000000002 0000000000000def",
    ];
    let mut text = String::from("dart-farm-store v1\n");
    for body in [
        "v u 07 1",
        fingerprints[0],
        "v e 00 - unknown 0",
        fingerprints[1],
        "v u 0a1b 0",
    ] {
        text.push_str(&format!("{body} ~{:016x}\n", fnv64(body)));
    }
    std::fs::write(&store, text).unwrap();
    let farm_run = || {
        run(dartc()
            .arg(&lib)
            .args(["--sweep", "h,g,ok", "--farm", "--store"])
            .arg(&store))
    };

    let (code, out, err) = farm_run();
    assert_eq!(code, Some(1), "bugs still found\n{out}");
    assert_eq!(
        err.matches("warning:").count(),
        1,
        "one summary line\n{err}"
    );
    assert!(err.contains("skipped 3 retired"), "{err}");
    let text = std::fs::read_to_string(&store).unwrap();
    let bodies: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.rsplit_once(" ~").map(|(body, _)| body))
        .collect();
    assert_eq!(bodies, fingerprints, "only the fingerprints remain\n{text}");

    let (_, _, err) = farm_run();
    assert!(err.is_empty(), "the rewritten store loads silently\n{err}");
}

/// FNV-1a over a store line's body: the store's per-line checksum.
fn fnv64(body: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in body.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SIGKILL a worker mid-session, then run the farm over the same
/// checkpoint directory: the shard resumes and reaches the same verdict
/// as an undisturbed run. (The kill lands at an arbitrary point, so the
/// checkpoint may hold partial progress or nothing — both must recover.)
#[cfg(unix)]
#[test]
fn sigkilled_worker_resumes_from_checkpoint() {
    let dir = tempdir("kill-resume");
    let lib = write_library(&dir);
    let checkpoint = dir.join("cp");
    let engine = [
        "--mode",
        "generational",
        "--seed",
        "3",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ];

    // Launch the exact worker process the farm would launch for `h`
    // (attempt 0), and SIGKILL it.
    let mut worker = dartc()
        .arg(&lib)
        .args([
            "--farm-worker",
            "--toplevel",
            "h",
            "--farm-index",
            "0",
            "--farm-attempt",
            "0",
        ])
        .args(engine)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(15));
    let _ = Command::new("kill")
        .args(["-9", &worker.id().to_string()])
        .status();
    let status = worker.wait().unwrap();
    // Either the kill landed (signal) or the worker won the race and
    // finished; the farm below must produce the right verdict in both
    // worlds, so no assert on `status` beyond reaping it.
    let _ = status;

    let (code, farm_out, _) = run(dartc()
        .arg(&lib)
        .args(["--sweep", "h", "--farm"])
        .args(engine));
    assert_eq!(code, Some(1), "h has a bug\n{farm_out}");

    // Same verdict as an undisturbed in-process run. A resumed session
    // replays fewer queries than a fresh one, so compare the verdict
    // prefix, not the stats tail.
    let (_, fresh_out, _) = run(dartc().arg(&lib).args(["--sweep", "h"]).args([
        "--mode",
        "generational",
        "--seed",
        "3",
    ]));
    let verdict = |table: &str| {
        table
            .lines()
            .find(|l| l.starts_with("h "))
            .and_then(|l| l.split(" | runs").next().map(str::to_string))
            .unwrap_or_default()
    };
    assert_eq!(
        verdict(&farm_out),
        verdict(&fresh_out),
        "\n{farm_out}\n{fresh_out}"
    );
    assert!(verdict(&farm_out).contains("BUG FOUND"), "{farm_out}");
}

/// An injected `abort()` in one shard is contained: the farm reports an
/// engine fault naming the signal for that function — after exhausting
/// the retry policy — and every survivor is byte-identical to an
/// undisturbed in-process sweep.
#[cfg(all(unix, feature = "fault-injection"))]
#[test]
fn injected_abort_is_contained_and_survivors_match() {
    let dir = tempdir("abort");
    let lib = write_library(&dir);
    let args = ["--sweep", "h,g,ok", "--seed", "11", "--max-retries", "2"];

    let (_, reference, _) = run(dartc().arg(&lib).args(args));
    let (code, out, _) = run(dartc()
        .arg(&lib)
        .args(args)
        .arg("--farm")
        // Inherited by every worker; only the worker for input index 1
        // (`g`) aborts — on every attempt, so retries exhaust.
        .env("DART_FAULT_ABORT_SESSION", "1"));

    assert_eq!(code, Some(1), "faults mean a nonzero exit\n{out}");
    let fault_line = out.lines().find(|l| l.starts_with("g ")).unwrap();
    assert!(
        fault_line.contains("ENGINE FAULT") && fault_line.contains("signal 6"),
        "SIGABRT must be named: {fault_line}"
    );
    assert!(out.contains("1 engine faults"), "{out}");
    assert!(out.contains("1 retried"), "{out}");

    let survivors = |table: &str| -> Vec<String> {
        scrub_scheduling(table)
            .lines()
            .filter(|l| l.starts_with("h ") || l.starts_with("ok "))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        survivors(&out),
        survivors(&reference),
        "survivors undisturbed"
    );
}

/// Determinism under recoverable fault injection: for plans a
/// `catch_unwind` can contain (panics, forced-unknown queries, denied
/// allocations) the farm and the in-process sweep agree result-for-result
/// — same verdicts, same fault messages — once scheduling-dependent
/// diagnostics are scrubbed.
#[cfg(feature = "fault-injection")]
mod determinism {
    use super::*;
    use dart::{sweep, DartConfig, FarmJob, FarmOptions, FaultPlan, SweepOutcome};
    use proptest::prelude::*;

    const SOURCE: &str = r#"
        int f(int x) { return 2 * x; }
        int h(int x, int y) {
            if (x != y)
                if (f(x) == x + 10)
                    abort();
            return 0;
        }
        int g(int a) {
            if (a == 12345)
                abort();
            return a;
        }
        int boxed(int n) {
            int *p;
            p = malloc(16);
            *p = n;
            if (*p == 9) return 1;
            return 0;
        }
    "#;

    fn farm_results(lib: &Path, names: &[String], plan: FaultPlan) -> Vec<SweepOutcome> {
        let options = FarmOptions {
            threads: 2,
            max_retries: 1,
            ..FarmOptions::default()
        };
        let command = move |job: &FarmJob| -> Command {
            let mut cmd = dartc();
            cmd.arg(lib)
                .args(["--farm-worker", "--toplevel", job.function])
                .args(["--farm-index", &job.index.to_string()])
                .args(["--farm-attempt", &job.attempt.to_string()])
                .args(["--seed", "5"]);
            if let Some(i) = plan.panic_in_session {
                cmd.env("DART_FAULT_PANIC_SESSION", i.to_string());
            }
            if let Some(n) = plan.unknown_on_query {
                cmd.env("DART_FAULT_UNKNOWN_QUERY", n.to_string());
            }
            if let Some(m) = plan.deny_alloc {
                cmd.env("DART_FAULT_DENY_ALLOC", m.to_string());
            }
            cmd
        };
        dart::run_farm(names, &options, &command, None)
            .unwrap()
            .into_iter()
            .map(|r| scrub(r.outcome))
            .collect()
    }

    /// Zeroes wall-clock times and scheduling diagnostics, the only
    /// fields the determinism contract excludes.
    fn scrub(outcome: SweepOutcome) -> SweepOutcome {
        match outcome {
            SweepOutcome::Finished {
                mut report,
                retried,
            } => {
                report.exec_time = std::time::Duration::ZERO;
                report.solve_time = std::time::Duration::ZERO;
                report.solver.scrub_scheduling();
                SweepOutcome::Finished { report, retried }
            }
            fault => fault,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn farm_equals_sweep_under_fault_injection(
            panic_ix in proptest::option::of(0usize..4),
            unknown_q in proptest::option::of(0u64..3),
            deny_m in proptest::option::of(0u64..3),
        ) {
            let plan = FaultPlan {
                panic_in_session: panic_ix,
                unknown_on_query: unknown_q,
                deny_alloc: deny_m,
                abort_in_session: None,
            };
            let dir = tempdir("determinism");
            let lib = dir.join("library.mc");
            std::fs::write(&lib, SOURCE).unwrap();
            let compiled = dart_minic::compile(SOURCE).unwrap();
            let names: Vec<String> =
                ["h", "g", "boxed"].into_iter().map(String::from).collect();

            let config = DartConfig { seed: 5, faults: plan, ..DartConfig::default() };
            let in_process: Vec<SweepOutcome> = sweep(&compiled, &names, &config, 2)
                .unwrap()
                .into_iter()
                .map(|r| scrub(r.outcome))
                .collect();
            let farm = farm_results(&lib, &names, plan);

            prop_assert_eq!(farm, in_process);
        }
    }
}
