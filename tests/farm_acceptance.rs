//! Acceptance tests for the fuzzing farm: process-isolated sweep shards
//! with streaming results.
//!
//! The headline properties, exercised through the real `dartc` binary:
//!
//! 1. **Containment** — a worker that `abort()`s (or is killed) takes
//!    down only its own shard; every other function's result is
//!    byte-identical to an undisturbed in-process sweep.
//! 2. **Streaming** — `--stream` emits one JSON line per finished
//!    function.
//! 3. **Resumability** — a shard killed mid-run, with SIGKILL or by its
//!    run budget, resumes from its checkpoint on the next farm run and
//!    reports what an uninterrupted session reports, solver counters
//!    included.
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
/// sweep; on the same seeds the two must be byte-identical.
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
        farm_out, sweep_out,
        "farm must reproduce the sweep byte-for-byte"
    );
}

/// `--stream FILE` emits one JSON line per finished function, each
/// carrying the function's result line as its `summary`, and a
/// generational farm run with `--checkpoint` prints the same table as
/// the in-process sweep.
#[test]
fn stream_emits_one_json_line_per_function() {
    let dir = tempdir("stream");
    let lib = write_library(&dir);
    let stream = dir.join("run.jsonl");
    let engine = [
        "--sweep",
        "h,g,ok",
        "--threads",
        "2",
        "--mode",
        "generational",
    ];
    let (_, out, err) = run(dartc()
        .arg(&lib)
        .args(engine)
        .arg("--farm")
        .arg("--checkpoint")
        .arg(dir.join("cp"))
        .arg("--stream")
        .arg(&stream));
    assert!(err.is_empty(), "no warnings\n{err}");
    let jsonl = std::fs::read_to_string(&stream).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 3, "one line per function\n{jsonl}");
    for line in &lines {
        assert!(line.starts_with("{\"event\":\"function\","), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"outcome\":\"finished\""), "{line}");
        assert!(line.contains(" | reuse/splits "), "{line}");
        assert!(!line.contains("cache hits"), "{line}");
    }
    let (_, reference, _) = run(dartc().arg(&lib).args(engine));
    assert_eq!(out, reference);
}

/// Six inputs, eight independent branches: with a frontier budget of 3
/// the session evicts from its first restart on.
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

/// The `name` line of a result table, whole: a resumed session's line,
/// solver counters included, must equal an uninterrupted session's.
fn result_line(table: &str, name: &str) -> String {
    let prefix = format!("{name} ");
    table
        .lines()
        .find(|l| l.starts_with(&prefix))
        .map(str::to_string)
        .unwrap_or_else(|| panic!("no `{name}` line in\n{table}"))
}

/// A chain of farm runs over one checkpoint, each leg one run longer
/// than the last (`--runs 1`, `2`, ..., `24`): every leg resumes the
/// previous leg's checkpoint and must print the line the uninterrupted
/// in-process session of the same budget prints. The session evicts, so
/// every leg depends on what the checkpoint carries: the frontier, its
/// dedup set, the query cache's model pool and the solver counters, and
/// nothing more.
#[test]
fn one_run_legs_over_a_checkpoint_match_the_uninterrupted_session() {
    let dir = tempdir("chain");
    let lib = dir.join("lib.mc");
    std::fs::write(&lib, SIX_INPUTS).unwrap();
    let engine = [
        "--sweep",
        "f",
        "--threads",
        "1",
        "--mode",
        "generational",
        "--frontier-budget",
        "3",
        "--seed",
        "3",
    ];
    let mut differing = Vec::new();
    for runs in 1..=24 {
        let runs = runs.to_string();
        let (_, reference, _) = run(dartc().arg(&lib).args(engine).args(["--runs", &runs]));
        let (_, leg, err) = run(dartc()
            .arg(&lib)
            .args(engine)
            .args(["--runs", &runs, "--farm", "--checkpoint"])
            .arg(dir.join("cp")));
        assert!(err.is_empty(), "leg {runs}: {err}");
        let (want, got) = (result_line(&reference, "f"), result_line(&leg, "f"));
        if got != want {
            differing.push(format!("leg {runs}:\n  farm  {got}\n  sweep {want}"));
        }
    }
    let last = result_line(
        &run(dartc().arg(&lib).args(engine).args(["--runs", "24"])).1,
        "f",
    );
    assert!(
        !last.contains("evict/peak 0/"),
        "the session evicts: {last}"
    );
    assert!(differing.is_empty(), "{}", differing.join("\n"));
}

/// A checkpoint that `Dart::new` rejects (here, one whose header was
/// edited to `v1`) is a setup error for its function, in an in-process
/// sweep and in the farm alike: both print the same `SETUP ERROR` line,
/// with no retry and no panic, and leave the file alone.
#[test]
fn stale_checkpoint_is_a_setup_error_in_sweep_and_farm() {
    let dir = tempdir("stale");
    let lib = dir.join("lib.mc");
    std::fs::write(&lib, SIX_INPUTS).unwrap();
    let checkpoint = dir.join("cp");
    let engine = [
        "--sweep",
        "f",
        "--mode",
        "generational",
        "--seed",
        "3",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ];
    // An interrupted session leaves its seed-qualified checkpoint file.
    let (_, out, err) = run(dartc().arg(&lib).args(engine).args(["--runs", "3"]));
    assert!(err.is_empty(), "{err}");
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("cp."))
        .collect();
    assert_eq!(files.len(), 1, "{files:?}\n{out}");
    let text = std::fs::read_to_string(&files[0]).unwrap();
    let header = text.lines().next().unwrap();
    let stale = text.replacen(header, "dart-generational-checkpoint v1", 1);
    std::fs::write(&files[0], &stale).unwrap();

    let (code, sweep_out, sweep_err) = run(dartc().arg(&lib).args(engine));
    let (farm_code, farm_out, farm_err) = run(dartc().arg(&lib).args(engine).arg("--farm"));
    let line = result_line(&sweep_out, "f");
    assert!(
        line.contains("SETUP ERROR: ") && line.contains("bad header"),
        "{sweep_out}"
    );
    assert_eq!(line, result_line(&farm_out, "f"));
    for (out, err) in [(&sweep_out, &sweep_err), (&farm_out, &farm_err)] {
        assert!(out.contains("| 0 retried | 1 setup errors"), "{out}");
        assert!(!out.contains("recovered after retry"), "{out}");
        assert!(!err.contains("panicked"), "{err}");
    }
    assert_eq!((code, farm_code), (Some(1), Some(1)));
    assert_eq!(std::fs::read_to_string(&files[0]).unwrap(), stale);
}

/// SIGKILL a worker mid-session, then run the farm over the same
/// checkpoint directory: the shard resumes and prints the line an
/// undisturbed run prints, solver counters included. (The kill lands at an
/// arbitrary point, so the checkpoint may hold partial progress or
/// nothing — both must recover.)
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

    // The line of an undisturbed in-process run, which the resumed
    // session's line must equal, solver counters included.
    let (_, fresh_out, _) = run(dartc().arg(&lib).args(["--sweep", "h"]).args([
        "--mode",
        "generational",
        "--seed",
        "3",
    ]));
    let line = result_line(&farm_out, "h");
    assert_eq!(
        line,
        result_line(&fresh_out, "h"),
        "\n{farm_out}\n{fresh_out}"
    );
    assert!(line.contains("BUG FOUND"), "{farm_out}");
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
        table
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
/// — same verdicts, same fault messages — once wall-clock times are
/// zeroed.
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

    /// Zeroes wall-clock times, the only fields the determinism contract
    /// excludes.
    fn scrub(outcome: SweepOutcome) -> SweepOutcome {
        match outcome {
            SweepOutcome::Finished {
                mut report,
                retried,
            } => {
                report.exec_time = std::time::Duration::ZERO;
                report.solve_time = std::time::Duration::ZERO;
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
