//! `bench_smoke` — regression smoke check for the solver's incremental
//! prefix sessions, the generational frontier and instrumented execution.
//!
//! The vendored criterion stand-in prints no machine-readable medians, so
//! this binary re-runs the same workload shapes as `benches/solver.rs`
//! (`prefix_session/*`) plus the generational workloads (`gen/*`,
//! `gen_dedup/*`) and one loop-dense instrumented run (`exec/interp`),
//! computes a median nanoseconds-per-iteration for each, and compares
//! against a committed baseline JSON.
//!
//! ```text
//! bench_smoke [--baseline PATH] [--tolerance PCT] [--write-baseline] [--gate]
//!             [--json PATH] [--unknown-baseline PATH] [--write-unknown-baseline]
//! ```
//!
//! By default regressions are *reported*, never fatal. With `--gate`,
//! any benchmark more than `--tolerance` percent over its baseline
//! median fails the process (exit 1) — CI runs this mode with a wide
//! 50% (1.5× median) tolerance so only real regressions trip it.
//! `--write-baseline` overwrites PATH (default `crates/bench/baseline.json`)
//! with this machine's medians; run it when a deliberate perf change shifts
//! the numbers. `--json PATH` additionally writes a machine-readable
//! snapshot — every workload median plus the derived speedup ratios — for
//! committing alongside a perf-focused change (e.g. `BENCH_8.json`).
//!
//! Alongside the perf gate runs a *completeness* check: the
//! `unknown_rate` of every report-producing workload, in basis points,
//! against `crates/bench/unknown_baseline.json` (refresh with
//! `--write-unknown-baseline`). A budget knob that turns hard queries
//! into `Unknown` shows up here the way a slow path shows up in the perf
//! table. With `--gate`, an entry more than 100 bp over its baseline — or
//! a missing or unreadable baseline file — fails the process (exit 1);
//! without it, the same findings are printed as warnings.

use dart::{run_once, Dart, DartConfig, EngineMode, InputTape};
use dart_bench::flag_value;
use dart_ram::MachineConfig;
use dart_solver::{Constraint, LinExpr, RelOp, Solver, Var};
use std::process::ExitCode;
use std::time::Instant;

fn v(i: u32) -> LinExpr {
    LinExpr::var(Var(i))
}

/// Same shape as `benches/solver.rs::equality_chain(12)`.
fn equality_chain(len: u32) -> Vec<Constraint> {
    let mut cs = vec![Constraint::new(v(0).offset(-1001), RelOp::Eq)];
    for i in 1..len {
        cs.push(Constraint::new(v(i).sub(&v(i - 1)).offset(-1), RelOp::Eq));
    }
    cs
}

fn prefix_plain_workload() -> usize {
    let solver = Solver::default();
    let path = equality_chain(12);
    let mut sat = 0;
    for j in 0..path.len() {
        let mut q: Vec<Constraint> = path[..j].to_vec();
        q.push(path[j].negated());
        if solver.solve_with_hint(&q, |_| Some(-1)).is_sat() {
            sat += 1;
        }
    }
    sat
}

fn prefix_session_workload() -> usize {
    let solver = Solver::default();
    let path = equality_chain(12);
    let mut sess = solver.session();
    for cs in path.iter() {
        sess.push(cs);
    }
    let mut sat = 0;
    for (j, c) in path.iter().enumerate() {
        if sess.solve_query(j, &c.negated(), |_| Some(-1)).is_sat() {
            sat += 1;
        }
    }
    sat
}

/// The redundant-path program for the generational groups. The leading
/// `x*x` guard is outside the linear theory, so its run taints and the
/// session can never claim completeness: it restarts until the run
/// budget, and every restart re-derives the same children — two
/// satisfiable flips plus two budget-burning lazy-`!=` unsat proofs
/// (`a != 4` under `2a == 8`). With path-prefix dedup on, restarts skip
/// all of those solver queries; with it off, every restart pays full
/// price — the `gen_dedup/{off,on}` comparison.
fn gen_program() -> dart_minic::CompiledProgram {
    dart_minic::compile(
        r#"
        int gen_target(int x, int a, int b) {
            if (x*x == 999983) { return 7; }
            if (2*a == 8) { if (a != 4) { return 1; } return 2; }
            if (2*b == 8) { if (b != 4) { return 3; } return 4; }
            return 0;
        }
        "#,
    )
    .expect("generational workload compiles")
}

fn generational_report(compiled: &dart_minic::CompiledProgram, dedup: bool) -> dart::SessionReport {
    let config = DartConfig {
        mode: EngineMode::Generational,
        frontier_dedup: dedup,
        max_runs: 60,
        seed: 0,
        stop_at_first_bug: false,
        ..DartConfig::default()
    };
    Dart::new(compiled, "gen_target", config)
        .expect("generational workload config is valid")
        .run()
}

fn generational_workload(compiled: &dart_minic::CompiledProgram, dedup: bool) -> usize {
    generational_report(compiled, dedup).runs as usize
}

/// The execution workload program: ~10k statements of concrete loop
/// arithmetic with a single symbolic comparison at the end — CPU-bound
/// code whose inputs only matter at a few branch points, so the run's
/// cost is the interpreter and its symbolic mirroring.
fn exec_program() -> dart_minic::CompiledProgram {
    dart_minic::compile(
        r#"
        int exec_hot(int n) {
            int i; int acc;
            i = 0;
            acc = 1;
            while (i < 4000) {
                acc = acc + 3*i - acc/7;
                if (acc > 100000) { acc = acc - 100000; }
                i = i + 1;
            }
            if (acc == n) { return 1; }
            return acc;
        }
        "#,
    )
    .expect("exec workload compiles")
}

/// One fixed-tape run of [`exec_program`] — the `exec/interp` row.
fn exec_workload(compiled: &dart_minic::CompiledProgram) -> usize {
    let sig = compiled.fn_sig("exec_hot").expect("toplevel exists");
    let result = run_once(
        compiled,
        sig,
        1,
        MachineConfig::default(),
        InputTape::new(0),
        Vec::new(),
        32,
    );
    result.steps as usize
}

/// Completeness margins for the report-producing workloads, in basis
/// points (`unknown_rate * 10_000`, rounded). These are deterministic —
/// seeded, sequential sessions — so unlike the perf medians they need no
/// sampling and tolerate only a small drift band: a budget knob turning
/// hard queries into `Unknown` regresses completeness the way a slow
/// path regresses perf, and is caught the same way.
fn unknown_rates(gen_lib: &dart_minic::CompiledProgram) -> Vec<(String, u64)> {
    let bp = |r: &dart::SessionReport| (r.solver.unknown_rate() * 10_000.0).round() as u64;
    [
        ("gen/scored", bp(&generational_report(gen_lib, true))),
        ("gen_dedup/off", bp(&generational_report(gen_lib, false))),
        ("gen_dedup/on", bp(&generational_report(gen_lib, true))),
    ]
    .into_iter()
    .map(|(k, v)| (format!("unknown_rate/{k}"), v))
    .collect()
}

/// Absolute drift allowed on each `unknown_rate` entry, in basis points
/// (100 = one percentage point). Deterministic workloads should sit
/// exactly on their baseline; the band only absorbs deliberate
/// workload-shape edits small enough not to matter.
const UNKNOWN_TOLERANCE_BP: u64 = 100;

/// The completeness gate: every current `unknown_rate` entry against the
/// baseline file's text (`Err` when it could not be read). Returns the
/// problems — an entry more than [`UNKNOWN_TOLERANCE_BP`] over its
/// baseline, or a baseline that is missing or does not parse; empty means
/// the gate passes. An entry the baseline lacks is a new workload, not a
/// regression.
fn unknown_rate_problems(
    current: &[(String, u64)],
    baseline: Result<String, String>,
    path: &str,
) -> Vec<String> {
    let baseline = match baseline.and_then(|text| parse_baseline(&text)) {
        Ok(baseline) => baseline,
        Err(e) => {
            return vec![format!(
                "{path}: {e} — run with --write-unknown-baseline first"
            )]
        }
    };
    current
        .iter()
        .filter_map(|(name, bp)| {
            let (_, base) = baseline.iter().find(|(k, _)| k == name)?;
            (*bp > base + UNKNOWN_TOLERANCE_BP).then(|| {
                format!(
                    "{name}: unknown rate {bp} bp vs baseline {base} bp \
                     (+{} bp over the {UNKNOWN_TOLERANCE_BP} bp band)",
                    bp - base
                )
            })
        })
        .collect()
}

/// Median nanoseconds per iteration: calibrates a batch size that takes a
/// few milliseconds, then medians over `SAMPLES` batches.
fn measure(mut work: impl FnMut() -> usize) -> u64 {
    const SAMPLES: usize = 15;
    // Warm-up + calibration: grow the batch until it costs >= 2 ms.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        let mut sink = 0usize;
        for _ in 0..iters {
            sink = sink.wrapping_add(work());
        }
        std::hint::black_box(sink);
        if t.elapsed().as_millis() >= 2 || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut sink = 0usize;
            for _ in 0..iters {
                sink = sink.wrapping_add(work());
            }
            std::hint::black_box(sink);
            t.elapsed().as_nanos() as u64 / iters
        })
        .collect();
    samples.sort_unstable();
    samples[SAMPLES / 2]
}

/// Parses a flat `{"name": integer, ...}` JSON object — the only shape the
/// baseline file uses, so no JSON library is needed.
fn parse_baseline(text: &str) -> Result<Vec<(String, u64)>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("baseline is not a JSON object")?;
    let mut entries = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once(':')
            .ok_or_else(|| format!("malformed entry `{part}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key in `{part}`"))?;
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("non-integer value in `{part}`"))?;
        entries.push((key.to_string(), value));
    }
    Ok(entries)
}

fn render_baseline(entries: &[(String, u64)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// The `--json` snapshot: workload medians (ns/iter) plus the derived
/// speedup ratios, nested so consumers can tell the two apart without
/// knowing the benchmark names.
fn render_json_snapshot(medians: &[(String, u64)], ratios: &[(String, f64)]) -> String {
    let med: Vec<String> = medians
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let rat: Vec<String> = ratios
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v:.3}"))
        .collect();
    format!(
        "{{\n  \"median_ns_per_iter\": {{\n{}\n  }},\n  \"speedup_ratios\": {{\n{}\n  }}\n}}\n",
        med.join(",\n"),
        rat.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path =
        flag_value("--baseline").unwrap_or_else(|| "crates/bench/baseline.json".to_string());
    // The gate's own bound: a malformed value must not silently become 50.
    let tolerance_pct: u64 = flag_value("--tolerance").unwrap_or(50);
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let gate = args.iter().any(|a| a == "--gate");
    let unknown_baseline_path = flag_value("--unknown-baseline")
        .unwrap_or_else(|| "crates/bench/unknown_baseline.json".to_string());
    let write_unknown_baseline = args.iter().any(|a| a == "--write-unknown-baseline");

    let gen_lib = gen_program();
    let exec_lib = exec_program();

    let current: Vec<(String, u64)> = vec![
        (
            "prefix_session/plain_per_query".to_string(),
            measure(prefix_plain_workload),
        ),
        (
            "prefix_session/incremental_session".to_string(),
            measure(prefix_session_workload),
        ),
        (
            "gen/scored".to_string(),
            measure(|| generational_workload(&gen_lib, true)),
        ),
        (
            "gen_dedup/off".to_string(),
            measure(|| generational_workload(&gen_lib, false)),
        ),
        (
            "gen_dedup/on".to_string(),
            measure(|| generational_workload(&gen_lib, true)),
        ),
        (
            "exec/interp".to_string(),
            measure(|| exec_workload(&exec_lib)),
        ),
    ];

    let ratio = |num: &str, den: &str| -> Option<f64> {
        let get = |k: &str| {
            current
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, ns)| *ns as f64)
        };
        Some(get(num)? / get(den)?)
    };
    // Each entry: (JSON key, human description, numerator, denominator).
    let ratio_specs: [(&str, &str, &str, &str); 1] = [(
        "gen_dedup_speedup",
        "generational path-prefix dedup (off -> on)",
        "gen_dedup/off",
        "gen_dedup/on",
    )];
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (key, description, num, den) in &ratio_specs {
        if let Some(s) = ratio(num, den) {
            println!("{description}: {s:.2}x");
            ratios.push((key.to_string(), s));
        }
    }

    if let Some(json_path) = flag_value::<String>("--json") {
        let text = render_json_snapshot(&current, &ratios);
        std::fs::write(&json_path, text)
            .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        println!("json snapshot written to {json_path}");
    }

    // The completeness gate rides next to the perf gate: same baseline
    // JSON shape, but absolute basis-point drift instead of a relative
    // percentage. Under `--gate` a failure fails the process whatever the
    // perf comparison below decides.
    let unknown_current = unknown_rates(&gen_lib);
    let mut success = ExitCode::SUCCESS;
    if write_unknown_baseline {
        std::fs::write(&unknown_baseline_path, render_baseline(&unknown_current))
            .unwrap_or_else(|e| panic!("cannot write {unknown_baseline_path}: {e}"));
        println!("unknown-rate baseline written to {unknown_baseline_path}");
    } else {
        let baseline = std::fs::read_to_string(&unknown_baseline_path).map_err(|e| e.to_string());
        let problems = unknown_rate_problems(&unknown_current, baseline, &unknown_baseline_path);
        if problems.is_empty() {
            println!("unknown rates within {UNKNOWN_TOLERANCE_BP} bp of {unknown_baseline_path}");
        } else {
            let tag = if gate { "FAIL" } else { "WARN" };
            for problem in &problems {
                println!("{tag} {problem}");
            }
            println!(
                "{tag}: completeness check failed vs {unknown_baseline_path} \
                 (refresh with --write-unknown-baseline if deliberate)"
            );
            if gate {
                success = ExitCode::from(1);
            }
        }
    }

    if write_baseline {
        std::fs::write(&baseline_path, render_baseline(&current))
            .unwrap_or_else(|e| panic!("cannot write {baseline_path}: {e}"));
        println!("baseline written to {baseline_path}");
        for (name, ns) in &current {
            println!("  {name}: {ns} ns/iter");
        }
        return success;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                println!("WARN: {baseline_path}: {e} — regenerate with --write-baseline");
                return success;
            }
        },
        Err(e) => {
            println!("WARN: cannot read {baseline_path}: {e} — run with --write-baseline first");
            return success;
        }
    };

    let mode = if gate {
        "gating: fails the build"
    } else {
        "informational only"
    };
    println!(
        "bench smoke vs {baseline_path} (flag at +{tolerance_pct}%; {mode})\n\
         {:<44} {:>12} {:>12} {:>8}",
        "benchmark", "baseline", "current", "delta"
    );
    let mut regressions = 0usize;
    for (name, ns) in &current {
        let Some((_, base)) = baseline.iter().find(|(k, _)| k == name) else {
            println!("{name:<44} {:>12} {ns:>12} {:>8}", "(missing)", "-");
            continue;
        };
        let delta_pct = (*ns as f64 / *base as f64 - 1.0) * 100.0;
        let flag = if *ns > base.saturating_mul(100 + tolerance_pct) / 100 {
            regressions += 1;
            "  WARN"
        } else {
            ""
        };
        println!("{name:<44} {base:>10}ns {ns:>10}ns {delta_pct:>+7.1}%{flag}");
    }
    if regressions > 0 {
        println!(
            "\n{}: {regressions} benchmark(s) regressed more than {tolerance_pct}% — \
             investigate, or refresh the baseline with --write-baseline if intentional",
            if gate { "FAIL" } else { "WARN" }
        );
        if gate {
            return ExitCode::from(1);
        }
    } else {
        println!("\nall benchmarks within {tolerance_pct}% of baseline");
    }
    success
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrips() {
        let entries = vec![("a/b".to_string(), 123u64), ("c".to_string(), 9)];
        let text = render_baseline(&entries);
        assert_eq!(parse_baseline(&text).unwrap(), entries);
    }

    #[test]
    fn json_snapshot_has_both_sections() {
        let text = render_json_snapshot(
            &[
                ("gen_dedup/off".to_string(), 2000),
                ("gen_dedup/on".to_string(), 400),
            ],
            &[("gen_dedup_speedup".to_string(), 5.0)],
        );
        assert!(text.contains("\"median_ns_per_iter\""));
        assert!(text.contains("\"gen_dedup/on\": 400"));
        assert!(text.contains("\"speedup_ratios\""));
        assert!(text.contains("\"gen_dedup_speedup\": 5.000"));
        // Keys never need escaping, so the snapshot stays flat JSON.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn unknown_rate_gate_fails_on_regressions_and_missing_baselines() {
        let current = vec![
            ("unknown_rate/a".to_string(), 150),
            ("unknown_rate/new".to_string(), 900),
        ];
        let baseline = |base: u64| Ok(format!("{{\"unknown_rate/a\": {base}}}"));
        // At most 100 bp over the baseline passes; a workload the
        // baseline lacks is new, not a regression.
        assert!(unknown_rate_problems(&current, baseline(150), "b.json").is_empty());
        assert!(unknown_rate_problems(&current, baseline(50), "b.json").is_empty());
        // 101 bp over fails, naming the workload.
        let problems = unknown_rate_problems(&current, baseline(49), "b.json");
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("unknown_rate/a:"), "{problems:?}");
        // A missing or malformed baseline fails too.
        let missing = unknown_rate_problems(&current, Err("not found".into()), "b.json");
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("b.json"));
        let garbage = unknown_rate_problems(&current, Ok("[1]".into()), "b.json");
        assert_eq!(garbage.len(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_baseline("[1, 2]").is_err());
        assert!(parse_baseline("{\"a\": x}").is_err());
        assert!(parse_baseline("{a: 1}").is_err());
        assert!(parse_baseline("{}").unwrap().is_empty());
    }

    #[test]
    fn workloads_return_expected_sat_counts() {
        // The workload shapes must stay solvable the way the real benches
        // assume; a change in sat counts means the benchmark moved.
        assert_eq!(prefix_plain_workload(), prefix_session_workload());
    }

    #[test]
    fn unknown_rates_cover_the_generational_workloads() {
        let rates = unknown_rates(&gen_program());
        assert_eq!(rates.len(), 3);
        assert!(rates.iter().all(|(k, _)| k.starts_with("unknown_rate/")));
        // Basis points stay in [0, 10000] by construction.
        assert!(rates.iter().all(|(_, bp)| *bp <= 10_000));
    }

    #[test]
    fn generational_workload_restarts_to_its_budget() {
        // The tainting `x*x` guard must keep the session incomplete so it
        // restarts until max_runs — that redundancy is what the dedup
        // comparison measures. If this stops holding, the bench went dead.
        let compiled = gen_program();
        let on = generational_report(&compiled, true);
        let off = generational_report(&compiled, false);
        assert_eq!(on.runs, 60, "dedup-on session exhausts the run budget");
        assert_eq!(off.runs, 60, "dedup-off session exhausts the run budget");
        assert!(on.restarts > 1, "the taint forces restarts");
        assert!(on.dedup_hits > 0, "restarts re-derive deduped children");
        assert_eq!(off.dedup_hits, 0);
        let queries = |r: &dart::SessionReport| r.solver.sat + r.solver.unsat + r.solver.unknown;
        assert!(
            queries(&off) > queries(&on),
            "dedup must actually skip solver work ({} vs {})",
            queries(&off),
            queries(&on)
        );
    }

    #[test]
    fn exec_workload_is_loop_dense() {
        let steps = exec_workload(&exec_program());
        assert!(steps > 4000, "the workload must be loop-dense, got {steps}");
    }

    #[test]
    fn generational_workload_is_dedup_invariant() {
        // Both dedup settings must explore the same branch set —
        // otherwise the paired comparison measures different work.
        let compiled = gen_program();
        assert_eq!(
            generational_report(&compiled, true).branches_covered,
            generational_report(&compiled, false).branches_covered
        );
    }
}
