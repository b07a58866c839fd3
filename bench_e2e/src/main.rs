//! `bench_e2e`: see the crate documentation for the workloads, the
//! metrics and what each per-layer metric should move.

use dart_bench_e2e::trace::LayerTrace;
use dart_bench_e2e::workload::{Built, Session, Workload};
use dart_bench_e2e::{run, run_traced, Observed};
use std::process::{exit, Command};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed BASE] [--seconds N] [--trace 0|1]";

/// How long a run builds its workload back to back before the first
/// session; `setup_s` is the median build. A build's time follows the
/// machine's state over tens of milliseconds, so a fixed handful of
/// builds would sample a single state.
const SETUP_TIME: Duration = Duration::from_secs(1);
/// How often the traced run lowers each program to time `ram` decoding.
const DECODE_REPEATS: usize = 5;
/// Wrong verdicts printed in full before the rest are only counted.
const MAX_REPORTED_FAILURES: u64 = 10;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    /// How long a run measures. The benchmark contract passes
    /// `BENCHMARK.json`'s `run_seconds` here on every run; the default is
    /// the same value.
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 25,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("bench_e2e: {msg}\n{USAGE}");
        exit(2)
    });
    let mut dart_vars: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("DART_"))
        .collect();
    if !dart_vars.is_empty() {
        dart_vars.sort();
        eprintln!(
            "bench_e2e: unset {} first: the benchmark measures every commit at the \
             code's own defaults",
            dart_vars.join(", ")
        );
        exit(2);
    }
    exit(match args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    })
}

/// Runs every workload in a child process of its own and prints the
/// merged table, then one JSON object holding each child's result
/// (`null` for a child that printed none). Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut outputs = Vec::new();
    let mut code = 0;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = match output {
            Ok(output) => {
                if !output.status.success() {
                    eprintln!(
                        "bench_e2e: the {} run failed ({})",
                        workload.name(),
                        output.status
                    );
                    code = 1;
                }
                String::from_utf8_lossy(&output.stdout).into_owned()
            }
            Err(e) => {
                eprintln!("bench_e2e: cannot start the {} run: {e}", workload.name());
                code = 1;
                String::new()
            }
        };
        outputs.push((workload.name(), stdout));
    }
    // Each run printed `name value unit` lines, then its JSON object.
    let tables: Vec<Vec<[&str; 3]>> = outputs
        .iter()
        .map(|(_, out)| {
            out.lines()
                .filter(|line| !line.starts_with('{'))
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    Some([fields.next()?, fields.next()?, fields.next()?])
                })
                .collect()
        })
        .collect();
    let mut rows: Vec<[&str; 3]> = Vec::new();
    for &row in tables.iter().flatten() {
        if !rows.iter().any(|r| r[0] == row[0]) {
            rows.push(row);
        }
    }
    print!("{:<28} {:<9}", "metric", "unit");
    for (name, _) in &outputs {
        print!(" {name:>22}");
    }
    println!();
    for [metric, _, unit] in rows {
        print!("{metric:<28} {unit:<9}");
        for table in &tables {
            let value = table.iter().find(|r| r[0] == metric).map_or("-", |r| r[1]);
            print!(" {value:>22}");
        }
        println!();
    }
    let results: Vec<String> = outputs
        .iter()
        .map(|(name, out)| {
            let json = out.lines().last().filter(|line| line.starts_with('{'));
            format!("\"{name}\": {}", json.unwrap_or("null"))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"workloads\": {{{}}}}}",
        code == 0,
        results.join(", ")
    );
    code
}

/// One metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Verdict bookkeeping over every session a run executes.
struct Tally {
    workload: Workload,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, session: &Session, result: &Result<Observed, String>) {
        self.attempted += 1;
        match result {
            Ok(observed) if session.expect.holds(observed) => {}
            Ok(observed) => self.fail(
                session,
                format!("expected {:?}, got {:?}", session.expect, observed.outcome),
            ),
            Err(fault) => self.fail(session, format!("engine fault: {fault}")),
        }
    }

    /// Checks a traced session like [`Tally::check`], and that it observed
    /// what the untraced run of the same session observed: otherwise the
    /// replica has drifted from `Dart::run` and its layer times describe
    /// another program.
    fn check_traced(
        &mut self,
        session: &Session,
        traced: &Result<Observed, String>,
        untraced: &Result<Observed, String>,
    ) {
        match (traced, untraced) {
            (Ok(t), Ok(u)) if t != u => {
                self.attempted += 1;
                self.fail(
                    session,
                    format!("the traced run observed {t:?}, the untraced run {u:?}"),
                );
            }
            _ => self.check(session, traced),
        }
    }

    fn fail(&mut self, session: &Session, problem: String) {
        self.failed += 1;
        if self.failed <= MAX_REPORTED_FAILURES {
            eprintln!(
                "bench_e2e: {} session {} (seed {}): {problem}",
                self.workload.name(),
                session.toplevel,
                session.config.seed
            );
        }
    }
}

/// Runs one workload for `args.seconds` and prints its metrics. Returns
/// the exit code.
fn run_workload(workload: Workload, args: &Args) -> i32 {
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut compile = Vec::new();
    let mut built = None;
    let setup_started = Instant::now();
    while built.is_none() || setup_started.elapsed() < SETUP_TIME {
        let started = Instant::now();
        let b = workload.build(args.seed);
        setup.push(started.elapsed().as_secs_f64());
        generate.push(b.generate.as_secs_f64());
        compile.push(b.compile.as_secs_f64());
        built = Some(b);
    }
    let built = built.expect("the loop builds at least once");
    let n = built.sessions.len();

    let mut tally = Tally {
        workload,
        attempted: 0,
        failed: 0,
    };
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut layers = LayerTrace::default();
    let mut traced_passes = Duration::ZERO;
    let mut passes = 0u32;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    'passes: loop {
        let pass_started = Instant::now();
        let mut untraced = Vec::new();
        for (i, session) in built.sessions.iter().enumerate() {
            // An untraced run samples sessions up to the deadline, even
            // mid-pass; the first pass always completes.
            if passes > 0 && !args.trace && started.elapsed() >= budget {
                break 'passes;
            }
            let t0 = Instant::now();
            let result = run(
                &built.programs[session.program],
                &session.toplevel,
                &session.config,
            );
            times[i].push(t0.elapsed().as_secs_f64());
            tally.check(session, &result);
            if args.trace {
                untraced.push(result);
            }
        }
        if args.trace {
            let t0 = Instant::now();
            for (session, plain) in built.sessions.iter().zip(&untraced) {
                let program = &built.programs[session.program];
                let result = run_traced(program, &session.toplevel, &session.config, &mut layers);
                tally.check_traced(session, &result, plain);
            }
            traced_passes += t0.elapsed();
        }
        passes += 1;
        // A traced run keeps to whole pass pairs, so per-pass layer sums
        // stay exact: it stops when another pair would overrun.
        if args.trace && started.elapsed() + pass_started.elapsed() > budget {
            break;
        }
    }

    // Each session's fastest pass: contention on a shared machine only
    // ever adds time, and it drifts by tens of percent over seconds, so
    // the minimum is the steadiest estimate of the session's cost.
    let session_s: Vec<f64> = times
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let metrics = if args.trace {
        let untraced: f64 = times.iter().flatten().sum();
        layer_metrics(
            &built,
            &layers,
            passes,
            traced_passes,
            untraced,
            &session_s,
            &generate,
            &compile,
        )
    } else {
        let mut ttfb: Vec<f64> = built
            .sessions
            .iter()
            .zip(&session_s)
            .filter(|(s, _)| s.expect.is_bug())
            .map(|(_, &t)| t)
            .collect();
        vec![
            metric("setup_s", median(&mut setup), "s"),
            metric("wall_s", session_s.iter().sum(), "s"),
            metric("verdict_s.p50", median(&mut session_s.clone()), "s"),
            metric("ttfb_s.p50", median(&mut ttfb), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    for m in &metrics {
        println!("{:<28} {:>24} {}", m.name, m.value, m.unit);
    }
    let json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    i32::from(tally.failed > 0)
}

/// The per-layer metrics of `passes` traced passes over `built`, plus the
/// verdict-time tails of the untraced sessions (`session_s`).
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    built: &Built,
    t: &LayerTrace,
    passes: u32,
    traced_passes: Duration,
    untraced_s: f64,
    session_s: &[f64],
    generate: &[f64],
    compile: &[f64],
) -> Vec<Metric> {
    let per_pass = |d: Duration| d.as_secs_f64() / f64::from(passes);
    let count = |c: u64| c as f64 / f64::from(passes);
    let session = t.session.as_secs_f64();
    let share = |d: Duration| ratio(d.as_secs_f64(), session);
    let residual = t
        .session
        .saturating_sub(t.ram + t.exec + t.search + t.frontier);
    let queries = t.sat + t.unsat + t.unknown;

    let mut decode_us: Vec<f64> = built
        .programs
        .iter()
        .flat_map(|p| {
            (0..DECODE_REPEATS).map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(dart_ram::DecodedProgram::new(&p.program));
                t0.elapsed().as_secs_f64() * 1e6
            })
        })
        .collect();
    let mut run_us = t.run_us.clone();
    let mut call_us = t.call_us.clone();
    let mut path_len = t.path_len.clone();
    let mut runs_to_bug = t.runs_to_bug.clone();
    // A tail percentile only where at least ten sessions lie beyond it;
    // 0 elsewhere.
    let tail = |p: f64, min_sessions: usize| {
        if session_s.len() >= min_sessions {
            percentile(&mut session_s.to_vec(), p)
        } else {
            0.0
        }
    };

    vec![
        metric("verdict_s.p90", tail(0.90, 100), "s"),
        metric("verdict_s.p99", tail(0.99, 1000), "s"),
        metric("workloads.generate_s", median(&mut generate.to_vec()), "s"),
        metric("minic.compile_s", median(&mut compile.to_vec()), "s"),
        metric("ram.decode_us.p50", median(&mut decode_us), "us"),
        metric("ram.share", share(t.ram), "fraction"),
        metric("exec.s", per_pass(t.exec), "s"),
        metric("exec.share", share(t.exec), "fraction"),
        metric("exec.run_us.p50", percentile(&mut run_us, 0.50), "us"),
        metric("exec.run_us.p99", percentile(&mut run_us, 0.99), "us"),
        metric("exec.steps", count(t.steps), "count"),
        metric(
            "exec.ns_per_step",
            ratio(t.exec.as_secs_f64() * 1e9, t.steps as f64),
            "ns",
        ),
        metric(
            "exec.path_len.p50",
            percentile(&mut path_len, 0.50),
            "count",
        ),
        metric("exec.path_len.max", percentile(&mut path_len, 1.0), "count"),
        metric(
            "exec.fast_step_share",
            ratio(t.fast_steps as f64, t.steps as f64),
            "fraction",
        ),
        metric("search.s", per_pass(t.search), "s"),
        metric("search.share", share(t.search), "fraction"),
        metric("search.call_us.p50", percentile(&mut call_us, 0.50), "us"),
        metric("search.call_us.p99", percentile(&mut call_us, 0.99), "us"),
        metric("search.queries", count(queries), "count"),
        metric(
            "search.us_per_query",
            ratio(t.search.as_secs_f64() * 1e6, queries as f64),
            "us",
        ),
        metric(
            "search.sat_share",
            ratio(t.sat as f64, queries as f64),
            "fraction",
        ),
        metric(
            "search.cache_hit_share",
            ratio(t.cache_hits as f64, queries as f64),
            "fraction",
        ),
        metric("search.model_reuse", count(t.model_reuse), "count"),
        metric("search.split_solves", count(t.split_solves), "count"),
        metric("search.warm_pivots", count(t.warm_pivots), "count"),
        metric("search.cold_restarts", count(t.cold_restarts), "count"),
        metric("search.unknown", count(t.unknown), "count"),
        metric(
            "search.unknown_rate_bp",
            ratio(t.unknown as f64 * 1e4, queries as f64),
            "bp",
        ),
        metric("search.runs_to_bug.p50", median(&mut runs_to_bug), "count"),
        metric("frontier.share", share(t.frontier), "fraction"),
        metric("frontier.peak", t.frontier_peak as f64, "count"),
        metric("frontier.dedup_hits", count(t.dedup_hits), "count"),
        metric("frontier.evicted", count(t.evicted), "count"),
        metric("driver.residual_s", per_pass(residual), "s"),
        metric("driver.share", share(residual), "fraction"),
        metric("driver.runs", count(t.runs), "count"),
        metric("driver.runs_per_s", ratio(t.runs as f64, session), "1/s"),
        metric("driver.restarts", count(t.restarts), "count"),
        metric("driver.divergences", count(t.divergences), "count"),
        metric(
            "trace.unattributed_share",
            ratio(
                traced_passes.as_secs_f64() - session,
                traced_passes.as_secs_f64(),
            ),
            "fraction",
        ),
        metric(
            "trace.overhead_share",
            ratio(session, untraced_s) - 1.0,
            "fraction",
        ),
    ]
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `p`-quantile of `values` (sorted in place), interpolated linearly
/// between the closest ranks; 0 when there are none.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}
