//! `bench_smoke` — regression smoke check for the solver's headline
//! optimisations: query cache, incremental prefix sessions, parallel
//! candidate fan-out and the cross-session shared verdict store.
//!
//! The vendored criterion stand-in prints no machine-readable medians, so
//! this binary re-runs the same workload shapes as `benches/solver.rs`
//! (`query_cache/*`, `prefix_session/*`) plus the parallel-solving
//! workloads (`parallel_solve/*`, `shared_store/*`) and the execution
//! tiers (`exec/{interp,compiled}` — one loop-dense run under the
//! tree-walking interpreter vs. the pre-decoded compiled tier; see
//! EXPERIMENTS.md E11), computes a median nanoseconds-per-iteration for
//! each, and compares against a committed baseline JSON.
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
//!
//! Note on the `parallel_solve`, `work_steal` and `pool` groups: their
//! speedups are hardware-bound — on a single-core machine the paired
//! workloads are expected to tie (speculation is then pure overhead
//! bounded by the wasted-work accounting), so the printed speedup lines
//! report whatever the host delivers rather than asserting a ratio. The
//! `work_steal/skewed_*` pair runs the same skewed-cost walk (two
//! budget-capped parity flips packed into the chunk static scheduling
//! hands one worker, plus light fast-Unsat flips) under static
//! contiguous chunking vs the work-stealing pool; `pool/spawn_scoped`
//! vs `pool/dispatch_pooled` isolates per-walk thread-spawn overhead on
//! a tiny walk where dispatch cost dominates solving.

use dart::search::{solve_next, SolveStats};
use dart::{
    run_once_in_tier, Dart, DartConfig, EngineMode, FaultState, FrontierOrder, InputKind,
    InputTape, Scheduler, SolvePool, Strategy,
};
use dart_ram::{DecodedProgram, MachineConfig};
use dart_solver::simplex::{LpResult, LpRow, LpSession};
use dart_solver::{
    Constraint, LinExpr, QueryCache, Rat, RelOp, SolveOutcome, Solver, SolverConfig, Var,
};
use dart_sym::{BranchRecord, PathConstraint};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

fn v(i: u32) -> LinExpr {
    LinExpr::var(Var(i))
}

/// Same shape as `benches/solver.rs::triangle_path`: deepest flip asks for
/// `x0 != x2` under a chain forcing `x0 == x2` — the verdict-cache win.
fn triangle_path() -> Vec<Constraint> {
    vec![
        Constraint::new(v(0), RelOp::Gt),
        Constraint::new(v(1), RelOp::Gt),
        Constraint::new(v(2), RelOp::Gt),
        Constraint::new(v(0).add(&v(1)).sub(&v(2)), RelOp::Gt),
        Constraint::new(v(1).add(&v(2)).sub(&v(0)), RelOp::Gt),
        Constraint::new(v(0).sub(&v(1)), RelOp::Eq),
        Constraint::new(v(1).sub(&v(2)), RelOp::Eq),
        Constraint::new(v(0).sub(&v(2)), RelOp::Eq),
    ]
}

/// Same shape as `benches/solver.rs::equality_chain(12)`.
fn equality_chain(len: u32) -> Vec<Constraint> {
    let mut cs = vec![Constraint::new(v(0).offset(-1001), RelOp::Eq)];
    for i in 1..len {
        cs.push(Constraint::new(v(i).sub(&v(i - 1)).offset(-1), RelOp::Eq));
    }
    cs
}

fn negated_prefix_pass(cache: &mut QueryCache, solver: &Solver, path: &[Constraint]) -> usize {
    let mut sat = 0;
    for j in 0..path.len() {
        let mut q: Vec<Constraint> = path[..j].to_vec();
        q.push(path[j].negated());
        if cache.solve_with_hint(solver, &q, |_| Some(-1)).is_sat() {
            sat += 1;
        }
    }
    sat
}

fn query_cache_workload(enabled: bool) -> usize {
    let solver = Solver::default();
    let path = triangle_path();
    let mut cache = QueryCache::new(enabled);
    let mut sat = 0;
    for _ in 0..5 {
        sat += negated_prefix_pass(&mut cache, &solver, &path);
    }
    sat
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

/// A nine-candidate `solve_next` walk where every deep flip asks the
/// parity-infeasible `2x_j - 2y_j + z == 1` under `z == 0` (bounded
/// Unknown/Unsat work per candidate) and only the shallowest flip
/// (`z != 0`) is satisfiable — the worst case for a sequential walk,
/// the best case for the speculative fan-out.
fn parallel_walk_inputs() -> (PathConstraint, Vec<BranchRecord>, InputTape) {
    let mut pc = PathConstraint::new();
    pc.push(Constraint::new(v(0), RelOp::Eq)); // z == 0 (taken)
    for j in 1..=8u32 {
        let e = v(2 * j - 1)
            .scaled(2)
            .sub(&v(2 * j).scaled(2))
            .add(&v(0))
            .offset(-1);
        pc.push(Constraint::new(e, RelOp::Ne)); // 2x_j - 2y_j + z != 1
    }
    let mut tape = InputTape::new(0);
    for _ in 0..17 {
        let _ = tape.take(InputKind::IntLike, || "i".into());
    }
    let stack = (0..9)
        .map(|_| BranchRecord {
            branch: true,
            done: false,
        })
        .collect();
    (pc, stack, tape)
}

/// Runs one `solve_next` walk over fixed inputs with a fresh cache and
/// RNG, under the given scheduler. Returns 1 if a next step was found.
fn run_walk(
    solver: &Solver,
    pc: &PathConstraint,
    stack: &[BranchRecord],
    tape: &InputTape,
    scheduler: Scheduler<'_>,
) -> usize {
    let mut cache = QueryCache::new(true);
    let mut rng = SmallRng::seed_from_u64(0);
    let mut stats = SolveStats::default();
    let step = solve_next(
        pc,
        stack,
        tape,
        solver,
        &mut cache,
        Strategy::Dfs,
        &mut rng,
        &mut stats,
        &mut FaultState::default(),
        scheduler,
    );
    usize::from(step.is_some())
}

/// Small budgets bound each candidate's give-up, so one walk stays in
/// the tens-of-milliseconds range while every candidate still does
/// real solver work for the workers to speculate on.
fn bounded_solver() -> Solver {
    Solver::new(SolverConfig {
        max_bb_nodes: 150,
        max_fd_nodes: 500,
        max_ne_leaves: 8,
        ..SolverConfig::default()
    })
}

fn parallel_solve_workload(scheduler: Scheduler<'_>) -> usize {
    let solver = bounded_solver();
    let (pc, stack, tape) = parallel_walk_inputs();
    run_walk(&solver, &pc, &stack, &tape, scheduler)
}

/// A ten-candidate walk with *skewed* per-candidate costs: the two
/// deepest flips are budget-capped parity queries (`2a - 2b + z == 1`
/// under `z == 0` burns the whole branch-and-bound budget), the six
/// middle flips contradict `w == 3` directly (fast Unsat), and the
/// shallow `w != 3` flip is the satisfiable winner. DFS candidate order
/// is deepest-first, so static contiguous chunking hands *both* heavy
/// queries to worker 0 (makespan ≈ 2 heavy solves) while the
/// work-stealing pool lets an idle worker steal the second one
/// (makespan ≈ 1) — the adversarial-placement case for static chunking.
fn skewed_walk_inputs() -> (PathConstraint, Vec<BranchRecord>, InputTape) {
    let mut pc = PathConstraint::new();
    pc.push(Constraint::new(v(0), RelOp::Eq)); // z == 0
    pc.push(Constraint::new(v(1).offset(-3), RelOp::Eq)); // w == 3
    for k in 2..=7i64 {
        // k*w == 3k is implied by w == 3, so its flip is a fast Unsat.
        pc.push(Constraint::new(v(1).scaled(k).offset(-3 * k), RelOp::Eq));
    }
    for a in [2u32, 4] {
        let e = v(a)
            .scaled(2)
            .sub(&v(a + 1).scaled(2))
            .add(&v(0))
            .offset(-1);
        pc.push(Constraint::new(e, RelOp::Ne)); // 2a - 2b + z != 1 (taken)
    }
    let mut tape = InputTape::new(0);
    for _ in 0..6 {
        let _ = tape.take(InputKind::IntLike, || "i".into());
    }
    let stack = (0..10)
        .map(|_| BranchRecord {
            branch: true,
            done: false,
        })
        .collect();
    (pc, stack, tape)
}

fn skewed_workload(scheduler: Scheduler<'_>) -> usize {
    let solver = bounded_solver();
    let (pc, stack, tape) = skewed_walk_inputs();
    run_walk(&solver, &pc, &stack, &tape, scheduler)
}

/// A four-candidate walk where every query is trivial (three fast
/// Unsats and one easy Sat), so the measured time is dominated by the
/// scheduler's fixed dispatch cost: per-walk OS thread spawns for the
/// scoped scheduler vs. queue pushes into already-running workers for
/// the persistent pool.
fn tiny_walk_inputs() -> (PathConstraint, Vec<BranchRecord>, InputTape) {
    let mut pc = PathConstraint::new();
    pc.push(Constraint::new(v(0).offset(-5), RelOp::Eq)); // w == 5
    for k in 2..=4i64 {
        pc.push(Constraint::new(v(0).scaled(k).offset(-5 * k), RelOp::Eq));
    }
    let mut tape = InputTape::new(0);
    let _ = tape.take(InputKind::IntLike, || "w".into());
    let stack = (0..4)
        .map(|_| BranchRecord {
            branch: true,
            done: false,
        })
        .collect();
    (pc, stack, tape)
}

fn dispatch_workload(scheduler: Scheduler<'_>) -> usize {
    let solver = bounded_solver();
    let (pc, stack, tape) = tiny_walk_inputs();
    run_walk(&solver, &pc, &stack, &tape, scheduler)
}

/// A sweep over `n` identical two-branch functions. Every session
/// refutes the same flip (`[2x - 2y == 8, x - y != 4]`), so with the
/// shared store on, only the first session pays for it.
fn sweep_library(n: usize) -> dart_minic::CompiledProgram {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!(
            "int g{i}(int x, int y) {{ if (2*x - 2*y == 8) {{ if (x - y != 4) {{ return 1; }} return 2; }} return 0; }}\n"
        ));
    }
    dart_minic::compile(&src).expect("generated sweep library compiles")
}

fn shared_store_workload(
    compiled: &dart_minic::CompiledProgram,
    names: &[String],
    shared: bool,
) -> usize {
    let config = DartConfig {
        max_runs: 8,
        shared_cache: shared,
        solve_threads: 1,
        ..DartConfig::default()
    };
    let results = dart::sweep(compiled, names, &config, 1).expect("sweep names are valid");
    results.iter().filter(|r| r.report().is_some()).count()
}

/// The redundant-path program for the generational groups. The leading
/// `x*x` guard is outside the linear theory, so its run taints and the
/// session can never claim completeness: it restarts until the run
/// budget, and every restart re-derives the same children — two
/// satisfiable flips plus two budget-burning lazy-`!=` unsat proofs
/// (`a != 4` under `2a == 8`). With path-prefix dedup on, restarts skip
/// all of those solver queries; with it off, every restart pays full
/// price — the `gen_dedup/{off,on}` comparison. The query cache is
/// disabled so the measured gap is dedup's own, not the cache's.
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

fn generational_report(
    compiled: &dart_minic::CompiledProgram,
    order: FrontierOrder,
    dedup: bool,
) -> dart::SessionReport {
    let config = DartConfig {
        mode: EngineMode::Generational,
        frontier_order: order,
        frontier_dedup: dedup,
        max_runs: 60,
        seed: 0,
        stop_at_first_bug: false,
        solver_cache: false,
        solve_threads: 1,
        ..DartConfig::default()
    };
    Dart::new(compiled, "gen_target", config)
        .expect("generational workload config is valid")
        .run()
}

fn generational_workload(
    compiled: &dart_minic::CompiledProgram,
    order: FrontierOrder,
    dedup: bool,
) -> usize {
    generational_report(compiled, order, dedup).runs as usize
}

/// The negated-prefix LP workload (`lp_warm/{cold,warm}`): a 24-variable
/// monotone chain prefix (`y_i >= y_{i-1} + 1`, capped) kept pushed, then
/// a stream of scratch frames each demanding a higher floor for the last
/// variable — so the previous vertex never satisfies the new row and the
/// session must really re-solve every time. A cold session pays a full
/// Phase 1 over the whole chain per query; a warm one repairs its
/// retained dictionary with a couple of dual pivots.
fn lp_warm_workload(warm: bool) -> usize {
    const N: usize = 24;
    let r = Rat::from_int;
    let mut sess = LpSession::with_warm(N, warm);
    let mut prefix = Vec::with_capacity(N + 1);
    let mut first = vec![r(0); N];
    first[0] = r(-1);
    prefix.push(LpRow {
        coeffs: first,
        rhs: r(-1), // y0 >= 1
    });
    for i in 1..N {
        let mut coeffs = vec![r(0); N];
        coeffs[i - 1] = r(1);
        coeffs[i] = r(-1);
        prefix.push(LpRow {
            coeffs,
            rhs: r(-1), // y_i >= y_{i-1} + 1
        });
    }
    let mut cap = vec![r(0); N];
    cap[N - 1] = r(1);
    prefix.push(LpRow {
        coeffs: cap,
        rhs: r(100_000),
    });
    sess.push_frame(prefix);
    let mut feas = 0;
    for k in 1..=16i128 {
        // Mostly feasible floors, with an every-4th query infeasible
        // (y0 >= 200k against the cap via the chain) so the warm engine's
        // dual infeasibility certificates are measured too.
        let scratch = if k % 4 == 0 {
            let mut coeffs = vec![r(0); N];
            coeffs[0] = r(-1);
            LpRow {
                coeffs,
                rhs: r(-200_000),
            }
        } else {
            let mut coeffs = vec![r(0); N];
            coeffs[N - 1] = r(-1);
            LpRow {
                coeffs,
                rhs: r(-(N as i128) - 50 * k),
            }
        };
        let mark = sess.push_frame(vec![scratch]);
        if matches!(
            sess.feasible().expect("chain workload stays in range"),
            LpResult::Feasible(_)
        ) {
            feas += 1;
        }
        sess.pop_to(mark);
    }
    feas
}

/// The strategy-race workload (`portfolio/{lp_only,race}`): every query
/// negates a difference chain's closing constraint, so the conjunction
/// is LP-infeasible but interval propagation on wide boxes cannot see it
/// and the FD search burns its whole node budget before giving up. With
/// the portfolio off the session pays FD-budget-then-LP sequentially;
/// with it on the LP's rational infeasibility certificate cancels the FD
/// arm as soon as it lands.
fn portfolio_workload(race: bool) -> usize {
    let solver = Solver::new(SolverConfig {
        max_fd_nodes: 2_000,
        portfolio: race,
        ..SolverConfig::default()
    });
    let path = vec![
        Constraint::new(v(1).sub(&v(0)).offset(-1), RelOp::Ge), // x1 >= x0 + 1
        Constraint::new(v(2).sub(&v(1)).offset(-1), RelOp::Ge), // x2 >= x1 + 1
        Constraint::new(v(2).sub(&v(0)).offset(-2), RelOp::Ge), // x2 >= x0 + 2
    ];
    let mut sess = solver.session();
    for c in &path {
        sess.push(c);
    }
    let mut unsat = 0;
    for _ in 0..4 {
        // ¬(x2 >= x0 + 2) = x2 <= x0 + 1, contradicting the chain.
        if matches!(
            sess.solve_query(2, &path[2].negated(), |_| Some(0)),
            SolveOutcome::Unsat
        ) {
            unsat += 1;
        }
    }
    unsat
}

/// The execution-tier workload program: ~10k statements of concrete
/// loop arithmetic with a single symbolic comparison at the end.
/// Symbolic mirroring is pure overhead on all but a handful of steps,
/// so this is the shape the compiled tier's taint-gated shadow targets
/// — CPU-bound code whose inputs only matter at a few branch points.
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

/// One fixed-tape run of [`exec_program`]. `decoded == None` selects the
/// tree-walking interpreter; `Some` selects the compiled tier over the
/// pre-decoded form — the `exec/{interp,compiled}` pair.
fn exec_workload(
    compiled: &dart_minic::CompiledProgram,
    decoded: Option<&DecodedProgram>,
) -> usize {
    let sig = compiled.fn_sig("exec_hot").expect("toplevel exists");
    let result = run_once_in_tier(
        compiled,
        sig,
        1,
        MachineConfig::default(),
        InputTape::new(0),
        Vec::new(),
        32,
        decoded,
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
        (
            "gen/fifo",
            bp(&generational_report(gen_lib, FrontierOrder::Fifo, true)),
        ),
        (
            "gen/scored",
            bp(&generational_report(gen_lib, FrontierOrder::Scored, true)),
        ),
        (
            "gen_dedup/off",
            bp(&generational_report(gen_lib, FrontierOrder::Scored, false)),
        ),
        (
            "gen_dedup/on",
            bp(&generational_report(gen_lib, FrontierOrder::Scored, true)),
        ),
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
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path =
        flag_value("--baseline").unwrap_or_else(|| "crates/bench/baseline.json".to_string());
    let tolerance_pct: u64 = flag_value("--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let gate = args.iter().any(|a| a == "--gate");
    let unknown_baseline_path = flag_value("--unknown-baseline")
        .unwrap_or_else(|| "crates/bench/unknown_baseline.json".to_string());
    let write_unknown_baseline = args.iter().any(|a| a == "--write-unknown-baseline");

    let sweep_fns = 600usize;
    let library = sweep_library(sweep_fns);
    let names: Vec<String> = (0..sweep_fns).map(|i| format!("g{i}")).collect();
    let gen_lib = gen_program();
    let exec_lib = exec_program();
    // Decoded once, like `Dart::new` does for a compiled-tier session.
    let exec_decoded = DecodedProgram::new(&exec_lib.program);
    // One persistent pool shared by every pooled workload below — the
    // whole point of `SolvePool` is that its spawn cost is paid once.
    let pool4 = SolvePool::new(4);

    let current: Vec<(String, u64)> = vec![
        (
            "query_cache/negated_prefix_cache_off".to_string(),
            measure(|| query_cache_workload(false)),
        ),
        (
            "query_cache/negated_prefix_cache_on".to_string(),
            measure(|| query_cache_workload(true)),
        ),
        (
            "prefix_session/plain_per_query".to_string(),
            measure(prefix_plain_workload),
        ),
        (
            "prefix_session/incremental_session".to_string(),
            measure(prefix_session_workload),
        ),
        (
            "parallel_solve/candidates_1_threads".to_string(),
            measure(|| parallel_solve_workload(Scheduler::Sequential)),
        ),
        (
            "parallel_solve/candidates_4_threads".to_string(),
            measure(|| parallel_solve_workload(Scheduler::Pool(&pool4))),
        ),
        (
            "work_steal/skewed_static".to_string(),
            measure(|| skewed_workload(Scheduler::Scoped(4))),
        ),
        (
            "work_steal/skewed_stealing".to_string(),
            measure(|| skewed_workload(Scheduler::Pool(&pool4))),
        ),
        (
            "pool/spawn_scoped".to_string(),
            measure(|| dispatch_workload(Scheduler::Scoped(4))),
        ),
        (
            "pool/dispatch_pooled".to_string(),
            measure(|| dispatch_workload(Scheduler::Pool(&pool4))),
        ),
        (
            "shared_store/sweep_600_off".to_string(),
            measure(|| shared_store_workload(&library, &names, false)),
        ),
        (
            "shared_store/sweep_600_on".to_string(),
            measure(|| shared_store_workload(&library, &names, true)),
        ),
        (
            "gen/fifo".to_string(),
            measure(|| generational_workload(&gen_lib, FrontierOrder::Fifo, true)),
        ),
        (
            "gen/scored".to_string(),
            measure(|| generational_workload(&gen_lib, FrontierOrder::Scored, true)),
        ),
        (
            "gen_dedup/off".to_string(),
            measure(|| generational_workload(&gen_lib, FrontierOrder::Scored, false)),
        ),
        (
            "gen_dedup/on".to_string(),
            measure(|| generational_workload(&gen_lib, FrontierOrder::Scored, true)),
        ),
        (
            "exec/interp".to_string(),
            measure(|| exec_workload(&exec_lib, None)),
        ),
        (
            "exec/compiled".to_string(),
            measure(|| exec_workload(&exec_lib, Some(&exec_decoded))),
        ),
        (
            "lp_warm/cold".to_string(),
            measure(|| lp_warm_workload(false)),
        ),
        (
            "lp_warm/warm".to_string(),
            measure(|| lp_warm_workload(true)),
        ),
        (
            "portfolio/lp_only".to_string(),
            measure(|| portfolio_workload(false)),
        ),
        (
            "portfolio/race".to_string(),
            measure(|| portfolio_workload(true)),
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Each entry: (JSON key, human description, numerator, denominator).
    let ratio_specs: [(&str, String, &str, &str); 9] = [
        (
            "parallel_solve_speedup",
            format!("parallel solve speedup (1 -> 4 threads) on {cores} core(s)"),
            "parallel_solve/candidates_1_threads",
            "parallel_solve/candidates_4_threads",
        ),
        (
            "work_steal_speedup",
            format!(
                "work-stealing speedup on skewed candidate costs (static -> stealing) on {cores} core(s)"
            ),
            "work_steal/skewed_static",
            "work_steal/skewed_stealing",
        ),
        (
            "pool_dispatch_speedup",
            "persistent pool vs per-walk scoped spawn (tiny walk)".to_string(),
            "pool/spawn_scoped",
            "pool/dispatch_pooled",
        ),
        (
            "shared_store_speedup",
            "shared store speedup (600-function sweep)".to_string(),
            "shared_store/sweep_600_off",
            "shared_store/sweep_600_on",
        ),
        (
            "frontier_order_speedup",
            "generational frontier order (fifo -> scored)".to_string(),
            "gen/fifo",
            "gen/scored",
        ),
        (
            "gen_dedup_speedup",
            "generational path-prefix dedup (off -> on)".to_string(),
            "gen_dedup/off",
            "gen_dedup/on",
        ),
        (
            "exec_tier_speedup",
            "compiled execution tier (interp -> compiled)".to_string(),
            "exec/interp",
            "exec/compiled",
        ),
        (
            "lp_warm_speedup",
            "warm-started dual-simplex resolves (cold -> warm)".to_string(),
            "lp_warm/cold",
            "lp_warm/warm",
        ),
        (
            "portfolio_speedup",
            format!("strategy portfolio race (sequential -> racing) on {cores} core(s)"),
            "portfolio/lp_only",
            "portfolio/race",
        ),
    ];
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (key, description, num, den) in &ratio_specs {
        if let Some(s) = ratio(num, den) {
            println!("{description}: {s:.2}x");
            ratios.push((key.to_string(), s));
        }
    }

    if let Some(json_path) = flag_value("--json") {
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
                ("exec/interp".to_string(), 2000),
                ("exec/compiled".to_string(), 400),
            ],
            &[("exec_tier_speedup".to_string(), 5.0)],
        );
        assert!(text.contains("\"median_ns_per_iter\""));
        assert!(text.contains("\"exec/compiled\": 400"));
        assert!(text.contains("\"speedup_ratios\""));
        assert!(text.contains("\"exec_tier_speedup\": 5.000"));
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
        assert_eq!(query_cache_workload(false), query_cache_workload(true));
        assert_eq!(prefix_plain_workload(), prefix_session_workload());
    }

    #[test]
    fn parallel_workload_is_scheduler_independent() {
        // The fan-out must not change what the walk finds — otherwise
        // the paired comparisons measure different work.
        let pool = SolvePool::new(4);
        assert_eq!(
            parallel_solve_workload(Scheduler::Sequential),
            1,
            "the shallow flip wins"
        );
        assert_eq!(
            parallel_solve_workload(Scheduler::Sequential),
            parallel_solve_workload(Scheduler::Pool(&pool))
        );
        assert_eq!(
            parallel_solve_workload(Scheduler::Sequential),
            parallel_solve_workload(Scheduler::Scoped(4))
        );
    }

    #[test]
    fn skewed_and_tiny_workloads_are_scheduler_independent() {
        let pool = SolvePool::new(4);
        assert_eq!(
            skewed_workload(Scheduler::Sequential),
            1,
            "the shallow w != 3 flip wins"
        );
        assert_eq!(
            skewed_workload(Scheduler::Scoped(4)),
            skewed_workload(Scheduler::Pool(&pool))
        );
        assert_eq!(
            dispatch_workload(Scheduler::Sequential),
            1,
            "the shallow w != 5 flip wins"
        );
        assert_eq!(
            dispatch_workload(Scheduler::Scoped(4)),
            dispatch_workload(Scheduler::Pool(&pool))
        );
    }

    #[test]
    fn lp_warm_workload_is_mode_invariant() {
        // Warm and cold sessions must answer identically — otherwise the
        // `lp_warm/{cold,warm}` pair measures different work. 12 of the
        // 16 scratch floors are feasible; every 4th is the cap conflict.
        assert_eq!(lp_warm_workload(false), 12);
        assert_eq!(lp_warm_workload(true), 12);
    }

    #[test]
    fn portfolio_workload_is_mode_invariant() {
        // Racing must not change the verdicts — all four queries are the
        // same LP-infeasible chain contradiction.
        assert_eq!(portfolio_workload(false), 4);
        assert_eq!(portfolio_workload(true), 4);
    }

    #[test]
    fn unknown_rates_cover_the_generational_workloads() {
        let rates = unknown_rates(&gen_program());
        assert_eq!(rates.len(), 4);
        assert!(rates.iter().all(|(k, _)| k.starts_with("unknown_rate/")));
        // Basis points stay in [0, 10000] by construction.
        assert!(rates.iter().all(|(_, bp)| *bp <= 10_000));
    }

    #[test]
    fn shared_store_workload_completes_all_sessions() {
        let compiled = sweep_library(8);
        let names: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
        assert_eq!(shared_store_workload(&compiled, &names, false), 8);
        assert_eq!(shared_store_workload(&compiled, &names, true), 8);
    }

    #[test]
    fn generational_workload_restarts_to_its_budget() {
        // The tainting `x*x` guard must keep the session incomplete so it
        // restarts until max_runs — that redundancy is what the dedup
        // comparison measures. If this stops holding, the bench went dead.
        let compiled = gen_program();
        let on = generational_report(&compiled, FrontierOrder::Scored, true);
        let off = generational_report(&compiled, FrontierOrder::Scored, false);
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
    fn exec_workload_is_tier_invariant() {
        // Both tiers must execute the same run — otherwise the
        // `exec/{interp,compiled}` pair compares different work. The
        // loop runs long enough that a skipped-statement bug would show
        // up as a step-count or terminal divergence.
        let compiled = exec_program();
        let decoded = DecodedProgram::new(&compiled.program);
        let interp = exec_workload(&compiled, None);
        let fast = exec_workload(&compiled, Some(&decoded));
        assert_eq!(interp, fast, "step counts diverge across tiers");
        assert!(
            interp > 4000,
            "the workload must be loop-dense, got {interp}"
        );
    }

    #[test]
    fn generational_workload_is_order_and_dedup_invariant() {
        // All four measured variants must explore the same branch set —
        // otherwise the paired comparisons measure different work.
        let compiled = gen_program();
        let cov: Vec<usize> = [
            (FrontierOrder::Fifo, true),
            (FrontierOrder::Scored, true),
            (FrontierOrder::Scored, false),
        ]
        .into_iter()
        .map(|(order, dedup)| generational_report(&compiled, order, dedup).branches_covered)
        .collect();
        assert!(cov.iter().all(|&c| c == cov[0]), "branch coverage {cov:?}");
    }
}
