//! The traced run: sessions driven from outside the engine, timing each
//! call into a layer's public functions. The engine itself carries no
//! instrumentation.
//!
//! Directed sessions run through a replica of the directed loop of
//! `Dart::run` (`crates/core/src/driver.rs`) that times every
//! `run_once_in_tier` call as `exec` and every `solve_next` call as
//! `search`; the rest of the session is the `driver` residual. The
//! generational loop keeps its frontier private, so a generational
//! session is timed whole and split by the report's own
//! `exec_time`/`solve_time`; the remainder of `Dart::run` is the
//! `frontier` residual.

use dart::{
    run_once_in_tier, search::solve_next, Bug, BugKind, Dart, DartConfig, EngineMode, ExecTier,
    FaultState, InputTape, Outcome, PortfolioMode, RunResult, RunTermination, Scheduler,
    SolveStats, Strategy,
};
use dart_minic::CompiledProgram;
use dart_ram::DecodedProgram;
use dart_solver::{QueryCache, Solver};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::{Duration, Instant};

use crate::Observed;

/// Time and counts attributed to the layers, summed over traced sessions.
#[derive(Debug, Default)]
pub struct LayerTrace {
    /// Wall time of the traced sessions, end to end.
    pub session: Duration,
    /// `ram`: lowering programs for the compiled tier (all of `Dart::new`
    /// for generational sessions on that tier).
    pub ram: Duration,
    /// `exec`: instrumented runs.
    pub exec: Duration,
    /// `search`: `solve_next`, the query cache and the solver.
    pub search: Duration,
    /// `frontier`: the generational loop outside runs and solving.
    pub frontier: Duration,
    /// Microseconds per instrumented run (per-session mean run time for
    /// generational sessions, whose runs are not visible from outside).
    pub run_us: Vec<f64>,
    /// Microseconds per `solve_next` call (per-session mean expansion
    /// time for generational sessions).
    pub call_us: Vec<f64>,
    /// Path-constraint length of each directed run.
    pub path_len: Vec<f64>,
    /// Machine steps.
    pub steps: u64,
    /// Steps committed through the compiled tier's fused blocks.
    pub fast_steps: u64,
    /// Instrumented runs.
    pub runs: u64,
    /// Random restarts.
    pub restarts: u64,
    /// Runs that left their predicted path.
    pub divergences: u64,
    /// Solver verdicts: satisfiable, unsatisfiable, unknown.
    pub sat: u64,
    /// See [`LayerTrace::sat`].
    pub unsat: u64,
    /// See [`LayerTrace::sat`].
    pub unknown: u64,
    /// Queries answered by the session query cache.
    pub cache_hits: u64,
    /// Queries answered by re-checking a cached model.
    pub model_reuse: u64,
    /// Solved queries split into independent components.
    pub split_solves: u64,
    /// Dual-simplex pivots of warm LP resolves.
    pub warm_pivots: u64,
    /// Warm LP dictionaries discarded for a cold solve.
    pub cold_restarts: u64,
    /// Highest generational frontier length of any session.
    pub frontier_peak: u64,
    /// Generational child derivations skipped by path-prefix dedup.
    pub dedup_hits: u64,
    /// Generational frontier items evicted by the frontier budget.
    pub evicted: u64,
    /// Runs to the first bug, one entry per session that found one.
    pub runs_to_bug: Vec<f64>,
}

impl LayerTrace {
    fn add_solver(&mut self, stats: &SolveStats) {
        self.sat += stats.sat;
        self.unsat += stats.unsat;
        self.unknown += stats.unknown;
        self.cache_hits += stats.cache_hits;
        self.model_reuse += stats.cache_model_reuse;
        self.split_solves += stats.split_solves;
        self.warm_pivots += stats.warm_pivots;
        self.cold_restarts += stats.cold_restarts;
    }

    fn add_session(&mut self, session: Duration, observed: &Observed) {
        self.session += session;
        self.runs += observed.runs;
        self.steps += observed.steps;
        if let Some(bug) = observed.bugs.first() {
            self.runs_to_bug.push(bug.run_index as f64);
        }
    }
}

/// Runs one session traced: directed sessions through the replica,
/// generational ones through `Dart::run`.
///
/// # Panics
///
/// On a configuration the replica does not reproduce (a mode other than
/// directed or generational, or more than one solver thread), and if
/// `toplevel` is not defined in `compiled`.
pub fn traced(
    compiled: &CompiledProgram,
    toplevel: &str,
    config: &DartConfig,
    trace: &mut LayerTrace,
) -> Observed {
    // Timed out here so the session's teardown counts, as it does inside
    // `Dart::run`.
    let started = Instant::now();
    let observed = match config.mode {
        EngineMode::Directed => directed(compiled, toplevel, config, trace),
        EngineMode::Generational => generational(compiled, toplevel, config, trace),
        other => panic!("the traced run does not reproduce {other:?} sessions"),
    };
    trace.add_session(started.elapsed(), &observed);
    observed
}

fn generational(
    compiled: &CompiledProgram,
    toplevel: &str,
    config: &DartConfig,
    t: &mut LayerTrace,
) -> Observed {
    let t0 = Instant::now();
    let dart = Dart::new(compiled, toplevel, config.clone()).expect("sessions are valid");
    // Only the compiled tier decodes in `Dart::new`; on the interpreter
    // its cost is set-up, left to the driver residual as in `directed`.
    if config.exec_tier == ExecTier::Compiled {
        t.ram += t0.elapsed();
    }
    let run_started = Instant::now();
    let report = dart.run();
    let run = run_started.elapsed();
    t.exec += report.exec_time;
    t.search += report.solve_time;
    t.frontier += run.saturating_sub(report.exec_time + report.solve_time);
    let runs = report.runs.max(1) as f64;
    t.run_us.push(report.exec_time.as_secs_f64() * 1e6 / runs);
    t.call_us.push(report.solve_time.as_secs_f64() * 1e6 / runs);
    t.fast_steps += report.steps_fast_pathed;
    t.restarts += report.restarts;
    t.divergences += report.divergences;
    t.add_solver(&report.solver);
    t.frontier_peak = t.frontier_peak.max(report.frontier_peak);
    t.dedup_hits += report.dedup_hits;
    t.evicted += report.frontier_evicted;
    Observed::of(&report)
}

/// The directed loop of `Dart::run`, step for step, for the
/// configurations the benchmark uses: directed engine, one solver thread,
/// no deadline, no shared store, no fault plan (this package builds
/// `dart` without its `fault-injection` feature, so a `DartConfig` has
/// none). Every traced pass also compares each session with its untraced
/// run, so a replica that drifts from `Dart::run` fails the benchmark.
fn directed(
    compiled: &CompiledProgram,
    toplevel: &str,
    cfg: &DartConfig,
    t: &mut LayerTrace,
) -> Observed {
    assert_eq!(cfg.solve_threads, 1, "the replica solves sequentially");
    assert!(!cfg.shared_cache, "the replica attaches no shared store");
    assert_eq!(cfg.deadline, None, "the replica has no deadline");
    let sig = compiled
        .fn_sig(toplevel)
        .cloned()
        .expect("sessions name defined toplevels");
    let decoded = (cfg.exec_tier == ExecTier::Compiled).then(|| {
        let t0 = Instant::now();
        let decoded = DecodedProgram::new(&compiled.program);
        t.ram += t0.elapsed();
        decoded
    });
    // `Dart::new`'s normalization of the portfolio mode.
    let mut solver_config = cfg.solver;
    solver_config.portfolio = cfg.portfolio == PortfolioMode::On;
    let solver = Solver::new(solver_config);
    let mut cache = QueryCache::new(cfg.solver_cache);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut faults = FaultState::for_config(cfg);
    let mut coverage: HashSet<(usize, bool)> = HashSet::new();
    let mut stats = SolveStats::default();
    let mut observed = Observed {
        outcome: Outcome::Exhausted,
        runs: 0,
        bugs: Vec::new(),
        steps: 0,
        branches_covered: 0,
        sat: 0,
        unsat: 0,
        unknown: 0,
        cache_hits: 0,
    };

    'outer: loop {
        t.restarts += 1;
        let mut next_input = (InputTape::new(rng.gen()), Vec::new());
        let mut session_complete = cfg.strategy == Strategy::Dfs;
        loop {
            if observed.runs >= cfg.max_runs {
                observed.outcome = Outcome::Exhausted;
                break 'outer;
            }
            let (tape, stack) = next_input;
            let exec_started = Instant::now();
            let result = run_once_in_tier(
                compiled,
                &sig,
                cfg.depth,
                cfg.machine,
                tape,
                stack,
                cfg.max_ptr_depth,
                decoded.as_ref(),
            );
            let exec = exec_started.elapsed();
            t.exec += exec;
            t.run_us.push(exec.as_secs_f64() * 1e6);
            t.path_len.push(result.path.len() as f64);
            t.fast_steps += result.steps_fast_pathed;
            observed.runs += 1;
            observed.steps += result.steps;
            coverage.extend(result.branches.iter().copied());
            if let Some(kind) = bug_kind(cfg, &result, &mut session_complete) {
                let bug = Bug {
                    kind,
                    run_index: observed.runs,
                    inputs: result.tape.snapshot(),
                };
                observed.bugs.push(bug.clone());
                if cfg.stop_at_first_bug {
                    observed.outcome = Outcome::BugFound(bug);
                    break 'outer;
                }
            }
            if !result.flags.holds() || result.init_truncated {
                session_complete = false;
            }
            if result.diverged {
                t.divergences += 1;
                continue 'outer;
            }

            let unknown_before = stats.unknown;
            let search_started = Instant::now();
            let next = solve_next(
                &result.path,
                &result.stack,
                &result.tape,
                &solver,
                &mut cache,
                cfg.strategy,
                &mut rng,
                &mut stats,
                &mut faults,
                Scheduler::Sequential,
            );
            let search = search_started.elapsed();
            t.search += search;
            t.call_us.push(search.as_secs_f64() * 1e6);
            if stats.unknown > unknown_before {
                session_complete = false;
            }
            match next {
                Some(step) => {
                    let mut tape = result.tape;
                    tape.apply_model(&step.model);
                    next_input = (tape, step.stack);
                }
                None if session_complete => {
                    observed.outcome = Outcome::Complete;
                    break 'outer;
                }
                None => continue 'outer,
            }
        }
    }
    observed.branches_covered = coverage.len();
    observed.sat = stats.sat;
    observed.unsat = stats.unsat;
    observed.unknown = stats.unknown;
    observed.cache_hits = stats.cache_hits;
    t.add_solver(&stats);
    observed
}

/// The bug a run's termination reports, if any (`Dart`'s
/// `handle_termination`); a non-bug abnormal end clears the completeness
/// claim instead.
fn bug_kind(cfg: &DartConfig, result: &RunResult, session_complete: &mut bool) -> Option<BugKind> {
    match &result.termination {
        RunTermination::Ok => None,
        RunTermination::Abort(reason) => Some(BugKind::Abort(reason.clone())),
        RunTermination::Crash(fault) => Some(BugKind::Crash(*fault)),
        RunTermination::OutOfSteps if cfg.nontermination_is_bug => Some(BugKind::NonTermination),
        RunTermination::OutOfMemory if cfg.oom_is_bug => Some(BugKind::OutOfMemory),
        RunTermination::OutOfSteps | RunTermination::OutOfMemory => {
            *session_complete = false;
            None
        }
    }
}
