//! The `run_DART` driver — paper Fig. 2.
//!
//! Combines random testing (the outer `repeat` loop: fresh random inputs)
//! with the directed search (the inner loop: run, negate a branch, solve,
//! re-run). Terminates with [`Outcome::Complete`] only when the directed
//! search finishes with both completeness flags intact, no divergence, no
//! solver give-ups and no truncated input shapes — the hypotheses of
//! Theorem 1(b). Otherwise it keeps restarting with fresh randomness until
//! the run budget is spent.
//!
//! Four engine modes are available:
//! * [`EngineMode::Directed`] — DART proper (this driver).
//! * [`EngineMode::RandomOnly`] — the paper's random-testing baseline
//!   (fresh random inputs every run, no constraint solving).
//! * [`EngineMode::SymbolicOnly`] — a classical static-symbolic-execution
//!   baseline: it cannot continue past the first non-linear/indefinite
//!   operation (no concrete fallback), so constraints collected after the
//!   first taint are discarded (§2.5's comparison).
//! * [`EngineMode::Generational`] — the SAGE-style frontier search
//!   (`run_generational`), a sound non-DFS exploration order.

use crate::exec::{run_from, RunResult, RunTermination, Snapshot, Start};
use crate::frontier::{derive_seed, Checkpoint, ChildKeys, Frontier, SolverCounters};
use crate::report::{Bug, BugKind, Outcome, SessionReport};
use crate::search::{solve_next, Scheduler, Strategy};
use crate::supervise::FaultState;
use crate::tape::InputTape;
use dart_minic::{CompiledProgram, FnSig};
use dart_ram::MachineConfig;
use dart_solver::{QueryCache, Solver, SolverConfig};
use dart_sym::{BranchRecord, PathConstraint};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The path constraint and branch directions of a run whose child
/// resumes from its snapshot.
type Prefix = (PathConstraint, Vec<(usize, bool)>);

/// Which engine drives test generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Directed automated random testing (the paper's contribution).
    #[default]
    Directed,
    /// Pure random testing baseline.
    RandomOnly,
    /// Static symbolic execution baseline (stops at the first operation
    /// outside the theory instead of concretizing).
    SymbolicOnly,
    /// Generational search (the strategy of DART's descendant SAGE): each
    /// run expands *every* branch after its generation bound into a child
    /// work item on a coverage-scored priority frontier
    /// ([`crate::frontier`]). Unlike the stack-based DFS,
    /// this supports sound non-depth-first exploration — and it also
    /// supports the Theorem 1(b) completeness claim, because the
    /// generation bound partitions the execution tree exactly.
    Generational,
}

/// Ignored. It once chose between the interpreter and a compiled
/// execution tier, which is gone: every run executes on
/// [`dart_ram::Machine`]. It stays only because the end-to-end benchmark
/// still names it, and goes with the benchmark PR that retires
/// `bench_e2e`'s replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// Ignored, like the type.
    #[default]
    Interp,
    /// Ignored, like the type.
    Compiled,
}

/// Ignored. It once chose whether solver queries raced the finite-domain
/// search against an LP screen, a race that is gone; it stays only
/// because the end-to-end benchmark still names it, and goes with the
/// benchmark PR that retires `bench_e2e`'s replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortfolioMode {
    /// Ignored, like the type.
    #[default]
    Off,
    /// Ignored, like the type.
    On,
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DartConfig {
    /// Number of iterative toplevel calls per run (the paper's `depth`).
    pub depth: u32,
    /// Maximum instrumented runs before giving up.
    pub max_runs: u64,
    /// Seed for all randomness (runs are fully reproducible).
    pub seed: u64,
    /// Interpreter limits.
    pub machine: MachineConfig,
    /// Constraint solver limits.
    pub solver: SolverConfig,
    /// Branch selection strategy.
    pub strategy: Strategy,
    /// Engine mode (directed / random / symbolic-only).
    pub mode: EngineMode,
    /// Stop at the first bug (otherwise keep exploring and collect all).
    pub stop_at_first_bug: bool,
    /// Report non-termination (a repeated machine state or step-budget
    /// exhaustion, §4.3) as a bug. Otherwise such a run is skipped but
    /// still forbids a completeness claim.
    pub nontermination_is_bug: bool,
    /// Pointer-chasing cap for `random_init` of recursive types.
    pub max_ptr_depth: u32,
    /// Record each run's executed branch sequence in
    /// [`SessionReport::paths`] (the execution tree of §2.2, one leaf per
    /// run). Off by default: long sessions would hold every path.
    pub record_paths: bool,
    /// Ignored. It once switched the session's solver verdict tables,
    /// which are gone; it stays only because the end-to-end benchmark
    /// still reads it, and goes with the benchmark PR that retires
    /// `bench_e2e`'s replica.
    pub solver_cache: bool,
    /// Ignored; 1 by default and never validated. It once sized a pool of
    /// threads that solved each run's candidate queries ahead of time,
    /// which is gone: every query is solved on the session's own thread.
    /// It stays only because the end-to-end benchmark still reads it, and
    /// goes with the benchmark PR that retires `bench_e2e`'s replica.
    pub solve_threads: usize,
    /// Ignored. It once shared solver verdicts across the sessions of a
    /// sweep, a store that is gone; it stays only because the end-to-end
    /// benchmark still reads it, and goes with the benchmark PR that
    /// retires `bench_e2e`'s replica.
    pub shared_cache: bool,
    /// Wall-clock budget for the whole session. When it expires the
    /// session stops at the next run boundary with
    /// [`Outcome::DeadlineExceeded`] — partial results intact, never a
    /// completeness claim. `None` (the default) never expires.
    pub deadline: Option<std::time::Duration>,
    /// Report allocation-budget exhaustion
    /// ([`dart_ram::ResourceBudget::max_alloc_words`]) as an
    /// [`crate::BugKind::OutOfMemory`] bug; otherwise it is recorded as
    /// incompleteness, like a solver give-up.
    pub oom_is_bug: bool,
    /// How many times [`crate::sweep::sweep`] re-runs a session whose
    /// engine faulted (panicked), each retry with a reseeded RNG.
    pub max_retries: u32,
    /// Memory bound on the generational frontier: when the queue would
    /// exceed this many items, the lowest-scored (then newest) item is
    /// evicted, counted in [`SessionReport::frontier_evicted`], and the
    /// session can no longer claim [`Outcome::Complete`]. `None` (the
    /// default) never evicts; `Some(0)` is rejected with
    /// [`DartError::InvalidConfig`].
    pub frontier_budget: Option<usize>,
    /// Deduplicate generational child derivations across restarts (on by
    /// default): a candidate whose solver query was already posed is
    /// skipped — query and all — and counted in
    /// [`SessionReport::dedup_hits`]. Sound because every skip clears
    /// the completeness flag (and a restart only happens after an
    /// incomplete pass anyway); `false` re-derives everything, kept as
    /// the bench ablation (`gen_dedup/off`).
    pub frontier_dedup: bool,
    /// Checkpoint file for the generational engine: the frontier,
    /// coverage, the query cache's model pool and the RNG position are
    /// written here after every completed work item, and a session
    /// constructed with the same seed and an existing file resumes from
    /// it instead of starting fresh. `None`
    /// (the default) never touches disk. Setting it with a
    /// non-generational [`DartConfig::mode`] is rejected with
    /// [`DartError::InvalidConfig`], as is a malformed file or a seed
    /// mismatch.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Ignored (see [`ExecTier`]); it stays only because the end-to-end
    /// benchmark still reads it, and goes with the benchmark PR that
    /// retires `bench_e2e`'s replica.
    pub exec_tier: ExecTier,
    /// Ignored (see [`PortfolioMode`]); it stays only because the
    /// end-to-end benchmark still reads it, and goes with the benchmark PR
    /// that retires `bench_e2e`'s replica.
    pub portfolio: PortfolioMode,
    /// Deterministic fault-injection plan, consulted by the driver and
    /// the sweep (tests and the `fault-injection` feature only). The
    /// default plan injects nothing.
    #[cfg(any(test, feature = "fault-injection"))]
    pub faults: crate::supervise::FaultPlan,
}

impl Default for DartConfig {
    fn default() -> DartConfig {
        DartConfig {
            depth: 1,
            max_runs: 100_000,
            seed: 0,
            machine: MachineConfig::default(),
            solver: SolverConfig::default(),
            strategy: Strategy::Dfs,
            mode: EngineMode::Directed,
            stop_at_first_bug: true,
            nontermination_is_bug: true,
            max_ptr_depth: 32,
            record_paths: false,
            solver_cache: true,
            solve_threads: 1,
            shared_cache: false,
            deadline: None,
            oom_is_bug: true,
            max_retries: 1,
            frontier_budget: None,
            frontier_dedup: true,
            checkpoint: None,
            exec_tier: ExecTier::Interp,
            portfolio: PortfolioMode::Off,
            #[cfg(any(test, feature = "fault-injection"))]
            faults: crate::supervise::FaultPlan::default(),
        }
    }
}

/// Error constructing a [`Dart`] session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DartError {
    /// The requested toplevel function is not defined in the program.
    UnknownToplevel(String),
    /// A configuration value makes the request unrunnable (e.g. a
    /// zero-thread sweep).
    InvalidConfig(String),
}

impl fmt::Display for DartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DartError::UnknownToplevel(name) => {
                write!(f, "toplevel function `{name}` is not defined")
            }
            DartError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for DartError {}

/// The configuration checks [`Dart::new`] and [`crate::sweep()`] share:
/// a `frontier_budget` of `Some(0)` and a checkpoint outside the
/// generational engine.
pub(crate) fn validate(config: &DartConfig) -> Result<(), DartError> {
    let invalid = |reason: &str| Err(DartError::InvalidConfig(reason.to_string()));
    if config.frontier_budget == Some(0) {
        return invalid("frontier_budget must be at least 1 (omit it for an unbounded frontier)");
    }
    if config.checkpoint.is_some() && config.mode != EngineMode::Generational {
        return invalid("checkpoint requires the generational engine (--engine generational)");
    }
    Ok(())
}

/// A DART testing session over one toplevel function.
///
/// # Examples
///
/// ```
/// use dart::{Dart, DartConfig};
///
/// let compiled = dart_minic::compile(r#"
///     int h(int x, int y) {
///         if (x != y)
///             if (2 * x == x + 10)
///                 abort();
///         return 0;
///     }
/// "#)?;
/// let report = Dart::new(&compiled, "h", DartConfig::default())?.run();
/// assert!(report.found_bug(), "DART finds the abort in a couple of runs");
/// assert!(report.runs <= 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Dart<'p> {
    compiled: &'p CompiledProgram,
    sig: FnSig,
    config: DartConfig,
    /// A parsed resume point, loaded by [`Dart::new`] when
    /// [`DartConfig::checkpoint`] names an existing file.
    checkpoint: Option<Checkpoint>,
}

impl<'p> Dart<'p> {
    /// Creates a session testing `toplevel`.
    ///
    /// # Errors
    ///
    /// [`DartError::UnknownToplevel`] if the function is not defined;
    /// [`DartError::InvalidConfig`] if `frontier_budget` is `Some(0)` (a
    /// frontier that can hold nothing can run nothing), or if `checkpoint`
    /// is set outside the generational engine, names an unreadable or
    /// malformed file, or was recorded under a different seed (resuming
    /// it would splice two unrelated random sequences).
    pub fn new(
        compiled: &'p CompiledProgram,
        toplevel: &str,
        config: DartConfig,
    ) -> Result<Dart<'p>, DartError> {
        validate(&config)?;
        let checkpoint = match &config.checkpoint {
            None => None,
            Some(path) => match std::fs::read_to_string(path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => {
                    return Err(DartError::InvalidConfig(format!(
                        "cannot read checkpoint {}: {e}",
                        path.display()
                    )))
                }
                Ok(text) => {
                    let cp = Checkpoint::parse(&text).map_err(|e| {
                        DartError::InvalidConfig(format!(
                            "malformed checkpoint {}: {e}",
                            path.display()
                        ))
                    })?;
                    if cp.seed != config.seed {
                        return Err(DartError::InvalidConfig(format!(
                            "checkpoint {} was recorded with seed {}, not {}",
                            path.display(),
                            cp.seed,
                            config.seed
                        )));
                    }
                    Some(cp)
                }
            },
        };
        let sig = compiled
            .fn_sig(toplevel)
            .cloned()
            .ok_or_else(|| DartError::UnknownToplevel(toplevel.to_string()))?;
        Ok(Dart {
            compiled,
            sig,
            config,
            checkpoint,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DartConfig {
        &self.config
    }

    /// Runs the session to completion (Fig. 2's `run_DART`).
    pub fn run(&self) -> SessionReport {
        if self.config.mode == EngineMode::Generational {
            return self.run_generational();
        }
        let cfg = &self.config;
        let solver = Solver::new(cfg.solver);
        // One query cache per session: queries repeat massively within a
        // session (restarts replay whole query families), and its model
        // pool answers many of them.
        let mut cache = QueryCache::default();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut faults = FaultState::for_config(cfg);
        let deadline = cfg.deadline.map(|d| std::time::Instant::now() + d);
        let mut coverage: std::collections::HashSet<(usize, bool)> =
            std::collections::HashSet::new();
        let mut report = SessionReport::new(self.branch_sites());
        // A random-only session restarts after every run, so no child
        // could start from a snapshot.
        let keep_snapshots = cfg.mode != EngineMode::RandomOnly;

        // Outer loop: fresh random restart (the paper's `repeat`).
        'outer: loop {
            report.restarts += 1;
            // The latest fresh run's state at the start of its last depth
            // iteration, if it got there: the children it `admits`
            // resume from it. A restart's fresh inputs share no prefix
            // with the previous restart's runs.
            let mut snapshot: Option<Snapshot<'p>> = None;
            // The next run's inputs, branch prediction and, when it
            // resumes from `snapshot`, the parent's path and branches.
            // Owned by this binding between runs and *moved* into the
            // run, so a stale tape can never leak into a later iteration.
            let mut next_input: (InputTape, Vec<BranchRecord>, Option<Prefix>) =
                (InputTape::new(rng.gen()), Vec::new(), None);
            // Only the DFS discipline keeps the `(branch, done)` stack a
            // sound record of "both subtrees explored" (flipping a shallow
            // branch first discards the done-state of the deeper subtree),
            // so only DFS sessions may claim Theorem 1(b) completeness.
            let mut session_complete = cfg.strategy == Strategy::Dfs;

            // Inner loop: the directed search (`while (directed)`).
            loop {
                if report.runs >= cfg.max_runs {
                    report.outcome = Outcome::Exhausted;
                    return report;
                }
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    report.outcome = Outcome::DeadlineExceeded;
                    return report;
                }
                let (tape, stack, prefix) = next_input;
                // The branches a resumed run restores, `None` for a fresh run.
                let (start, restored) = match (&snapshot, prefix) {
                    (Some(from), Some((path, branches))) => (
                        Start::Resume {
                            from,
                            path,
                            branches,
                        },
                        Some(from.branches),
                    ),
                    _ => (
                        Start::Fresh {
                            snapshot: keep_snapshots,
                        },
                        None,
                    ),
                };
                let exec_started = std::time::Instant::now();
                let (result, taken) = run_from(
                    self.compiled,
                    &self.sig,
                    cfg.depth,
                    cfg.machine,
                    tape,
                    stack,
                    cfg.max_ptr_depth,
                    &mut faults,
                    start,
                );
                report.exec_time += exec_started.elapsed();
                // A resumed run keeps the snapshot it started from; a
                // fresh run replaces it, with none if it ended before its
                // last iteration.
                if restored.is_none() {
                    snapshot = taken;
                }
                report.runs += 1;
                report.steps += result.steps;
                // The restored prefix's branches entered coverage when
                // the run that took the snapshot executed them.
                let new_branches = &result.branches[restored.unwrap_or(0)..];
                coverage.extend(new_branches.iter().copied());
                report.branches_covered = coverage.len();
                if cfg.record_paths {
                    report.paths.push(result.branches.clone());
                }
                if self.handle_termination(&result, &mut report, &mut session_complete) {
                    return report;
                }
                if !result.flags.holds() || result.init_truncated {
                    session_complete = false;
                }
                if result.diverged {
                    report.divergences += 1;
                    continue 'outer; // fresh random restart
                }

                match cfg.mode {
                    EngineMode::RandomOnly => {
                        // Fresh random inputs every run; never complete.
                        continue 'outer;
                    }
                    EngineMode::Directed | EngineMode::SymbolicOnly => {}
                    EngineMode::Generational => unreachable!("handled by run_generational"),
                }

                let (path, mut result_stack) = (result.path, result.stack);
                if cfg.mode == EngineMode::SymbolicOnly {
                    // No concrete fallback: branches recorded after the
                    // first taint are unusable and marked unreachable.
                    if let Some(cut) = result.taint_at {
                        result_stack.truncate(cut);
                    }
                }
                let unknown_before = report.solver.unknown;
                let solve_started = std::time::Instant::now();
                let next = solve_next(
                    &path,
                    &result_stack,
                    &result.tape,
                    &solver,
                    &mut cache,
                    cfg.strategy,
                    &mut rng,
                    &mut report.solver,
                    &mut faults,
                    Scheduler::Sequential,
                );
                report.solve_time += solve_started.elapsed();
                if report.solver.unknown > unknown_before {
                    session_complete = false;
                }
                match next {
                    Some(step) => {
                        // The child resumes when its inputs and its
                        // predictions agree with the snapshot's prefix and
                        // no planned allocation denial falls inside it.
                        let flipped = step.stack.len() - 1;
                        let resume = snapshot.as_ref().is_some_and(|s| {
                            s.admits(&result.tape, &step.model, flipped)
                                && faults.skip_allocs(s.allocs())
                        });
                        let mut tape = result.tape;
                        tape.apply_model(&step.model);
                        let prefix = resume.then_some((path, result.branches));
                        next_input = (tape, step.stack, prefix);
                    }
                    None => {
                        if session_complete {
                            report.outcome = Outcome::Complete;
                            return report;
                        }
                        // Incomplete: the paper's outer loop "continues
                        // forever" — restart with fresh randomness.
                        continue 'outer;
                    }
                }
            }
        }
    }

    /// The generational (SAGE-style) search loop, rebuilt around
    /// [`crate::frontier::Frontier`]: a scored priority frontier
    /// (coverage-novelty first, oldest among ties), path-prefix dedup so
    /// no input is derived twice across generations, an optional budget
    /// that evicts the lowest-scored items (soundly clearing the
    /// completeness claim), and a kill-safe resume file
    /// ([`DartConfig::checkpoint`]).
    ///
    /// Every executed run spawns one child per satisfiable branch
    /// negation at or beyond its generation bound; the child's bound
    /// excludes the shared prefix, so within one restart no path is
    /// derived twice (the dedup set catches the cross-restart repeats).
    /// An empty frontier with clean flags means every feasible path was
    /// executed.
    fn run_generational(&self) -> SessionReport {
        use dart_solver::SolveOutcome;

        let cfg = &self.config;
        let solver = Solver::new(cfg.solver);
        let mut cache = QueryCache::default();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut faults = FaultState::for_config(cfg);
        let deadline = cfg.deadline.map(|d| std::time::Instant::now() + d);
        let mut coverage: std::collections::HashSet<(usize, bool)> =
            std::collections::HashSet::new();
        let mut report = SessionReport::new(self.branch_sites());
        // The frontier (and its dedup set) outlives restarts: a child an
        // earlier restart already derived is worthless to re-derive.
        let mut frontier = Frontier::new(cfg.frontier_budget, cfg.frontier_dedup);
        // Child fingerprints render each path prefix once, cut back from
        // one expansion to the next to the prefix the session re-base kept.
        let mut child_keys = ChildKeys::default();

        // Resume: replay the checkpointed session state (the model pool
        // included, since a pooled model can answer the next query, and
        // the solver counters, so the report counts the whole session), then
        // fast-forward the session RNG past the root draws the
        // checkpointed restarts consumed (children never draw from it, so
        // the restart count is exactly the number of draws). A session
        // already at its run budget returns `Exhausted` before its next
        // draw, so it skips the fast-forward.
        let mut resumed_complete = None;
        if let Some(cp) = &self.checkpoint {
            report.restarts = cp.restarts;
            report.runs = cp.runs;
            report.steps = cp.steps;
            report.divergences = cp.divergences;
            coverage.extend(cp.coverage.iter().copied());
            report.branches_covered = coverage.len();
            if cp.runs < cfg.max_runs {
                for _ in 0..cp.restarts {
                    let _: u64 = rng.gen();
                }
            }
            frontier.restore(cp);
            cache.restore_models(cp.pool.clone());
            cache.restore_stats(cp.solver.cache);
            report.solver.sat = cp.solver.sat;
            report.solver.unsat = cp.solver.unsat;
            report.solver.unknown = cp.solver.unknown;
            report.solver.absorb_cache(&cache);
            resumed_complete = Some(cp.session_complete);
        }

        'outer: loop {
            // One completeness flag per restart — except on resume, which
            // continues the interrupted restart's claim.
            let mut session_complete = match resumed_complete.take() {
                Some(flag) => flag,
                None => {
                    report.restarts += 1;
                    let root_seed: u64 = rng.gen();
                    frontier.push_root(InputTape::new(root_seed), root_seed);
                    self.write_checkpoint(&frontier, &coverage, &cache, &report, true);
                    true
                }
            };

            loop {
                report.dedup_hits = frontier.dedup_hits;
                report.frontier_evicted = frontier.evicted;
                report.frontier_peak = frontier.peak;
                if report.runs >= cfg.max_runs {
                    report.outcome = Outcome::Exhausted;
                    return report;
                }
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    report.outcome = Outcome::DeadlineExceeded;
                    return report;
                }
                let Some(item) = frontier.pop() else { break };
                let bound = item.bound;
                let exec_started = std::time::Instant::now();
                // Every run starts from scratch: items leave the frontier
                // long after their parents ran, and a snapshot per item
                // would hold memory no frontier budget bounds (DESIGN.md,
                // "Resuming at the last depth iteration").
                let (result, _) = run_from(
                    self.compiled,
                    &self.sig,
                    cfg.depth,
                    cfg.machine,
                    item.tape,
                    item.stack,
                    cfg.max_ptr_depth,
                    &mut faults,
                    Start::Fresh { snapshot: false },
                );
                report.exec_time += exec_started.elapsed();
                report.runs += 1;
                report.steps += result.steps;
                // Coverage novelty — the count of `(site, direction)`
                // pairs this run discovered — scores its children.
                let mut new_pairs: u64 = 0;
                for b in &result.branches {
                    if coverage.insert(*b) {
                        new_pairs += 1;
                    }
                }
                report.branches_covered = coverage.len();
                if cfg.record_paths {
                    report.paths.push(result.branches.clone());
                }
                if self.handle_termination(&result, &mut report, &mut session_complete) {
                    return report;
                }
                if !result.flags.holds() || result.init_truncated {
                    session_complete = false;
                }
                if result.diverged {
                    report.divergences += 1;
                    session_complete = false;
                    // Drop the divergent item, and persist the drop so a
                    // resume does not replay it.
                    self.write_checkpoint(&frontier, &coverage, &cache, &report, session_complete);
                    continue;
                }

                let solve_started = std::time::Instant::now();
                let upper = result.stack.len().min(result.path.len());
                let constraints = result.path.constraints();
                // The `j` queries below all share prefixes of this run's
                // path constraint, which shares a prefix with the previous
                // expansion's: the retained session pushes only the rest.
                let (mut session, shared) = cache.take_session(&solver, &constraints[..upper]);
                child_keys.keep(shared);
                // Candidate collection, dedup first: a fingerprint already
                // derived (this restart or an earlier one) skips its
                // solver query entirely, at the sound cost of the
                // completeness claim.
                let mut candidates = Vec::new();
                let mut keys = Vec::new();
                for j in bound..upper {
                    if result.stack[j].done {
                        continue;
                    }
                    let key = child_keys.key(constraints, j);
                    if !frontier.note_candidate(key) {
                        session_complete = false;
                        continue;
                    }
                    candidates.push(j);
                    keys.push(key);
                }
                // Every candidate is solved, in `j` order: each satisfiable
                // negation spawns a child.
                let mut deadline_hit = false;
                for (pos, &j) in candidates.iter().enumerate() {
                    // The deadline is also checked per candidate, so a
                    // long expansion cannot overshoot it by a whole item's
                    // worth of solving; partial results remain valid.
                    if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                        deadline_hit = true;
                        break;
                    }
                    if faults.force_unknown_next_query() {
                        report.solver.unknown += 1;
                        session_complete = false;
                        frontier.forget_candidate(keys[pos]);
                        continue;
                    }
                    let negated = constraints[j].negated();
                    let hint = |v| result.tape.value_of(v);
                    match cache.solve_query(&mut session, j, &negated, hint) {
                        SolveOutcome::Sat(model) => {
                            report.solver.sat += 1;
                            // A pristine derived-seed tape (not a clone of
                            // the parent's spent RNG state) so a
                            // checkpointed child round-trips exactly.
                            let child_seed = derive_seed(cfg.seed, frontier.next_seq());
                            let mut child_tape =
                                InputTape::from_slots(result.tape.snapshot(), child_seed);
                            child_tape.apply_model(&model);
                            let mut child_stack = result.stack[..=j].to_vec();
                            child_stack[j].branch = !child_stack[j].branch;
                            if frontier.push_child(
                                child_tape,
                                child_stack,
                                j + 1,
                                new_pairs,
                                child_seed,
                                keys[pos],
                            ) {
                                // The budget evicted unexplored work.
                                session_complete = false;
                            }
                        }
                        SolveOutcome::Unsat => report.solver.unsat += 1,
                        SolveOutcome::Unknown => {
                            report.solver.unknown += 1;
                            session_complete = false;
                            // No verdict was established: release the
                            // fingerprint so a later restart may retry.
                            frontier.forget_candidate(keys[pos]);
                        }
                    }
                }
                report.solver.finish_walk(session, &mut cache);
                report.solve_time += solve_started.elapsed();
                report.dedup_hits = frontier.dedup_hits;
                report.frontier_evicted = frontier.evicted;
                report.frontier_peak = frontier.peak;
                if deadline_hit {
                    // No checkpoint here: the abandoned candidates'
                    // fingerprints entered the dedup set, and persisting
                    // them would make a resume skip their children
                    // forever. The previous snapshot stays consistent.
                    report.outcome = Outcome::DeadlineExceeded;
                    return report;
                }
                self.write_checkpoint(&frontier, &coverage, &cache, &report, session_complete);
            }

            if session_complete {
                report.outcome = Outcome::Complete;
                return report;
            }
            continue 'outer; // incomplete: fresh random restart
        }
    }

    /// Persists the generational session state to
    /// [`DartConfig::checkpoint`] (a no-op without one): write a `.tmp`
    /// sibling, then rename over the target, so a kill mid-write leaves
    /// the previous consistent snapshot in place. Write failures are
    /// deliberately swallowed — checkpointing is crash insurance, and a
    /// full disk must not turn a healthy session into a failed one.
    fn write_checkpoint(
        &self,
        frontier: &Frontier,
        coverage: &std::collections::HashSet<(usize, bool)>,
        cache: &QueryCache,
        report: &SessionReport,
        session_complete: bool,
    ) {
        let Some(path) = &self.config.checkpoint else {
            return;
        };
        let mut cov: Vec<(usize, bool)> = coverage.iter().copied().collect();
        cov.sort_unstable();
        let solver = SolverCounters {
            sat: report.solver.sat,
            unsat: report.solver.unsat,
            unknown: report.solver.unknown,
            cache: cache.stats(),
        };
        let cp = frontier.to_checkpoint(
            self.config.seed,
            report.restarts,
            report.runs,
            report.steps,
            report.divergences,
            session_complete,
            cov,
            solver,
            cache.models().to_vec(),
        );
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        if std::fs::write(&tmp, cp.render()).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Total coverable branch directions: two per conditional statement.
    fn branch_sites(&self) -> usize {
        2 * self
            .compiled
            .program
            .stmts
            .iter()
            .filter(|s| matches!(s, dart_ram::Statement::If { .. }))
            .count()
    }

    /// Records bugs / incompleteness from a run's termination. Returns
    /// `true` when the session should stop now.
    fn handle_termination(
        &self,
        result: &RunResult,
        report: &mut SessionReport,
        session_complete: &mut bool,
    ) -> bool {
        let kind = match &result.termination {
            RunTermination::Ok => return false,
            RunTermination::Abort(reason) => BugKind::Abort(reason.clone()),
            RunTermination::Crash(fault) => BugKind::Crash(*fault),
            RunTermination::OutOfSteps => {
                if !self.config.nontermination_is_bug {
                    *session_complete = false;
                    return false;
                }
                BugKind::NonTermination
            }
            RunTermination::OutOfMemory => {
                if !self.config.oom_is_bug {
                    *session_complete = false;
                    return false;
                }
                BugKind::OutOfMemory
            }
        };
        let bug = Bug {
            kind,
            run_index: report.runs,
            inputs: result.tape.snapshot(),
        };
        report.bugs.push(bug.clone());
        if self.config.stop_at_first_bug {
            report.outcome = Outcome::BugFound(bug);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_frontier_budget_rejected_at_session_construction() {
        let compiled = dart_minic::compile("int f(int x) { return x; }").unwrap();
        let config = DartConfig {
            mode: EngineMode::Generational,
            frontier_budget: Some(0),
            ..DartConfig::default()
        };
        match Dart::new(&compiled, "f", config) {
            Err(DartError::InvalidConfig(reason)) => {
                assert!(reason.contains("frontier_budget"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn checkpoint_rejected_outside_generational_mode() {
        let compiled = dart_minic::compile("int f(int x) { return x; }").unwrap();
        let config = DartConfig {
            checkpoint: Some(std::path::PathBuf::from("/nonexistent/dir/cp.txt")),
            ..DartConfig::default()
        };
        match Dart::new(&compiled, "f", config) {
            Err(DartError::InvalidConfig(reason)) => {
                assert!(reason.contains("generational"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    /// A checkpoint at or past the run budget resumes straight to
    /// `Exhausted`: the loop returns before it draws, so the resume must
    /// not first replay one RNG draw per checkpointed restart.
    #[test]
    fn resume_at_the_run_budget_skips_the_rng_fast_forward() {
        let compiled = dart_minic::compile("int f(int x) { return x; }").unwrap();
        let config = DartConfig {
            mode: EngineMode::Generational,
            ..DartConfig::default()
        };
        let mut dart = Dart::new(&compiled, "f", config).unwrap();
        let huge = 1 << 62;
        dart.checkpoint = Some(Checkpoint {
            seed: dart.config.seed,
            restarts: huge,
            runs: huge,
            steps: 0,
            divergences: 0,
            session_complete: false,
            coverage: Vec::new(),
            dedup_hits: 0,
            evicted: 0,
            peak: 0,
            next_seq: 0,
            solver: SolverCounters::default(),
            seen: Vec::new(),
            pool: Vec::new(),
            items: Vec::new(),
        });
        let report = dart.run();
        assert_eq!(report.outcome, Outcome::Exhausted);
        assert_eq!((report.runs, report.restarts), (huge, huge));
    }

    /// `solve_threads` and `exec_tier` are ignored: no value of either is
    /// rejected, and no value changes a report, in both engine modes that
    /// solve.
    #[test]
    fn ignored_fields_change_no_report() {
        assert_eq!(DartConfig::default().solve_threads, 1);
        assert_eq!(DartConfig::default().exec_tier, ExecTier::Interp);
        let compiled = dart_minic::compile(
            r#"
            int f(int x, int y) {
                if (x + y > 10)
                    if (x - y < 3)
                        if (2 * x == y + 14)
                            abort();
                return 0;
            }
            "#,
        )
        .unwrap();
        for mode in [EngineMode::Directed, EngineMode::Generational] {
            let run = |solve_threads: usize, exec_tier: ExecTier| {
                let config = DartConfig {
                    max_runs: 60,
                    stop_at_first_bug: false,
                    mode,
                    solve_threads,
                    exec_tier,
                    ..DartConfig::default()
                };
                let mut report = Dart::new(&compiled, "f", config).unwrap().run();
                report.exec_time = std::time::Duration::ZERO;
                report.solve_time = std::time::Duration::ZERO;
                report
            };
            let one = run(1, ExecTier::Interp);
            assert_eq!(one.steps_fast_pathed, 0);
            assert_eq!(one, run(0, ExecTier::Interp), "{mode:?}");
            assert_eq!(one, run(usize::MAX, ExecTier::Interp), "{mode:?}");
            assert_eq!(one, run(1, ExecTier::Compiled), "{mode:?}");
        }
    }
}
