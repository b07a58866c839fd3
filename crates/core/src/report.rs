//! Bug reports and session summaries.

use crate::search::SolveStats;
use crate::tape::InputSlot;
use dart_ram::Fault;
use std::fmt;

/// The error classes DART detects (paper §1: "program crashes, assertion
/// violations, and non-termination").
#[derive(Debug, Clone, PartialEq)]
pub enum BugKind {
    /// `abort()` executed / assertion violated.
    Abort(String),
    /// A crash (memory fault, division by zero, stack overflow).
    Crash(Fault),
    /// The run never halts, or may not: it repeated its machine state
    /// (proven: a loop took the same back edge twice with only jumps in
    /// between) or it exhausted its step budget (the paper's timer
    /// heuristic). See [`dart_ram::StepOutcome::OutOfSteps`].
    NonTermination,
    /// The run exceeded its allocation budget
    /// ([`dart_ram::ResourceBudget::max_alloc_words`]).
    OutOfMemory,
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BugKind::Abort(reason) => write!(f, "abort: {reason}"),
            BugKind::Crash(fault) => write!(f, "crash: {fault}"),
            BugKind::NonTermination => write!(
                f,
                "non-termination (repeated machine state or step budget exhausted)"
            ),
            BugKind::OutOfMemory => write!(f, "out of memory (allocation budget exhausted)"),
        }
    }
}

/// A found bug with its reproduction input vector (Theorem 1(a): every
/// reported error is witnessed by a concrete input).
#[derive(Debug, Clone, PartialEq)]
pub struct Bug {
    /// What happened.
    pub kind: BugKind,
    /// 1-based index of the run that hit the bug.
    pub run_index: u64,
    /// The input vector of the failing run.
    pub inputs: Vec<InputSlot>,
}

impl fmt::Display for Bug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (run {})", self.kind, self.run_index)?;
        for (i, s) in self.inputs.iter().enumerate() {
            writeln!(f, "  x{i} = {}  // {}", s.value, s.name)?;
        }
        Ok(())
    }
}

/// How a testing session ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A bug was found (and `stop_at_first_bug` was set).
    BugFound(Bug),
    /// The directed search terminated with all completeness flags intact:
    /// every feasible path was exercised and none hit an error
    /// (Theorem 1(b)).
    Complete,
    /// The run budget was exhausted without a completeness claim.
    Exhausted,
    /// The session's wall-clock deadline ([`crate::DartConfig::deadline`])
    /// expired before the search finished. Like [`Outcome::Exhausted`],
    /// this is incompleteness, never a completeness claim: partial results
    /// (runs, bugs, coverage) are still valid.
    DeadlineExceeded,
}

/// Summary of one testing session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Final outcome.
    pub outcome: Outcome,
    /// Instrumented runs executed.
    pub runs: u64,
    /// Every bug observed (one per failing run; deduplication is the
    /// caller's concern).
    pub bugs: Vec<Bug>,
    /// Times execution departed from the predicted branch sequence.
    pub divergences: u64,
    /// Fresh random restarts of the directed search.
    pub restarts: u64,
    /// Solver statistics.
    pub solver: SolveStats,
    /// Total machine steps across runs.
    pub steps: u64,
    /// Distinct `(conditional, direction)` pairs executed across the
    /// session — branch coverage (each conditional contributes up to 2).
    pub branches_covered: usize,
    /// Total coverable directions in the program (2 × conditionals).
    pub branch_sites: usize,
    /// Generational child derivations suppressed by the frontier's
    /// path-prefix dedup ([`crate::EngineMode::Generational`] only; 0
    /// elsewhere). Each suppression skips a whole solver query.
    pub dedup_hits: u64,
    /// Generational frontier items evicted by
    /// [`crate::DartConfig::frontier_budget`] before they could run.
    /// Every eviction clears the completeness claim.
    pub frontier_evicted: u64,
    /// High-water mark of the generational frontier's queue length.
    pub frontier_peak: u64,
    /// Executed branch sequences, one per run, when
    /// `DartConfig::record_paths` is set (empty otherwise). On a session
    /// that terminates [`Outcome::Complete`], these are exactly the leaves
    /// of the program's execution tree (§2.2), pairwise distinct.
    pub paths: Vec<Vec<(usize, bool)>>,
    /// Wall-clock time spent executing instrumented runs.
    pub exec_time: std::time::Duration,
    /// Wall-clock time spent in the constraint solver.
    pub solve_time: std::time::Duration,
    /// Always 0. It once counted the machine steps the compiled execution
    /// tier, which is gone, committed inside fused blocks. It stays only
    /// because the end-to-end benchmark still reads it, and goes with the
    /// benchmark PR that retires `bench_e2e`'s replica.
    pub steps_fast_pathed: u64,
}

impl SessionReport {
    /// An empty report for a session over a program with `branch_sites`
    /// coverable branch directions: no runs, no bugs, outcome
    /// [`Outcome::Exhausted`] until the search loop says otherwise. Both
    /// search modes start from this single constructor so new fields
    /// cannot drift between them.
    pub fn new(branch_sites: usize) -> SessionReport {
        SessionReport {
            outcome: Outcome::Exhausted,
            runs: 0,
            bugs: Vec::new(),
            divergences: 0,
            restarts: 0,
            solver: SolveStats::default(),
            steps: 0,
            branches_covered: 0,
            branch_sites,
            dedup_hits: 0,
            frontier_evicted: 0,
            frontier_peak: 0,
            paths: Vec::new(),
            exec_time: std::time::Duration::ZERO,
            solve_time: std::time::Duration::ZERO,
            steps_fast_pathed: 0,
        }
    }

    /// The first bug, if any.
    pub fn bug(&self) -> Option<&Bug> {
        self.bugs.first()
    }

    /// Whether the session proved full path coverage.
    pub fn is_complete(&self) -> bool {
        matches!(self.outcome, Outcome::Complete)
    }

    /// Whether any bug was found.
    pub fn found_bug(&self) -> bool {
        !self.bugs.is_empty()
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let outcome = match &self.outcome {
            Outcome::BugFound(b) => format!("BUG FOUND: {}", b.kind),
            Outcome::Complete => "complete (all feasible paths explored)".into(),
            Outcome::Exhausted => "run budget exhausted".into(),
            Outcome::DeadlineExceeded => "deadline exceeded (partial results)".into(),
        };
        write!(
            f,
            "{outcome} | runs {} | bugs {} | divergences {} | restarts {} | \
             solver sat/unsat/unknown {}/{}/{} (unknown rate {:.1}%) | \
             reuse/splits {}/{} | frontier dedup/evict/peak {}/{}/{} | \
             branch cov {}/{}",
            self.runs,
            self.bugs.len(),
            self.divergences,
            self.restarts,
            self.solver.sat,
            self.solver.unsat,
            self.solver.unknown,
            self.solver.unknown_rate() * 100.0,
            self.solver.cache_model_reuse,
            self.solver.split_solves,
            self.dedup_hits,
            self.frontier_evicted,
            self.frontier_peak,
            self.branches_covered,
            self.branch_sites,
        )
    }
}
