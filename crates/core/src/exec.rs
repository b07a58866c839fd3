//! One instrumented run — the paper's Fig. 3 `instrumented_program`.
//!
//! Drives the concrete [`Machine`] one statement at a time and mirrors each
//! effect symbolically *using the pre-step state*, exactly interleaving
//! concrete and symbolic execution:
//!
//! * assignments: `S = S + [m -> evaluate_symbolic(e, M, S)]`,
//! * conditionals: record the branch predicate in the path constraint and
//!   check the prediction stack (Fig. 4),
//! * calls/returns: propagate symbolic argument and result values through
//!   frames (interprocedural tracing),
//! * external calls: fresh symbolic inputs appear mid-run,
//! * allocations: the destination becomes concrete (a fresh address).

use crate::run::RunCtx;
use crate::supervise::FaultState;
use crate::tape::InputTape;
use dart_minic::{CompiledProgram, FnSig};
use dart_ram::{
    DecodedProgram, Fault, Machine, MachineConfig, MemView, Statement, StepOutcome, GLOBAL_BASE,
};
use dart_solver::{Assignment, Constraint, LinExpr, Var};
use dart_sym::{
    eval_predicate, eval_symbolic, BranchRecord, Completeness, PathConstraint, SymMemory,
};

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunTermination {
    /// All `depth` toplevel calls completed normally (or `halt` executed).
    Ok,
    /// An `abort()` / failed assertion.
    Abort(String),
    /// A crash (memory fault, division by zero, stack overflow).
    Crash(Fault),
    /// Non-termination: the run repeated its machine state (proven), or
    /// the step budget ran out (potential); see
    /// [`dart_ram::StepOutcome::OutOfSteps`].
    OutOfSteps,
    /// The allocation budget ran out
    /// ([`dart_ram::ResourceBudget::max_alloc_words`]), or an injected
    /// fault denied an allocation.
    OutOfMemory,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The input tape, extended with any inputs materialized this run.
    pub tape: InputTape,
    /// The observed branch stack, truncated to what actually executed.
    pub stack: Vec<BranchRecord>,
    /// The path constraint of the executed path.
    pub path: PathConstraint,
    /// Completeness flags after the run.
    pub flags: Completeness,
    /// Whether the branch prediction was violated (`forcing_ok = 0`).
    pub diverged: bool,
    /// How the run ended.
    pub termination: RunTermination,
    /// Machine steps executed.
    pub steps: u64,
    /// Whether `random_init` hit the pointer-depth cap.
    pub init_truncated: bool,
    /// `path` index where incompleteness first appeared, if it did.
    pub taint_at: Option<usize>,
    /// Branch directions executed: `(conditional's statement label, taken)`
    /// for every conditional (symbolic or not) — branch coverage data.
    pub branches: Vec<(usize, bool)>,
    /// Always 0. It once counted the statements the compiled execution
    /// tier, which is gone, committed without symbolic bookkeeping. It
    /// stays only because the end-to-end benchmark still reads it, and
    /// goes with the benchmark PR that retires `bench_e2e`'s replica.
    pub steps_fast_pathed: u64,
}

/// A run's state at the start of its last depth iteration, where the
/// machine's stack is empty: what iterations `0..depth - 1`, the
/// prefix, left behind. A child run that [`Snapshot::admits`] starts
/// from a copy of it at iteration `depth - 1` instead of at `main`, and
/// ends exactly as the same run from scratch, with the prefix's steps,
/// path and branches counted.
#[derive(Debug)]
pub struct Snapshot<'p> {
    /// Cells, block table, allocators, step count and step limit.
    machine: Machine<'p>,
    /// The symbolic store `S`.
    sym: SymMemory,
    flags: Completeness,
    /// Symbolic conditionals the prefix executed (the paper's `k`), one
    /// path conjunct each.
    k: usize,
    taint_at: Option<usize>,
    init_truncated: bool,
    /// Tape slots the prefix consumed.
    cursor: usize,
    /// Branch directions the prefix executed.
    pub(crate) branches: usize,
    /// Allocation statements the prefix executed, one fault-plan slot
    /// each; 0 when the fault-injection hooks are compiled out, where
    /// [`FaultState`] counts none.
    allocs: u64,
}

impl Snapshot<'_> {
    /// Whether the child that flips conditional `flipped` of this run's
    /// branch stack and applies `model` to its `tape` may start from
    /// this snapshot: the model leaves every slot below the cursor as it
    /// was, and the flip lies at or past the prefix's conditionals. The
    /// prefix then reads the parent's inputs and meets only the parent's
    /// own branches as predictions, so it runs exactly as it did.
    pub fn admits(&self, tape: &InputTape, model: &Assignment, flipped: usize) -> bool {
        flipped >= self.k
            && model
                .range(..Var(self.cursor as u32))
                .all(|(&var, &value)| tape.value_of(var) == Some(value))
    }

    /// Tape slots the prefix consumed.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Symbolic conditionals the prefix executed: a flip below this
    /// index would change the prefix.
    pub fn conditionals(&self) -> usize {
        self.k
    }

    /// Allocation statements the prefix executed: the slots a resumed
    /// run's caller skips with [`FaultState::skip_allocs`].
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

/// Where [`run_from`] begins.
#[derive(Debug)]
pub enum Start<'s, 'p> {
    /// At iteration 0 on a fresh machine, as the paper's driver does.
    Fresh {
        /// Whether a run of depth 2 or more also returns its
        /// [`Snapshot`] at the start of its last iteration.
        snapshot: bool,
    },
    /// At iteration `depth - 1` on a copy of a snapshot that
    /// [`Snapshot::admits`] this run.
    Resume {
        /// The snapshot.
        from: &'s Snapshot<'p>,
        /// The path constraint of the run that took `from` or of a run
        /// resumed from it; the run keeps the prefix's part.
        path: PathConstraint,
        /// That run's branch directions; the run keeps the prefix's part.
        branches: Vec<(usize, bool)>,
    },
}

/// Executes one instrumented run: initializes extern variables, then calls
/// the toplevel function `depth` times with freshly initialized arguments
/// (the generated test driver of Fig. 7), mirroring everything
/// symbolically.
pub fn run_once(
    compiled: &CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
) -> RunResult {
    run_from(
        compiled,
        sig,
        depth,
        machine_config,
        tape,
        predicted_stack,
        max_ptr_depth,
        &mut FaultState::default(),
        Start::Fresh { snapshot: false },
    )
    .0
}

/// [`run_once`], ignoring `decoded`: the compiled execution tier it once
/// selected is gone. It stays only because the end-to-end benchmark still
/// calls it, and goes with the benchmark PR that retires `bench_e2e`'s
/// replica.
#[allow(clippy::too_many_arguments)]
pub fn run_once_in_tier(
    compiled: &CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
    _decoded: Option<&DecodedProgram>,
) -> RunResult {
    run_once(
        compiled,
        sig,
        depth,
        machine_config,
        tape,
        predicted_stack,
        max_ptr_depth,
    )
}

/// One instrumented run from `start`, consulting a session-wide
/// fault-injection state (a no-op default state injects nothing; see
/// [`crate::supervise::FaultState`]). Returns the run and, when `start`
/// is [`Start::Fresh`] with `snapshot` and the run reached its last
/// iteration, its [`Snapshot`].
///
/// A resumed run does not execute the prefix's allocations: its caller
/// first moves `faults` past them with [`FaultState::skip_allocs`], and
/// runs from scratch when that refuses.
#[allow(clippy::too_many_arguments)]
pub fn run_from<'p>(
    compiled: &'p CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
    faults: &mut FaultState,
    start: Start<'_, 'p>,
) -> (RunResult, Option<Snapshot<'p>>) {
    run_once_impl(
        compiled,
        sig,
        depth,
        machine_config,
        tape,
        predicted_stack,
        max_ptr_depth,
        None,
        faults,
        start,
    )
}

/// [`run_once`] with a statement-level trace: every executed statement is
/// appended to `trace` in disassembly syntax (used by `dartc --trace`).
#[allow(clippy::too_many_arguments)]
pub fn run_once_traced(
    compiled: &CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
    trace: &mut Vec<String>,
) -> RunResult {
    run_once_impl(
        compiled,
        sig,
        depth,
        machine_config,
        tape,
        predicted_stack,
        max_ptr_depth,
        Some(trace),
        &mut FaultState::default(),
        Start::Fresh { snapshot: false },
    )
    .0
}

#[allow(clippy::too_many_arguments)]
fn run_once_impl<'p>(
    compiled: &'p CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
    mut trace: Option<&mut Vec<String>>,
    faults: &mut FaultState,
    start: Start<'_, 'p>,
) -> (RunResult, Option<Snapshot<'p>>) {
    let allocs_before = faults.allocs_seen();
    let mut ctx = RunCtx::new(compiled, tape, predicted_stack, max_ptr_depth);
    let (mut machine, mut branches, first_iter, keep) = match start {
        Start::Fresh { snapshot } => {
            let mut machine = Machine::new(&compiled.program, machine_config);
            for &(off, v) in &compiled.global_inits {
                machine
                    .mem_mut()
                    .store(GLOBAL_BASE + off as i64, v)
                    .expect("global initializer in range");
            }
            ctx.tape.rewind();
            // External variables are inputs (§3.1), initialized at run start.
            for ev in &compiled.extern_vars {
                ctx.random_init(
                    machine.mem_mut(),
                    GLOBAL_BASE + ev.offset as i64,
                    &ev.ty,
                    &|| format!("extern {}", ev.name),
                    0,
                );
            }
            (machine, Vec::new(), 0, snapshot && depth >= 2)
        }
        Start::Resume {
            from,
            mut path,
            mut branches,
        } => {
            path.truncate(from.k);
            branches.truncate(from.branches);
            ctx.tape.seek(from.cursor);
            ctx.sym = from.sym.clone();
            ctx.flags = from.flags;
            ctx.path = path;
            ctx.k = from.k;
            ctx.taint_at = from.taint_at;
            ctx.init_truncated = from.init_truncated;
            (from.machine.clone(), branches, depth - 1, false)
        }
    };

    let mut snapshot = None;
    let mut termination = RunTermination::Ok;
    'driver: for iter in first_iter..depth {
        if keep && iter == depth - 1 {
            snapshot = Some(Snapshot {
                machine: machine.clone(),
                sym: ctx.sym.clone(),
                flags: ctx.flags,
                k: ctx.k,
                taint_at: ctx.taint_at,
                init_truncated: ctx.init_truncated,
                cursor: ctx.tape.consumed(),
                branches: branches.len(),
                allocs: faults.allocs_seen() - allocs_before,
            });
        }
        // Fresh inputs for the toplevel arguments (Fig. 7's loop body).
        let base = match machine.call(sig.id, &vec![0; sig.params.len()]) {
            Ok(base) => base,
            Err(fault) => {
                termination = RunTermination::Crash(fault);
                break 'driver;
            }
        };
        for (i, (pname, pty)) in sig.params.iter().enumerate() {
            let label = || format!("arg {pname} (iter {iter})");
            ctx.random_init(machine.mem_mut(), base + i as i64, pty, &label, 0);
        }

        // The instrumented execution loop.
        loop {
            let pc = machine.pc();
            if let Some(t) = trace.as_deref_mut() {
                t.push(format!("{pc:5}: {}", compiled.program.render_stmt(pc)));
            }
            let stmt = machine.current_statement();
            let planned = plan(stmt, &machine, &mut ctx);
            ctx.note_taint();
            // Injected allocation denial: terminate exactly as the real
            // allocation budget would, before the statement executes.
            if matches!(stmt, Some(Statement::Alloc { .. })) && faults.deny_next_alloc() {
                termination = RunTermination::OutOfMemory;
                break 'driver;
            }
            let outcome = machine.step(&mut ctx);
            if let StepOutcome::Branched { taken } = outcome {
                branches.push((pc, taken));
            }
            apply(&mut ctx, planned, &outcome);
            if ctx.diverged {
                break 'driver;
            }
            match outcome {
                StepOutcome::Finished { .. } => break,
                StepOutcome::Halted => break 'driver,
                StepOutcome::Aborted { reason } => {
                    termination = RunTermination::Abort(reason);
                    break 'driver;
                }
                StepOutcome::Faulted(fault) => {
                    termination = RunTermination::Crash(fault);
                    break 'driver;
                }
                StepOutcome::OutOfSteps => {
                    termination = RunTermination::OutOfSteps;
                    break 'driver;
                }
                StepOutcome::OutOfMemory => {
                    termination = RunTermination::OutOfMemory;
                    break 'driver;
                }
                _ => {}
            }
        }
    }

    // Drop stale predictions beyond what executed (Fig. 5 considers only
    // indices below k_try).
    ctx.stack.truncate(ctx.k);

    let result = RunResult {
        steps: machine.steps_taken(),
        tape: ctx.tape,
        stack: ctx.stack,
        path: ctx.path,
        flags: ctx.flags,
        diverged: ctx.diverged,
        termination,
        init_truncated: ctx.init_truncated,
        taint_at: ctx.taint_at,
        branches,
        steps_fast_pathed: 0,
    };
    (result, snapshot)
}

/// Pre-step symbolic work, computed against the pre-step state.
enum Planned {
    AssignSrc(LinExpr),
    Branch(Option<Constraint>),
    CallArgs(Vec<LinExpr>),
    RetVal(Option<LinExpr>),
    Nothing,
}

fn plan(stmt: Option<&Statement>, view: &dyn MemView, ctx: &mut RunCtx<'_>) -> Planned {
    let Some(stmt) = stmt else {
        return Planned::Nothing;
    };
    match stmt {
        Statement::Assign { src, .. } => {
            Planned::AssignSrc(eval_symbolic(src, view, &ctx.sym, &mut ctx.flags))
        }
        Statement::If { cond, .. } => {
            Planned::Branch(eval_predicate(cond, view, &ctx.sym, &mut ctx.flags))
        }
        Statement::Call { args, .. } => Planned::CallArgs(
            args.iter()
                .map(|a| eval_symbolic(a, view, &ctx.sym, &mut ctx.flags))
                .collect(),
        ),
        Statement::Ret { value } => Planned::RetVal(
            value
                .as_ref()
                .map(|v| eval_symbolic(v, view, &ctx.sym, &mut ctx.flags)),
        ),
        _ => Planned::Nothing,
    }
}

/// Post-step symbolic bookkeeping, using the outcome's resolved addresses.
fn apply(ctx: &mut RunCtx<'_>, planned: Planned, outcome: &StepOutcome) {
    match (planned, outcome) {
        (Planned::AssignSrc(v), StepOutcome::Assigned { dst, .. }) => {
            ctx.sym.set(*dst, v);
        }
        (Planned::Branch(Some(mut pred)), StepOutcome::Branched { taken }) => {
            if !*taken {
                pred.op = pred.op.negated();
            }
            ctx.observe_branch(*taken, pred);
        }
        (Planned::CallArgs(vals), StepOutcome::Called { frame_base, .. }) => {
            for (i, v) in vals.into_iter().enumerate() {
                ctx.sym.set(frame_base + i as i64, v);
            }
        }
        (Planned::RetVal(Some(v)), StepOutcome::Returned { dst: Some(d), .. }) => {
            ctx.sym.set(*d, v);
        }
        (_, StepOutcome::ExternalReturned { dst, .. }) => {
            if let (Some(d), Some(var)) = (dst, ctx.pending_ext.take()) {
                ctx.sym.bind(*d, var);
            }
        }
        (_, StepOutcome::Allocated { dst, .. }) => {
            // A fresh (concrete) pointer: the cell is no longer symbolic.
            ctx.sym.forget(*dst);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_solver::{SolveOutcome, Solver};

    fn compiled(src: &str) -> CompiledProgram {
        dart_minic::compile(src).unwrap()
    }

    fn run(src: &str, func: &str, seed: u64) -> (RunResult, CompiledProgram) {
        let c = compiled(src);
        let sig = c.fn_sig(func).unwrap().clone();
        let r = run_once(
            &c,
            &sig,
            1,
            MachineConfig::default(),
            InputTape::new(seed),
            Vec::new(),
            32,
        );
        (r, c)
    }

    #[test]
    fn straightline_run_collects_nothing() {
        let (r, _) = run("int f(int x) { return x + 1; }", "f", 1);
        assert_eq!(r.termination, RunTermination::Ok);
        assert!(r.path.is_empty());
        assert!(r.stack.is_empty());
        assert!(r.flags.holds());
        assert!(!r.diverged);
    }

    #[test]
    fn single_branch_collects_one_predicate() {
        let (r, _) = run(
            "int f(int x) { if (x == 77777777) return 1; return 0; }",
            "f",
            1,
        );
        assert_eq!(r.path.len(), 1);
        assert_eq!(r.stack.len(), 1);
        // With a random input, the == branch is (almost surely) not taken,
        // so the recorded constraint is the negation: x != 77777777.
        // Negating it back and solving must give exactly 77777777.
        let q = r.path.negated_prefix(0);
        match Solver::default().solve(&q) {
            SolveOutcome::Sat(m) => {
                assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![77777777]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn interprocedural_symbolic_tracing_paper_h() {
        // §2.1: h(x, y) with f(x) = 2x. The path constraint of a run that
        // takes x != y and misses the abort must contain 2x - (x+10) != 0,
        // i.e. x - 10 != 0 — solvable to x == 10.
        let src = r#"
            int f(int x) { return 2 * x; }
            int h(int x, int y) {
                if (x != y)
                    if (f(x) == x + 10)
                        abort();
                return 0;
            }
        "#;
        let (r, _) = run(src, "h", 3);
        // Random x, y: x != y almost surely -> two branches recorded.
        assert_eq!(r.path.len(), 2, "path: {}", r.path);
        let q = r.path.negated_prefix(1);
        match Solver::default().solve(&q) {
            SolveOutcome::Sat(m) => {
                use dart_solver::Var;
                assert_eq!(m[&Var(0)], 10, "x must be forced to 10");
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn abort_is_reported() {
        let (r, _) = run("void f(int x) { abort(); }", "f", 1);
        assert!(matches!(r.termination, RunTermination::Abort(_)));
    }

    #[test]
    fn crash_is_reported() {
        let (r, _) = run("int f(int x) { return x / 0; }", "f", 1);
        assert_eq!(r.termination, RunTermination::Crash(Fault::DivisionByZero));
    }

    #[test]
    fn nontermination_is_reported() {
        let c = compiled("void f(int x) { while (1) { } }");
        let sig = c.fn_sig("f").unwrap().clone();
        let r = run_once(
            &c,
            &sig,
            1,
            MachineConfig {
                max_steps: 500,
                ..MachineConfig::default()
            },
            InputTape::new(1),
            Vec::new(),
            32,
        );
        assert_eq!(r.termination, RunTermination::OutOfSteps);
    }

    #[test]
    fn nonlinear_branch_taints_without_constraint() {
        let (r, _) = run(
            "int f(int x, int y) { if (x * y == 12) return 1; return 0; }",
            "f",
            1,
        );
        assert!(r.path.is_empty(), "non-linear predicate must be dropped");
        assert!(!r.flags.all_linear);
        assert_eq!(r.taint_at, Some(0));
    }

    #[test]
    fn depth_iterations_share_globals() {
        // g increments once per toplevel call; branch on g == 2 only
        // reachable at depth >= 2 (and is concrete, so no constraint).
        let src = r#"
            int g = 0;
            void f(int x) {
                g = g + 1;
                if (g == 2) abort();
            }
        "#;
        let c = compiled(src);
        let sig = c.fn_sig("f").unwrap().clone();
        let r1 = run_once(
            &c,
            &sig,
            1,
            MachineConfig::default(),
            InputTape::new(1),
            Vec::new(),
            32,
        );
        assert_eq!(r1.termination, RunTermination::Ok);
        let r2 = run_once(
            &c,
            &sig,
            2,
            MachineConfig::default(),
            InputTape::new(1),
            Vec::new(),
            32,
        );
        assert!(matches!(r2.termination, RunTermination::Abort(_)));
    }

    #[test]
    fn depth_iterations_make_fresh_inputs() {
        let src = "void f(int x) { }";
        let c = compiled(src);
        let sig = c.fn_sig("f").unwrap().clone();
        let r = run_once(
            &c,
            &sig,
            3,
            MachineConfig::default(),
            InputTape::new(1),
            Vec::new(),
            32,
        );
        assert_eq!(r.tape.len(), 3, "one input per depth iteration");
    }

    #[test]
    fn extern_function_returns_become_inputs() {
        let src = r#"
            extern int sensor();
            int f(int x) {
                int a = sensor();
                if (a == 123456) return 1;
                return 0;
            }
        "#;
        let (r, _) = run(src, "f", 5);
        // Inputs: x and the sensor() return.
        assert_eq!(r.tape.len(), 2);
        // The branch on the sensor value is symbolic.
        assert_eq!(r.path.len(), 1);
        let q = r.path.negated_prefix(0);
        match Solver::default().solve(&q) {
            SolveOutcome::Sat(m) => {
                use dart_solver::Var;
                assert_eq!(m[&Var(1)], 123456);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn extern_vars_are_inputs() {
        let src = r#"
            extern int mode;
            int f(int x) { if (mode == 5) return 1; return 0; }
        "#;
        let (r, _) = run(src, "f", 5);
        assert_eq!(r.tape.len(), 2); // mode + x
        assert_eq!(r.path.len(), 1);
    }

    #[test]
    fn prediction_replay_reaches_flipped_branch() {
        // Simulate one full directed step by hand: run, negate, solve,
        // replay — the flipped branch must be taken and marked done.
        let src = "int f(int x) { if (x == 424242) return 1; return 0; }";
        let c = compiled(src);
        let sig = c.fn_sig("f").unwrap().clone();
        let r1 = run_once(
            &c,
            &sig,
            1,
            MachineConfig::default(),
            InputTape::new(7),
            Vec::new(),
            32,
        );
        assert!(!r1.stack[0].done);
        let q = r1.path.negated_prefix(0);
        let SolveOutcome::Sat(model) = Solver::default().solve(&q) else {
            panic!("solvable");
        };
        let mut tape = r1.tape;
        tape.apply_model(&model);
        let mut stack = r1.stack;
        stack[0].branch = !stack[0].branch;
        let r2 = run_once(&c, &sig, 1, MachineConfig::default(), tape, stack, 32);
        assert!(!r2.diverged);
        assert!(r2.stack[0].done, "flipped branch must be marked done");
        assert!(r2.stack[0].branch, "then-branch taken on replay");
    }

    /// Every kind of input label, as bug reports print them: extern
    /// variables, toplevel arguments per depth iteration, pointees,
    /// struct fields, array elements and external-call returns. The
    /// seed is the first whose coins allocate both `*q` and `get()`'s
    /// result.
    #[test]
    fn input_slots_are_named_by_their_origin() {
        let c = compiled(
            r#"
            struct s { int a[2]; struct s *next; };
            extern int mode;
            extern struct s *get();
            int f(struct s *q, int x) {
                struct s *r;
                r = get();
                return x;
            }
            "#,
        );
        let sig = c.fn_sig("f").unwrap().clone();
        let names = (0..64u64)
            .map(|seed| {
                let tape = InputTape::new(seed);
                let r = run_once(&c, &sig, 2, MachineConfig::default(), tape, Vec::new(), 32);
                let names: Vec<String> = r.tape.snapshot().into_iter().map(|s| s.name).collect();
                names
            })
            .find(|names| {
                names.iter().any(|n| n.starts_with("*arg q"))
                    && names.iter().any(|n| n.starts_with("*ret of get()"))
            })
            .expect("some seed allocates both pointees");
        assert_eq!(names, EXPECTED_NAMES, "{names:#?}");
    }

    const EXPECTED_NAMES: &[&str] = &[
        "extern mode",
        "arg q (iter 0)",
        "*arg q (iter 0).a[0]",
        "*arg q (iter 0).a[1]",
        "*arg q (iter 0).next",
        "**arg q (iter 0).next.a[0]",
        "**arg q (iter 0).next.a[1]",
        "**arg q (iter 0).next.next",
        "***arg q (iter 0).next.next.a[0]",
        "***arg q (iter 0).next.next.a[1]",
        "***arg q (iter 0).next.next.next",
        "arg x (iter 0)",
        "ret of get() #12",
        "arg q (iter 1)",
        "arg x (iter 1)",
        "ret of get() #15",
        "*ret of get() #15.a[0]",
        "*ret of get() #15.a[1]",
        "*ret of get() #15.next",
    ];

    #[test]
    fn pointer_input_null_check_is_symbolic() {
        let src = r#"
            struct s { int v; };
            int f(struct s *p) {
                if (p == NULL) return -1;
                return p->v;
            }
        "#;
        let (r, _) = run(src, "f", 1);
        assert_eq!(r.termination, RunTermination::Ok);
        assert_eq!(r.path.len(), 1, "NULL check must be symbolic");
    }

    /// An injected allocation denial ends the run as the allocation
    /// budget would, before the `malloc` executes: only the two
    /// assignments before it count as steps.
    #[test]
    fn injected_alloc_denial_stops_before_the_allocation() {
        use crate::supervise::FaultPlan;

        let c = compiled(
            r#"
            int f(int x) {
                int acc;
                int *p;
                acc = 1;
                acc = acc * 2;
                p = malloc(2);
                *p = acc + x;
                return *p;
            }
            "#,
        );
        let sig = c.fn_sig("f").unwrap().clone();
        let config = crate::DartConfig {
            faults: FaultPlan {
                deny_alloc: Some(0),
                ..FaultPlan::default()
            },
            ..crate::DartConfig::default()
        };
        let mut faults = FaultState::for_config(&config);
        let (r, _) = run_from(
            &c,
            &sig,
            1,
            MachineConfig::default(),
            InputTape::new(5),
            Vec::new(),
            32,
            &mut faults,
            Start::Fresh { snapshot: false },
        );
        assert_eq!((r.termination, r.steps), (RunTermination::OutOfMemory, 2));
    }

    /// Runs `f` once with `x` as the first input and fresh random inputs
    /// after it.
    fn run_with_input(src: &str, x: i64, max_steps: u64) -> RunResult {
        use crate::tape::{InputKind, InputSlot};
        let c = compiled(src);
        let sig = c.fn_sig("f").unwrap().clone();
        let config = MachineConfig {
            max_steps,
            ..MachineConfig::default()
        };
        let slots = vec![InputSlot {
            kind: InputKind::IntLike,
            value: x,
            name: "x".into(),
        }];
        let tape = InputTape::from_slots(slots, 7);
        run_once(&c, &sig, 1, config, tape, Vec::new(), 32)
    }

    #[test]
    fn write_free_hangs_end_at_their_second_back_edge() {
        // `if 1 goto 2`, `goto 0`, `if`, `goto 0`: four steps.
        let r = run_with_input("void f(int x) { while (1) { } }", 0, 1_000_000);
        assert_eq!((r.termination, r.steps), (RunTermination::OutOfSteps, 4));
        // The input-gated spin records its condition twice, not once per
        // step of the budget.
        let gated = "int f(int x) { while (x == 9) { } return 0; }";
        let r = run_with_input(gated, 9, 1_000_000);
        assert_eq!((r.termination, r.steps), (RunTermination::OutOfSteps, 4));
        assert_eq!(r.path.len(), 2, "path: {}", r.path);
        let r = run_with_input(gated, 8, 1_000_000);
        assert_eq!(r.termination, RunTermination::Ok);
    }

    #[test]
    fn hangs_that_write_or_leave_the_loop_body_run_to_the_budget() {
        let max_steps = 5_000;
        for src in [
            "void f(int x) { int i; i = 0; while (1) { i = i + 1; } }",
            // The store changes nothing, but the proof counts jumps, not
            // effects.
            "void f(int x) { int y; while (1) { y = 0; } }",
            "extern int ext(); void f(int x) { while (1) { ext(); } }",
            "void f(int x) { int *p; while (1) { p = (int *) malloc(1); } }",
            "void g() { } void f(int x) { while (1) { g(); } }",
        ] {
            let r = run_with_input(src, 0, max_steps);
            assert_eq!(
                (r.termination, r.steps),
                (RunTermination::OutOfSteps, max_steps),
                "{src}"
            );
        }
        let r = run_with_input("void f(int x) { f(x); }", 3, max_steps);
        assert_eq!(r.termination, RunTermination::Crash(Fault::StackOverflow));
    }
}
