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
    BlockOutcome, DecodedProgram, FastMachine, Fault, FuncId, Machine, MachineConfig, MemView,
    Memory, Statement, StepOutcome, GLOBAL_BASE,
};
use dart_solver::Constraint;
use dart_solver::LinExpr;
use dart_sym::{eval_predicate, eval_symbolic, BranchRecord, Completeness, PathConstraint};

/// The concrete engine driving one run: the tree-walking interpreter
/// (always fully mirrored — the reference semantics) or the pre-decoded
/// compiled tier, whose probe/commit split lets the loop skip symbolic
/// mirroring on statements that touch no tracked state.
enum ExecMachine<'p> {
    Interp(Machine<'p>),
    Compiled(FastMachine<'p>),
}

impl<'p> ExecMachine<'p> {
    fn pc(&self) -> usize {
        match self {
            ExecMachine::Interp(m) => m.pc(),
            ExecMachine::Compiled(m) => m.pc(),
        }
    }

    fn steps_taken(&self) -> u64 {
        match self {
            ExecMachine::Interp(m) => m.steps_taken(),
            ExecMachine::Compiled(m) => m.steps_taken(),
        }
    }

    fn call(&mut self, func: FuncId, args: &[i64]) -> Result<i64, Fault> {
        match self {
            ExecMachine::Interp(m) => m.call(func, args),
            ExecMachine::Compiled(m) => m.call(func, args),
        }
    }

    fn mem_mut(&mut self) -> &mut Memory {
        match self {
            ExecMachine::Interp(m) => m.mem_mut(),
            ExecMachine::Compiled(m) => m.mem_mut(),
        }
    }
}

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
    /// Whole basic blocks committed through the compiled tier's fused
    /// path (trace-level taint summary hit nothing tracked). Always zero
    /// on the interpreter tier — a diagnostic, not an observable.
    pub blocks_fused: u64,
    /// Block dispatches that dropped to the stepwise path: footprint
    /// possibly tainted, budget too tight, or a mid-block fault.
    pub block_fallbacks: u64,
    /// Statements committed through the fused path with zero per-step
    /// symbolic bookkeeping.
    pub steps_fast_pathed: u64,
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
    run_once_impl(
        compiled,
        sig,
        depth,
        machine_config,
        tape,
        predicted_stack,
        max_ptr_depth,
        None,
        None,
        &mut FaultState::default(),
    )
}

/// [`run_once`] on an explicit execution tier: pass the program's decoded
/// form ([`DecodedProgram::new`] of `compiled.program`) to run on the
/// compiled tier, or `None` for the interpreter. Both tiers produce
/// byte-identical [`RunResult`]s — the interpreter is the compiled tier's
/// differential oracle.
#[allow(clippy::too_many_arguments)]
pub fn run_once_in_tier(
    compiled: &CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
    decoded: Option<&DecodedProgram>,
) -> RunResult {
    run_once_impl(
        compiled,
        sig,
        depth,
        machine_config,
        tape,
        predicted_stack,
        max_ptr_depth,
        decoded,
        None,
        &mut FaultState::default(),
    )
}

/// [`run_once`] consulting a session-wide fault-injection state (a no-op
/// default state injects nothing; see [`crate::supervise::FaultState`]) and
/// an optional decoded program selecting the compiled tier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_once_with_faults(
    compiled: &CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
    decoded: Option<&DecodedProgram>,
    faults: &mut FaultState,
) -> RunResult {
    run_once_impl(
        compiled,
        sig,
        depth,
        machine_config,
        tape,
        predicted_stack,
        max_ptr_depth,
        decoded,
        None,
        faults,
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
        None,
        Some(trace),
        &mut FaultState::default(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_once_impl(
    compiled: &CompiledProgram,
    sig: &FnSig,
    depth: u32,
    machine_config: MachineConfig,
    tape: InputTape,
    predicted_stack: Vec<BranchRecord>,
    max_ptr_depth: u32,
    decoded: Option<&DecodedProgram>,
    mut trace: Option<&mut Vec<String>>,
    faults: &mut FaultState,
) -> RunResult {
    let mut machine = match decoded {
        Some(d) => ExecMachine::Compiled(FastMachine::new(&compiled.program, d, machine_config)),
        None => ExecMachine::Interp(Machine::new(&compiled.program, machine_config)),
    };
    for &(off, v) in &compiled.global_inits {
        machine
            .mem_mut()
            .store(GLOBAL_BASE + off as i64, v)
            .expect("global initializer in range");
    }

    let mut ctx = RunCtx::new(compiled, tape, predicted_stack, max_ptr_depth);
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

    let mut termination = RunTermination::Ok;
    let mut branches: Vec<(usize, bool)> = Vec::new();
    let mut blocks_fused = 0u64;
    let mut block_fallbacks = 0u64;
    let mut steps_fast_pathed = 0u64;
    // The injected-allocation-denial pre-check below must consult the
    // *source* statement every step; programs that never allocate (the
    // common case) skip it wholesale — on the compiled tier that fetch
    // is the only per-step touch of the source tree.
    let has_alloc = compiled
        .program
        .stmts
        .iter()
        .any(|s| matches!(s, Statement::Alloc { .. }));
    'driver: for iter in 0..depth {
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
            let mut pc = machine.pc();
            if let Some(t) = trace.as_deref_mut() {
                t.push(format!("{pc:5}: {}", compiled.program.render_stmt(pc)));
            }
            let (planned, outcome) = match &mut machine {
                // The interpreter tier always mirrors — reference behavior.
                ExecMachine::Interp(m) => {
                    let planned = plan(m.current_statement(), m, &mut ctx);
                    ctx.note_taint();
                    // Injected allocation denial: terminate exactly as the
                    // real allocation budget would, before the statement
                    // executes.
                    if has_alloc
                        && matches!(m.current_statement(), Some(Statement::Alloc { .. }))
                        && faults.deny_next_alloc()
                    {
                        termination = RunTermination::OutOfMemory;
                        break 'driver;
                    }
                    let outcome = m.step(&mut ctx);
                    (planned, outcome)
                }
                // The compiled tier stages the step first; concrete-only
                // self-contained steps commit in the same pass (the plan
                // is a provable no-op there). Everything else — tainted
                // operands, terminal steps (the symbolic evaluator may
                // look past a concrete fault point), external calls and
                // allocations — defers, mirroring the interpreter's
                // plan/deny/step order exactly.
                ExecMachine::Compiled(m) => {
                    // Trace-level taint summary: attempt a whole basic
                    // block first. A clean footprint miss against `S`
                    // commits every statement in the block with zero
                    // per-step symbolic bookkeeping, outcome plumbing or
                    // termination checks — skipping `note_taint` is sound
                    // because the completeness flags only change inside
                    // `plan`, which a fused block provably does not need.
                    // Tainted, deferred or budget-limited blocks drop to
                    // the interpreter-exact stepwise path below.
                    match m.run_block(&ctx.sym) {
                        BlockOutcome::Fused { steps, branch } => {
                            blocks_fused += 1;
                            steps_fast_pathed += u64::from(steps);
                            if let Some((bpc, taken)) = branch {
                                branches.push((bpc, taken));
                            }
                            continue;
                        }
                        BlockOutcome::Partial { steps } => {
                            block_fallbacks += 1;
                            steps_fast_pathed += u64::from(steps);
                        }
                        BlockOutcome::Fallback => block_fallbacks += 1,
                        BlockOutcome::NoBlock => {}
                    }
                    // After a partial block the pc rests on the faulting
                    // statement; re-read it so branch coverage (below)
                    // attributes the stepwise outcome correctly.
                    pc = m.pc();
                    match m.step_concrete(&ctx.sym) {
                        Ok(outcome) => {
                            ctx.note_taint();
                            (Planned::Skipped, outcome)
                        }
                        Err(summary) => {
                            let planned = if summary.needs_mirror() {
                                plan(m.current_statement(), m, &mut ctx)
                            } else {
                                Planned::Skipped
                            };
                            ctx.note_taint();
                            if has_alloc
                                && matches!(m.current_statement(), Some(Statement::Alloc { .. }))
                                && faults.deny_next_alloc()
                            {
                                termination = RunTermination::OutOfMemory;
                                break 'driver;
                            }
                            (planned, m.commit(&mut ctx))
                        }
                    }
                }
            };
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

    RunResult {
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
        blocks_fused,
        block_fallbacks,
        steps_fast_pathed,
    }
}

/// Pre-step symbolic work, computed against the pre-step state.
enum Planned {
    AssignSrc(LinExpr),
    Branch(Option<Constraint>),
    CallArgs(Vec<LinExpr>),
    RetVal(Option<LinExpr>),
    Nothing,
    /// The compiled tier proved the plan a no-op (no mirrored operand read
    /// tracked state) and skipped it. [`apply`] still erases overwritten
    /// symbolic cells: a skipped plan would have produced constants, and
    /// `SymMemory::set` with a constant is exactly `forget`.
    Skipped,
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
        // Skipped-plan fix-ups: the concrete store overwrote the cell with
        // an untainted value, so any stale symbolic entry must go. (Called
        // needs no arm: fresh frame addresses are never previously tracked
        // — the stack allocator is monotone.)
        (Planned::Skipped, StepOutcome::Assigned { dst, .. }) => {
            ctx.sym.forget(*dst);
        }
        (
            Planned::Skipped,
            StepOutcome::Returned {
                dst: Some(d),
                value: Some(_),
            },
        ) => {
            ctx.sym.forget(*d);
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

    /// The compiled tier is observationally identical to the interpreter
    /// at the instrumented-run level: over every test program above and a
    /// spread of seeds, the full [`RunResult`] — tape (including RNG
    /// position), branch stack, path constraint, flags, termination,
    /// steps, coverage — matches field for field. Compared via `Debug`
    /// (the tape holds an RNG without `PartialEq`), which covers every
    /// field.
    #[test]
    fn compiled_tier_run_results_match_interpreter() {
        let sources = [
            "int f(int x) { return x + 1; }",
            "int f(int x) { if (x == 77777777) return 1; return 0; }",
            r#"
                int f(int x) { return 2 * x; }
                int h(int x, int y) {
                    if (x != y)
                        if (f(x) == x + 10)
                            abort();
                    return 0;
                }
            "#,
            "void f(int x) { abort(); }",
            "int f(int x) { return x / 0; }",
            "void f(int x) { while (1) { } }",
            "int f(int x, int y) { if (x * y == 12) return 1; return 0; }",
            r#"
                int g = 0;
                void f(int x) {
                    g = g + 1;
                    if (g == 2) abort();
                }
            "#,
            r#"
                extern int sensor();
                int f(int x) {
                    int a = sensor();
                    if (a == 123456) return 1;
                    return 0;
                }
            "#,
            r#"
                struct s { int v; };
                int f(struct s *p) {
                    if (p == NULL) return -1;
                    return p->v;
                }
            "#,
            r#"
                int f(int x, int y) {
                    int acc;
                    acc = 0;
                    while (x > 0) {
                        acc = acc + y;
                        x = x - 1;
                    }
                    return acc;
                }
            "#,
        ];
        let config = MachineConfig {
            max_steps: 500,
            ..MachineConfig::default()
        };
        for src in sources {
            let c = compiled(src);
            let decoded = DecodedProgram::new(&c.program);
            let toplevel = if c.fn_sig("h").is_some() { "h" } else { "f" };
            let sig = c.fn_sig(toplevel).unwrap().clone();
            for seed in 0..8u64 {
                for depth in [1, 2] {
                    let interp = run_once_in_tier(
                        &c,
                        &sig,
                        depth,
                        config,
                        InputTape::new(seed),
                        Vec::new(),
                        32,
                        None,
                    );
                    let mut fast = run_once_in_tier(
                        &c,
                        &sig,
                        depth,
                        config,
                        InputTape::new(seed),
                        Vec::new(),
                        32,
                        Some(&decoded),
                    );
                    // The block counters are tier diagnostics (always zero
                    // on the interpreter), not observables — scrub before
                    // the byte-for-byte comparison, like wall-clock times
                    // at the report level.
                    assert_eq!((interp.blocks_fused, interp.steps_fast_pathed), (0, 0));
                    fast.blocks_fused = 0;
                    fast.block_fallbacks = 0;
                    fast.steps_fast_pathed = 0;
                    assert_eq!(
                        format!("{interp:?}"),
                        format!("{fast:?}"),
                        "tier divergence: {src} seed {seed} depth {depth}"
                    );
                }
            }
        }
    }

    /// A loop over concrete data (no tracked address in its footprint)
    /// commits most of its steps through fused blocks. Note the loop
    /// variables are seeded with constants — constant forms are erased
    /// from `S`, so the block's taint summary comes back clean. A loop
    /// over the *symbolic* argument would (correctly) fall back stepwise.
    #[test]
    fn concrete_loop_mostly_fuses() {
        let c = compiled(
            r#"
            int f(int x) {
                int i;
                int acc;
                i = 0;
                acc = 0;
                while (i < 50) {
                    acc = acc + 2;
                    i = i + 1;
                }
                if (acc > x) return 1;
                return 0;
            }
            "#,
        );
        let decoded = DecodedProgram::new(&c.program);
        let sig = c.fn_sig("f").unwrap().clone();
        let config = MachineConfig {
            max_steps: 2000,
            ..MachineConfig::default()
        };
        let r = run_once_in_tier(
            &c,
            &sig,
            1,
            config,
            InputTape::new(3),
            Vec::new(),
            32,
            Some(&decoded),
        );
        assert!(r.blocks_fused > 0, "concrete loop body must fuse: {r:?}");
        assert!(
            r.steps_fast_pathed * 2 > r.steps,
            "most steps should commit through blocks: {} of {}",
            r.steps_fast_pathed,
            r.steps
        );
    }

    /// An injected allocation denial lands identically on both tiers: the
    /// straight-line statements before the `malloc` fuse, but the
    /// allocation itself never enters a block, so the denial decision
    /// stays on the stepwise path *before* any effect commits — reports
    /// match the interpreter byte for byte.
    #[test]
    fn injected_alloc_denial_is_tier_invisible() {
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
        let decoded = DecodedProgram::new(&c.program);
        let sig = c.fn_sig("f").unwrap().clone();
        let config = crate::DartConfig {
            faults: FaultPlan {
                deny_alloc: Some(0),
                ..FaultPlan::default()
            },
            ..crate::DartConfig::default()
        };
        let run_tier = |decoded: Option<&DecodedProgram>| {
            let mut faults = FaultState::for_config(&config);
            run_once_with_faults(
                &c,
                &sig,
                1,
                MachineConfig::default(),
                InputTape::new(5),
                Vec::new(),
                32,
                decoded,
                &mut faults,
            )
        };
        let interp = run_tier(None);
        let mut fast = run_tier(Some(&decoded));
        assert_eq!(interp.termination, RunTermination::OutOfMemory);
        assert!(
            fast.blocks_fused > 0,
            "the assignments before the malloc must fuse: {fast:?}"
        );
        fast.blocks_fused = 0;
        fast.block_fallbacks = 0;
        fast.steps_fast_pathed = 0;
        assert_eq!(format!("{interp:?}"), format!("{fast:?}"));
    }

    /// Runs `f` once on each tier with `x` as the first input and fresh
    /// random inputs after it; asserts that the tiers agree on the
    /// termination, the step count and the path, and returns the
    /// interpreter's result.
    fn run_on_both_tiers(src: &str, x: i64, max_steps: u64) -> RunResult {
        use crate::tape::{InputKind, InputSlot};
        let c = compiled(src);
        let decoded = DecodedProgram::new(&c.program);
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
        let [interp, fast] = [None, Some(&decoded)].map(|d| {
            let tape = InputTape::from_slots(slots.clone(), 7);
            run_once_in_tier(&c, &sig, 1, config, tape, Vec::new(), 32, d)
        });
        assert_eq!(
            (&interp.termination, interp.steps, interp.path.to_string()),
            (&fast.termination, fast.steps, fast.path.to_string()),
            "tiers disagree on {src}"
        );
        interp
    }

    #[test]
    fn write_free_hangs_end_at_their_second_back_edge() {
        // `if 1 goto 2`, `goto 0`, `if`, `goto 0`: four steps.
        let r = run_on_both_tiers("void f(int x) { while (1) { } }", 0, 1_000_000);
        assert_eq!((r.termination, r.steps), (RunTermination::OutOfSteps, 4));
        // The input-gated spin records its condition twice, not once per
        // step of the budget.
        let gated = "int f(int x) { while (x == 9) { } return 0; }";
        let r = run_on_both_tiers(gated, 9, 1_000_000);
        assert_eq!((r.termination, r.steps), (RunTermination::OutOfSteps, 4));
        assert_eq!(r.path.len(), 2, "path: {}", r.path);
        let r = run_on_both_tiers(gated, 8, 1_000_000);
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
            let r = run_on_both_tiers(src, 0, max_steps);
            assert_eq!(
                (r.termination, r.steps),
                (RunTermination::OutOfSteps, max_steps),
                "{src}"
            );
        }
        let r = run_on_both_tiers("void f(int x) { f(x); }", 3, max_steps);
        assert_eq!(r.termination, RunTermination::Crash(Fault::StackOverflow));
    }
}
