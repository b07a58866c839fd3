//! The concrete RAM-machine interpreter.
//!
//! [`Machine`] executes one [`Statement`] per [`Machine::step`] call and
//! reports what happened as a [`StepOutcome`]. The concolic layer (crate
//! `dart`) drives the machine step by step, mirroring each assignment and
//! branch symbolically *before* the concrete state changes — the paper's
//! `instrumented_program` (Fig. 3) intertwining.
//!
//! Terminal outcomes distinguish the error classes DART reports (§1):
//! program crashes ([`StepOutcome::Faulted`]), assertion violations
//! ([`StepOutcome::Aborted`]) and non-termination
//! ([`StepOutcome::OutOfSteps`]). Per the paper's footnote 3 a step budget
//! stands in for the timer. A loop that writes nothing is caught sooner:
//! when an episode takes the same back edge twice in a row with only
//! jump-role statements ([`BlockRole::Jump`]) in between, the pc, the
//! frames and memory are exactly as they were the first time, so the
//! deterministic machine can never halt, and the next step reports
//! [`StepOutcome::OutOfSteps`] without spinning out the budget.

use crate::expr::{eval_concrete, MemView};
use crate::memory::{Fault, Memory};
use crate::program::{AllocKind, ExtId, FuncId, Label, Program, Statement};

/// Supplies values for external (environment-controlled) function calls.
///
/// The DART driver implements this to return *fresh random inputs* (and to
/// register them as symbolic variables); tests can implement it with fixed
/// scripts. The environment may allocate memory, e.g. to model an external
/// function returning a pointer to a fresh object (§3.4: externals have no
/// side effects on existing program memory, but may return new memory).
pub trait Environment {
    /// Produces the return value for a call of external `ext`.
    fn external_value(&mut self, ext: ExtId, mem: &mut Memory) -> i64;
}

/// An [`Environment`] that returns zero for every external call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroEnv;

impl Environment for ZeroEnv {
    fn external_value(&mut self, _ext: ExtId, _mem: &mut Memory) -> i64 {
        0
    }
}

/// Memory-side resource limits, the allocation analogue of the step
/// budget: the paper's §4.3 sweep *expects* targets that hang or exhaust
/// memory, and the harness must survive both. `max_steps` bounds time;
/// this bounds space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Cap on cumulative words allocated per machine (heap blocks,
    /// `alloca` blocks and call frames — see
    /// [`crate::Memory::words_allocated`]). An allocation is admitted iff
    /// `words_allocated + words <= max_alloc_words`; the first allocation
    /// over the cap terminates the run with [`StepOutcome::OutOfMemory`].
    /// The default is `u64::MAX` (no cap), so the budget is opt-in.
    pub max_alloc_words: u64,
}

impl Default for ResourceBudget {
    fn default() -> ResourceBudget {
        ResourceBudget {
            max_alloc_words: u64::MAX,
        }
    }
}

/// Interpreter limits.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Step budget; exceeding it yields [`StepOutcome::OutOfSteps`]
    /// (non-termination detection). The budget is the detector for hangs
    /// that write; an episode proven to repeat its state (see
    /// [`StepOutcome::OutOfSteps`]) ends before reaching it.
    pub max_steps: u64,
    /// Stack budget in words, shared by frames and `alloca` blocks.
    pub stack_budget: i64,
    /// Maximum call depth.
    pub max_frames: usize,
    /// Allocation budget; exceeding it yields
    /// [`StepOutcome::OutOfMemory`].
    pub budget: ResourceBudget,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            max_steps: 2_000_000,
            stack_budget: 1 << 20,
            max_frames: 512,
            budget: ResourceBudget::default(),
        }
    }
}

/// What a single [`Machine::step`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// An assignment wrote `value` at address `dst`.
    Assigned {
        /// Resolved destination address.
        dst: i64,
        /// Stored value.
        value: i64,
    },
    /// A conditional evaluated; `taken` tells which way.
    Branched {
        /// Whether the `then` target was taken.
        taken: bool,
    },
    /// An unconditional jump.
    Jumped,
    /// A defined-function call pushed a frame.
    Called {
        /// The callee.
        func: FuncId,
        /// Base address of the new frame (parameters at `base..`).
        frame_base: i64,
        /// Concrete argument values written into the frame.
        arg_values: Vec<i64>,
    },
    /// A `ret` popped a frame back into a caller.
    Returned {
        /// Caller address that received the value, if any.
        dst: Option<i64>,
        /// The returned value, if any.
        value: Option<i64>,
    },
    /// An external call returned an environment-chosen value.
    ExternalReturned {
        /// Which external.
        ext: ExtId,
        /// Address that received the value, if any.
        dst: Option<i64>,
        /// The environment's value.
        value: i64,
    },
    /// An allocation stored a pointer (0 = failed `alloca`).
    Allocated {
        /// Address that received the pointer.
        dst: i64,
        /// Base of the new block, or 0.
        base: i64,
        /// Requested size in words.
        words: i64,
    },
    /// `halt` executed — normal termination.
    Halted,
    /// `abort` executed — assertion violation / program error.
    Aborted {
        /// The abort reason string.
        reason: String,
    },
    /// A crash: memory fault, division by zero, stack overflow…
    Faulted(Fault),
    /// The episode never halts, or may not: either it took the same back
    /// edge (an `if`/`goto` to a label at or before its own) twice in a
    /// row with only jump-role statements in between, which proves that
    /// it repeats its state forever, or the step budget is exhausted
    /// (possible non-termination). Either way the step that would have
    /// come next does not execute.
    OutOfSteps,
    /// The allocation budget ([`ResourceBudget::max_alloc_words`]) would
    /// be exceeded — the space analogue of [`StepOutcome::OutOfSteps`].
    OutOfMemory,
    /// The entry function returned; the episode is over.
    Finished {
        /// The entry function's return value, if any.
        value: Option<i64>,
    },
}

impl StepOutcome {
    /// Whether this outcome ends the current episode.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            StepOutcome::Halted
                | StepOutcome::Aborted { .. }
                | StepOutcome::Faulted(_)
                | StepOutcome::OutOfSteps
                | StepOutcome::OutOfMemory
                | StepOutcome::Finished { .. }
        )
    }
}

/// How a statement participates in a basic block.
///
/// This is the block-boundary definition shared by the reference
/// interpreter (whose per-statement semantics below define it) and the
/// compiled tier's block discovery ([`crate::DecodedProgram`]): a basic
/// block is a maximal run of [`BlockRole::Body`] statements followed by
/// at most one terminator. The split between the two terminator roles is
/// what the fused block executor relies on — [`BlockRole::Jump`]
/// statements only move the pc, so a block may end with one and still
/// commit wholesale, while [`BlockRole::Deferred`] statements touch
/// state the fused path cannot replicate (frames, the environment, the
/// allocator, episode termination) and always execute stepwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// Straight-line body statement: control always falls through to
    /// `pc + 1` and the only state touched is memory cells
    /// ([`Statement::Assign`]).
    Body,
    /// Ends a block with an in-block control transfer the fused path can
    /// execute itself: a conditional or unconditional jump. No frame,
    /// allocator or environment interaction; never terminal by itself.
    Jump,
    /// Ends a block and always drops to stepwise execution: calls push
    /// or pop frames and consult budgets, external calls need the
    /// caller's [`Environment`], allocations need a pre-commit
    /// fault-injection decision, and `abort`/`halt` terminate the
    /// episode.
    Deferred,
}

/// Classifies `stmt` for block discovery; see [`BlockRole`].
pub fn block_role(stmt: &Statement) -> BlockRole {
    match stmt {
        Statement::Assign { .. } => BlockRole::Body,
        Statement::If { .. } | Statement::Goto(_) => BlockRole::Jump,
        Statement::Call { .. }
        | Statement::CallExternal { .. }
        | Statement::Ret { .. }
        | Statement::Abort { .. }
        | Statement::Halt
        | Statement::Alloc { .. } => BlockRole::Deferred,
    }
}

/// An episode's effective step limit: [`MachineConfig::max_steps`], lowered
/// to the current step count once the episode is proven never to halt.
///
/// The proof: a back edge is a jump-role statement ([`BlockRole::Jump`])
/// that moves the pc to a label at or before its own. Every back edge
/// taken is recorded together with the number of non-jump steps executed
/// before it. Taking the recorded edge again with that number unchanged
/// means only jumps ran in between; they only move the pc, so the pc, the
/// frames and memory equal what they were the first time, and the
/// deterministic machine repeats the cycle forever. Only jump steps pay
/// for this: the step check compares against the lowered limit, so it
/// costs what the budget check alone did. Both execution tiers run the
/// same bookkeeping and stop at the same step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepLimit {
    /// The next step returns [`StepOutcome::OutOfSteps`] once the step
    /// counter reaches this.
    limit: u64,
    /// Jump-role steps executed, cumulative like the step counter.
    jumps: u64,
    /// The last back edge taken this episode: its source pc and the
    /// number of non-jump steps executed before it.
    back_edge: Option<(Label, u64)>,
}

impl StepLimit {
    pub(crate) fn new(max_steps: u64) -> StepLimit {
        StepLimit {
            limit: max_steps,
            jumps: 0,
            back_edge: None,
        }
    }

    /// Begins an episode. The caller may write memory between
    /// `call` and the first step, so no earlier back edge proves anything.
    pub(crate) fn reset(&mut self, max_steps: u64) {
        self.limit = max_steps;
        self.back_edge = None;
    }

    /// Whether the next step must return [`StepOutcome::OutOfSteps`].
    #[inline]
    pub(crate) fn reached(&self, steps: u64) -> bool {
        steps >= self.limit
    }

    /// Whether `len` more steps fit under the limit.
    #[inline]
    pub(crate) fn admits(&self, steps: u64, len: u64) -> bool {
        steps.saturating_add(len) <= self.limit
    }

    /// Records a jump-role step from `from` to `to`; `steps` already
    /// counts it.
    #[inline]
    pub(crate) fn jumped(&mut self, from: Label, to: Label, steps: u64) {
        self.jumps += 1;
        if to <= from {
            let edge = Some((from, steps - self.jumps));
            if self.back_edge == edge {
                self.limit = steps;
            } else {
                self.back_edge = edge;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Frame {
    base: i64,
    ret_pc: Label,
    ret_dst: Option<i64>,
}

/// The concrete interpreter.
///
/// # Examples
///
/// ```
/// use dart_ram::{Expr, Function, Machine, MachineConfig, Program, Statement, StepOutcome, ZeroEnv};
///
/// // fn id(x) { return x; }
/// let program = Program {
///     stmts: vec![Statement::Ret { value: Some(Expr::local(0)) }],
///     funcs: vec![Function { name: "id".into(), entry: 0, frame_words: 1, num_params: 1 }],
///     ..Program::default()
/// };
/// let mut m = Machine::new(&program, MachineConfig::default());
/// m.call(program.func_by_name("id").unwrap(), &[42]).unwrap();
/// let outcome = m.run(&mut ZeroEnv);
/// assert_eq!(outcome, StepOutcome::Finished { value: Some(42) });
/// ```
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    mem: Memory,
    pc: Label,
    frames: Vec<Frame>,
    steps: u64,
    limit: StepLimit,
    config: MachineConfig,
    running: bool,
}

impl MemView for Machine<'_> {
    fn load(&self, addr: i64) -> Result<i64, Fault> {
        self.mem.load(addr)
    }
    fn frame_base(&self) -> i64 {
        self.frames.last().map(|f| f.base).unwrap_or(0)
    }
}

impl<'p> Machine<'p> {
    /// Creates an idle machine over `program` with mapped globals.
    pub fn new(program: &'p Program, config: MachineConfig) -> Machine<'p> {
        Machine {
            program,
            mem: Memory::new(program.global_words, config.stack_budget),
            pc: 0,
            frames: Vec::new(),
            steps: 0,
            limit: StepLimit::new(config.max_steps),
            config,
            running: false,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Read access to memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory (used by the driver to initialize inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Current program counter.
    pub fn pc(&self) -> Label {
        self.pc
    }

    /// The statement about to execute, if the machine is running.
    pub fn current_statement(&self) -> Option<&'p Statement> {
        if self.running {
            self.program.stmts.get(self.pc)
        } else {
            None
        }
    }

    /// Steps executed so far (cumulative across episodes).
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Whether an episode is in progress.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Begins an episode: pushes a frame for `func` with `args` in its
    /// parameter slots and aims the pc at its entry. Returns the frame base
    /// so callers can register parameter addresses (input extraction).
    ///
    /// # Errors
    ///
    /// [`Fault::StackOverflow`] if the frame does not fit;
    /// [`Fault::BadArity`] if `args` exceeds the function's frame size —
    /// a bad-arity call from a harness or generated workload must surface
    /// as a reportable fault, not a panic that aborts the engine.
    ///
    /// # Panics
    ///
    /// Panics if an episode is already running.
    pub fn call(&mut self, func: FuncId, args: &[i64]) -> Result<i64, Fault> {
        assert!(!self.running, "episode already in progress");
        let meta = self.program.func(func);
        if args.len() > meta.frame_words as usize {
            return Err(Fault::BadArity { func: func.0 });
        }
        let base = self.mem.push_frame(meta.frame_words)?;
        for (i, &v) in args.iter().enumerate() {
            self.mem
                .store(base + i as i64, v)
                .expect("fresh frame slot is mapped");
        }
        self.frames.push(Frame {
            base,
            ret_pc: 0,
            ret_dst: None,
        });
        self.pc = meta.entry;
        self.limit.reset(self.config.max_steps);
        self.running = true;
        Ok(base)
    }

    /// Executes one statement.
    ///
    /// # Panics
    ///
    /// Panics if no episode is running (call [`Machine::call`] first).
    pub fn step(&mut self, env: &mut dyn Environment) -> StepOutcome {
        assert!(self.running, "no episode in progress");
        if self.limit.reached(self.steps) {
            return self.finish(StepOutcome::OutOfSteps);
        }
        self.steps += 1;

        let Some(stmt) = self.program.stmts.get(self.pc) else {
            return self.finish(StepOutcome::Faulted(Fault::BadJump { label: self.pc }));
        };

        macro_rules! try_eval {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => return self.finish(StepOutcome::Faulted(fault)),
                }
            };
        }

        match stmt {
            Statement::Assign { dst, src } => {
                let addr = try_eval!(eval_concrete(dst, self));
                let value = try_eval!(eval_concrete(src, self));
                try_eval!(self.mem.store(addr, value));
                self.pc += 1;
                StepOutcome::Assigned { dst: addr, value }
            }
            Statement::If { cond, target } => {
                let v = try_eval!(eval_concrete(cond, self));
                let taken = v != 0;
                let next = if taken { *target } else { self.pc + 1 };
                self.limit.jumped(self.pc, next, self.steps);
                self.pc = next;
                StepOutcome::Branched { taken }
            }
            Statement::Goto(target) => {
                self.limit.jumped(self.pc, *target, self.steps);
                self.pc = *target;
                StepOutcome::Jumped
            }
            Statement::Call { func, args, dst } => {
                if self.frames.len() >= self.config.max_frames {
                    return self.finish(StepOutcome::Faulted(Fault::StackOverflow));
                }
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(try_eval!(eval_concrete(a, self)));
                }
                let ret_dst = match dst {
                    Some(d) => Some(try_eval!(eval_concrete(d, self))),
                    None => None,
                };
                let meta = self.program.func(*func);
                if self.over_budget(meta.frame_words as i64) {
                    return self.finish(StepOutcome::OutOfMemory);
                }
                let base = try_eval!(self.mem.push_frame(meta.frame_words));
                for (i, &v) in arg_values.iter().enumerate() {
                    try_eval!(self.mem.store(base + i as i64, v));
                }
                self.frames.push(Frame {
                    base,
                    ret_pc: self.pc + 1,
                    ret_dst,
                });
                self.pc = meta.entry;
                StepOutcome::Called {
                    func: *func,
                    frame_base: base,
                    arg_values,
                }
            }
            Statement::CallExternal { ext, dst } => {
                let addr = match dst {
                    Some(d) => Some(try_eval!(eval_concrete(d, self))),
                    None => None,
                };
                let value = env.external_value(*ext, &mut self.mem);
                if let Some(a) = addr {
                    try_eval!(self.mem.store(a, value));
                }
                self.pc += 1;
                StepOutcome::ExternalReturned {
                    ext: *ext,
                    dst: addr,
                    value,
                }
            }
            Statement::Ret { value } => {
                let v = match value {
                    Some(e) => Some(try_eval!(eval_concrete(e, self))),
                    None => None,
                };
                let frame = self.frames.pop().expect("running implies a frame");
                self.mem.pop_frame(frame.base);
                if self.frames.is_empty() {
                    self.running = false;
                    return StepOutcome::Finished { value: v };
                }
                if let Some(d) = frame.ret_dst {
                    if let Some(v) = v {
                        try_eval!(self.mem.store(d, v));
                    }
                }
                self.pc = frame.ret_pc;
                StepOutcome::Returned {
                    dst: frame.ret_dst,
                    value: v,
                }
            }
            Statement::Abort { reason } => {
                let reason = reason.clone();
                self.finish(StepOutcome::Aborted { reason })
            }
            Statement::Halt => self.finish(StepOutcome::Halted),
            Statement::Alloc { dst, size, kind } => {
                let addr = try_eval!(eval_concrete(dst, self));
                let words = try_eval!(eval_concrete(size, self));
                if self.over_budget(words) {
                    return self.finish(StepOutcome::OutOfMemory);
                }
                let base = match kind {
                    AllocKind::Heap => self.mem.alloc_heap(words),
                    AllocKind::Stack => self.mem.alloc_stack(words),
                };
                try_eval!(self.mem.store(addr, base));
                self.pc += 1;
                StepOutcome::Allocated {
                    dst: addr,
                    base,
                    words,
                }
            }
        }
    }

    /// Runs until the episode ends, returning the terminal outcome.
    pub fn run(&mut self, env: &mut dyn Environment) -> StepOutcome {
        loop {
            let out = self.step(env);
            if out.is_terminal() {
                return out;
            }
        }
    }

    /// Whether admitting `words` more allocated words would exceed the
    /// allocation budget. Boundary: landing exactly on the cap is allowed.
    fn over_budget(&self, words: i64) -> bool {
        words > 0
            && self.mem.words_allocated().saturating_add(words as u64)
                > self.config.budget.max_alloc_words
    }

    /// Ends the episode, unwinding live frames so memory is consistent for
    /// any follow-up episode in the same run.
    fn finish(&mut self, outcome: StepOutcome) -> StepOutcome {
        self.running = false;
        while let Some(f) = self.frames.pop() {
            self.mem.pop_frame(f.base);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr, UnOp};
    use crate::program::{External, Function};

    fn run_main(program: &Program, args: &[i64]) -> StepOutcome {
        let mut m = Machine::new(program, MachineConfig::default());
        m.call(program.func_by_name("main").unwrap(), args).unwrap();
        m.run(&mut ZeroEnv)
    }

    /// main(n): acc = 1; while (n > 0) { acc = acc * n; n = n - 1 } return acc
    fn factorial_program() -> Program {
        let n = 0u32;
        let acc = 1u32;
        Program {
            stmts: vec![
                // 0: acc = 1
                Statement::Assign {
                    dst: Expr::frame_slot(acc),
                    src: Expr::Const(1),
                },
                // 1: if n <= 0 goto 5
                Statement::If {
                    cond: Expr::binary(BinOp::Le, Expr::local(n), Expr::Const(0)),
                    target: 5,
                },
                // 2: acc = acc * n
                Statement::Assign {
                    dst: Expr::frame_slot(acc),
                    src: Expr::binary(BinOp::Mul, Expr::local(acc), Expr::local(n)),
                },
                // 3: n = n - 1
                Statement::Assign {
                    dst: Expr::frame_slot(n),
                    src: Expr::binary(BinOp::Sub, Expr::local(n), Expr::Const(1)),
                },
                // 4: goto 1
                Statement::Goto(1),
                // 5: return acc
                Statement::Ret {
                    value: Some(Expr::local(acc)),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 2,
                num_params: 1,
            }],
            ..Program::default()
        }
    }

    #[test]
    fn factorial_loop() {
        let p = factorial_program();
        assert_eq!(
            run_main(&p, &[5]),
            StepOutcome::Finished { value: Some(120) }
        );
        assert_eq!(run_main(&p, &[0]), StepOutcome::Finished { value: Some(1) });
    }

    #[test]
    fn interprocedural_call_paper_example() {
        // The paper's §2.1: f(x) = 2*x; h(x, y) aborts if x != y && f(x) == x+10.
        let p = Program {
            stmts: vec![
                // f: 0: return 2 * x
                Statement::Ret {
                    value: Some(Expr::binary(BinOp::Mul, Expr::Const(2), Expr::local(0))),
                },
                // h (main): 1: if x != y goto 3
                Statement::If {
                    cond: Expr::binary(BinOp::Ne, Expr::local(0), Expr::local(1)),
                    target: 3,
                },
                // 2: goto 7 (return 0)
                Statement::Goto(7),
                // 3: tmp = f(x)
                Statement::Call {
                    func: FuncId(0),
                    args: vec![Expr::local(0)],
                    dst: Some(Expr::frame_slot(2)),
                },
                // 4: if tmp == x + 10 goto 6
                Statement::If {
                    cond: Expr::binary(
                        BinOp::Eq,
                        Expr::local(2),
                        Expr::binary(BinOp::Add, Expr::local(0), Expr::Const(10)),
                    ),
                    target: 6,
                },
                // 5: goto 7
                Statement::Goto(7),
                // 6: abort
                Statement::Abort {
                    reason: "error".into(),
                },
                // 7: return 0
                Statement::Ret {
                    value: Some(Expr::Const(0)),
                },
            ],
            funcs: vec![
                Function {
                    name: "f".into(),
                    entry: 0,
                    frame_words: 1,
                    num_params: 1,
                },
                Function {
                    name: "main".into(),
                    entry: 1,
                    frame_words: 3,
                    num_params: 2,
                },
            ],
            ..Program::default()
        };
        // x == y: no abort.
        assert_eq!(
            run_main(&p, &[3, 3]),
            StepOutcome::Finished { value: Some(0) }
        );
        // x != y, f(x) != x+10: no abort.
        assert_eq!(
            run_main(&p, &[3, 4]),
            StepOutcome::Finished { value: Some(0) }
        );
        // x = 10, y != 10: abort.
        assert_eq!(
            run_main(&p, &[10, 0]),
            StepOutcome::Aborted {
                reason: "error".into()
            }
        );
    }

    #[test]
    fn bad_arity_call_is_an_error_not_a_panic() {
        let p = factorial_program(); // frame_words = 2
        let mut m = Machine::new(&p, MachineConfig::default());
        assert_eq!(
            m.call(FuncId(0), &[1, 2, 3]),
            Err(Fault::BadArity { func: 0 })
        );
        assert!(!m.is_running(), "the failed call leaves the machine idle");
        // A well-formed episode still works on the same machine.
        m.call(FuncId(0), &[5]).unwrap();
        assert_eq!(
            m.run(&mut ZeroEnv),
            StepOutcome::Finished { value: Some(120) }
        );
    }

    /// main: four countable statements (3 assigns + halt).
    fn straightline_program() -> Program {
        let assign = |v: i64| Statement::Assign {
            dst: Expr::frame_slot(0),
            src: Expr::Const(v),
        };
        Program {
            stmts: vec![assign(1), assign(2), assign(3), Statement::Halt],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 1,
                num_params: 0,
            }],
            ..Program::default()
        }
    }

    #[test]
    fn step_budget_of_zero_executes_nothing() {
        let p = straightline_program();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                max_steps: 0,
                ..MachineConfig::default()
            },
        );
        m.call(FuncId(0), &[]).unwrap();
        assert_eq!(m.step(&mut ZeroEnv), StepOutcome::OutOfSteps);
        assert_eq!(m.steps_taken(), 0, "budget 0 executes no statement");
        assert!(!m.is_running());
    }

    #[test]
    fn step_budget_of_n_executes_exactly_n_statements() {
        let p = straightline_program();
        for budget in 1..=3u64 {
            let mut m = Machine::new(
                &p,
                MachineConfig {
                    max_steps: budget,
                    ..MachineConfig::default()
                },
            );
            m.call(FuncId(0), &[]).unwrap();
            let mut executed = 0u64;
            loop {
                match m.step(&mut ZeroEnv) {
                    StepOutcome::OutOfSteps => break,
                    out => {
                        assert!(!out.is_terminal(), "budget {budget} must cut the run");
                        executed += 1;
                    }
                }
            }
            assert_eq!(executed, budget, "budget N executes exactly N statements");
            assert_eq!(
                m.steps_taken(),
                budget,
                "steps_taken agrees after OutOfSteps"
            );
        }
        // Budget 4 admits the whole program: 3 assigns + halt.
        let mut m = Machine::new(
            &p,
            MachineConfig {
                max_steps: 4,
                ..MachineConfig::default()
            },
        );
        m.call(FuncId(0), &[]).unwrap();
        assert_eq!(m.run(&mut ZeroEnv), StepOutcome::Halted);
        assert_eq!(m.steps_taken(), 4);
    }

    #[test]
    fn infinite_loop_hits_step_budget() {
        let p = Program {
            stmts: vec![Statement::Goto(0)],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 0,
                num_params: 0,
            }],
            ..Program::default()
        };
        let mut m = Machine::new(
            &p,
            MachineConfig {
                max_steps: 1000,
                ..MachineConfig::default()
            },
        );
        m.call(FuncId(0), &[]).unwrap();
        assert_eq!(m.run(&mut ZeroEnv), StepOutcome::OutOfSteps);
        assert!(!m.is_running());
    }

    #[test]
    fn null_dereference_faults() {
        let p = Program {
            stmts: vec![Statement::Assign {
                dst: Expr::frame_slot(0),
                src: Expr::load(Expr::Const(0)),
            }],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 1,
                num_params: 1,
            }],
            ..Program::default()
        };
        assert_eq!(
            run_main(&p, &[0]),
            StepOutcome::Faulted(Fault::NullDeref { addr: 0 })
        );
    }

    #[test]
    fn unbounded_recursion_overflows() {
        // main() { main(); }
        let p = Program {
            stmts: vec![
                Statement::Call {
                    func: FuncId(0),
                    args: vec![],
                    dst: None,
                },
                Statement::Ret { value: None },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 0,
                num_params: 0,
            }],
            ..Program::default()
        };
        assert_eq!(
            run_main(&p, &[]),
            StepOutcome::Faulted(Fault::StackOverflow)
        );
    }

    #[test]
    fn externals_receive_environment_values() {
        struct Script(Vec<i64>);
        impl Environment for Script {
            fn external_value(&mut self, _ext: ExtId, _mem: &mut Memory) -> i64 {
                self.0.remove(0)
            }
        }
        // main: x = ext(); y = ext(); return x - y
        let p = Program {
            stmts: vec![
                Statement::CallExternal {
                    ext: ExtId(0),
                    dst: Some(Expr::frame_slot(0)),
                },
                Statement::CallExternal {
                    ext: ExtId(0),
                    dst: Some(Expr::frame_slot(1)),
                },
                Statement::Ret {
                    value: Some(Expr::binary(BinOp::Sub, Expr::local(0), Expr::local(1))),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 2,
                num_params: 0,
            }],
            externals: vec![External {
                name: "getchar".into(),
            }],
            ..Program::default()
        };
        let mut m = Machine::new(&p, MachineConfig::default());
        m.call(FuncId(0), &[]).unwrap();
        let out = m.run(&mut Script(vec![30, 12]));
        assert_eq!(out, StepOutcome::Finished { value: Some(18) });
    }

    #[test]
    fn heap_alloc_and_pointer_write() {
        // main: p = malloc(2); *p = 5; *(p+1) = 6; return *p + *(p+1)
        let p_slot = Expr::frame_slot(0);
        let p = Program {
            stmts: vec![
                Statement::Alloc {
                    dst: p_slot.clone(),
                    size: Expr::Const(2),
                    kind: AllocKind::Heap,
                },
                Statement::Assign {
                    dst: Expr::local(0),
                    src: Expr::Const(5),
                },
                Statement::Assign {
                    dst: Expr::binary(BinOp::Add, Expr::local(0), Expr::Const(1)),
                    src: Expr::Const(6),
                },
                Statement::Ret {
                    value: Some(Expr::binary(
                        BinOp::Add,
                        Expr::load(Expr::local(0)),
                        Expr::load(Expr::binary(BinOp::Add, Expr::local(0), Expr::Const(1))),
                    )),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 1,
                num_params: 0,
            }],
            ..Program::default()
        };
        assert_eq!(run_main(&p, &[]), StepOutcome::Finished { value: Some(11) });
    }

    #[test]
    fn failed_alloca_yields_null_not_fault() {
        // main: p = alloca(HUGE); return p
        let p = Program {
            stmts: vec![
                Statement::Alloc {
                    dst: Expr::frame_slot(0),
                    size: Expr::Const(1 << 40),
                    kind: AllocKind::Stack,
                },
                Statement::Ret {
                    value: Some(Expr::local(0)),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 1,
                num_params: 0,
            }],
            ..Program::default()
        };
        assert_eq!(run_main(&p, &[]), StepOutcome::Finished { value: Some(0) });
    }

    /// main: p = malloc(2); q = malloc(3); return 0 — frame is 2 words.
    fn two_malloc_program() -> Program {
        Program {
            stmts: vec![
                Statement::Alloc {
                    dst: Expr::frame_slot(0),
                    size: Expr::Const(2),
                    kind: AllocKind::Heap,
                },
                Statement::Alloc {
                    dst: Expr::frame_slot(1),
                    size: Expr::Const(3),
                    kind: AllocKind::Stack,
                },
                Statement::Ret {
                    value: Some(Expr::Const(0)),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 2,
                num_params: 0,
            }],
            ..Program::default()
        }
    }

    fn run_with_budget(max_alloc_words: u64) -> StepOutcome {
        let p = two_malloc_program();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                budget: ResourceBudget { max_alloc_words },
                ..MachineConfig::default()
            },
        );
        m.call(p.func_by_name("main").unwrap(), &[]).unwrap();
        m.run(&mut ZeroEnv)
    }

    #[test]
    fn alloc_budget_boundary_is_inclusive() {
        // Total demand: 2 (frame) + 2 (heap) + 3 (alloca) = 7 words.
        // Landing exactly on the cap is allowed; one word less is not.
        assert_eq!(run_with_budget(7), StepOutcome::Finished { value: Some(0) });
        assert_eq!(run_with_budget(6), StepOutcome::OutOfMemory);
        // A cap below the first malloc stops at the first malloc.
        assert_eq!(run_with_budget(3), StepOutcome::OutOfMemory);
        // The default budget is unbounded.
        let p = two_malloc_program();
        assert_eq!(run_main(&p, &[]), StepOutcome::Finished { value: Some(0) });
    }

    #[test]
    fn oom_is_terminal_and_unwinds() {
        let p = two_malloc_program();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                budget: ResourceBudget { max_alloc_words: 3 },
                ..MachineConfig::default()
            },
        );
        m.call(p.func_by_name("main").unwrap(), &[]).unwrap();
        let out = m.run(&mut ZeroEnv);
        assert_eq!(out, StepOutcome::OutOfMemory);
        assert!(out.is_terminal());
        assert!(!m.is_running(), "episode ended, frames unwound");
    }

    #[test]
    fn call_frames_count_against_the_alloc_budget() {
        // main calls leaf (frame of 4 words) with a cap that admits main's
        // own frame but not the callee's.
        let p = Program {
            stmts: vec![
                // main: 0: call leaf; 1: return 0
                Statement::Call {
                    func: FuncId(1),
                    args: vec![],
                    dst: None,
                },
                Statement::Ret {
                    value: Some(Expr::Const(0)),
                },
                // leaf: 2: return
                Statement::Ret { value: None },
            ],
            funcs: vec![
                Function {
                    name: "main".into(),
                    entry: 0,
                    frame_words: 1,
                    num_params: 0,
                },
                Function {
                    name: "leaf".into(),
                    entry: 2,
                    frame_words: 4,
                    num_params: 0,
                },
            ],
            ..Program::default()
        };
        let mut m = Machine::new(
            &p,
            MachineConfig {
                budget: ResourceBudget { max_alloc_words: 2 },
                ..MachineConfig::default()
            },
        );
        m.call(FuncId(0), &[]).unwrap();
        assert_eq!(m.run(&mut ZeroEnv), StepOutcome::OutOfMemory);
    }

    #[test]
    fn globals_persist_across_episodes() {
        use crate::memory::GLOBAL_BASE;
        // main: g = g + 1; return g
        let p = Program {
            stmts: vec![
                Statement::Assign {
                    dst: Expr::Const(GLOBAL_BASE),
                    src: Expr::binary(
                        BinOp::Add,
                        Expr::load(Expr::Const(GLOBAL_BASE)),
                        Expr::Const(1),
                    ),
                },
                Statement::Ret {
                    value: Some(Expr::load(Expr::Const(GLOBAL_BASE))),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 0,
                num_params: 0,
            }],
            global_words: 1,
            ..Program::default()
        };
        let mut m = Machine::new(&p, MachineConfig::default());
        m.call(FuncId(0), &[]).unwrap();
        assert_eq!(
            m.run(&mut ZeroEnv),
            StepOutcome::Finished { value: Some(1) }
        );
        m.call(FuncId(0), &[]).unwrap();
        assert_eq!(
            m.run(&mut ZeroEnv),
            StepOutcome::Finished { value: Some(2) }
        );
    }

    #[test]
    fn abort_unwinds_frames() {
        // helper() { abort } ; main { helper(); }
        let p = Program {
            stmts: vec![
                Statement::Abort {
                    reason: "boom".into(),
                },
                Statement::Call {
                    func: FuncId(0),
                    args: vec![],
                    dst: None,
                },
                Statement::Ret { value: None },
            ],
            funcs: vec![
                Function {
                    name: "helper".into(),
                    entry: 0,
                    frame_words: 0,
                    num_params: 0,
                },
                Function {
                    name: "main".into(),
                    entry: 1,
                    frame_words: 0,
                    num_params: 0,
                },
            ],
            ..Program::default()
        };
        let mut m = Machine::new(&p, MachineConfig::default());
        m.call(FuncId(1), &[]).unwrap();
        assert_eq!(
            m.run(&mut ZeroEnv),
            StepOutcome::Aborted {
                reason: "boom".into()
            }
        );
        // A fresh episode can start and frames were unwound.
        assert!(!m.is_running());
        assert!(m.call(FuncId(1), &[]).is_ok());
    }

    #[test]
    fn block_roles_match_step_semantics() {
        // Drive the interpreter over a program mixing all three roles and
        // check the classification against what each step actually did:
        // Body falls through to pc+1 and never changes the allocation
        // meter; Jump only moves the pc; everything that pushes/pops
        // frames, allocates, or terminates is Deferred.
        let p = Program {
            stmts: vec![
                // main: 0: x = 1            (Body)
                Statement::Assign {
                    dst: Expr::frame_slot(0),
                    src: Expr::Const(1),
                },
                // 1: if x goto 3            (Jump)
                Statement::If {
                    cond: Expr::local(0),
                    target: 3,
                },
                // 2: goto 3                 (Jump, skipped here)
                Statement::Goto(3),
                // 3: p = malloc(2)          (Deferred)
                Statement::Alloc {
                    dst: Expr::frame_slot(1),
                    size: Expr::Const(2),
                    kind: AllocKind::Heap,
                },
                // 4: call leaf              (Deferred)
                Statement::Call {
                    func: FuncId(1),
                    args: vec![],
                    dst: None,
                },
                // 5: halt                   (Deferred)
                Statement::Halt,
                // leaf: 6: ret              (Deferred)
                Statement::Ret { value: None },
            ],
            funcs: vec![
                Function {
                    name: "main".into(),
                    entry: 0,
                    frame_words: 2,
                    num_params: 0,
                },
                Function {
                    name: "leaf".into(),
                    entry: 6,
                    frame_words: 1,
                    num_params: 0,
                },
            ],
            ..Program::default()
        };
        let mut m = Machine::new(&p, MachineConfig::default());
        m.call(FuncId(0), &[]).unwrap();
        loop {
            let pc = m.pc();
            let role = block_role(&p.stmts[pc]);
            let words_before = m.mem().words_allocated();
            let out = m.step(&mut ZeroEnv);
            match role {
                BlockRole::Body => {
                    assert!(matches!(out, StepOutcome::Assigned { .. }));
                    assert_eq!(m.pc(), pc + 1, "Body falls through");
                    assert_eq!(m.mem().words_allocated(), words_before);
                }
                BlockRole::Jump => {
                    assert!(matches!(
                        out,
                        StepOutcome::Branched { .. } | StepOutcome::Jumped
                    ));
                    assert!(!out.is_terminal());
                    assert_eq!(m.mem().words_allocated(), words_before);
                }
                BlockRole::Deferred => {
                    // Frame pushes, allocations, returns, terminals.
                    assert!(matches!(
                        out,
                        StepOutcome::Called { .. }
                            | StepOutcome::Returned { .. }
                            | StepOutcome::ExternalReturned { .. }
                            | StepOutcome::Allocated { .. }
                            | StepOutcome::Finished { .. }
                            | StepOutcome::Halted
                            | StepOutcome::Aborted { .. }
                            | StepOutcome::Faulted(_)
                            | StepOutcome::OutOfMemory
                    ));
                }
            }
            if out.is_terminal() {
                break;
            }
        }
    }

    #[test]
    fn logical_not_in_branch() {
        // main(x): if (!x) return 1 else return 0
        let p = Program {
            stmts: vec![
                Statement::If {
                    cond: Expr::unary(UnOp::Not, Expr::local(0)),
                    target: 2,
                },
                Statement::Ret {
                    value: Some(Expr::Const(0)),
                },
                Statement::Ret {
                    value: Some(Expr::Const(1)),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 1,
                num_params: 1,
            }],
            ..Program::default()
        };
        assert_eq!(run_main(&p, &[0]), StepOutcome::Finished { value: Some(1) });
        assert_eq!(run_main(&p, &[5]), StepOutcome::Finished { value: Some(0) });
    }
}
