//! Differential oracle for the compiled execution tier.
//!
//! Random programs (all statement kinds, fault-prone expressions, bad jump
//! targets) are run in lockstep on the tree-walking interpreter and on
//! [`FastMachine`] under random step/allocation/stack budgets. Every
//! observable must agree at every step: the [`StepOutcome`] sequence, the
//! step counter (pinning the budget boundary), the program counter, and the
//! final memory meters. This is the compiled tier's correctness argument —
//! the interpreter is the reference semantics.
//!
//! The basic-block layer is pinned the same way: a second lockstep drives
//! `run_block` (fused where possible, stepwise everywhere else) against the
//! interpreter while the tracked-address set churns with the step counter,
//! so taint enters and leaves between block dispatches — every fused commit
//! must replay on the interpreter as exactly that many non-terminal steps.
//!
//! Random programs rarely close a cycle of jumps, so a third generator
//! plants short ones (self-loops, two-statement loops, `while` loops with
//! a guarded exit) and both locksteps check that every path ends a
//! write-free hang at the same step, well below the budget.

use dart_ram::{
    AllocKind, BinOp, BlockOutcome, DecodedProgram, Environment, Expr, ExtId, External,
    FastMachine, FuncId, Function, Machine, MachineConfig, Memory, NoSym, Program, ResourceBudget,
    Statement, StepOutcome, SymView, UnOp, GLOBAL_BASE,
};
use proptest::prelude::*;

/// Deterministic environment: a seeded LCG stream, so the interpreter and
/// the compiled machine each get an identical copy.
struct LcgEnv(u64);

impl Environment for LcgEnv {
    fn external_value(&mut self, _ext: ExtId, _mem: &mut Memory) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as i64).rem_euclid(31) - 15
    }
}

/// Taint view over an explicit set of addresses.
struct TrackedSet(Vec<i64>);

impl SymView for TrackedSet {
    fn tracks(&self, addr: i64) -> bool {
        self.0.contains(&addr)
    }
    fn summary(&self) -> u64 {
        self.0.iter().fold(0, |s, &a| s | 1u64 << (a as u64 & 63))
    }
}

/// Drives the compiled tier's stepwise path (probe, then commit) against
/// the interpreter to the terminal outcome. The two parameter slots are
/// tracked so the probe's taint scan runs on realistic input-tainted state
/// (its verdict must not perturb execution). Returns the terminal outcome
/// and step count, or `None` when the episode cannot start.
fn assert_step_lockstep(
    program: &Program,
    config: MachineConfig,
    args: &[i64],
    seed: u64,
) -> Option<(StepOutcome, u64)> {
    let decoded = DecodedProgram::new(program);
    let mut interp = Machine::new(program, config);
    let mut fast = FastMachine::new(program, &decoded, config);
    let main = program.func_by_name("main").unwrap();
    let ic = interp.call(main, args);
    let fc = fast.call(main, args);
    assert_eq!(ic, fc, "episode setup must agree");
    let base = ic.ok()?;

    let tracked = TrackedSet(vec![base, base + 1]);
    let mut ienv = LcgEnv(seed);
    let mut fenv = LcgEnv(seed);
    let mut iters = 0u64;
    let terminal = loop {
        iters += 1;
        assert!(iters <= config.max_steps + 2, "runaway episode");
        assert_eq!(interp.pc(), fast.pc(), "pc diverged before step {iters}");
        let want = interp.step(&mut ienv);
        let summary = fast.probe(&tracked);
        let got = fast.commit(&mut fenv);
        assert_eq!(want, got, "outcome diverged at step {iters}");
        assert_eq!(
            interp.steps_taken(),
            fast.steps_taken(),
            "step accounting diverged"
        );
        if summary.terminal {
            assert!(got.is_terminal(), "probe staged a terminal step");
        }
        if want.is_terminal() {
            break want;
        }
    };

    assert_eq!(interp.is_running(), fast.is_running());
    assert_eq!(
        interp.mem().words_allocated(),
        fast.mem().words_allocated(),
        "allocation meters diverged"
    );
    assert_eq!(
        interp.mem().stack_budget(),
        fast.mem().stack_budget(),
        "stack budgets diverged"
    );
    for addr in GLOBAL_BASE..GLOBAL_BASE + 2 {
        assert_eq!(interp.mem().load(addr), fast.mem().load(addr));
    }
    Some((terminal, interp.steps_taken()))
}

/// Drives the block layer (fused blocks plus stepwise fallback) against
/// the interpreter to the terminal outcome. `taint_period` churns the
/// tracked set as the step counter advances (`0` keeps it empty), so taint
/// enters and leaves across block boundaries; a tainted dispatch must fall
/// back and a fused one must replay as exactly `steps` non-terminal
/// interpreter steps. Returns the terminal outcome and step count, or
/// `None` when the episode cannot start.
fn assert_block_lockstep(
    program: &Program,
    config: MachineConfig,
    args: &[i64],
    seed: u64,
    taint_period: u64,
) -> Option<(StepOutcome, u64)> {
    let decoded = DecodedProgram::new(program);
    let mut interp = Machine::new(program, config);
    let mut fast = FastMachine::new(program, &decoded, config);
    let main = program.func_by_name("main").unwrap();
    let ic = interp.call(main, args);
    let fc = fast.call(main, args);
    assert_eq!(ic, fc, "episode setup must agree");
    let base = ic.ok()?;

    let mut ienv = LcgEnv(seed);
    let mut fenv = LcgEnv(seed);
    let mut iters = 0u64;
    let terminal = loop {
        iters += 1;
        assert!(iters <= 2 * config.max_steps + 4, "runaway episode");
        assert_eq!(
            interp.pc(),
            fast.pc(),
            "pc diverged before dispatch {iters}"
        );
        assert_eq!(
            interp.steps_taken(),
            fast.steps_taken(),
            "step accounting diverged before dispatch {iters}"
        );
        let taint_on = taint_period != 0 && (fast.steps_taken() / taint_period).is_multiple_of(2);
        let sym = TrackedSet(if taint_on {
            vec![base, base + 1, GLOBAL_BASE]
        } else {
            Vec::new()
        });
        match fast.run_block(&sym) {
            BlockOutcome::Fused { steps, branch } => {
                assert!(steps >= 1, "fused blocks commit at least one statement");
                let mut last = None;
                for _ in 0..steps {
                    let w = interp.step(&mut ienv);
                    assert!(!w.is_terminal(), "fused block replayed a terminal step");
                    last = Some(w);
                }
                if let Some((bpc, taken)) = branch {
                    assert!(bpc < program.stmts.len());
                    assert_eq!(last, Some(StepOutcome::Branched { taken }));
                }
                continue;
            }
            BlockOutcome::Partial { steps } => {
                for _ in 0..steps {
                    let w = interp.step(&mut ienv);
                    assert!(!w.is_terminal(), "partial prefix replayed a terminal step");
                }
                assert_eq!(interp.pc(), fast.pc(), "pc diverged after partial block");
            }
            BlockOutcome::NoBlock | BlockOutcome::Fallback => {}
        }
        let want = interp.step(&mut ienv);
        let got = match fast.step_concrete(&sym) {
            Ok(out) => out,
            Err(_) => fast.commit(&mut fenv),
        };
        assert_eq!(want, got, "outcome diverged at dispatch {iters}");
        assert_eq!(
            interp.steps_taken(),
            fast.steps_taken(),
            "step accounting diverged at dispatch {iters}"
        );
        if want.is_terminal() {
            break want;
        }
    };

    assert_eq!(interp.is_running(), fast.is_running());
    assert_eq!(
        interp.mem().words_allocated(),
        fast.mem().words_allocated(),
        "allocation meters diverged"
    );
    for addr in GLOBAL_BASE..GLOBAL_BASE + 2 {
        assert_eq!(interp.mem().load(addr), fast.mem().load(addr));
    }
    Some((terminal, interp.steps_taken()))
}

/// A statement with label/function references still raw — they are fixed
/// up modulo the program size (deliberately reaching slightly past the end
/// so `BadJump` faults are generated too).
#[derive(Debug, Clone)]
enum RawStmt {
    Assign {
        dst: Expr,
        src: Expr,
    },
    If {
        cond: Expr,
        target: u8,
    },
    Goto {
        target: u8,
    },
    Call {
        func: u8,
        args: Vec<Expr>,
        dst: Option<Expr>,
    },
    CallExternal {
        dst: Option<Expr>,
    },
    Ret {
        value: Option<Expr>,
    },
    Abort,
    Halt,
    Alloc {
        dst: Expr,
        size: i64,
        heap: bool,
    },
    /// A planted statement whose labels are already final.
    Exact(Statement),
}

fn expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-4i64..16).prop_map(Expr::Const),
        Just(Expr::FrameBase),
        (0u32..4).prop_map(Expr::local),
        (0u32..4).prop_map(Expr::frame_slot),
        Just(Expr::load(Expr::Const(GLOBAL_BASE))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (0u8..3, inner.clone()).prop_map(|(op, e)| {
                Expr::unary([UnOp::Neg, UnOp::Not, UnOp::BitNot][op as usize], e)
            }),
            inner.clone().prop_map(Expr::load),
            (0u8..16, inner.clone(), inner).prop_map(|(op, a, b)| {
                const OPS: [BinOp; 16] = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::BitAnd,
                    BinOp::BitOr,
                    BinOp::BitXor,
                    BinOp::Shl,
                    BinOp::Shr,
                ];
                Expr::binary(OPS[op as usize], a, b)
            }),
        ]
    })
}

fn raw_stmt() -> BoxedStrategy<RawStmt> {
    prop_oneof![
        3 => (expr(), expr()).prop_map(|(dst, src)| RawStmt::Assign { dst, src }),
        2 => (expr(), any::<u8>()).prop_map(|(cond, target)| RawStmt::If { cond, target }),
        1 => any::<u8>().prop_map(|target| RawStmt::Goto { target }),
        2 => (
            any::<u8>(),
            proptest::collection::vec(expr(), 0..3),
            proptest::option::of(expr()),
        )
            .prop_map(|(func, args, dst)| RawStmt::Call { func, args, dst }),
        1 => proptest::option::of(expr()).prop_map(|dst| RawStmt::CallExternal { dst }),
        2 => proptest::option::of(expr()).prop_map(|value| RawStmt::Ret { value }),
        1 => Just(RawStmt::Abort),
        1 => Just(RawStmt::Halt),
        1 => (expr(), -3i64..10, any::<bool>())
            .prop_map(|(dst, size, heap)| RawStmt::Alloc { dst, size, heap }),
    ]
    .boxed()
}

fn build_program(raw: &[RawStmt], entry: usize) -> Program {
    let n = raw.len();
    // Labels land in [0, n+2): the top two values are past the program
    // text, so jumps there fault with `BadJump` in both tiers.
    let fix = |t: u8| (t as usize) % (n + 2);
    let stmts = raw
        .iter()
        .cloned()
        .map(|r| match r {
            RawStmt::Assign { dst, src } => Statement::Assign { dst, src },
            RawStmt::If { cond, target } => Statement::If {
                cond,
                target: fix(target),
            },
            RawStmt::Goto { target } => Statement::Goto(fix(target)),
            RawStmt::Call { func, args, dst } => Statement::Call {
                func: FuncId(u32::from(func) % 2),
                args,
                dst,
            },
            RawStmt::CallExternal { dst } => Statement::CallExternal { ext: ExtId(0), dst },
            RawStmt::Ret { value } => Statement::Ret { value },
            RawStmt::Abort => Statement::Abort {
                reason: "prop".into(),
            },
            RawStmt::Halt => Statement::Halt,
            RawStmt::Alloc { dst, size, heap } => Statement::Alloc {
                dst,
                size: Expr::Const(size),
                kind: if heap {
                    AllocKind::Heap
                } else {
                    AllocKind::Stack
                },
            },
            RawStmt::Exact(stmt) => stmt,
        })
        .collect();
    Program {
        stmts,
        funcs: vec![
            Function {
                name: "helper".into(),
                entry: 0,
                frame_words: 3,
                num_params: 1,
            },
            Function {
                name: "main".into(),
                entry: entry % n,
                frame_words: 4,
                num_params: 2,
            },
        ],
        externals: vec![External { name: "ext".into() }],
        global_words: 2,
        ..Program::default()
    }
}

/// A short cycle of jumps, planted at label `p` of a random program.
#[derive(Debug, Clone)]
enum Cycle {
    /// `p: goto p`, or `p: if cond goto p`.
    SelfLoop(Option<Expr>),
    /// `p: if cond goto p + 2; p + 1: goto p` — spins while `cond` is 0.
    TwoStatement(Expr),
    /// MiniC's `while (cond) { body }`: `p: if cond goto p + 2;
    /// p + 1: goto exit; p + 2: body; goto p`. A body that stores may
    /// leave the loop or run it to the budget, but is never proven.
    Guarded(Expr, Option<Statement>),
}

impl Cycle {
    fn plant(&self, p: usize) -> Vec<Statement> {
        let branch = |cond: &Expr, target| Statement::If {
            cond: cond.clone(),
            target,
        };
        match self {
            Cycle::SelfLoop(None) => vec![Statement::Goto(p)],
            Cycle::SelfLoop(Some(cond)) => vec![branch(cond, p)],
            Cycle::TwoStatement(cond) => vec![branch(cond, p + 2), Statement::Goto(p)],
            Cycle::Guarded(cond, body) => {
                let exit = p + 3 + usize::from(body.is_some());
                let mut stmts = vec![branch(cond, p + 2), Statement::Goto(exit)];
                stmts.extend(body.clone());
                stmts.push(Statement::Goto(p));
                stmts
            }
        }
    }
}

/// Loop conditions over the parameters and a global: constant, or true
/// for some arguments and false for others.
fn cycle_cond() -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(Expr::Const(1)),
        Just(Expr::Const(0)),
        (0u32..2, -2i64..3).prop_map(|(slot, k)| Expr::binary(
            BinOp::Eq,
            Expr::local(slot),
            Expr::Const(k)
        )),
        (0u32..2, -2i64..3).prop_map(|(slot, k)| Expr::binary(
            BinOp::Lt,
            Expr::local(slot),
            Expr::Const(k)
        )),
        Just(Expr::binary(
            BinOp::Eq,
            Expr::load(Expr::Const(GLOBAL_BASE)),
            Expr::Const(0)
        )),
    ]
    .boxed()
}

/// `slot = k` or `slot = slot + 1` over `main`'s four frame slots.
fn store() -> BoxedStrategy<Statement> {
    (0u32..4, -2i64..3, any::<bool>())
        .prop_map(|(slot, k, bump)| Statement::Assign {
            dst: Expr::frame_slot(slot),
            src: if bump {
                Expr::binary(BinOp::Add, Expr::local(slot), Expr::Const(1))
            } else {
                Expr::Const(k)
            },
        })
        .boxed()
}

/// A random program with a [`Cycle`] planted at `main`'s entry, behind up
/// to two stores that may change what the loop condition reads, and
/// followed by random statements for the loop to exit into.
fn planted_program() -> BoxedStrategy<Program> {
    let cycle = prop_oneof![
        proptest::option::of(cycle_cond()).prop_map(Cycle::SelfLoop),
        cycle_cond().prop_map(Cycle::TwoStatement),
        (cycle_cond(), proptest::option::of(store()))
            .prop_map(|(cond, body)| Cycle::Guarded(cond, body)),
    ];
    (
        proptest::collection::vec(store(), 0..3),
        cycle,
        proptest::collection::vec(raw_stmt(), 1..6),
    )
        .prop_map(|(prefix, cycle, tail)| {
            let mut raw: Vec<RawStmt> = prefix.into_iter().map(RawStmt::Exact).collect();
            raw.extend(cycle.plant(raw.len()).into_iter().map(RawStmt::Exact));
            raw.extend(tail);
            build_program(&raw, 0)
        })
        .boxed()
}

/// Planted cycles through both locksteps: wherever the interpreter proves
/// a hang, the stepwise and the fused path stop at the same step. The
/// cases are drawn from a fixed seed, and a fixed share of them must end
/// by proof (`OutOfSteps` below the budget), so this coverage cannot
/// silently vanish.
#[test]
fn planted_cycles_end_at_the_same_step_on_every_path() {
    const CASES: u32 = 256;
    let cases = (
        planted_program(),
        proptest::collection::vec(-3i64..3, 2),
        any::<u64>(),
        prop_oneof![Just(5u64), Just(40u64), Just(200u64)],
        prop_oneof![Just(0u64), Just(1u64), Just(3u64)],
    );
    let mut rng = TestRng::deterministic();
    let mut proven = 0;
    for _ in 0..CASES {
        let (program, args, seed, max_steps, taint_period) = cases.gen_value(&mut rng);
        let config = MachineConfig {
            max_steps,
            ..MachineConfig::default()
        };
        let stepwise = assert_step_lockstep(&program, config, &args, seed);
        let blocks = assert_block_lockstep(&program, config, &args, seed, taint_period);
        assert_eq!(stepwise, blocks, "{program:?}");
        if matches!(stepwise, Some((StepOutcome::OutOfSteps, steps)) if steps < max_steps) {
            proven += 1;
        }
    }
    // 83 of the 256 cases end by proof; the rest leave their loop, fault,
    // or run a storing loop to the budget.
    assert!(
        proven * 4 >= CASES,
        "only {proven} of {CASES} planted cases ended by proof"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn compiled_tier_matches_interpreter(
        raw in proptest::collection::vec(raw_stmt(), 4..16),
        entry in 0usize..64,
        args in proptest::collection::vec(-8i64..8, 2),
        seed in any::<u64>(),
        max_steps in prop_oneof![Just(0u64), Just(1u64), Just(7u64), Just(40u64), Just(200u64)],
        max_alloc_words in prop_oneof![Just(6u64), Just(64u64), Just(u64::MAX)],
        stack_budget in prop_oneof![Just(6i64), Just(1i64 << 20)],
        max_frames in prop_oneof![Just(4usize), Just(64usize)],
    ) {
        let program = build_program(&raw, entry);
        let config = MachineConfig {
            max_steps,
            stack_budget,
            max_frames,
            budget: ResourceBudget { max_alloc_words },
        };
        assert_step_lockstep(&program, config, &args, seed);
    }

    /// The block layer against the interpreter: random programs, random
    /// budgets, and a taint set that enters and leaves mid-trace.
    #[test]
    fn block_tier_matches_interpreter(
        raw in proptest::collection::vec(raw_stmt(), 4..16),
        entry in 0usize..64,
        args in proptest::collection::vec(-8i64..8, 2),
        seed in any::<u64>(),
        max_steps in prop_oneof![Just(0u64), Just(1u64), Just(2u64), Just(7u64), Just(40u64), Just(200u64)],
        max_alloc_words in prop_oneof![Just(6u64), Just(64u64), Just(u64::MAX)],
        taint_period in prop_oneof![Just(0u64), Just(1u64), Just(3u64), Just(8u64)],
    ) {
        let program = build_program(&raw, entry);
        let config = MachineConfig {
            max_steps,
            stack_budget: 1 << 20,
            max_frames: 64,
            budget: ResourceBudget { max_alloc_words },
        };
        assert_block_lockstep(&program, config, &args, seed, taint_period);
    }
}

/// Deterministic coverage of every block-terminator kind in one program:
/// a conditional close (`If`), an unconditional close (`Goto`), and stops
/// before a call, an allocation, and a return — driven through the block
/// layer against the interpreter, then re-driven under an allocation
/// budget tight enough to deny the `Alloc`. The denial must surface on the
/// stepwise path: allocations are never part of a fused block, so the
/// denial decision always happens pre-commit.
#[test]
fn blocks_end_at_every_terminator_kind() {
    let p = Program {
        stmts: vec![
            // main, entry 0 — block [x=5] closed by the If.
            Statement::Assign {
                dst: Expr::frame_slot(0),
                src: Expr::Const(5),
            },
            Statement::If {
                cond: Expr::binary(BinOp::Lt, Expr::local(0), Expr::Const(0)),
                target: 9,
            },
            // Block [y=x+1] closed by the Goto.
            Statement::Assign {
                dst: Expr::frame_slot(1),
                src: Expr::binary(BinOp::Add, Expr::local(0), Expr::Const(1)),
            },
            Statement::Goto(4),
            // Block [z=y*2] stopping before the call.
            Statement::Assign {
                dst: Expr::frame_slot(2),
                src: Expr::binary(BinOp::Mul, Expr::local(1), Expr::Const(2)),
            },
            Statement::Call {
                func: FuncId(0),
                args: vec![Expr::local(2)],
                dst: Some(Expr::frame_slot(3)),
            },
            // Block [w=w+1] stopping before the allocation.
            Statement::Assign {
                dst: Expr::frame_slot(3),
                src: Expr::binary(BinOp::Add, Expr::local(3), Expr::Const(1)),
            },
            Statement::Alloc {
                dst: Expr::frame_slot(0),
                size: Expr::Const(3),
                kind: AllocKind::Heap,
            },
            Statement::Ret {
                value: Some(Expr::local(3)),
            },
            Statement::Ret {
                value: Some(Expr::Const(0)),
            },
            // helper, entry 10: return arg + 1.
            Statement::Ret {
                value: Some(Expr::binary(BinOp::Add, Expr::local(0), Expr::Const(1))),
            },
        ],
        funcs: vec![
            Function {
                name: "helper".into(),
                entry: 10,
                frame_words: 1,
                num_params: 1,
            },
            Function {
                name: "main".into(),
                entry: 0,
                frame_words: 4,
                num_params: 0,
            },
        ],
        ..Program::default()
    };

    // Fused-shape walk: each terminator kind shows up as expected.
    let decoded = DecodedProgram::new(&p);
    let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
    m.call(FuncId(1), &[]).unwrap();
    assert_eq!(
        m.run_block(&NoSym),
        BlockOutcome::Fused {
            steps: 2,
            branch: Some((1, false)),
        },
        "conditional close",
    );
    assert_eq!(
        m.run_block(&NoSym),
        BlockOutcome::Fused {
            steps: 2,
            branch: None,
        },
        "unconditional close",
    );
    assert_eq!(m.pc(), 4);
    assert_eq!(
        m.run_block(&NoSym),
        BlockOutcome::Fused {
            steps: 1,
            branch: None,
        },
        "stop before call",
    );
    assert_eq!(m.pc(), 5);
    assert_eq!(
        m.run_block(&NoSym),
        BlockOutcome::NoBlock,
        "calls never fuse"
    );

    // Full lockstep: generous budget (the run finishes), then a budget
    // that denies the allocation (terminal OutOfMemory, stepwise).
    for cap in [u64::MAX, 6] {
        let config = MachineConfig {
            budget: ResourceBudget {
                max_alloc_words: cap,
            },
            ..MachineConfig::default()
        };
        assert_block_lockstep(&p, config, &[], 1, 0);
        assert_block_lockstep(&p, config, &[], 1, 2);
    }
}
