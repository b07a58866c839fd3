//! The interpreter's hang proof on generated programs.
//!
//! A write-free loop ends as [`StepOutcome::OutOfSteps`] the second time
//! it takes the same back edge with only jumps in between, long before the
//! step budget. Every run here is checked against the proof's own
//! argument, recomputed from outside the machine: when a run ends below
//! its budget, the pc of its last step was visited before, and every step
//! since that visit was a jump. Jumps move only the pc, so the machine
//! stood in the same state twice and can never halt. A proven run must
//! also end at the same step under a larger budget.
//!
//! Random programs rarely close a cycle of jumps, so one generator plants
//! short ones (self-loops, two-statement loops, `while` loops with a
//! guarded exit) and a fixed share of its cases must end by proof. A
//! second one draws random programs (all statement kinds, fault-prone
//! expressions, bad jump targets) under random step, allocation and stack
//! budgets, where every run must end within its budget.

use dart_ram::{
    AllocKind, BinOp, Environment, Expr, ExtId, External, FuncId, Function, Label, Machine,
    MachineConfig, Memory, Program, ResourceBudget, Statement, StepOutcome, UnOp, GLOBAL_BASE,
};
use proptest::prelude::*;

/// Deterministic environment: a seeded LCG stream, so every run of a case
/// sees the same external values.
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

/// Runs `main(args)` step by step to its terminal outcome and checks the
/// step budget and, for a run that ends below it, the proof. Returns the
/// terminal outcome and the step count, or `None` when the episode cannot
/// start.
fn run_checked(
    program: &Program,
    config: MachineConfig,
    args: &[i64],
    seed: u64,
) -> Option<(StepOutcome, u64)> {
    let mut m = Machine::new(program, config);
    m.call(program.func_by_name("main").unwrap(), args).ok()?;
    let mut env = LcgEnv(seed);
    // The pc and outcome of every executed step.
    let mut trace: Vec<(Label, StepOutcome)> = Vec::new();
    let terminal = loop {
        assert!(trace.len() as u64 <= config.max_steps, "runaway episode");
        let pc = m.pc();
        let out = m.step(&mut env);
        if out == StepOutcome::OutOfSteps {
            break out;
        }
        let ends = out.is_terminal();
        trace.push((pc, out.clone()));
        if ends {
            break out;
        }
    };
    let steps = m.steps_taken();
    assert_eq!(steps, trace.len() as u64, "every executed step is counted");
    assert!(steps <= config.max_steps, "the budget bounds every run");
    assert!(!m.is_running(), "a terminal outcome ends the episode");
    if terminal == StepOutcome::OutOfSteps && steps < config.max_steps {
        let is_jump =
            |out: &StepOutcome| matches!(out, StepOutcome::Branched { .. } | StepOutcome::Jumped);
        let (from, _) = trace.last().expect("a proof follows a jump");
        let since = trace[..trace.len() - 1]
            .iter()
            .rposition(|(pc, _)| pc == from)
            .unwrap_or_else(|| panic!("proven at {steps} without revisiting pc {from}"));
        assert!(
            trace[since..].iter().all(|(_, out)| is_jump(out)),
            "proven at {steps}, but a step since pc {from} was not a jump: {program:?}"
        );
    }
    Some((terminal, steps))
}

/// [`run_checked`], then again under a budget ten times larger: a run the
/// proof ended must end the same way, and any run that ended before the
/// budget must not change.
fn run_twice(
    program: &Program,
    config: MachineConfig,
    args: &[i64],
    seed: u64,
) -> Option<(StepOutcome, u64)> {
    let first = run_checked(program, config, args, seed)?;
    let larger = MachineConfig {
        max_steps: config.max_steps * 10 + 10,
        ..config
    };
    let second = run_checked(program, larger, args, seed).expect("the episode started before");
    if first.1 < config.max_steps {
        assert_eq!(first, second, "the budget moved a decided run: {program:?}");
    }
    Some(first)
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
    // text, so jumps there fault with `BadJump`.
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

/// Planted cycles: every proof the interpreter makes is sound and holds
/// under a larger budget. The cases are drawn from a fixed seed, and a
/// fixed share of them must end by proof (`OutOfSteps` below the budget),
/// so this coverage cannot silently vanish.
#[test]
fn planted_cycles_end_by_a_sound_proof() {
    const CASES: u32 = 256;
    let cases = (
        planted_program(),
        proptest::collection::vec(-3i64..3, 2),
        any::<u64>(),
        prop_oneof![Just(5u64), Just(40u64), Just(200u64)],
    );
    let mut rng = TestRng::deterministic();
    let mut proven = 0;
    for _ in 0..CASES {
        let (program, args, seed, max_steps) = cases.gen_value(&mut rng);
        let config = MachineConfig {
            max_steps,
            ..MachineConfig::default()
        };
        let result = run_twice(&program, config, &args, seed);
        if matches!(result, Some((StepOutcome::OutOfSteps, steps)) if steps < max_steps) {
            proven += 1;
        }
    }
    // 100 of the 256 cases end by proof; the rest leave their loop, fault,
    // or run a storing loop to the budget.
    assert!(
        proven * 4 >= CASES,
        "only {proven} of {CASES} planted cases ended by proof"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Random programs under random budgets: the interpreter ends every
    /// run within its step budget, and every proof it makes is sound.
    #[test]
    fn random_programs_end_within_their_budgets(
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
        run_twice(&program, config, &args, seed);
    }
}
