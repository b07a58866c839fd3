//! The pre-decoded (compiled) execution tier.
//!
//! [`crate::Machine`] re-walks tree-structured [`Expr`]s on every step; for
//! DART workloads that re-execute the same program thousands of times, the
//! decode work dominates. [`DecodedProgram`] lowers a [`Program`] once into a
//! flat array of decoded statements whose operands are postfix op sequences
//! (`FlatExpr`) with the common shapes fused (`bp + k`, `*(bp + k)`,
//! `*(const)`), and [`FastMachine`] dispatches over that array with a
//! reusable evaluation stack — no per-step allocation, no tree recursion.
//!
//! The tier is split into a pure [`FastMachine::probe`] and a mutating
//! [`FastMachine::commit`] so the concolic driver can decide *per statement*
//! whether symbolic mirroring is needed: the probe stages the step's entire
//! effect, reports whether any mirrored operand read a symbolically-tracked
//! address (and whether the step ends the episode), and only then does the
//! driver run the expensive symbolic plan. Concrete-only stretches pay for
//! the probe and nothing else.
//!
//! Above single steps sits the basic-block layer: [`DecodedProgram::new`]
//! discovers block boundaries over the flat array at lowering time (the
//! boundary definition is shared with the interpreter via
//! [`crate::interp::block_role`]) and attaches to each block a static
//! read/write address footprint plus a fused superinstruction.
//! [`FastMachine::run_block`] executes a whole straight-line block with one
//! budget check, one footprint probe against a [`SymView`] (the
//! trace-level taint summary) and one dispatch — zero per-statement
//! staging, outcome plumbing or termination checks — and declines without
//! side effects whenever the footprint may overlap tracked state, so the
//! caller can drop to the interpreter-exact stepwise path.
//!
//! Semantics are pinned to the interpreter — same statement order, same
//! fault points, same budget boundaries ([`crate::MachineConfig::max_steps`]
//! is checked before the step, so a budget of N executes exactly N
//! statements), same [`StepOutcome`]s. The interpreter stays the reference:
//! a differential proptest drives both machines in lockstep over random
//! programs, which is what makes this tier safe to trust.

use crate::expr::{apply_binop, BinOp, Expr, MemView, UnOp};
use crate::interp::{block_role, BlockRole, Environment, MachineConfig, StepOutcome};
use crate::memory::{Fault, Memory};
use crate::program::{AllocKind, ExtId, FuncId, Label, Program, Statement};

/// One postfix operation of a flattened expression.
#[derive(Debug, Clone, Copy)]
enum FlatOp {
    /// Push a constant.
    Const(i64),
    /// Push the current frame base.
    FrameBase,
    /// Fused `bp + k`: push the address of frame slot `k`.
    FrameSlot(i64),
    /// Fused `*(bp + k)`: load frame slot `k`.
    LoadLocal(i64),
    /// Fused `*(c)`: load a fixed address (globals).
    LoadConst(i64),
    /// Pop an address, push the loaded word.
    Load,
    /// Pop one operand, push the result.
    Unary(UnOp),
    /// Pop two operands (right on top), push the result.
    Binary(BinOp),
}

/// Recognizes the frame-slot address shape `FrameBase + Const(k)` that
/// [`Expr::frame_slot`] produces.
fn frame_slot_offset(e: &Expr) -> Option<i64> {
    match e {
        Expr::Binary(BinOp::Add, l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::FrameBase, Expr::Const(k)) => Some(*k),
            _ => None,
        },
        _ => None,
    }
}

fn flatten(e: &Expr, out: &mut Vec<FlatOp>) {
    if let Some(k) = frame_slot_offset(e) {
        out.push(FlatOp::FrameSlot(k));
        return;
    }
    match e {
        Expr::Const(c) => out.push(FlatOp::Const(*c)),
        Expr::FrameBase => out.push(FlatOp::FrameBase),
        Expr::Load(a) => {
            if let Some(k) = frame_slot_offset(a) {
                out.push(FlatOp::LoadLocal(k));
            } else if let Expr::Const(c) = a.as_ref() {
                out.push(FlatOp::LoadConst(*c));
            } else {
                flatten(a, out);
                out.push(FlatOp::Load);
            }
        }
        Expr::Unary(op, inner) => {
            flatten(inner, out);
            out.push(FlatOp::Unary(*op));
        }
        Expr::Binary(op, l, r) => {
            flatten(l, out);
            flatten(r, out);
            out.push(FlatOp::Binary(*op));
        }
    }
}

/// A postfix-flattened expression. Evaluation visits loads and faults in
/// exactly the order [`crate::eval_concrete`] does on the source tree
/// (postfix emission preserves the depth-first left-to-right walk), so the
/// first fault of a step is identical across tiers.
#[derive(Debug, Clone)]
struct FlatExpr {
    ops: Box<[FlatOp]>,
}

impl FlatExpr {
    fn compile(e: &Expr) -> FlatExpr {
        let mut ops = Vec::new();
        flatten(e, &mut ops);
        FlatExpr {
            ops: ops.into_boxed_slice(),
        }
    }

    /// Evaluates against `mem`, reporting every load address to `on_load`
    /// *before* the load is attempted.
    fn eval_with(
        &self,
        mem: &Memory,
        frame_base: i64,
        stack: &mut Vec<i64>,
        mut on_load: impl FnMut(i64),
    ) -> Result<i64, Fault> {
        stack.clear();
        for op in self.ops.iter() {
            match *op {
                FlatOp::Const(c) => stack.push(c),
                FlatOp::FrameBase => stack.push(frame_base),
                FlatOp::FrameSlot(k) => stack.push(frame_base.wrapping_add(k)),
                FlatOp::LoadLocal(k) => {
                    let addr = frame_base.wrapping_add(k);
                    on_load(addr);
                    stack.push(mem.load(addr)?);
                }
                FlatOp::LoadConst(addr) => {
                    on_load(addr);
                    stack.push(mem.load(addr)?);
                }
                FlatOp::Load => {
                    let addr = stack.pop().expect("postfix arity");
                    on_load(addr);
                    stack.push(mem.load(addr)?);
                }
                FlatOp::Unary(op) => {
                    let v = stack.pop().expect("postfix arity");
                    stack.push(match op {
                        UnOp::Neg => v.wrapping_neg(),
                        UnOp::Not => i64::from(v == 0),
                        UnOp::BitNot => !v,
                    });
                }
                FlatOp::Binary(op) => {
                    let b = stack.pop().expect("postfix arity");
                    let a = stack.pop().expect("postfix arity");
                    stack.push(apply_binop(op, a, b)?);
                }
            }
        }
        Ok(stack.pop().expect("postfix leaves one value"))
    }
}

/// Read-only view of the symbolic store, as the compiled tier consumes it:
/// a per-address membership test plus a 64-bit address bloom over the whole
/// tracked set. One `&dyn SymView` serves both granularities — the per-load
/// taint probe of the stepwise path and the whole-block footprint pass of
/// the fused path — and keeps [`FastMachine::probe`] monomorphized once,
/// shared by every call site, instead of re-instantiated per closure.
pub trait SymView {
    /// Whether `addr` currently holds a symbolically-tracked value.
    fn tracks(&self, addr: i64) -> bool;

    /// Address bloom over the tracked set: bit `addr mod 64` is set for
    /// every tracked address. A may-summary — false positives allowed,
    /// false negatives not; `0` means nothing is tracked at all.
    fn summary(&self) -> u64;

    /// Bulk footprint probe for a fused block: whether any of the block's
    /// frame slots (offsets relative to `frame_base`) or absolute
    /// addresses is tracked. `bloom` is the caller's precomputed address
    /// bloom of the whole footprint; one `AND` against
    /// [`SymView::summary`] resolves the common all-concrete case, and
    /// only a bloom hit pays for the precise per-address pass.
    fn tracks_footprint(&self, bloom: u64, frame_base: i64, slots: &[i64], abs: &[i64]) -> bool {
        let summary = self.summary();
        if summary & bloom == 0 {
            return false;
        }
        slots
            .iter()
            .any(|&k| self.tracks(frame_base.wrapping_add(k)))
            || abs.iter().any(|&a| self.tracks(a))
    }
}

/// The empty [`SymView`]: nothing is tracked (concrete-only execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSym;

impl SymView for NoSym {
    fn tracks(&self, _addr: i64) -> bool {
        false
    }
    fn summary(&self) -> u64 {
        0
    }
}

/// Abstract value for the static footprint scan: what a (sub)expression
/// evaluates to when only the frame base is unknown.
#[derive(Debug, Clone, Copy)]
enum AbsVal {
    /// A compile-time constant.
    Const(i64),
    /// `frame_base + k` for the executing frame.
    FrameRel(i64),
    /// Anything data-dependent.
    Opaque,
}

/// Accumulated read/write footprint of a block: frame-slot offsets plus
/// absolute addresses. Order and duplicates are irrelevant here — the sets
/// are sorted and deduplicated when the block is sealed.
#[derive(Debug, Default)]
struct Footprint {
    slots: Vec<i64>,
    abs: Vec<i64>,
}

impl Footprint {
    fn merge(&mut self, other: &Footprint) {
        self.slots.extend_from_slice(&other.slots);
        self.abs.extend_from_slice(&other.abs);
    }
}

/// Statically scans a flattened expression, recording every address it can
/// load from into `fp` and returning the abstract value it produces.
/// Returns `None` (escape) when some load address is data-dependent — such
/// an expression has no static footprint, so its statement can never be
/// part of a fused block. Constant folding mirrors [`apply_binop`]'s
/// wrapping `Add`/`Sub` exactly (both are total); every other operator is
/// treated as opaque.
fn scan_expr(e: &FlatExpr, fp: &mut Footprint) -> Option<AbsVal> {
    let mut stack: Vec<AbsVal> = Vec::with_capacity(8);
    for op in e.ops.iter() {
        let v = match *op {
            FlatOp::Const(c) => AbsVal::Const(c),
            FlatOp::FrameBase => AbsVal::FrameRel(0),
            FlatOp::FrameSlot(k) => AbsVal::FrameRel(k),
            FlatOp::LoadLocal(k) => {
                fp.slots.push(k);
                AbsVal::Opaque
            }
            FlatOp::LoadConst(a) => {
                fp.abs.push(a);
                AbsVal::Opaque
            }
            FlatOp::Load => {
                match stack.pop().expect("postfix arity") {
                    AbsVal::Const(a) => fp.abs.push(a),
                    AbsVal::FrameRel(k) => fp.slots.push(k),
                    AbsVal::Opaque => return None,
                }
                AbsVal::Opaque
            }
            FlatOp::Unary(_) => {
                stack.pop().expect("postfix arity");
                AbsVal::Opaque
            }
            FlatOp::Binary(op) => {
                let b = stack.pop().expect("postfix arity");
                let a = stack.pop().expect("postfix arity");
                match (op, a, b) {
                    (BinOp::Add, AbsVal::FrameRel(k), AbsVal::Const(c))
                    | (BinOp::Add, AbsVal::Const(c), AbsVal::FrameRel(k)) => {
                        AbsVal::FrameRel(k.wrapping_add(c))
                    }
                    (BinOp::Sub, AbsVal::FrameRel(k), AbsVal::Const(c)) => {
                        AbsVal::FrameRel(k.wrapping_sub(c))
                    }
                    (BinOp::Add, AbsVal::Const(x), AbsVal::Const(y)) => {
                        AbsVal::Const(x.wrapping_add(y))
                    }
                    (BinOp::Sub, AbsVal::Const(x), AbsVal::Const(y)) => {
                        AbsVal::Const(x.wrapping_sub(y))
                    }
                    _ => AbsVal::Opaque,
                }
            }
        };
        stack.push(v);
    }
    Some(stack.pop().expect("postfix leaves one value"))
}

/// Statically-resolved destination of a fused assignment.
#[derive(Debug, Clone, Copy)]
enum Dst {
    /// Frame slot `k` of the executing frame.
    Slot(i64),
    /// A fixed absolute address (globals).
    Abs(i64),
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy)]
enum BlockEnd {
    /// Falls to the stepwise path: the next statement defers (call,
    /// return, allocation, …) or its footprint escapes.
    Stop,
    /// Unconditional `Goto`.
    Jump(Label),
    /// Conditional `If` with the given taken-target.
    Branch(Label),
}

/// Per-block metadata attached at lowering time: the superinstruction the
/// fused path executes plus the static address footprint the trace-level
/// taint summary is checked against. A block is a maximal run of fusible
/// assignments (static destinations, no escaping loads) optionally closed
/// by one in-block control transfer; it never contains calls, allocations
/// or terminal statements — those always execute stepwise.
#[derive(Debug, Clone)]
struct Block {
    /// Statements the fused path commits (`body` assignments plus the
    /// `Jump`/`Branch` terminator when present). Always ≥ 1.
    len: u32,
    /// Leading assignment count.
    body: u32,
    end: BlockEnd,
    /// Destinations of the body assignments, in order.
    dsts: Box<[Dst]>,
    /// Frame-slot footprint (reads and writes), deduplicated.
    slots: Box<[i64]>,
    /// Absolute-address footprint (reads and writes), deduplicated.
    abs: Box<[i64]>,
    /// Bloom over `slots` (bit `k mod 64`). Rotating left by
    /// `frame_base mod 64` yields the bloom of the resolved runtime
    /// addresses, because `(frame_base + k) mod 64` equals
    /// `(frame_base mod 64 + k mod 64) mod 64` — wrapping arithmetic is
    /// congruent mod 64.
    rel_bloom: u64,
    /// Bloom over `abs` (bit `addr mod 64`).
    abs_bloom: u64,
}

/// Longest straight-line run a single block may fuse. Bounds the quadratic
/// overlap of blocks discovered at every leader inside one long run.
const MAX_FUSED_LEN: usize = 64;

/// Per-statement fusibility, derived once from the shared [`block_role`]
/// classification plus the static footprint scan.
enum Fuse {
    /// Fusible assignment: static destination, summarizable reads.
    Body { dst: Dst, fp: Footprint },
    /// Conditional with a summarizable condition — may close a block.
    Branch { target: Label, fp: Footprint },
    /// Unconditional jump — may close a block.
    Jump(Label),
    /// Deferred statement or data-dependent footprint: stepwise only.
    Boundary,
}

fn classify(source: &Statement, decoded: &DStmt) -> Fuse {
    match (block_role(source), decoded) {
        (BlockRole::Body, DStmt::Assign { dst, src }) => {
            let mut fp = Footprint::default();
            let dst_val = scan_expr(dst, &mut fp);
            let src_ok = scan_expr(src, &mut fp).is_some();
            // The destination address is part of the footprint too: a
            // write over a tracked address must fall back so the symbolic
            // layer can forget the binding.
            match dst_val {
                Some(AbsVal::FrameRel(k)) if src_ok => {
                    fp.slots.push(k);
                    Fuse::Body {
                        dst: Dst::Slot(k),
                        fp,
                    }
                }
                Some(AbsVal::Const(a)) if src_ok => {
                    fp.abs.push(a);
                    Fuse::Body {
                        dst: Dst::Abs(a),
                        fp,
                    }
                }
                _ => Fuse::Boundary,
            }
        }
        (BlockRole::Jump, DStmt::If { cond, target }) => {
            let mut fp = Footprint::default();
            match scan_expr(cond, &mut fp) {
                Some(_) => Fuse::Branch {
                    target: *target,
                    fp,
                },
                None => Fuse::Boundary,
            }
        }
        (BlockRole::Jump, DStmt::Goto(target)) => Fuse::Jump(*target),
        _ => Fuse::Boundary,
    }
}

/// Discovers basic blocks at every *leader* — function entries,
/// jump/branch/call targets, and each fallthrough out of a non-fusible
/// statement. Leaders are the only pcs the driver can reach with a fresh
/// dispatch: a fused commit stops only at boundaries (whose successors are
/// leaders) or terminal faults (which end the episode), so mid-block pcs
/// are never re-entered and blocks at leaders cover everything fusible.
fn discover_blocks(program: &Program, stmts: &[DStmt]) -> Box<[Option<Box<Block>>]> {
    let n = stmts.len();
    let kinds: Vec<Fuse> = program
        .stmts
        .iter()
        .zip(stmts.iter())
        .map(|(s, d)| classify(s, d))
        .collect();

    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for f in &program.funcs {
        if f.entry < n {
            leader[f.entry] = true;
        }
    }
    for (i, d) in stmts.iter().enumerate() {
        let target = match d {
            DStmt::If { target, .. } => Some(*target),
            DStmt::Goto(target) => Some(*target),
            DStmt::Call { entry, .. } => Some(*entry),
            _ => None,
        };
        if let Some(t) = target {
            if t < n {
                leader[t] = true;
            }
        }
        if !matches!(kinds[i], Fuse::Body { .. }) && i + 1 < n {
            leader[i + 1] = true;
        }
    }

    let mut blocks: Vec<Option<Box<Block>>> = (0..n).map(|_| None).collect();
    for pc in 0..n {
        if !leader[pc] {
            continue;
        }
        let mut fp = Footprint::default();
        let mut dsts = Vec::new();
        let mut i = pc;
        while i < n && dsts.len() < MAX_FUSED_LEN {
            match &kinds[i] {
                Fuse::Body { dst, fp: sfp } => {
                    dsts.push(*dst);
                    fp.merge(sfp);
                    i += 1;
                }
                _ => break,
            }
        }
        let end = if dsts.len() < MAX_FUSED_LEN {
            match kinds.get(i) {
                Some(Fuse::Branch { target, fp: cfp }) => {
                    fp.merge(cfp);
                    BlockEnd::Branch(*target)
                }
                Some(Fuse::Jump(target)) => BlockEnd::Jump(*target),
                _ => BlockEnd::Stop,
            }
        } else {
            BlockEnd::Stop
        };
        let body = dsts.len();
        let len = body + usize::from(!matches!(end, BlockEnd::Stop));
        if len == 0 {
            continue;
        }
        let Footprint { mut slots, mut abs } = fp;
        slots.sort_unstable();
        slots.dedup();
        abs.sort_unstable();
        abs.dedup();
        let rel_bloom = slots.iter().fold(0u64, |s, &k| s | 1u64 << (k as u64 & 63));
        let abs_bloom = abs.iter().fold(0u64, |s, &a| s | 1u64 << (a as u64 & 63));
        blocks[pc] = Some(Box::new(Block {
            len: len as u32,
            body: body as u32,
            end,
            dsts: dsts.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
            abs: abs.into_boxed_slice(),
            rel_bloom,
            abs_bloom,
        }));
    }
    blocks.into_boxed_slice()
}

/// A decoded statement: operands flattened, call targets resolved.
#[derive(Debug, Clone)]
enum DStmt {
    Assign {
        dst: FlatExpr,
        src: FlatExpr,
    },
    If {
        cond: FlatExpr,
        target: Label,
    },
    Goto(Label),
    Call {
        func: FuncId,
        /// Callee entry label, resolved at decode time.
        entry: Label,
        /// Callee frame size, resolved at decode time.
        frame_words: u32,
        args: Box<[FlatExpr]>,
        dst: Option<FlatExpr>,
    },
    CallExternal {
        ext: ExtId,
        dst: Option<FlatExpr>,
    },
    Ret {
        value: Option<FlatExpr>,
    },
    Abort {
        reason: Box<str>,
    },
    Halt,
    Alloc {
        dst: FlatExpr,
        size: FlatExpr,
        kind: AllocKind,
    },
}

/// A [`Program`] lowered once into flat decoded statements. Build one per
/// program (it is immutable and shareable) and run any number of
/// [`FastMachine`]s over it.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    stmts: Box<[DStmt]>,
    /// Basic-block metadata, indexed by leader pc (`None` elsewhere).
    blocks: Box<[Option<Box<Block>>]>,
}

impl DecodedProgram {
    /// Lowers `program`: flattens every operand expression and resolves
    /// call targets (entry label, frame size) so dispatch never consults
    /// the function table.
    ///
    /// # Panics
    ///
    /// Panics if a `Call` names an out-of-range [`FuncId`] — the same
    /// contract as the interpreter; run [`Program::validate`] first.
    pub fn new(program: &Program) -> DecodedProgram {
        let stmts: Box<[DStmt]> = program
            .stmts
            .iter()
            .map(|s| match s {
                Statement::Assign { dst, src } => DStmt::Assign {
                    dst: FlatExpr::compile(dst),
                    src: FlatExpr::compile(src),
                },
                Statement::If { cond, target } => DStmt::If {
                    cond: FlatExpr::compile(cond),
                    target: *target,
                },
                Statement::Goto(target) => DStmt::Goto(*target),
                Statement::Call { func, args, dst } => {
                    let meta = program.func(*func);
                    DStmt::Call {
                        func: *func,
                        entry: meta.entry,
                        frame_words: meta.frame_words,
                        args: args.iter().map(FlatExpr::compile).collect(),
                        dst: dst.as_ref().map(FlatExpr::compile),
                    }
                }
                Statement::CallExternal { ext, dst } => DStmt::CallExternal {
                    ext: *ext,
                    dst: dst.as_ref().map(FlatExpr::compile),
                },
                Statement::Ret { value } => DStmt::Ret {
                    value: value.as_ref().map(FlatExpr::compile),
                },
                Statement::Abort { reason } => DStmt::Abort {
                    reason: reason.clone().into_boxed_str(),
                },
                Statement::Halt => DStmt::Halt,
                Statement::Alloc { dst, size, kind } => DStmt::Alloc {
                    dst: FlatExpr::compile(dst),
                    size: FlatExpr::compile(size),
                    kind: *kind,
                },
            })
            .collect();
        let blocks = discover_blocks(program, &stmts);
        DecodedProgram { stmts, blocks }
    }

    /// The basic block whose leader is `pc`, if one was discovered there.
    fn block_at(&self, pc: Label) -> Option<&Block> {
        self.blocks.get(pc).and_then(|b| b.as_deref())
    }

    /// Number of statements covered by fused blocks (diagnostic; counts
    /// each statement once even when overlapping blocks cover it).
    pub fn fused_coverage(&self) -> usize {
        let mut covered = vec![false; self.stmts.len()];
        for (pc, b) in self.blocks.iter().enumerate() {
            if let Some(b) = b {
                for c in covered.iter_mut().skip(pc).take(b.len as usize) {
                    *c = true;
                }
            }
        }
        covered.iter().filter(|&&c| c).count()
    }

    /// Number of decoded statements (same as the source program).
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

/// The staged effect of the next step, computed by [`FastMachine::probe`]
/// and applied by [`FastMachine::commit`]. The `Call` payload is boxed so
/// the enum (written to the staged slot on *every* probe) stays small for
/// the hot variants.
#[derive(Debug, Clone)]
enum Staged {
    OutOfSteps,
    Fault(Fault),
    Assign {
        addr: i64,
        value: i64,
    },
    Branch {
        taken: bool,
        target: Label,
    },
    Jump {
        target: Label,
    },
    Call(Box<StagedCall>),
    CallExternal {
        ext: ExtId,
        addr: Option<i64>,
    },
    Ret {
        value: Option<i64>,
    },
    Abort {
        reason: String,
    },
    Halt,
    Alloc {
        addr: i64,
        words: i64,
        kind: AllocKind,
    },
    OutOfMemory,
}

/// The staged effect of a resolved in-program call (see [`Staged::Call`]).
#[derive(Debug, Clone)]
struct StagedCall {
    func: FuncId,
    entry: Label,
    frame_words: u32,
    arg_values: Vec<i64>,
    ret_dst: Option<i64>,
}

/// What [`FastMachine::run_block`] did at the current pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOutcome {
    /// No fusible block starts at the current pc (the statement is
    /// deferred, escaping, or mid-block): execute stepwise.
    NoBlock,
    /// A block exists but could not fuse this time: its footprint may
    /// overlap the tracked set, or the step budget cannot admit the whole
    /// block. Machine state is untouched; execute stepwise.
    Fallback,
    /// The whole block committed concretely: `steps` statements with
    /// provably no symbolic effect. `branch` carries the terminating
    /// conditional's `(label, taken)` when the block ended in one.
    Fused {
        /// Statements committed (and added to the step counter).
        steps: u32,
        /// `(pc, taken)` of the closing conditional, if any.
        branch: Option<(Label, bool)>,
    },
    /// A prefix of `steps` statements committed, then evaluation faulted
    /// before any effect of the next statement; the pc rests on that
    /// statement and the stepwise path re-executes it, surfacing the
    /// interpreter-identical terminal outcome.
    Partial {
        /// Statements committed before the stop.
        steps: u32,
    },
}

/// What [`FastMachine::probe`] learned about the next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSummary {
    /// The staged step ends the episode (fault, exhausted budget, abort,
    /// halt). Terminal steps always need mirroring: the symbolic layer may
    /// evaluate past the concrete fault point and touch tracked state.
    pub terminal: bool,
    /// Some mirrored operand (assignment source, branch condition, call
    /// argument, return value) read a symbolically-tracked address.
    pub tainted: bool,
}

impl ProbeSummary {
    /// Whether the concolic driver must run the symbolic plan for this
    /// step. False exactly when the step is a concrete-only, non-terminal
    /// stretch where mirroring is a provable no-op.
    pub fn needs_mirror(&self) -> bool {
        self.terminal || self.tainted
    }
}

#[derive(Debug, Clone)]
struct Frame {
    base: i64,
    ret_pc: Label,
    ret_dst: Option<i64>,
}

/// The compiled-tier machine: dispatches over a [`DecodedProgram`] with the
/// interpreter's exact semantics.
///
/// # Examples
///
/// ```
/// use dart_ram::{DecodedProgram, Expr, FastMachine, Function, MachineConfig, Program,
///                Statement, StepOutcome, ZeroEnv};
///
/// // fn id(x) { return x; }
/// let program = Program {
///     stmts: vec![Statement::Ret { value: Some(Expr::local(0)) }],
///     funcs: vec![Function { name: "id".into(), entry: 0, frame_words: 1, num_params: 1 }],
///     ..Program::default()
/// };
/// let decoded = DecodedProgram::new(&program);
/// let mut m = FastMachine::new(&program, &decoded, MachineConfig::default());
/// m.call(program.func_by_name("id").unwrap(), &[42]).unwrap();
/// assert_eq!(m.run(&mut ZeroEnv), StepOutcome::Finished { value: Some(42) });
/// ```
#[derive(Debug, Clone)]
pub struct FastMachine<'p> {
    program: &'p Program,
    decoded: &'p DecodedProgram,
    mem: Memory,
    pc: Label,
    frames: Vec<Frame>,
    steps: u64,
    config: MachineConfig,
    running: bool,
    /// Reusable postfix evaluation stack — no per-step allocation.
    scratch: Vec<i64>,
    staged: Option<Staged>,
}

impl MemView for FastMachine<'_> {
    fn load(&self, addr: i64) -> Result<i64, Fault> {
        self.mem.load(addr)
    }
    fn frame_base(&self) -> i64 {
        self.frames.last().map(|f| f.base).unwrap_or(0)
    }
}

impl<'p> FastMachine<'p> {
    /// Creates an idle machine over `program` and its decoded form.
    ///
    /// `decoded` must be `DecodedProgram::new(program)` — the machine
    /// dispatches on the decoded statements and only reports the source
    /// statements (for symbolic mirroring) via
    /// [`FastMachine::current_statement`].
    pub fn new(
        program: &'p Program,
        decoded: &'p DecodedProgram,
        config: MachineConfig,
    ) -> FastMachine<'p> {
        FastMachine {
            program,
            decoded,
            mem: Memory::new(program.global_words, config.stack_budget),
            pc: 0,
            frames: Vec::new(),
            steps: 0,
            config,
            running: false,
            scratch: Vec::with_capacity(16),
            staged: None,
        }
    }

    /// The source program being executed.
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

    /// The *source* statement about to execute, if running — what the
    /// symbolic layer mirrors.
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

    /// Begins an episode; see [`crate::Machine::call`].
    ///
    /// # Errors
    ///
    /// [`Fault::StackOverflow`] if the frame does not fit;
    /// [`Fault::BadArity`] if `args` exceeds the function's frame size.
    ///
    /// # Panics
    ///
    /// Panics if an episode is already running.
    pub fn call(&mut self, func: FuncId, args: &[i64]) -> Result<i64, Fault> {
        assert!(!self.running, "episode already in progress");
        self.staged = None;
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
        self.running = true;
        Ok(base)
    }

    /// Attempts to execute a whole basic block through the fused path: one
    /// budget check, one footprint probe against `sym`, then straight-line
    /// commits with zero per-statement staging or outcome plumbing.
    /// Returns [`BlockOutcome::NoBlock`] / [`BlockOutcome::Fallback`]
    /// without touching machine state when the current pc has no block or
    /// the block cannot prove itself concrete; on a fault mid-block the
    /// committed prefix stands and the pc rests on the faulting statement
    /// ([`BlockOutcome::Partial`]), which the stepwise path then
    /// re-executes to surface the interpreter-identical terminal outcome.
    ///
    /// # Panics
    ///
    /// Panics if no episode is running.
    pub fn run_block(&mut self, sym: &dyn SymView) -> BlockOutcome {
        assert!(self.running, "no episode in progress");
        let decoded = self.decoded;
        let Some(block) = decoded.block_at(self.pc) else {
            return BlockOutcome::NoBlock;
        };
        if self.steps.saturating_add(u64::from(block.len)) > self.config.max_steps {
            return BlockOutcome::Fallback;
        }
        let frame_base = self.frames.last().map(|f| f.base).unwrap_or(0);
        let bloom = block.rel_bloom.rotate_left((frame_base as u64 & 63) as u32) | block.abs_bloom;
        if sym.tracks_footprint(bloom, frame_base, &block.slots, &block.abs) {
            return BlockOutcome::Fallback;
        }

        self.staged = None;
        let start = self.pc;
        for i in 0..block.body as usize {
            let DStmt::Assign { src, .. } = &decoded.stmts[start + i] else {
                unreachable!("block body is fusible assignments");
            };
            let evaluated = src.eval_with(&self.mem, frame_base, &mut self.scratch, |_| {});
            let committed = match evaluated {
                Ok(value) => {
                    let addr = match block.dsts[i] {
                        Dst::Slot(k) => frame_base.wrapping_add(k),
                        Dst::Abs(a) => a,
                    };
                    self.mem.store(addr, value)
                }
                Err(fault) => Err(fault),
            };
            if committed.is_err() {
                // Stop *before* the faulting statement: the committed
                // prefix matches the interpreter exactly, and re-running
                // the statement stepwise surfaces the identical fault.
                self.pc = start + i;
                self.steps += i as u64;
                return BlockOutcome::Partial { steps: i as u32 };
            }
        }

        match block.end {
            BlockEnd::Stop => {
                self.pc = start + block.body as usize;
                self.steps += u64::from(block.body);
                BlockOutcome::Fused {
                    steps: block.body,
                    branch: None,
                }
            }
            BlockEnd::Jump(target) => {
                self.pc = target;
                self.steps += u64::from(block.len);
                BlockOutcome::Fused {
                    steps: block.len,
                    branch: None,
                }
            }
            BlockEnd::Branch(target) => {
                let if_pc = start + block.body as usize;
                let DStmt::If { cond, .. } = &decoded.stmts[if_pc] else {
                    unreachable!("branch block ends in an If");
                };
                let evaluated = cond.eval_with(&self.mem, frame_base, &mut self.scratch, |_| {});
                match evaluated {
                    Ok(v) => {
                        let taken = v != 0;
                        self.pc = if taken { target } else { if_pc + 1 };
                        self.steps += u64::from(block.len);
                        BlockOutcome::Fused {
                            steps: block.len,
                            branch: Some((if_pc, taken)),
                        }
                    }
                    Err(_) => {
                        self.pc = if_pc;
                        self.steps += u64::from(block.body);
                        BlockOutcome::Partial { steps: block.body }
                    }
                }
            }
        }
    }

    /// Stages the next step without mutating machine state (`steps`, `pc`,
    /// memory and frames are untouched; only the staged slot and the
    /// scratch stack change). `sym` answers whether an address is
    /// symbolically tracked; the probe consults it on every load performed
    /// by a *mirrored* operand (assignment sources, branch conditions,
    /// call arguments, return values — the expressions the symbolic plan
    /// evaluates) and reports the result.
    ///
    /// Call [`FastMachine::commit`] to apply the staged step. Probing
    /// again simply restages.
    ///
    /// # Panics
    ///
    /// Panics if no episode is running.
    pub fn probe(&mut self, sym: &dyn SymView) -> ProbeSummary {
        assert!(self.running, "no episode in progress");
        let mut tainted = false;
        let staged = self.stage(sym, &mut tainted);
        let terminal = matches!(
            staged,
            Staged::OutOfSteps
                | Staged::Fault(_)
                | Staged::Abort { .. }
                | Staged::Halt
                | Staged::OutOfMemory
        );
        self.staged = Some(staged);
        ProbeSummary { terminal, tainted }
    }

    /// Computes the staged effect of the next step. Pure on machine state;
    /// replicates the interpreter's evaluation order exactly (budget check
    /// before the statement fetch, operand order, fault points).
    fn stage(&mut self, sym: &dyn SymView, tainted: &mut bool) -> Staged {
        if self.steps >= self.config.max_steps {
            return Staged::OutOfSteps;
        }
        let Some(stmt) = self.decoded.stmts.get(self.pc) else {
            return Staged::Fault(Fault::BadJump { label: self.pc });
        };
        let frame_base = self.frames.last().map(|f| f.base).unwrap_or(0);
        let mem = &self.mem;
        let scratch = &mut self.scratch;
        let nop = |_: i64| {};
        let mut taint = |addr: i64| {
            if sym.tracks(addr) {
                *tainted = true;
            }
        };

        macro_rules! try_stage {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => return Staged::Fault(fault),
                }
            };
        }

        match stmt {
            DStmt::Assign { dst, src } => {
                let addr = try_stage!(dst.eval_with(mem, frame_base, scratch, nop));
                let value = try_stage!(src.eval_with(mem, frame_base, scratch, &mut taint));
                Staged::Assign { addr, value }
            }
            DStmt::If { cond, target } => {
                let v = try_stage!(cond.eval_with(mem, frame_base, scratch, &mut taint));
                let taken = v != 0;
                Staged::Branch {
                    taken,
                    target: if taken { *target } else { self.pc + 1 },
                }
            }
            DStmt::Goto(target) => Staged::Jump { target: *target },
            DStmt::Call {
                func,
                entry,
                frame_words,
                args,
                dst,
            } => {
                if self.frames.len() >= self.config.max_frames {
                    return Staged::Fault(Fault::StackOverflow);
                }
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args.iter() {
                    arg_values.push(try_stage!(a.eval_with(mem, frame_base, scratch, &mut taint)));
                }
                let ret_dst = match dst {
                    Some(d) => Some(try_stage!(d.eval_with(mem, frame_base, scratch, nop))),
                    None => None,
                };
                if self.over_budget(*frame_words as i64) {
                    return Staged::OutOfMemory;
                }
                if *frame_words as i64 > mem.stack_budget() {
                    return Staged::Fault(Fault::StackOverflow);
                }
                Staged::Call(Box::new(StagedCall {
                    func: *func,
                    entry: *entry,
                    frame_words: *frame_words,
                    arg_values,
                    ret_dst,
                }))
            }
            DStmt::CallExternal { ext, dst } => {
                let addr = match dst {
                    Some(d) => Some(try_stage!(d.eval_with(mem, frame_base, scratch, nop))),
                    None => None,
                };
                Staged::CallExternal { ext: *ext, addr }
            }
            DStmt::Ret { value } => {
                let v = match value {
                    Some(e) => Some(try_stage!(e.eval_with(mem, frame_base, scratch, &mut taint))),
                    None => None,
                };
                Staged::Ret { value: v }
            }
            DStmt::Abort { reason } => Staged::Abort {
                reason: reason.to_string(),
            },
            DStmt::Halt => Staged::Halt,
            DStmt::Alloc { dst, size, kind } => {
                let addr = try_stage!(dst.eval_with(mem, frame_base, scratch, nop));
                let words = try_stage!(size.eval_with(mem, frame_base, scratch, nop));
                if self.over_budget(words) {
                    return Staged::OutOfMemory;
                }
                Staged::Alloc {
                    addr,
                    words,
                    kind: *kind,
                }
            }
        }
    }

    /// Stages the next step and, when it is concrete-only (untainted and
    /// non-terminal) and self-contained, commits it in the same pass,
    /// returning the outcome. External calls and allocations always defer
    /// — the first needs the caller's [`Environment`], the second a
    /// pre-commit fault-injection decision — as does anything terminal or
    /// tainted. A deferred step is left staged exactly like
    /// [`FastMachine::probe`]: run the symbolic plan if the summary calls
    /// for it, then [`FastMachine::commit`].
    ///
    /// # Panics
    ///
    /// Panics if no episode is running.
    pub fn step_concrete(&mut self, sym: &dyn SymView) -> Result<StepOutcome, ProbeSummary> {
        assert!(self.running, "no episode in progress");
        let mut tainted = false;
        let staged = self.stage(sym, &mut tainted);
        let terminal = matches!(
            staged,
            Staged::OutOfSteps
                | Staged::Fault(_)
                | Staged::Abort { .. }
                | Staged::Halt
                | Staged::OutOfMemory
        );
        if terminal
            || tainted
            || matches!(staged, Staged::CallExternal { .. } | Staged::Alloc { .. })
        {
            self.staged = Some(staged);
            return Err(ProbeSummary { terminal, tainted });
        }
        self.staged = None;
        // The environment is never consulted: external calls deferred above.
        Ok(self.commit_staged(staged, &mut crate::interp::ZeroEnv))
    }

    /// Applies the step staged by the last [`FastMachine::probe`],
    /// returning the interpreter-identical [`StepOutcome`]. The step
    /// counter advances here (never on an `OutOfSteps` verdict, matching
    /// the interpreter's budget-before-execute check).
    ///
    /// # Panics
    ///
    /// Panics if no step is staged.
    pub fn commit(&mut self, env: &mut dyn Environment) -> StepOutcome {
        let staged = self.staged.take().expect("probe before commit");
        self.commit_staged(staged, env)
    }

    fn commit_staged(&mut self, staged: Staged, env: &mut dyn Environment) -> StepOutcome {
        if matches!(staged, Staged::OutOfSteps) {
            return self.finish(StepOutcome::OutOfSteps);
        }
        self.steps += 1;

        macro_rules! try_commit {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => return self.finish(StepOutcome::Faulted(fault)),
                }
            };
        }

        match staged {
            Staged::OutOfSteps => unreachable!("handled above"),
            Staged::Fault(f) => self.finish(StepOutcome::Faulted(f)),
            Staged::Assign { addr, value } => {
                try_commit!(self.mem.store(addr, value));
                self.pc += 1;
                StepOutcome::Assigned { dst: addr, value }
            }
            Staged::Branch { taken, target } => {
                self.pc = target;
                StepOutcome::Branched { taken }
            }
            Staged::Jump { target } => {
                self.pc = target;
                StepOutcome::Jumped
            }
            Staged::Call(call) => {
                let StagedCall {
                    func,
                    entry,
                    frame_words,
                    arg_values,
                    ret_dst,
                } = *call;
                let base = try_commit!(self.mem.push_frame(frame_words));
                for (i, &v) in arg_values.iter().enumerate() {
                    try_commit!(self.mem.store(base + i as i64, v));
                }
                self.frames.push(Frame {
                    base,
                    ret_pc: self.pc + 1,
                    ret_dst,
                });
                self.pc = entry;
                StepOutcome::Called {
                    func,
                    frame_base: base,
                    arg_values,
                }
            }
            Staged::CallExternal { ext, addr } => {
                let value = env.external_value(ext, &mut self.mem);
                if let Some(a) = addr {
                    try_commit!(self.mem.store(a, value));
                }
                self.pc += 1;
                StepOutcome::ExternalReturned {
                    ext,
                    dst: addr,
                    value,
                }
            }
            Staged::Ret { value } => {
                let frame = self.frames.pop().expect("running implies a frame");
                self.mem.pop_frame(frame.base);
                if self.frames.is_empty() {
                    self.running = false;
                    return StepOutcome::Finished { value };
                }
                if let Some(d) = frame.ret_dst {
                    if let Some(v) = value {
                        try_commit!(self.mem.store(d, v));
                    }
                }
                self.pc = frame.ret_pc;
                StepOutcome::Returned {
                    dst: frame.ret_dst,
                    value,
                }
            }
            Staged::Abort { reason } => self.finish(StepOutcome::Aborted { reason }),
            Staged::Halt => self.finish(StepOutcome::Halted),
            Staged::Alloc { addr, words, kind } => {
                let base = match kind {
                    AllocKind::Heap => self.mem.alloc_heap(words),
                    AllocKind::Stack => self.mem.alloc_stack(words),
                };
                try_commit!(self.mem.store(addr, base));
                self.pc += 1;
                StepOutcome::Allocated {
                    dst: addr,
                    base,
                    words,
                }
            }
            Staged::OutOfMemory => self.finish(StepOutcome::OutOfMemory),
        }
    }

    /// Executes one statement: probe (with no tracked addresses) plus
    /// commit. Concrete-only callers use this; the concolic driver calls
    /// probe/commit itself to interleave the symbolic plan.
    ///
    /// # Panics
    ///
    /// Panics if no episode is running.
    pub fn step(&mut self, env: &mut dyn Environment) -> StepOutcome {
        self.probe(&NoSym);
        self.commit(env)
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
    /// allocation budget (same boundary as the interpreter: landing
    /// exactly on the cap is allowed).
    fn over_budget(&self, words: i64) -> bool {
        words > 0
            && self.mem.words_allocated().saturating_add(words as u64)
                > self.config.budget.max_alloc_words
    }

    /// Ends the episode, unwinding live frames.
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
    use crate::interp::{Machine, ZeroEnv};
    use crate::memory::GLOBAL_BASE;
    use crate::program::{External, Function};
    use crate::ResourceBudget;

    /// Test [`SymView`] over an explicit tracked-address set.
    struct TrackedSet(Vec<i64>);

    impl SymView for TrackedSet {
        fn tracks(&self, addr: i64) -> bool {
            self.0.contains(&addr)
        }
        fn summary(&self) -> u64 {
            self.0.iter().fold(0, |s, &a| s | 1u64 << (a as u64 & 63))
        }
    }

    fn run_fast(program: &Program, func: &str, args: &[i64]) -> StepOutcome {
        let decoded = DecodedProgram::new(program);
        let mut m = FastMachine::new(program, &decoded, MachineConfig::default());
        m.call(program.func_by_name(func).unwrap(), args).unwrap();
        m.run(&mut ZeroEnv)
    }

    /// Runs to completion through the block layer: fused where possible,
    /// stepwise everywhere else. Returns the terminal outcome and steps.
    fn run_via_blocks(
        program: &Program,
        config: MachineConfig,
        args: &[i64],
        sym: &dyn SymView,
    ) -> (StepOutcome, u64) {
        let decoded = DecodedProgram::new(program);
        let mut m = FastMachine::new(program, &decoded, config);
        m.call(program.func_by_name("main").unwrap(), args).unwrap();
        loop {
            if let BlockOutcome::Fused { .. } = m.run_block(sym) {
                continue;
            }
            let out = match m.step_concrete(sym) {
                Ok(out) => out,
                Err(_) => m.commit(&mut ZeroEnv),
            };
            if out.is_terminal() {
                return (out, m.steps_taken());
            }
        }
    }

    /// Drives both machines in lockstep and asserts identical outcome
    /// sequences, step counts and final memory observables.
    fn assert_lockstep(program: &Program, config: MachineConfig, args: &[i64]) {
        let decoded = DecodedProgram::new(program);
        let mut interp = Machine::new(program, config);
        let mut fast = FastMachine::new(program, &decoded, config);
        let main = program.func_by_name("main").unwrap();
        assert_eq!(interp.call(main, args), fast.call(main, args));
        loop {
            assert_eq!(interp.pc(), fast.pc());
            let a = interp.step(&mut ZeroEnv);
            let b = fast.step(&mut ZeroEnv);
            assert_eq!(a, b, "tiers diverged at step {}", interp.steps_taken());
            assert_eq!(interp.steps_taken(), fast.steps_taken());
            if a.is_terminal() {
                break;
            }
        }
        assert_eq!(interp.is_running(), fast.is_running());
        assert_eq!(interp.mem().words_allocated(), fast.mem().words_allocated());
    }

    /// main(n): acc = 1; while (n > 0) { acc = acc * n; n = n - 1 } return acc
    fn factorial_program() -> Program {
        Program {
            stmts: vec![
                Statement::Assign {
                    dst: Expr::frame_slot(1),
                    src: Expr::Const(1),
                },
                Statement::If {
                    cond: Expr::binary(BinOp::Le, Expr::local(0), Expr::Const(0)),
                    target: 5,
                },
                Statement::Assign {
                    dst: Expr::frame_slot(1),
                    src: Expr::binary(BinOp::Mul, Expr::local(1), Expr::local(0)),
                },
                Statement::Assign {
                    dst: Expr::frame_slot(0),
                    src: Expr::binary(BinOp::Sub, Expr::local(0), Expr::Const(1)),
                },
                Statement::Goto(1),
                Statement::Ret {
                    value: Some(Expr::local(1)),
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
    fn factorial_matches_interpreter() {
        let p = factorial_program();
        assert_eq!(
            run_fast(&p, "main", &[5]),
            StepOutcome::Finished { value: Some(120) }
        );
        assert_lockstep(&p, MachineConfig::default(), &[5]);
        assert_lockstep(&p, MachineConfig::default(), &[0]);
    }

    #[test]
    fn flat_expr_preserves_fault_order() {
        // (*(0) / *(bp)) — the null load faults before the division is
        // reached, exactly as tree evaluation orders it.
        let p = Program {
            stmts: vec![Statement::Assign {
                dst: Expr::frame_slot(0),
                src: Expr::binary(BinOp::Div, Expr::load(Expr::Const(0)), Expr::local(0)),
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
            run_fast(&p, "main", &[0]),
            StepOutcome::Faulted(Fault::NullDeref { addr: 0 })
        );
        assert_lockstep(&p, MachineConfig::default(), &[0]);
    }

    #[test]
    fn bad_arity_call_is_an_error() {
        let p = factorial_program();
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        assert_eq!(
            m.call(FuncId(0), &[1, 2, 3]),
            Err(Fault::BadArity { func: 0 })
        );
        assert!(!m.is_running());
        m.call(FuncId(0), &[5]).unwrap();
        assert_eq!(
            m.run(&mut ZeroEnv),
            StepOutcome::Finished { value: Some(120) }
        );
    }

    #[test]
    fn step_budget_boundaries_match_interpreter() {
        let p = factorial_program();
        for budget in [0u64, 1, 2, 7, 20] {
            let config = MachineConfig {
                max_steps: budget,
                ..MachineConfig::default()
            };
            assert_lockstep(&p, config, &[5]);
        }
        // Budget 0: no statement executes, the counter stays at zero.
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(
            &p,
            &decoded,
            MachineConfig {
                max_steps: 0,
                ..MachineConfig::default()
            },
        );
        m.call(FuncId(0), &[3]).unwrap();
        assert_eq!(m.step(&mut ZeroEnv), StepOutcome::OutOfSteps);
        assert_eq!(m.steps_taken(), 0);
    }

    #[test]
    fn recursion_overflows_like_interpreter() {
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
            run_fast(&p, "main", &[]),
            StepOutcome::Faulted(Fault::StackOverflow)
        );
        assert_lockstep(&p, MachineConfig::default(), &[]);
    }

    #[test]
    fn externals_and_globals_match_interpreter() {
        struct Script(Vec<i64>);
        impl Environment for Script {
            fn external_value(&mut self, _ext: ExtId, _mem: &mut Memory) -> i64 {
                self.0.remove(0)
            }
        }
        // main: g = ext(); x = ext(); return g - x  (g is a global)
        let p = Program {
            stmts: vec![
                Statement::CallExternal {
                    ext: ExtId(0),
                    dst: Some(Expr::Const(GLOBAL_BASE)),
                },
                Statement::CallExternal {
                    ext: ExtId(0),
                    dst: Some(Expr::frame_slot(0)),
                },
                Statement::Ret {
                    value: Some(Expr::binary(
                        BinOp::Sub,
                        Expr::load(Expr::Const(GLOBAL_BASE)),
                        Expr::local(0),
                    )),
                },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 1,
                num_params: 0,
            }],
            externals: vec![External {
                name: "getchar".into(),
            }],
            global_words: 1,
            ..Program::default()
        };
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        m.call(FuncId(0), &[]).unwrap();
        assert_eq!(
            m.run(&mut Script(vec![30, 12])),
            StepOutcome::Finished { value: Some(18) }
        );
    }

    #[test]
    fn alloc_budget_matches_interpreter() {
        // main: p = malloc(2); q = alloca(3); return 0 — frame is 2 words.
        let p = Program {
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
        };
        for cap in [3u64, 6, 7, u64::MAX] {
            let config = MachineConfig {
                budget: ResourceBudget {
                    max_alloc_words: cap,
                },
                ..MachineConfig::default()
            };
            assert_lockstep(&p, config, &[]);
        }
    }

    #[test]
    fn probe_is_pure_and_reports_taint() {
        let p = factorial_program();
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        let base = m.call(FuncId(0), &[4]).unwrap();

        // Statement 0 (acc = 1): the source is constant — untainted even
        // though the parameter address is tracked; probing twice is
        // harmless and mutates nothing.
        let tracked = TrackedSet(vec![base]);
        let s = m.probe(&tracked);
        assert_eq!(
            s,
            ProbeSummary {
                terminal: false,
                tainted: false
            }
        );
        assert_eq!(m.probe(&tracked), s, "probe restages idempotently");
        assert_eq!(m.steps_taken(), 0);
        assert_eq!(m.pc(), 0);
        assert!(matches!(
            m.commit(&mut ZeroEnv),
            StepOutcome::Assigned { .. }
        ));

        // Statement 1 (if n <= 0): the condition loads the tracked
        // parameter slot.
        let s = m.probe(&tracked);
        assert_eq!(
            s,
            ProbeSummary {
                terminal: false,
                tainted: true
            }
        );
        assert!(matches!(
            m.commit(&mut ZeroEnv),
            StepOutcome::Branched { taken: false }
        ));

        // With nothing tracked, the same condition is untainted.
        let s = m.probe(&NoSym);
        assert!(!s.tainted && !s.terminal);
    }

    #[test]
    fn probe_marks_terminal_steps() {
        let p = Program {
            stmts: vec![Statement::Abort {
                reason: "boom".into(),
            }],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 0,
                num_params: 0,
            }],
            ..Program::default()
        };
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        m.call(FuncId(0), &[]).unwrap();
        let s = m.probe(&NoSym);
        assert!(s.terminal && s.needs_mirror());
        assert_eq!(
            m.commit(&mut ZeroEnv),
            StepOutcome::Aborted {
                reason: "boom".into()
            }
        );
    }

    #[test]
    fn abort_unwinds_and_allows_fresh_episode() {
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
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        m.call(FuncId(1), &[]).unwrap();
        assert_eq!(
            m.run(&mut ZeroEnv),
            StepOutcome::Aborted {
                reason: "boom".into()
            }
        );
        assert!(!m.is_running());
        assert!(m.call(FuncId(1), &[]).is_ok());
    }

    #[test]
    fn heap_pointers_and_use_after_return_match_interpreter() {
        // leaf() { local; return &local }  — returns a dangling frame addr;
        // main: p = leaf(); *p = 1 faults (use after return).
        let p = Program {
            stmts: vec![
                // leaf: 0: return bp
                Statement::Ret {
                    value: Some(Expr::FrameBase),
                },
                // main: 1: p = leaf()
                Statement::Call {
                    func: FuncId(0),
                    args: vec![],
                    dst: Some(Expr::frame_slot(0)),
                },
                // 2: *p = 1
                Statement::Assign {
                    dst: Expr::local(0),
                    src: Expr::Const(1),
                },
                Statement::Ret { value: None },
            ],
            funcs: vec![
                Function {
                    name: "leaf".into(),
                    entry: 0,
                    frame_words: 1,
                    num_params: 0,
                },
                Function {
                    name: "main".into(),
                    entry: 1,
                    frame_words: 1,
                    num_params: 0,
                },
            ],
            ..Program::default()
        };
        let out = run_fast(&p, "main", &[]);
        assert!(
            matches!(out, StepOutcome::Faulted(Fault::OutOfBounds { .. })),
            "{out:?}"
        );
        assert_lockstep(&p, MachineConfig::default(), &[]);
    }

    #[test]
    fn blocks_cover_the_factorial_loop() {
        let p = factorial_program();
        let decoded = DecodedProgram::new(&p);
        // Leader 0 (entry): [acc = 1] closed by the If → len 2.
        let b = decoded.block_at(0).expect("entry block");
        assert_eq!((b.body, b.len), (1, 2));
        assert!(matches!(b.end, BlockEnd::Branch(5)));
        // Footprint: slot 0 read by the condition, slot 1 written.
        assert_eq!(&*b.slots, &[0, 1]);
        assert!(b.abs.is_empty());
        // Leader 2 (fallthrough of the If): both loop assigns + the Goto.
        let b = decoded.block_at(2).expect("loop body block");
        assert_eq!((b.body, b.len), (2, 3));
        assert!(matches!(b.end, BlockEnd::Jump(1)));
        assert_eq!(&*b.slots, &[0, 1]);
        // The whole program is reachable through fused blocks except the
        // Ret (deferred).
        assert_eq!(decoded.fused_coverage(), 5);
    }

    #[test]
    fn fused_blocks_match_stepwise_execution() {
        let p = factorial_program();
        for n in [0i64, 1, 5, 10] {
            let decoded = DecodedProgram::new(&p);
            let mut stepwise = FastMachine::new(&p, &decoded, MachineConfig::default());
            stepwise.call(FuncId(0), &[n]).unwrap();
            let want = stepwise.run(&mut ZeroEnv);
            let (got, steps) = run_via_blocks(&p, MachineConfig::default(), &[n], &NoSym);
            assert_eq!(got, want);
            assert_eq!(steps, stepwise.steps_taken());
        }
    }

    #[test]
    fn fused_branch_reports_the_conditional() {
        let p = factorial_program();
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        m.call(FuncId(0), &[4]).unwrap();
        // Entry block: acc = 1; if (n <= 0) — n is 4, so not taken.
        assert_eq!(
            m.run_block(&NoSym),
            BlockOutcome::Fused {
                steps: 2,
                branch: Some((1, false)),
            }
        );
        assert_eq!(m.pc(), 2);
        assert_eq!(m.steps_taken(), 2);
    }

    #[test]
    fn tracked_footprint_forces_fallback() {
        let p = factorial_program();
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        let base = m.call(FuncId(0), &[4]).unwrap();
        // The entry block reads slot 0 (the parameter): tracked → fallback,
        // with no state mutated.
        let sym = TrackedSet(vec![base]);
        assert_eq!(m.run_block(&sym), BlockOutcome::Fallback);
        assert_eq!((m.pc(), m.steps_taken()), (0, 0));
        // A tracked *write* target (slot 1 = acc) also forces fallback: the
        // symbolic layer must forget the overwritten binding.
        let sym = TrackedSet(vec![base + 1]);
        assert_eq!(m.run_block(&sym), BlockOutcome::Fallback);
        // An address outside the footprint fuses fine, even one whose
        // bloom bit collides (base + 64 aliases base mod 64).
        let sym = TrackedSet(vec![base + 64]);
        assert_eq!(
            m.run_block(&sym),
            BlockOutcome::Fused {
                steps: 2,
                branch: Some((1, false)),
            }
        );
    }

    #[test]
    fn block_budget_check_falls_back_to_stepwise() {
        let p = factorial_program();
        // Budget 1 cannot admit the len-2 entry block; stepwise execution
        // must still run exactly one statement.
        let config = MachineConfig {
            max_steps: 1,
            ..MachineConfig::default()
        };
        let decoded = DecodedProgram::new(&p);
        let mut m = FastMachine::new(&p, &decoded, config);
        m.call(FuncId(0), &[4]).unwrap();
        assert_eq!(m.run_block(&NoSym), BlockOutcome::Fallback);
        assert_eq!(m.steps_taken(), 0, "fallback leaves state untouched");
        let (out, steps) = run_via_blocks(&p, config, &[4], &NoSym);
        assert_eq!(out, StepOutcome::OutOfSteps);
        assert_eq!(steps, 1);
    }

    #[test]
    fn mid_block_fault_commits_prefix_and_stops_before_fault() {
        // main: a = 1; b = *(0); unreachable — the second assign has a
        // static footprint (absolute address 0) but faults at runtime.
        let p = Program {
            stmts: vec![
                Statement::Assign {
                    dst: Expr::frame_slot(0),
                    src: Expr::Const(1),
                },
                Statement::Assign {
                    dst: Expr::frame_slot(1),
                    src: Expr::load(Expr::Const(0)),
                },
                Statement::Ret { value: None },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 2,
                num_params: 0,
            }],
            ..Program::default()
        };
        let decoded = DecodedProgram::new(&p);
        let b = decoded.block_at(0).expect("entry block");
        assert_eq!((b.body, b.len), (2, 2));
        assert_eq!(&*b.abs, &[0]);
        let mut m = FastMachine::new(&p, &decoded, MachineConfig::default());
        let base = m.call(FuncId(0), &[]).unwrap();
        assert_eq!(m.run_block(&NoSym), BlockOutcome::Partial { steps: 1 });
        assert_eq!((m.pc(), m.steps_taken()), (1, 1));
        assert_eq!(m.mem().load(base), Ok(1), "prefix committed");
        // The stepwise path re-runs the faulting statement and surfaces
        // the interpreter-identical fault at the interpreter's step count.
        let (out, steps) = run_via_blocks(&p, MachineConfig::default(), &[], &NoSym);
        assert_eq!(out, StepOutcome::Faulted(Fault::NullDeref { addr: 0 }));
        let mut interp = Machine::new(&p, MachineConfig::default());
        interp.call(FuncId(0), &[]).unwrap();
        assert_eq!(interp.run(&mut ZeroEnv), out);
        assert_eq!(steps, interp.steps_taken());
    }

    #[test]
    fn escaping_addresses_are_never_fused() {
        // main: *(*bp) = 7 — the destination is data-dependent, so no
        // block forms anywhere over it.
        let p = Program {
            stmts: vec![
                Statement::Assign {
                    dst: Expr::local(0),
                    src: Expr::Const(7),
                },
                Statement::Ret { value: None },
            ],
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 1,
                num_params: 1,
            }],
            ..Program::default()
        };
        let decoded = DecodedProgram::new(&p);
        assert!(decoded.block_at(0).is_none());
        assert_eq!(decoded.fused_coverage(), 0);
    }
}
