//! Per-run state: the paper's `S`, `path_constraint`, `stack`, plus
//! `random_init` (Fig. 8) and the external-function environment.

use crate::tape::{InputKind, InputTape};
use dart_minic::{CompiledProgram, Type};
use dart_ram::{Environment, ExtId, Memory};
use dart_solver::{Constraint, Var};
use dart_sym::{BranchRecord, Completeness, PathConstraint, SymMemory};

/// Everything a single instrumented run mutates. Implements
/// [`Environment`] so external function calls can draw fresh inputs
/// mid-execution (a capability the paper highlights as unique to DART).
pub struct RunCtx<'p> {
    /// The program under test (for types and the external interface).
    pub compiled: &'p CompiledProgram,
    /// The input vector `IM` (shared across runs of one directed session).
    pub tape: InputTape,
    /// Symbolic memory `S`.
    pub sym: SymMemory,
    /// The run's completeness flags.
    pub flags: Completeness,
    /// Path constraint collected so far.
    pub path: PathConstraint,
    /// The `(branch, done)` stack (prediction in, observation out).
    pub stack: Vec<BranchRecord>,
    /// Number of symbolic conditionals executed so far (the paper's `k`).
    pub k: usize,
    /// Set when execution departed from the predicted branch sequence
    /// (the paper's `forcing_ok = 0` exception).
    pub diverged: bool,
    /// Variable created by the most recent external call, bound to its
    /// destination cell right after the step completes.
    pub pending_ext: Option<Var>,
    /// Set when pointer-chasing in `random_init` hit the depth cap (makes
    /// the session incomplete — some input shapes were not generated).
    pub init_truncated: bool,
    /// `path.len()` at the moment a completeness flag was first cleared;
    /// the symbolic-only baseline cannot direct past this point.
    pub taint_at: Option<usize>,
    /// Pointer-chasing recursion cap for `random_init`.
    pub max_ptr_depth: u32,
}

impl<'p> RunCtx<'p> {
    /// Creates the state for one run.
    pub fn new(
        compiled: &'p CompiledProgram,
        tape: InputTape,
        stack: Vec<BranchRecord>,
        max_ptr_depth: u32,
    ) -> RunCtx<'p> {
        RunCtx {
            compiled,
            tape,
            sym: SymMemory::new(),
            flags: Completeness::new(),
            path: PathConstraint::new(),
            stack,
            k: 0,
            diverged: false,
            pending_ext: None,
            init_truncated: false,
            taint_at: None,
            max_ptr_depth,
        }
    }

    /// Records taint (a cleared completeness flag) at the current path
    /// position, once.
    pub fn note_taint(&mut self) {
        if self.taint_at.is_none() && !self.flags.holds() {
            self.taint_at = Some(self.path.len());
        }
    }

    /// The paper's Fig. 4 `compare_and_update_stack`, called at each
    /// *symbolic* conditional together with recording `constraint` (already
    /// oriented to hold on the executed path).
    pub fn observe_branch(&mut self, taken: bool, constraint: Constraint) {
        self.path.push(constraint);
        let k = self.k;
        self.k += 1;
        if k < self.stack.len() {
            if k < self.stack.len() - 1 {
                if self.stack[k].branch != taken {
                    // Prediction violated: only possible after an
                    // incompleteness (Theorem 1's invariant) — abort the
                    // run and let the driver restart.
                    self.diverged = true;
                }
            } else {
                // Reached the flipped conditional: record what actually
                // happened and mark both sides explored.
                self.stack[k].branch = taken;
                self.stack[k].done = true;
            }
        } else {
            self.stack.push(BranchRecord::taken(taken));
        }
    }

    /// The paper's Fig. 8 `random_init`: type-directed initialization of
    /// the cell(s) at `addr`, registering every initialized scalar cell as
    /// a symbolic input. Pointers flip a (replayable) coin between NULL and
    /// a fresh heap object, recursively initialized — so unbounded
    /// structures like lists arise with geometric size.
    ///
    /// `name` formats the cell's label (`p`, `p.next`, `*p`, `a[2]`, ...).
    /// It runs only when a cell takes a fresh tape slot, which is the only
    /// place a label is kept; a replayed run formats none.
    pub fn random_init(
        &mut self,
        mem: &mut Memory,
        addr: i64,
        ty: &Type,
        name: &dyn Fn() -> String,
        depth: u32,
    ) {
        // Types live in the program, not in `self`: borrowing them from
        // `compiled` leaves `self` free to mutate.
        let compiled: &'p CompiledProgram = self.compiled;
        match ty {
            Type::Int | Type::Char | Type::Void => {
                let (var, val) = self.tape.take(InputKind::IntLike, name);
                let _ = mem.store(addr, val);
                self.sym.bind(addr, var);
            }
            Type::Ptr(pointee) => {
                let (var, raw) = self.tape.take(InputKind::Pointer, name);
                if raw != 0 && depth < self.max_ptr_depth {
                    let words = compiled.types.size_of(pointee).max(1) as i64;
                    let base = mem.alloc_heap(words);
                    let _ = mem.store(addr, base);
                    self.tape.record_value(var, base);
                    self.sym.bind(addr, var);
                    self.init_pointee(mem, base, pointee, name, depth + 1);
                } else {
                    if raw != 0 {
                        self.init_truncated = true;
                    }
                    let _ = mem.store(addr, 0);
                    self.tape.record_value(var, 0);
                    self.sym.bind(addr, var);
                }
            }
            Type::Struct(id) => {
                for f in &compiled.types.info(*id).fields {
                    let fname = || format!("{}.{}", name(), f.name);
                    self.random_init(mem, addr + f.offset as i64, &f.ty, &fname, depth);
                }
            }
            Type::Array(elem, n) => {
                let sz = compiled.types.size_of(elem).max(1) as i64;
                for i in 0..*n {
                    let ename = || format!("{}[{i}]", name());
                    self.random_init(mem, addr + i as i64 * sz, elem, &ename, depth);
                }
            }
        }
    }

    /// Initializes a freshly allocated pointee. `void` pointees get a
    /// single integer-like input cell.
    fn init_pointee(
        &mut self,
        mem: &mut Memory,
        base: i64,
        pointee: &Type,
        name: &dyn Fn() -> String,
        depth: u32,
    ) {
        let deref_name = || format!("*{}", name());
        match pointee {
            Type::Void => self.random_init(mem, base, &Type::Int, &deref_name, depth),
            other => self.random_init(mem, base, other, &deref_name, depth),
        }
    }
}

impl Environment for RunCtx<'_> {
    /// External function call: return a fresh input of the declared return
    /// type (paper §3.2: simulated externals return "a random value of the
    /// function's return type"). Pointer returns allocate fresh objects —
    /// never previously-defined memory (§3.4).
    fn external_value(&mut self, ext: ExtId, mem: &mut Memory) -> i64 {
        let compiled = self.compiled;
        let (name, ret) = match compiled.extern_fns.iter().find(|f| f.ext == ext) {
            Some(f) => (f.name.as_str(), &f.ret),
            None => ("<unknown>", &Type::Int),
        };
        let n = self.tape.consumed();
        let label = || format!("ret of {name}() #{n}");
        match ret {
            Type::Ptr(pointee) => {
                let (var, raw) = self.tape.take(InputKind::Pointer, label);
                let value = if raw != 0 {
                    let words = compiled.types.size_of(pointee).max(1) as i64;
                    let base = mem.alloc_heap(words);
                    self.init_pointee(mem, base, pointee, &label, 0);
                    base
                } else {
                    0
                };
                self.tape.record_value(var, value);
                self.pending_ext = Some(var);
                value
            }
            _ => {
                let (var, val) = self.tape.take(InputKind::IntLike, label);
                self.pending_ext = Some(var);
                val
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_solver::{LinExpr, RelOp};

    fn ctx_with(src: &'static str) -> RunCtx<'static> {
        let compiled = Box::leak(Box::new(dart_minic::compile(src).unwrap()));
        RunCtx::new(compiled, InputTape::new(99), Vec::new(), 32)
    }

    fn dummy_constraint(k: i64) -> Constraint {
        Constraint::new(LinExpr::var(Var(0)).offset(-k), RelOp::Eq)
    }

    #[test]
    fn observe_extends_stack() {
        let mut ctx = ctx_with("int f(int x) { return x; }");
        ctx.observe_branch(true, dummy_constraint(1));
        ctx.observe_branch(false, dummy_constraint(2));
        assert_eq!(ctx.stack.len(), 2);
        assert!(ctx.stack[0].branch);
        assert!(!ctx.stack[0].done);
        assert!(!ctx.diverged);
        assert_eq!(ctx.path.len(), 2);
    }

    #[test]
    fn observe_detects_divergence() {
        let mut ctx = ctx_with("int f(int x) { return x; }");
        ctx.stack = vec![BranchRecord::taken(true), BranchRecord::taken(false)];
        ctx.observe_branch(false, dummy_constraint(1)); // mismatch at k=0 (< last)
        assert!(ctx.diverged);
    }

    #[test]
    fn observe_marks_last_done() {
        let mut ctx = ctx_with("int f(int x) { return x; }");
        ctx.stack = vec![BranchRecord::taken(true), BranchRecord::taken(false)];
        ctx.observe_branch(true, dummy_constraint(1));
        assert!(!ctx.diverged);
        // Reaching the last predicted conditional records and completes it.
        ctx.observe_branch(true, dummy_constraint(2));
        assert!(!ctx.diverged);
        assert!(ctx.stack[1].done);
        assert!(ctx.stack[1].branch);
    }

    #[test]
    fn random_init_scalar_binds_input() {
        let mut ctx = ctx_with("int f(int x) { return x; }");
        let mut mem = Memory::new(4, 1 << 20);
        ctx.random_init(
            &mut mem,
            dart_ram::GLOBAL_BASE,
            &Type::Int,
            &|| "g".into(),
            0,
        );
        assert_eq!(ctx.tape.len(), 1);
        assert!(ctx.sym.get(dart_ram::GLOBAL_BASE).is_some());
        let stored = mem.load(dart_ram::GLOBAL_BASE).unwrap();
        assert_eq!(ctx.tape.value_of(Var(0)), Some(stored));
    }

    #[test]
    fn random_init_struct_initializes_all_fields() {
        let mut ctx = ctx_with("struct s { int a; int b; int c; }; int f() { return 0; }");
        let id = ctx.compiled.types.id_of("s").unwrap();
        let mut mem = Memory::new(8, 1 << 20);
        ctx.random_init(
            &mut mem,
            dart_ram::GLOBAL_BASE,
            &Type::Struct(id),
            &|| "s".into(),
            0,
        );
        assert_eq!(ctx.tape.len(), 3);
    }

    #[test]
    fn random_init_pointer_allocates_or_nulls() {
        let mut ctx = ctx_with("int f(int x) { return x; }");
        let mut mem = Memory::new(64, 1 << 20);
        let mut saw_null = false;
        let mut saw_alloc = false;
        for i in 0..32 {
            let addr = dart_ram::GLOBAL_BASE + i;
            ctx.random_init(&mut mem, addr, &Type::Int.ptr_to(), &|| "p".into(), 0);
            let v = mem.load(addr).unwrap();
            if v == 0 {
                saw_null = true;
            } else {
                saw_alloc = true;
                // The pointee cell was initialized and is readable.
                assert!(mem.load(v).is_ok());
            }
        }
        assert!(saw_null && saw_alloc);
    }

    #[test]
    fn random_init_recursive_type_terminates() {
        let mut ctx = ctx_with("struct node { int v; struct node *next; }; int f() { return 0; }");
        let id = ctx.compiled.types.id_of("node").unwrap();
        let mut mem = Memory::new(8, 1 << 20);
        // A linked list arises with geometric length; depth cap guarantees
        // termination regardless.
        ctx.max_ptr_depth = 8;
        ctx.random_init(
            &mut mem,
            dart_ram::GLOBAL_BASE,
            &Type::Struct(id).ptr_to(),
            &|| "head".into(),
            0,
        );
        // Walk the list.
        let mut cur = mem.load(dart_ram::GLOBAL_BASE).unwrap();
        let mut len = 0;
        while cur != 0 {
            len += 1;
            assert!(len <= 9, "depth cap must bound the list");
            cur = mem.load(cur + 1).unwrap();
        }
    }

    #[test]
    fn replayed_pointer_value_reallocates() {
        let mut ctx = ctx_with("int f(int x) { return x; }");
        let mut mem = Memory::new(4, 1 << 20);
        // Force a non-null pointer by retrying seeds... instead replay:
        // materialize once, then rewind and replay into fresh memory.
        ctx.random_init(
            &mut mem,
            dart_ram::GLOBAL_BASE,
            &Type::Int.ptr_to(),
            &|| "p".into(),
            0,
        );
        let first = mem.load(dart_ram::GLOBAL_BASE).unwrap();
        ctx.tape.rewind();
        let mut mem2 = Memory::new(4, 1 << 20);
        ctx.random_init(
            &mut mem2,
            dart_ram::GLOBAL_BASE,
            &Type::Int.ptr_to(),
            &|| "p".into(),
            0,
        );
        let second = mem2.load(dart_ram::GLOBAL_BASE).unwrap();
        // Nullness replays exactly (fresh memory allocates deterministically).
        assert_eq!(first == 0, second == 0);
    }
}
