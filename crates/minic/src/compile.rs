//! The MiniC → RAM-machine compiler.
//!
//! Lowers the AST to the flat statement array of [`dart_ram::Program`]:
//! locals and parameters become frame slots, globals become fixed offsets
//! from [`dart_ram::GLOBAL_BASE`], control flow becomes conditional gotos
//! whose conditions keep their comparison shape (so the concolic layer can
//! extract branch predicates), `&&`/`||`/`?:` compile to short-circuit
//! branches, and calls to *undefined* functions compile to
//! [`Statement::CallExternal`] — the paper's §3.1 interface definition:
//! "external functions (reported as undefined reference at the time of
//! compilation)".

use crate::ast::{self, AssignOp, BinaryOp, Declarator, Expr, Item, Stmt, TypeAst, UnaryOp};
use crate::diag::CompileError;
use crate::parser::parse;
use crate::token::Pos;
use crate::types::{Field, StructId, StructInfo, Type, TypeTable};
use dart_ram::{
    AllocKind, BinOp, Expr as RExpr, ExtId, External, FuncId, Function, Program, Statement, UnOp,
    GLOBAL_BASE,
};
use std::collections::HashMap;

/// Signature of a compiled (defined) function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// Source name.
    pub name: String,
    /// RAM function id.
    pub id: FuncId,
    /// Parameter names and types.
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub ret: Type,
}

/// An `extern` variable — part of the program's external interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternVar {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Offset in the globals region, in words.
    pub offset: u32,
}

/// An external function — part of the program's external interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternFn {
    /// Source name.
    pub name: String,
    /// Declared (or implied `int`) return type.
    pub ret: Type,
    /// RAM external id.
    pub ext: ExtId,
}

/// The result of compiling a MiniC translation unit: the executable RAM
/// program plus everything the DART driver needs — struct layouts for
/// `random_init`, function signatures for toplevel selection, and the
/// extracted external interface (§3.1).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The executable RAM program.
    pub program: Program,
    /// Struct layouts.
    pub types: TypeTable,
    /// Defined functions.
    pub functions: Vec<FnSig>,
    /// `extern` variables (inputs).
    pub extern_vars: Vec<ExternVar>,
    /// External functions (input sources).
    pub extern_fns: Vec<ExternFn>,
    /// Constant global initializers, `(word offset, value)` — the driver
    /// writes these at the start of every run.
    pub global_inits: Vec<(u32, i64)>,
}

impl CompiledProgram {
    /// Looks up a defined function's signature by name.
    pub fn fn_sig(&self, name: &str) -> Option<&FnSig> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Parses and compiles MiniC source.
///
/// # Errors
///
/// Returns the first lexing, parsing, or semantic error, including input
/// nested deeper than [`MAX_NESTING`](crate::parser::MAX_NESTING).
///
/// # Examples
///
/// ```
/// let compiled = dart_minic::compile("int inc(int x) { return x + 1; }")?;
/// assert_eq!(compiled.functions[0].name, "inc");
/// # Ok::<(), dart_minic::CompileError>(())
/// ```
pub fn compile(src: &str) -> Result<CompiledProgram, CompileError> {
    compile_unit(&parse(src)?)
}

/// Compiles a parsed [`ast::Unit`].
///
/// # Errors
///
/// Returns the first semantic error (unknown names, bad types, recursive
/// struct values, non-constant global initializers, …).
pub fn compile_unit(unit: &ast::Unit) -> Result<CompiledProgram, CompileError> {
    let types = build_type_table(unit)?;
    let mut cc = Compiler::new(types);
    cc.collect_globals(unit)?;
    cc.collect_functions(unit)?;
    cc.compile_bodies(unit)?;
    cc.finish()
}

// ---------------------------------------------------------------------
// Struct layout
// ---------------------------------------------------------------------

/// A struct definition as parsed: name, `(type, declarator)` fields, pos.
type RawStructDef<'a> = (&'a String, &'a Vec<(TypeAst, Declarator)>, Pos);
/// A struct definition with field types resolved.
type ResolvedStructDef = (String, Vec<(String, Type)>, Pos);

fn build_type_table(unit: &ast::Unit) -> Result<TypeTable, CompileError> {
    // Pass 1: reserve ids so self-referential pointers resolve.
    let mut ids: HashMap<String, StructId> = HashMap::new();
    let mut defs: Vec<RawStructDef> = Vec::new();
    for item in &unit.items {
        if let Item::StructDef { name, fields, pos } = item {
            if ids.contains_key(name) {
                return Err(CompileError::new(
                    format!("duplicate struct `{name}`"),
                    *pos,
                ));
            }
            ids.insert(name.clone(), StructId(ids.len() as u32));
            defs.push((name, fields, *pos));
        }
    }

    // Pass 2: resolve field types.
    let mut resolved: Vec<ResolvedStructDef> = Vec::new();
    for (name, fields, pos) in &defs {
        let mut fs = Vec::new();
        for (tast, d) in fields.iter() {
            if !d.array_dims.is_empty() && d.ptr_depth == 0 && *tast == TypeAst::Void {
                return Err(CompileError::new("void field", *pos));
            }
            let ty = resolve_type(tast, d.ptr_depth, &d.array_dims, &ids, *pos)?;
            fs.push((d.name.clone(), ty));
        }
        resolved.push(((*name).clone(), fs, *pos));
    }

    // Pass 3: compute sizes with cycle detection (a struct containing
    // itself by value has infinite size).
    fn size_of(
        ty: &Type,
        resolved: &[ResolvedStructDef],
        visiting: &mut Vec<u32>,
        memo: &mut HashMap<u32, u32>,
    ) -> Result<u32, String> {
        Ok(match ty {
            Type::Int | Type::Char | Type::Ptr(_) => 1,
            Type::Void => return Err("field of type void".into()),
            Type::Array(t, n) => size_of(t, resolved, visiting, memo)? * (*n as u32),
            Type::Struct(StructId(i)) => {
                if let Some(&s) = memo.get(i) {
                    return Ok(s);
                }
                if visiting.contains(i) {
                    return Err(format!(
                        "struct `{}` recursively contains itself by value",
                        resolved[*i as usize].0
                    ));
                }
                visiting.push(*i);
                let mut total = 0;
                for (_, fty) in &resolved[*i as usize].1 {
                    total += size_of(fty, resolved, visiting, memo)?;
                }
                visiting.pop();
                memo.insert(*i, total);
                total
            }
        })
    }

    let mut table = TypeTable::new();
    let mut memo = HashMap::new();
    for (i, (name, fields, pos)) in resolved.iter().enumerate() {
        let mut offset = 0;
        let mut laid = Vec::new();
        for (fname, fty) in fields {
            let sz = size_of(fty, &resolved, &mut Vec::new(), &mut memo)
                .map_err(|m| CompileError::new(m, *pos))?;
            laid.push(Field {
                name: fname.clone(),
                ty: fty.clone(),
                offset,
            });
            offset += sz;
        }
        let _ = size_of(
            &Type::Struct(StructId(i as u32)),
            &resolved,
            &mut Vec::new(),
            &mut memo,
        )
        .map_err(|m| CompileError::new(m, *pos))?;
        table.insert(StructInfo {
            name: name.clone(),
            fields: laid,
            size_words: offset,
        });
    }
    Ok(table)
}

fn resolve_type(
    tast: &TypeAst,
    ptr_depth: u32,
    array_dims: &[usize],
    struct_ids: &HashMap<String, StructId>,
    pos: Pos,
) -> Result<Type, CompileError> {
    let mut ty = match tast {
        TypeAst::Int => Type::Int,
        TypeAst::Char => Type::Char,
        TypeAst::Void => Type::Void,
        TypeAst::Struct(name) => match struct_ids.get(name) {
            Some(id) => Type::Struct(*id),
            None => return Err(CompileError::new(format!("unknown struct `{name}`"), pos)),
        },
    };
    for _ in 0..ptr_depth {
        ty = ty.ptr_to();
    }
    if ty == Type::Void && !array_dims.is_empty() {
        return Err(CompileError::new("array of void", pos));
    }
    for &n in array_dims.iter().rev() {
        ty = Type::Array(Box::new(ty), n);
    }
    Ok(ty)
}

// ---------------------------------------------------------------------
// Compiler state
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct GlobalInfo {
    ty: Type,
    offset: u32,
}

#[derive(Debug, Clone, Copy)]
enum Callee {
    Defined(FuncId),
    External(ExtId),
}

struct Compiler {
    types: TypeTable,
    stmts: Vec<Statement>,
    funcs: Vec<Function>,
    externals: Vec<External>,
    fn_sigs: Vec<FnSig>,
    extern_fns: Vec<ExternFn>,
    extern_vars: Vec<ExternVar>,
    globals: HashMap<String, GlobalInfo>,
    global_words: u32,
    global_names: Vec<(String, u32)>,
    global_inits: Vec<(u32, i64)>,
    fn_by_name: HashMap<String, Callee>,
}

/// Per-function compilation context.
struct FnCtx {
    /// Lexical scopes: name → (slot offset, type).
    scopes: Vec<HashMap<String, (u32, Type)>>,
    next_slot: u32,
    max_slot: u32,
    ret: Type,
    /// Break/continue patch lists per enclosing breakable construct.
    /// `continues` is `None` for `switch` frames (`continue` skips them).
    loops: Vec<(Vec<usize>, Option<Vec<usize>>)>,
}

impl FnCtx {
    fn lookup(&self, name: &str) -> Option<(u32, Type)> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn declare(&mut self, name: &str, ty: Type, words: u32) -> u32 {
        let slot = self.next_slot;
        self.next_slot += words;
        self.max_slot = self.max_slot.max(self.next_slot);
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), (slot, ty));
        slot
    }

    fn alloc_temp(&mut self) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        slot
    }
}

/// Placeholder label patched once the target is known.
const UNPATCHED: usize = usize::MAX;

impl Compiler {
    fn new(types: TypeTable) -> Compiler {
        Compiler {
            types,
            stmts: Vec::new(),
            funcs: Vec::new(),
            externals: Vec::new(),
            fn_sigs: Vec::new(),
            extern_fns: Vec::new(),
            extern_vars: Vec::new(),
            globals: HashMap::new(),
            global_words: 0,
            global_names: Vec::new(),
            global_inits: Vec::new(),
            fn_by_name: HashMap::new(),
        }
    }

    fn collect_globals(&mut self, unit: &ast::Unit) -> Result<(), CompileError> {
        let ids = {
            // Build the struct-name map once from the unit (cheaper and
            // panic-free compared to probing the table).
            let mut m = HashMap::new();
            for item in &unit.items {
                if let Item::StructDef { name, .. } = item {
                    m.insert(name.clone(), StructId(m.len() as u32));
                }
            }
            m
        };
        for item in &unit.items {
            if let Item::Global {
                ty,
                decl,
                init,
                is_extern,
                pos,
            } = item
            {
                if self.globals.contains_key(&decl.name) {
                    return Err(CompileError::new(
                        format!("duplicate global `{}`", decl.name),
                        *pos,
                    ));
                }
                let rty = resolve_type(ty, decl.ptr_depth, &decl.array_dims, &ids, *pos)?;
                if rty == Type::Void {
                    return Err(CompileError::new("void variable", *pos));
                }
                let words = self.types.size_of(&rty);
                let offset = self.global_words;
                self.global_words += words;
                self.global_names.push((decl.name.clone(), offset));
                self.globals.insert(
                    decl.name.clone(),
                    GlobalInfo {
                        ty: rty.clone(),
                        offset,
                    },
                );
                if *is_extern {
                    self.extern_vars.push(ExternVar {
                        name: decl.name.clone(),
                        ty: rty,
                        offset,
                    });
                } else if let Some(e) = init {
                    let v = const_eval(e, &self.types, &ids)?;
                    self.global_inits.push((offset, v));
                }
            }
        }
        Ok(())
    }

    fn collect_functions(&mut self, unit: &ast::Unit) -> Result<(), CompileError> {
        let ids = {
            let mut m = HashMap::new();
            for item in &unit.items {
                if let Item::StructDef { name, .. } = item {
                    m.insert(name.clone(), StructId(m.len() as u32));
                }
            }
            m
        };
        // Pass A: definitions become FuncIds.
        for item in &unit.items {
            if let Item::Func {
                ret,
                ret_ptr,
                name,
                params,
                body: Some(_),
                pos,
                ..
            } = item
            {
                if self.fn_by_name.contains_key(name) {
                    return Err(CompileError::new(
                        format!("duplicate function `{name}`"),
                        *pos,
                    ));
                }
                let rty = resolve_type(ret, *ret_ptr, &[], &ids, *pos)?;
                let mut ps = Vec::new();
                for (pt, pd) in params {
                    let mut pty = resolve_type(pt, pd.ptr_depth, &pd.array_dims, &ids, *pos)?;
                    // Array parameters decay to pointers (C semantics).
                    if let Type::Array(elem, _) = pty {
                        pty = Type::Ptr(elem);
                    }
                    if matches!(pty, Type::Struct(_)) || self.types.size_of(&pty) != 1 {
                        return Err(CompileError::new(
                            format!(
                                "parameter `{}` of `{name}` must be scalar or pointer \
                                 (pass structs by pointer)",
                                pd.name
                            ),
                            *pos,
                        ));
                    }
                    ps.push((pd.name.clone(), pty));
                }
                let id = FuncId(self.funcs.len() as u32);
                self.funcs.push(Function {
                    name: name.clone(),
                    entry: 0, // patched when the body is compiled
                    frame_words: 0,
                    num_params: ps.len() as u32,
                });
                self.fn_sigs.push(FnSig {
                    name: name.clone(),
                    id,
                    params: ps,
                    ret: rty,
                });
                self.fn_by_name.insert(name.clone(), Callee::Defined(id));
            }
        }
        // Pass B: declarations without definitions become externals.
        for item in &unit.items {
            if let Item::Func {
                ret,
                ret_ptr,
                name,
                body: None,
                pos,
                ..
            } = item
            {
                if self.fn_by_name.contains_key(name) {
                    continue; // forward declaration of a defined function
                }
                let rty = resolve_type(ret, *ret_ptr, &[], &ids, *pos)?;
                self.register_external(name, rty);
            }
        }
        Ok(())
    }

    fn register_external(&mut self, name: &str, ret: Type) -> ExtId {
        let ext = ExtId(self.externals.len() as u32);
        self.externals.push(External { name: name.into() });
        self.extern_fns.push(ExternFn {
            name: name.into(),
            ret,
            ext,
        });
        self.fn_by_name
            .insert(name.to_string(), Callee::External(ext));
        ext
    }

    fn compile_bodies(&mut self, unit: &ast::Unit) -> Result<(), CompileError> {
        let ids = {
            let mut m = HashMap::new();
            for item in &unit.items {
                if let Item::StructDef { name, .. } = item {
                    m.insert(name.clone(), StructId(m.len() as u32));
                }
            }
            m
        };
        for item in &unit.items {
            if let Item::Func {
                name,
                body: Some(body),
                pos,
                ..
            } = item
            {
                let Callee::Defined(id) = self.fn_by_name[name] else {
                    unreachable!("defined functions registered in pass A")
                };
                let sig = self.fn_sigs[id.0 as usize].clone();
                let entry = self.stmts.len();
                let mut ctx = FnCtx {
                    scopes: vec![HashMap::new()],
                    next_slot: 0,
                    max_slot: 0,
                    ret: sig.ret.clone(),
                    loops: Vec::new(),
                };
                for (pname, pty) in &sig.params {
                    ctx.declare(pname, pty.clone(), 1);
                }
                for s in body {
                    self.compile_stmt(s, &mut ctx, &ids)?;
                }
                // Fall-off-the-end return.
                let falloff = if ctx.ret == Type::Void {
                    Statement::Ret { value: None }
                } else {
                    Statement::Ret {
                        value: Some(RExpr::Const(0)),
                    }
                };
                self.stmts.push(falloff);
                let f = &mut self.funcs[id.0 as usize];
                f.entry = entry;
                f.frame_words = ctx.max_slot.max(sig.params.len() as u32);
                let _ = pos;
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<CompiledProgram, CompileError> {
        let program = Program {
            stmts: self.stmts,
            funcs: self.funcs,
            externals: self.externals,
            global_words: self.global_words,
            global_names: self.global_names,
        };
        program
            .validate()
            .map_err(|e| CompileError::new(format!("internal: {e}"), Pos::default()))?;
        Ok(CompiledProgram {
            program,
            types: self.types,
            functions: self.fn_sigs,
            extern_vars: self.extern_vars,
            extern_fns: self.extern_fns,
            global_inits: self.global_inits,
        })
    }

    // ----- statement compilation -----

    fn emit(&mut self, s: Statement) -> usize {
        self.stmts.push(s);
        self.stmts.len() - 1
    }

    fn here(&self) -> usize {
        self.stmts.len()
    }

    fn patch(&mut self, at: usize, target: usize) {
        match &mut self.stmts[at] {
            Statement::If { target: t, .. } | Statement::Goto(t) => {
                debug_assert_eq!(*t, UNPATCHED, "double patch");
                *t = target;
            }
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn compile_stmt(
        &mut self,
        s: &Stmt,
        ctx: &mut FnCtx,
        ids: &HashMap<String, StructId>,
    ) -> Result<(), CompileError> {
        match s {
            Stmt::Block(stmts) => {
                ctx.scopes.push(HashMap::new());
                let wm = ctx.next_slot;
                for s in stmts {
                    self.compile_stmt(s, ctx, ids)?;
                }
                ctx.scopes.pop();
                ctx.next_slot = wm;
                Ok(())
            }
            Stmt::Decl {
                ty,
                decl,
                init,
                pos,
            } => {
                let rty = resolve_type(ty, decl.ptr_depth, &decl.array_dims, ids, *pos)?;
                if rty == Type::Void {
                    return Err(CompileError::new("void variable", *pos));
                }
                let words = self.types.size_of(&rty);
                let slot = ctx.declare(&decl.name, rty.clone(), words);
                if let Some(e) = init {
                    let wm = ctx.next_slot;
                    let (val, _vt) = self.compile_value(e, ctx, ids)?;
                    self.emit(Statement::Assign {
                        dst: RExpr::frame_slot(slot),
                        src: val,
                    });
                    ctx.next_slot = wm;
                }
                Ok(())
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                let wm = ctx.next_slot;
                let (t_patches, f_patches) = self.compile_branch(cond, ctx, ids)?;
                ctx.next_slot = wm;
                let then_start = self.here();
                for p in t_patches {
                    self.patch(p, then_start);
                }
                self.compile_stmt(then, ctx, ids)?;
                match els {
                    Some(els) => {
                        let skip = self.emit(Statement::Goto(UNPATCHED));
                        let else_start = self.here();
                        for p in f_patches {
                            self.patch(p, else_start);
                        }
                        self.compile_stmt(els, ctx, ids)?;
                        let end = self.here();
                        self.patch(skip, end);
                    }
                    None => {
                        let end = self.here();
                        for p in f_patches {
                            self.patch(p, end);
                        }
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let cond_start = self.here();
                let wm = ctx.next_slot;
                let (t_patches, f_patches) = self.compile_branch(cond, ctx, ids)?;
                ctx.next_slot = wm;
                let body_start = self.here();
                for p in t_patches {
                    self.patch(p, body_start);
                }
                ctx.loops.push((Vec::new(), Some(Vec::new())));
                self.compile_stmt(body, ctx, ids)?;
                self.emit(Statement::Goto(cond_start));
                let end = self.here();
                for p in f_patches {
                    self.patch(p, end);
                }
                let (brs, conts) = ctx.loops.pop().expect("pushed above");
                for p in brs {
                    self.patch(p, end);
                }
                for p in conts.expect("loop frame") {
                    self.patch(p, cond_start);
                }
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let body_start = self.here();
                ctx.loops.push((Vec::new(), Some(Vec::new())));
                self.compile_stmt(body, ctx, ids)?;
                let cond_start = self.here();
                let wm = ctx.next_slot;
                let (t_patches, f_patches) = self.compile_branch(cond, ctx, ids)?;
                ctx.next_slot = wm;
                for p in t_patches {
                    self.patch(p, body_start);
                }
                let end = self.here();
                for p in f_patches {
                    self.patch(p, end);
                }
                let (brs, conts) = ctx.loops.pop().expect("pushed above");
                for p in brs {
                    self.patch(p, end);
                }
                for p in conts.expect("loop frame") {
                    self.patch(p, cond_start);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                ctx.scopes.push(HashMap::new());
                let outer_wm = ctx.next_slot;
                if let Some(init) = init {
                    self.compile_stmt(init, ctx, ids)?;
                }
                let cond_start = self.here();
                let (t_patches, f_patches) = match cond {
                    Some(c) => {
                        let wm = ctx.next_slot;
                        let r = self.compile_branch(c, ctx, ids)?;
                        ctx.next_slot = wm;
                        r
                    }
                    None => (Vec::new(), Vec::new()),
                };
                let body_start = self.here();
                for p in t_patches {
                    self.patch(p, body_start);
                }
                ctx.loops.push((Vec::new(), Some(Vec::new())));
                self.compile_stmt(body, ctx, ids)?;
                let step_start = self.here();
                if let Some(step) = step {
                    self.compile_stmt(step, ctx, ids)?;
                }
                self.emit(Statement::Goto(cond_start));
                let end = self.here();
                for p in f_patches {
                    self.patch(p, end);
                }
                let (brs, conts) = ctx.loops.pop().expect("pushed above");
                for p in brs {
                    self.patch(p, end);
                }
                for p in conts.expect("loop frame") {
                    self.patch(p, step_start);
                }
                ctx.scopes.pop();
                ctx.next_slot = outer_wm;
                Ok(())
            }
            Stmt::Return(v, _) => {
                let wm = ctx.next_slot;
                let value = match v {
                    Some(e) => {
                        let (val, _) = self.compile_value(e, ctx, ids)?;
                        Some(val)
                    }
                    None => {
                        if ctx.ret == Type::Void {
                            None
                        } else {
                            Some(RExpr::Const(0))
                        }
                    }
                };
                self.emit(Statement::Ret { value });
                ctx.next_slot = wm;
                Ok(())
            }
            Stmt::Break(pos) => {
                let jump = self.emit(Statement::Goto(UNPATCHED));
                match ctx.loops.last_mut() {
                    Some((brs, _)) => {
                        brs.push(jump);
                        Ok(())
                    }
                    None => Err(CompileError::new("`break` outside a loop", *pos)),
                }
            }
            Stmt::Continue(pos) => {
                let jump = self.emit(Statement::Goto(UNPATCHED));
                // `continue` binds to the nearest *loop*, skipping switches.
                match ctx
                    .loops
                    .iter_mut()
                    .rev()
                    .find_map(|(_, conts)| conts.as_mut())
                {
                    Some(conts) => {
                        conts.push(jump);
                        Ok(())
                    }
                    None => Err(CompileError::new("`continue` outside a loop", *pos)),
                }
            }
            Stmt::Assert(e, pos) => {
                let wm = ctx.next_slot;
                let (t_patches, f_patches) = self.compile_branch(e, ctx, ids)?;
                ctx.next_slot = wm;
                let fail = self.here();
                for p in f_patches {
                    self.patch(p, fail);
                }
                self.emit(Statement::Abort {
                    reason: format!("assertion failed at {pos}"),
                });
                let ok = self.here();
                for p in t_patches {
                    self.patch(p, ok);
                }
                Ok(())
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => {
                let wm = ctx.next_slot;
                let (val, _ty) = self.compile_value(scrutinee, ctx, ids)?;
                let tmp = ctx.alloc_temp();
                self.emit(Statement::Assign {
                    dst: RExpr::frame_slot(tmp),
                    src: val,
                });
                // Dispatch: one conditional per case (each `tmp == k` is a
                // linear predicate, so the directed search can force every
                // arm), then a jump to default/end.
                let mut case_jumps = Vec::with_capacity(cases.len());
                for (k, _) in cases {
                    case_jumps.push(self.emit(Statement::If {
                        cond: RExpr::binary(BinOp::Eq, RExpr::local(tmp), RExpr::Const(*k)),
                        target: UNPATCHED,
                    }));
                }
                let miss_jump = self.emit(Statement::Goto(UNPATCHED));
                // Bodies in order; C fallthrough between arms; `break`
                // binds to the switch.
                ctx.loops.push((Vec::new(), None));
                ctx.scopes.push(HashMap::new());
                for (jump, (_, body)) in case_jumps.into_iter().zip(cases) {
                    let here = self.here();
                    self.patch(jump, here);
                    for st in body {
                        self.compile_stmt(st, ctx, ids)?;
                    }
                }
                let default_start = self.here();
                if let Some(body) = default {
                    for st in body {
                        self.compile_stmt(st, ctx, ids)?;
                    }
                }
                self.patch(miss_jump, default_start);
                let end = self.here();
                ctx.scopes.pop();
                let (brs, _conts) = ctx.loops.pop().expect("pushed above");
                for p in brs {
                    self.patch(p, end);
                }
                ctx.next_slot = wm;
                Ok(())
            }
            Stmt::Assume(e, _) => {
                let wm = ctx.next_slot;
                let (t_patches, f_patches) = self.compile_branch(e, ctx, ids)?;
                ctx.next_slot = wm;
                let fail = self.here();
                for p in f_patches {
                    self.patch(p, fail);
                }
                self.emit(Statement::Halt);
                let ok = self.here();
                for p in t_patches {
                    self.patch(p, ok);
                }
                Ok(())
            }
            Stmt::Abort(pos) => {
                self.emit(Statement::Abort {
                    reason: format!("abort() at {pos}"),
                });
                Ok(())
            }
            Stmt::Assign { lhs, op, rhs, pos } => {
                let wm = ctx.next_slot;
                let (addr, lty) = self.compile_addr(lhs, ctx, ids)?;
                if let Type::Struct(_) = lty {
                    // Word-wise struct copy.
                    if *op != AssignOp::Assign {
                        return Err(CompileError::new("compound assignment on struct", *pos));
                    }
                    let (raddr, rty) = self.compile_addr(rhs, ctx, ids)?;
                    if rty != lty {
                        return Err(CompileError::new("struct type mismatch", *pos));
                    }
                    // Pin both addresses in temps (they may involve calls).
                    let lt = ctx.alloc_temp();
                    let rt = ctx.alloc_temp();
                    self.emit(Statement::Assign {
                        dst: RExpr::frame_slot(lt),
                        src: addr,
                    });
                    self.emit(Statement::Assign {
                        dst: RExpr::frame_slot(rt),
                        src: raddr,
                    });
                    let words = self.types.size_of(&lty);
                    for w in 0..words {
                        self.emit(Statement::Assign {
                            dst: RExpr::binary(
                                BinOp::Add,
                                RExpr::local(lt),
                                RExpr::Const(w as i64),
                            ),
                            src: RExpr::load(RExpr::binary(
                                BinOp::Add,
                                RExpr::local(rt),
                                RExpr::Const(w as i64),
                            )),
                        });
                    }
                    ctx.next_slot = wm;
                    return Ok(());
                }
                let (rval, rty) = self.compile_value(rhs, ctx, ids)?;
                let src = match op {
                    AssignOp::Assign => rval,
                    AssignOp::AddAssign | AssignOp::SubAssign => {
                        let bin = if *op == AssignOp::AddAssign {
                            BinOp::Add
                        } else {
                            BinOp::Sub
                        };
                        // Pointer-aware: p += n scales by pointee size.
                        let scaled = self.scale_for_ptr(&lty, rval, &rty);
                        RExpr::binary(bin, RExpr::load(addr.clone()), scaled)
                    }
                };
                self.emit(Statement::Assign { dst: addr, src });
                ctx.next_slot = wm;
                Ok(())
            }
            Stmt::ExprStmt(e, _) => {
                let wm = ctx.next_slot;
                // Evaluate for side effects (calls, ++/--).
                let _ = self.compile_value(e, ctx, ids)?;
                ctx.next_slot = wm;
                Ok(())
            }
        }
    }

    /// If `target_ty` is a pointer, scales `val` (an integer offset) by the
    /// pointee size; otherwise returns it unchanged.
    fn scale_for_ptr(&self, target_ty: &Type, val: RExpr, val_ty: &Type) -> RExpr {
        if let Some(pointee) = target_ty.deref_target() {
            if !val_ty.is_ptr() {
                let sz = self.types.size_of(pointee).max(1);
                if sz != 1 {
                    return RExpr::binary(BinOp::Mul, val, RExpr::Const(sz as i64));
                }
            }
        }
        val
    }

    // ----- branch compilation (short-circuit) -----

    /// Compiles `cond` into branch statements. Returns
    /// `(true_patches, false_patches)`: statement indices whose targets must
    /// be patched to the true/false continuation.
    fn compile_branch(
        &mut self,
        cond: &Expr,
        ctx: &mut FnCtx,
        ids: &HashMap<String, StructId>,
    ) -> Result<(Vec<usize>, Vec<usize>), CompileError> {
        match cond {
            Expr::Binary(BinaryOp::LogAnd, a, b, _) => {
                let (a_true, mut a_false) = self.compile_branch(a, ctx, ids)?;
                let b_start = self.here();
                for p in a_true {
                    self.patch(p, b_start);
                }
                let (b_true, b_false) = self.compile_branch(b, ctx, ids)?;
                a_false.extend(b_false);
                Ok((b_true, a_false))
            }
            Expr::Binary(BinaryOp::LogOr, a, b, _) => {
                let (mut a_true, a_false) = self.compile_branch(a, ctx, ids)?;
                let b_start = self.here();
                for p in a_false {
                    self.patch(p, b_start);
                }
                let (b_true, b_false) = self.compile_branch(b, ctx, ids)?;
                a_true.extend(b_true);
                Ok((a_true, b_false))
            }
            Expr::Unary(UnaryOp::Not, inner, _) => {
                let (t, f) = self.compile_branch(inner, ctx, ids)?;
                Ok((f, t))
            }
            _ => {
                // Keep comparisons intact in the If condition so the
                // concolic layer sees the predicate shape.
                let (val, _ty) = self.compile_value(cond, ctx, ids)?;
                let br = self.emit(Statement::If {
                    cond: val,
                    target: UNPATCHED,
                });
                let fall = self.emit(Statement::Goto(UNPATCHED));
                Ok((vec![br], vec![fall]))
            }
        }
    }

    // ----- expression compilation -----

    /// Compiles an lvalue to an address expression and its object type.
    fn compile_addr(
        &mut self,
        e: &Expr,
        ctx: &mut FnCtx,
        ids: &HashMap<String, StructId>,
    ) -> Result<(RExpr, Type), CompileError> {
        match e {
            Expr::Ident(name, pos) => {
                if let Some((slot, ty)) = ctx.lookup(name) {
                    return Ok((RExpr::frame_slot(slot), ty));
                }
                if let Some(g) = self.globals.get(name) {
                    return Ok((RExpr::Const(GLOBAL_BASE + g.offset as i64), g.ty.clone()));
                }
                Err(CompileError::new(
                    format!("unknown variable `{name}`"),
                    *pos,
                ))
            }
            Expr::Unary(UnaryOp::Deref, inner, pos) => {
                let (val, ty) = self.compile_value(inner, ctx, ids)?;
                match ty.deref_target() {
                    Some(t) => Ok((val, t.clone())),
                    None => Err(CompileError::new(
                        format!("cannot dereference `{}`", self.types.display(&ty)),
                        *pos,
                    )),
                }
            }
            Expr::Index(base, idx, pos) => {
                let (bval, bty) = self.compile_value(base, ctx, ids)?;
                let elem = match bty.deref_target() {
                    Some(t) => t.clone(),
                    None => {
                        return Err(CompileError::new(
                            format!("cannot index `{}`", self.types.display(&bty)),
                            *pos,
                        ))
                    }
                };
                let (ival, _ity) = self.compile_value(idx, ctx, ids)?;
                let sz = self.types.size_of(&elem).max(1);
                let offset = if sz == 1 {
                    ival
                } else {
                    RExpr::binary(BinOp::Mul, ival, RExpr::Const(sz as i64))
                };
                Ok((RExpr::binary(BinOp::Add, bval, offset), elem))
            }
            Expr::Member {
                base,
                field,
                arrow,
                pos,
            } => {
                let (baddr, bty) = if *arrow {
                    let (v, t) = self.compile_value(base, ctx, ids)?;
                    let inner = t.deref_target().cloned().ok_or_else(|| {
                        CompileError::new(
                            format!("`->` on non-pointer `{}`", self.types.display(&t)),
                            *pos,
                        )
                    })?;
                    (v, inner)
                } else {
                    self.compile_addr(base, ctx, ids)?
                };
                let Type::Struct(sid) = bty else {
                    return Err(CompileError::new(
                        format!("member access on `{}`", self.types.display(&bty)),
                        *pos,
                    ));
                };
                let info = self.types.info(sid);
                let f = info.field(field).ok_or_else(|| {
                    CompileError::new(
                        format!("struct `{}` has no field `{field}`", info.name),
                        *pos,
                    )
                })?;
                let fty = f.ty.clone();
                let off = f.offset;
                let addr = if off == 0 {
                    baddr
                } else {
                    RExpr::binary(BinOp::Add, baddr, RExpr::Const(off as i64))
                };
                Ok((addr, fty))
            }
            Expr::Cast {
                ty,
                ptr_depth,
                expr,
                pos,
            } => {
                // Cast of an lvalue: same address, reinterpreted type.
                let (addr, _t) = self.compile_addr(expr, ctx, ids)?;
                let rty = resolve_type(ty, *ptr_depth, &[], ids, *pos)?;
                Ok((addr, rty))
            }
            other => Err(CompileError::new(
                "expression is not an lvalue",
                other.pos(),
            )),
        }
    }

    /// Compiles an expression to a (pure) value expression and its type,
    /// emitting statements for any embedded side effects (calls, `++`).
    fn compile_value(
        &mut self,
        e: &Expr,
        ctx: &mut FnCtx,
        ids: &HashMap<String, StructId>,
    ) -> Result<(RExpr, Type), CompileError> {
        match e {
            Expr::IntLit(v, _) => Ok((RExpr::Const(*v), Type::Int)),
            Expr::Null(_) => Ok((RExpr::Const(0), Type::Void.ptr_to())),
            Expr::SizeofType { ty, ptr_depth, pos } => {
                let rty = resolve_type(ty, *ptr_depth, &[], ids, *pos)?;
                Ok((RExpr::Const(self.types.size_of(&rty) as i64), Type::Int))
            }
            Expr::Ident(_, _) | Expr::Member { .. } | Expr::Index(_, _, _) => {
                let (addr, ty) = self.compile_addr(e, ctx, ids)?;
                match ty {
                    // Arrays decay to a pointer to their first element.
                    Type::Array(elem, _) => Ok((addr, Type::Ptr(elem))),
                    Type::Struct(_) => Ok((addr, ty)), // struct value = its address
                    _ => Ok((RExpr::load(addr), ty)),
                }
            }
            Expr::Unary(UnaryOp::Deref, _, _) => {
                let (addr, ty) = self.compile_addr(e, ctx, ids)?;
                match ty {
                    Type::Array(elem, _) => Ok((addr, Type::Ptr(elem))),
                    Type::Struct(_) => Ok((addr, ty)),
                    _ => Ok((RExpr::load(addr), ty)),
                }
            }
            Expr::Unary(UnaryOp::AddrOf, inner, _) => {
                let (addr, ty) = self.compile_addr(inner, ctx, ids)?;
                Ok((addr, ty.ptr_to()))
            }
            Expr::Unary(op, inner, _) => {
                let (val, ty) = self.compile_value(inner, ctx, ids)?;
                let rop = match op {
                    UnaryOp::Neg => UnOp::Neg,
                    UnaryOp::Not => UnOp::Not,
                    UnaryOp::BitNot => UnOp::BitNot,
                    UnaryOp::Deref | UnaryOp::AddrOf => unreachable!("handled above"),
                };
                let out_ty = if *op == UnaryOp::Not { Type::Int } else { ty };
                Ok((RExpr::unary(rop, val), out_ty))
            }
            Expr::Binary(BinaryOp::LogAnd | BinaryOp::LogOr, _, _, _)
            | Expr::Ternary(_, _, _, _) => self.compile_branchy_value(e, ctx, ids),
            Expr::Binary(op, l, r, pos) => {
                let (lv, lt) = self.compile_value(l, ctx, ids)?;
                let (rv, rt) = self.compile_value(r, ctx, ids)?;
                self.compile_binop(*op, lv, lt, rv, rt, *pos)
            }
            Expr::Call { name, args, pos } => self.compile_call(name, args, *pos, ctx, ids),
            Expr::Cast {
                ty,
                ptr_depth,
                expr,
                pos,
            } => {
                let (val, _vt) = self.compile_value(expr, ctx, ids)?;
                let rty = resolve_type(ty, *ptr_depth, &[], ids, *pos)?;
                Ok((val, rty))
            }
            Expr::Malloc(size, _) | Expr::Alloca(size, _) => {
                let kind = if matches!(e, Expr::Malloc(_, _)) {
                    AllocKind::Heap
                } else {
                    AllocKind::Stack
                };
                let (sz, _t) = self.compile_value(size, ctx, ids)?;
                let tmp = ctx.alloc_temp();
                self.emit(Statement::Alloc {
                    dst: RExpr::frame_slot(tmp),
                    size: sz,
                    kind,
                });
                Ok((RExpr::local(tmp), Type::Void.ptr_to()))
            }
            Expr::IncDec {
                target,
                inc,
                postfix,
                ..
            } => {
                let (addr, ty) = self.compile_addr(target, ctx, ids)?;
                let delta: i64 = if ty.is_ptr() {
                    self.types
                        .size_of(ty.deref_target().unwrap_or(&Type::Int))
                        .max(1) as i64
                } else {
                    1
                };
                let step = if *inc { delta } else { -delta };
                if *postfix {
                    let tmp = ctx.alloc_temp();
                    self.emit(Statement::Assign {
                        dst: RExpr::frame_slot(tmp),
                        src: RExpr::load(addr.clone()),
                    });
                    self.emit(Statement::Assign {
                        dst: addr,
                        src: RExpr::binary(BinOp::Add, RExpr::local(tmp), RExpr::Const(step)),
                    });
                    Ok((RExpr::local(tmp), ty))
                } else {
                    self.emit(Statement::Assign {
                        dst: addr.clone(),
                        src: RExpr::binary(
                            BinOp::Add,
                            RExpr::load(addr.clone()),
                            RExpr::Const(step),
                        ),
                    });
                    Ok((RExpr::load(addr), ty))
                }
            }
        }
    }

    fn compile_binop(
        &mut self,
        op: BinaryOp,
        lv: RExpr,
        lt: Type,
        rv: RExpr,
        rt: Type,
        pos: Pos,
    ) -> Result<(RExpr, Type), CompileError> {
        use BinaryOp as B;
        let rop = match op {
            B::Add => BinOp::Add,
            B::Sub => BinOp::Sub,
            B::Mul => BinOp::Mul,
            B::Div => BinOp::Div,
            B::Rem => BinOp::Rem,
            B::Eq => BinOp::Eq,
            B::Ne => BinOp::Ne,
            B::Lt => BinOp::Lt,
            B::Le => BinOp::Le,
            B::Gt => BinOp::Gt,
            B::Ge => BinOp::Ge,
            B::BitAnd => BinOp::BitAnd,
            B::BitOr => BinOp::BitOr,
            B::BitXor => BinOp::BitXor,
            B::Shl => BinOp::Shl,
            B::Shr => BinOp::Shr,
            B::LogAnd | B::LogOr => unreachable!("compiled via branches"),
        };
        match op {
            B::Add | B::Sub => {
                if lt.is_ptr() && rt.is_ptr() {
                    if op == B::Sub {
                        // Pointer difference in elements.
                        let sz = self.types.size_of(lt.deref_target().expect("ptr")).max(1);
                        let diff = RExpr::binary(BinOp::Sub, lv, rv);
                        let v = if sz == 1 {
                            diff
                        } else {
                            RExpr::binary(BinOp::Div, diff, RExpr::Const(sz as i64))
                        };
                        return Ok((v, Type::Int));
                    }
                    return Err(CompileError::new("cannot add two pointers", pos));
                }
                if lt.is_ptr() {
                    let scaled = self.scale_for_ptr(&lt, rv, &rt);
                    return Ok((RExpr::binary(rop, lv, scaled), lt));
                }
                if rt.is_ptr() {
                    if op == B::Sub {
                        return Err(CompileError::new("cannot subtract pointer", pos));
                    }
                    let scaled = self.scale_for_ptr(&rt, lv, &lt);
                    return Ok((RExpr::binary(rop, scaled, rv), rt));
                }
                Ok((RExpr::binary(rop, lv, rv), Type::Int))
            }
            B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
                Ok((RExpr::binary(rop, lv, rv), Type::Int))
            }
            _ => Ok((RExpr::binary(rop, lv, rv), Type::Int)),
        }
    }

    /// `&&`, `||`, `?:` as *values*: compile via branches into a temp.
    fn compile_branchy_value(
        &mut self,
        e: &Expr,
        ctx: &mut FnCtx,
        ids: &HashMap<String, StructId>,
    ) -> Result<(RExpr, Type), CompileError> {
        let tmp = ctx.alloc_temp();
        match e {
            Expr::Ternary(c, t, f, _) => {
                let (t_patches, f_patches) = self.compile_branch(c, ctx, ids)?;
                let then_start = self.here();
                for p in t_patches {
                    self.patch(p, then_start);
                }
                let (tv, tty) = self.compile_value(t, ctx, ids)?;
                self.emit(Statement::Assign {
                    dst: RExpr::frame_slot(tmp),
                    src: tv,
                });
                let skip = self.emit(Statement::Goto(UNPATCHED));
                let else_start = self.here();
                for p in f_patches {
                    self.patch(p, else_start);
                }
                let (fv, _fty) = self.compile_value(f, ctx, ids)?;
                self.emit(Statement::Assign {
                    dst: RExpr::frame_slot(tmp),
                    src: fv,
                });
                let end = self.here();
                self.patch(skip, end);
                Ok((RExpr::local(tmp), tty))
            }
            _ => {
                let (t_patches, f_patches) = self.compile_branch(e, ctx, ids)?;
                let t_start = self.here();
                for p in t_patches {
                    self.patch(p, t_start);
                }
                self.emit(Statement::Assign {
                    dst: RExpr::frame_slot(tmp),
                    src: RExpr::Const(1),
                });
                let skip = self.emit(Statement::Goto(UNPATCHED));
                let f_start = self.here();
                for p in f_patches {
                    self.patch(p, f_start);
                }
                self.emit(Statement::Assign {
                    dst: RExpr::frame_slot(tmp),
                    src: RExpr::Const(0),
                });
                let end = self.here();
                self.patch(skip, end);
                Ok((RExpr::local(tmp), Type::Int))
            }
        }
    }

    fn compile_call(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: Pos,
        ctx: &mut FnCtx,
        ids: &HashMap<String, StructId>,
    ) -> Result<(RExpr, Type), CompileError> {
        // Unknown functions become externals returning int (§3.1:
        // "undefined reference" = external interface).
        let callee = match self.fn_by_name.get(name) {
            Some(c) => *c,
            None => Callee::External(self.register_external(name, Type::Int)),
        };
        match callee {
            Callee::Defined(id) => {
                let sig = self.fn_sigs[id.0 as usize].clone();
                if args.len() != sig.params.len() {
                    return Err(CompileError::new(
                        format!(
                            "`{name}` expects {} argument(s), got {}",
                            sig.params.len(),
                            args.len()
                        ),
                        pos,
                    ));
                }
                let mut avals = Vec::with_capacity(args.len());
                for a in args {
                    let (v, _t) = self.compile_value(a, ctx, ids)?;
                    avals.push(v);
                }
                let tmp = ctx.alloc_temp();
                self.emit(Statement::Call {
                    func: id,
                    args: avals,
                    dst: Some(RExpr::frame_slot(tmp)),
                });
                Ok((RExpr::local(tmp), sig.ret))
            }
            Callee::External(ext) => {
                // Arguments are evaluated (C semantics: faults inside
                // arguments still happen) and then discarded — external
                // functions are environment-controlled black boxes.
                for a in args {
                    let (v, _t) = self.compile_value(a, ctx, ids)?;
                    let sink = ctx.alloc_temp();
                    self.emit(Statement::Assign {
                        dst: RExpr::frame_slot(sink),
                        src: v,
                    });
                }
                let ret = self
                    .extern_fns
                    .iter()
                    .find(|f| f.ext == ext)
                    .map(|f| f.ret.clone())
                    .unwrap_or(Type::Int);
                let tmp = ctx.alloc_temp();
                self.emit(Statement::CallExternal {
                    ext,
                    dst: Some(RExpr::frame_slot(tmp)),
                });
                Ok((RExpr::local(tmp), ret))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Constant evaluation for global initializers
// ---------------------------------------------------------------------

fn const_eval(
    e: &Expr,
    types: &TypeTable,
    ids: &HashMap<String, StructId>,
) -> Result<i64, CompileError> {
    match e {
        Expr::IntLit(v, _) => Ok(*v),
        Expr::Null(_) => Ok(0),
        Expr::SizeofType { ty, ptr_depth, pos } => {
            let rty = resolve_type(ty, *ptr_depth, &[], ids, *pos)?;
            Ok(types.size_of(&rty) as i64)
        }
        Expr::Unary(op, inner, pos) => {
            let v = const_eval(inner, types, ids)?;
            Ok(match op {
                UnaryOp::Neg => v.wrapping_neg(),
                UnaryOp::Not => i64::from(v == 0),
                UnaryOp::BitNot => !v,
                _ => {
                    return Err(CompileError::new(
                        "global initializer must be constant",
                        *pos,
                    ))
                }
            })
        }
        Expr::Binary(op, l, r, pos) => {
            let a = const_eval(l, types, ids)?;
            let b = const_eval(r, types, ids)?;
            let rop = match op {
                BinaryOp::Add => BinOp::Add,
                BinaryOp::Sub => BinOp::Sub,
                BinaryOp::Mul => BinOp::Mul,
                BinaryOp::Div => BinOp::Div,
                BinaryOp::Rem => BinOp::Rem,
                BinaryOp::Shl => BinOp::Shl,
                BinaryOp::Shr => BinOp::Shr,
                BinaryOp::BitAnd => BinOp::BitAnd,
                BinaryOp::BitOr => BinOp::BitOr,
                BinaryOp::BitXor => BinOp::BitXor,
                BinaryOp::Eq => BinOp::Eq,
                BinaryOp::Ne => BinOp::Ne,
                BinaryOp::Lt => BinOp::Lt,
                BinaryOp::Le => BinOp::Le,
                BinaryOp::Gt => BinOp::Gt,
                BinaryOp::Ge => BinOp::Ge,
                BinaryOp::LogAnd => {
                    return Ok(i64::from(a != 0 && b != 0));
                }
                BinaryOp::LogOr => {
                    return Ok(i64::from(a != 0 || b != 0));
                }
            };
            dart_ram::apply_binop(rop, a, b)
                .map_err(|f| CompileError::new(format!("in constant: {f}"), *pos))
        }
        other => Err(CompileError::new(
            "global initializer must be constant",
            other.pos(),
        )),
    }
}
