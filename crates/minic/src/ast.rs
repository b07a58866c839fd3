//! The MiniC abstract syntax tree.

use crate::token::Pos;

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Unit {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// Base type syntax (before declarator stars/arrays are applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeAst {
    /// `int`
    Int,
    /// `char`
    Char,
    /// `void`
    Void,
    /// `struct NAME`
    Struct(String),
}

/// A declarator: `*`s, a name, and array dimensions (`int **x[3][4]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declarator {
    /// Declared name.
    pub name: String,
    /// Number of leading `*`s.
    pub ptr_depth: u32,
    /// Array dimensions, outermost first.
    pub array_dims: Vec<usize>,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `struct S { … };`
    StructDef {
        /// Struct tag.
        name: String,
        /// Fields in declaration order.
        fields: Vec<(TypeAst, Declarator)>,
        /// Source position.
        pos: Pos,
    },
    /// A global variable definition, or an `extern` variable declaration
    /// (part of the program's external interface, §3.1).
    Global {
        /// Base type.
        ty: TypeAst,
        /// Declarator.
        decl: Declarator,
        /// Optional constant initializer.
        init: Option<Expr>,
        /// Whether declared `extern` (environment-controlled).
        is_extern: bool,
        /// Source position.
        pos: Pos,
    },
    /// A function definition, or an `extern` function declaration.
    Func {
        /// Return base type.
        ret: TypeAst,
        /// Return pointer depth (`int *f()`).
        ret_ptr: u32,
        /// Function name.
        name: String,
        /// Parameters.
        params: Vec<(TypeAst, Declarator)>,
        /// Body; `None` for `extern` declarations.
        body: Option<Vec<Stmt>>,
        /// Whether declared `extern`.
        is_extern: bool,
        /// Source position.
        pos: Pos,
    },
}

/// Binary operators (logical `&&`/`||` compile to branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+` (pointer-aware)
    Add,
    /// `-` (pointer-aware)
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl BinaryOp {
    /// How tightly the operator binds, from 1 (`||`) to 10 (`*`, `/`,
    /// `%`); every level is left-associative. The parser climbs these
    /// levels, and the printer parenthesizes by them.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::LogOr => 1,
            BinaryOp::LogAnd => 2,
            BinaryOp::BitOr => 3,
            BinaryOp::BitXor => 4,
            BinaryOp::BitAnd => 5,
            BinaryOp::Eq | BinaryOp::Ne => 6,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 7,
            BinaryOp::Shl | BinaryOp::Shr => 8,
            BinaryOp::Add | BinaryOp::Sub => 9,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => 10,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-e`
    Neg,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `*e`
    Deref,
    /// `&e`
    AddrOf,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer or character literal.
    IntLit(i64, Pos),
    /// `NULL`
    Null(Pos),
    /// Variable reference.
    Ident(String, Pos),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>, Pos),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>, Pos),
    /// `c ? t : e`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>, Pos),
    /// Function call (defined or external).
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>, Pos),
    /// `base.field` or `base->field`
    Member {
        /// The struct (or struct pointer) expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// `->` rather than `.`.
        arrow: bool,
        /// Source position.
        pos: Pos,
    },
    /// `(type) e`
    Cast {
        /// Target base type.
        ty: TypeAst,
        /// Target pointer depth.
        ptr_depth: u32,
        /// Operand.
        expr: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `sizeof(type)` — counts words (see DESIGN.md).
    SizeofType {
        /// Measured base type.
        ty: TypeAst,
        /// Pointer depth.
        ptr_depth: u32,
        /// Source position.
        pos: Pos,
    },
    /// `malloc(words)`
    Malloc(Box<Expr>, Pos),
    /// `alloca(words)` — may yield NULL (bounded stack).
    Alloca(Box<Expr>, Pos),
    /// `lv++`, `lv--`, `++lv`, `--lv`
    IncDec {
        /// The updated lvalue.
        target: Box<Expr>,
        /// `true` for `++`.
        inc: bool,
        /// `true` for postfix.
        postfix: bool,
        /// Source position.
        pos: Pos,
    },
}

impl Expr {
    /// The source position of this expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::IntLit(_, p)
            | Expr::Null(p)
            | Expr::Ident(_, p)
            | Expr::Unary(_, _, p)
            | Expr::Binary(_, _, _, p)
            | Expr::Ternary(_, _, _, p)
            | Expr::Call { pos: p, .. }
            | Expr::Index(_, _, p)
            | Expr::Member { pos: p, .. }
            | Expr::Cast { pos: p, .. }
            | Expr::SizeofType { pos: p, .. }
            | Expr::Malloc(_, p)
            | Expr::Alloca(_, p)
            | Expr::IncDec { pos: p, .. } => *p,
        }
    }
}

/// Compound assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `{ … }`
    Block(Vec<Stmt>),
    /// Local declaration with optional initializer.
    Decl {
        /// Base type.
        ty: TypeAst,
        /// Declarator.
        decl: Declarator,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `if (cond) then else els`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Else branch.
        els: Option<Box<Stmt>>,
        /// Source position.
        pos: Pos,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
        /// Source position.
        pos: Pos,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
        /// Source position.
        pos: Pos,
    },
    /// `for (init; cond; step) body`
    For {
        /// Optional init statement.
        init: Option<Box<Stmt>>,
        /// Optional loop condition.
        cond: Option<Expr>,
        /// Optional step statement.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Box<Stmt>,
        /// Source position.
        pos: Pos,
    },
    /// `return e?;`
    Return(Option<Expr>, Pos),
    /// `break;`
    Break(Pos),
    /// `continue;`
    Continue(Pos),
    /// `assert(e);` — aborts when false.
    Assert(Expr, Pos),
    /// `assume(e);` — silently halts the run when false (precondition).
    Assume(Expr, Pos),
    /// `switch (e) { case k: … default: … }` with C fallthrough.
    Switch {
        /// The switched-on expression.
        scrutinee: Expr,
        /// `(label value, body)` in source order; bodies fall through.
        cases: Vec<(i64, Vec<Stmt>)>,
        /// The `default:` body, if present (always placed last).
        default: Option<Vec<Stmt>>,
        /// Source position.
        pos: Pos,
    },
    /// `abort();`
    Abort(Pos),
    /// `lhs op rhs;`
    Assign {
        /// Assigned lvalue.
        lhs: Expr,
        /// `=`, `+=` or `-=`.
        op: AssignOp,
        /// Right-hand side.
        rhs: Expr,
        /// Source position.
        pos: Pos,
    },
    /// An expression evaluated for effect (calls, `x++`).
    ExprStmt(Expr, Pos),
}
