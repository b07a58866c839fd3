//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::diag::CompileError;
use crate::lexer::lex;
use crate::token::{Keyword, Pos, Punct, Token, TokenKind};

/// The deepest nesting the parser accepts: the height of a function body's
/// syntax tree. Every statement counts one level below the one that holds
/// it, and every expression node one level below its parent, so a chain
/// of left-associative operators (`x + x + x`, `a[0][0]`, `p->n->n`)
/// counts one level per operator; a pair of parentheses counts one level
/// too. The pointer stars and array dimensions of one type are capped at
/// the same number. The bound keeps the parser and every later recursive
/// pass (type checking, lowering, printing, drop) to a fixed depth on any
/// input; the workload programs nest at most 11 levels. Long shapes count
/// like deep ones: each arm of an `else if` ladder is the `else` branch of
/// the arm before it, so a ladder of 255 arms is too deep.
///
/// At the limit the deepest pass takes up to about 0.55 MiB of stack in
/// an optimized build, which fits a thread with Rust's default 2 MiB, and
/// up to about 4.5 MiB in an unoptimized one, which fits a main thread's
/// 8 MiB but not a default spawned thread.
///
/// [`print_unit`](crate::print_unit) prints only the parentheses and
/// braces the tree needs, so its printout of a unit within the limit
/// parses again.
pub const MAX_NESTING: usize = 256;

/// Parses a MiniC source file into a [`Unit`].
///
/// # Errors
///
/// Returns the first lexing or parsing error, including input nested
/// deeper than [`MAX_NESTING`].
pub fn parse(src: &str) -> Result<Unit, CompileError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        i: 0,
        depth: 0,
        peak: 0,
    }
    .unit()
}

struct Parser {
    tokens: Vec<Token>,
    i: usize,
    /// Levels open at the current token, counted as [`MAX_NESTING`]
    /// describes.
    depth: usize,
    /// The deepest level the tree being measured reaches (see
    /// [`Parser::height_of`]).
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.i].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        let idx = (self.i + off).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn pos(&self) -> Pos {
        self.tokens[self.i].pos
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.i].kind.clone();
        if self.i + 1 < self.tokens.len() {
            self.i += 1;
        }
        k
    }

    fn error(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(msg, self.pos())
    }

    fn eat_punct(&mut self, p: Punct) -> Result<(), CompileError> {
        if *self.peek() == TokenKind::Punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected `{p:?}`, found {}", self.peek())))
        }
    }

    /// Runs `f` one nesting level deeper, failing at the current token
    /// when that crosses [`MAX_NESTING`]. An error ends the parse, so it
    /// need not leave the level.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        self.reach(1, self.pos())?;
        self.depth += 1;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    /// Runs `f` and returns its result with the number of levels its tree
    /// reaches below the current one. Left-associative chains build their
    /// tree bottom-up, so they learn a node's height only after parsing
    /// its operands, and report it through [`Parser::reach`].
    fn height_of<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<(T, usize), CompileError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let out = f(self)?;
        let height = self.peak - self.depth;
        self.peak = self.peak.max(outer);
        Ok((out, height))
    }

    /// Records a node whose tree reaches `height` levels below the current
    /// one, failing at `pos` when that crosses [`MAX_NESTING`].
    fn reach(&mut self, height: usize, pos: Pos) -> Result<(), CompileError> {
        if self.depth + height > MAX_NESTING {
            return Err(CompileError::new(
                format!("nested deeper than {MAX_NESTING} levels"),
                pos,
            ));
        }
        self.peak = self.peak.max(self.depth + height);
        Ok(())
    }

    /// Eats the `*`s of a pointer type, at most [`MAX_NESTING`] of them.
    fn stars(&mut self) -> Result<u32, CompileError> {
        let mut ptr_depth = 0;
        while self.eat_if_punct(Punct::Star) {
            if ptr_depth as usize >= MAX_NESTING {
                return Err(self.error(format!("more than {MAX_NESTING} pointer levels")));
            }
            ptr_depth += 1;
        }
        Ok(ptr_depth)
    }

    fn at_punct(&self, p: Punct) -> bool {
        *self.peek() == TokenKind::Punct(p)
    }

    fn eat_if_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// Whether the current token starts a type.
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword(Keyword::Int)
                | TokenKind::Keyword(Keyword::Char)
                | TokenKind::Keyword(Keyword::Void)
                | TokenKind::Keyword(Keyword::Struct)
        )
    }

    fn base_type(&mut self) -> Result<TypeAst, CompileError> {
        match self.bump() {
            TokenKind::Keyword(Keyword::Int) => Ok(TypeAst::Int),
            TokenKind::Keyword(Keyword::Char) => Ok(TypeAst::Char),
            TokenKind::Keyword(Keyword::Void) => Ok(TypeAst::Void),
            TokenKind::Keyword(Keyword::Struct) => Ok(TypeAst::Struct(self.ident()?)),
            other => Err(self.error(format!("expected a type, found {other}"))),
        }
    }

    fn declarator(&mut self) -> Result<Declarator, CompileError> {
        let ptr_depth = self.stars()?;
        let name = self.ident()?;
        let mut array_dims = Vec::new();
        while self.eat_if_punct(Punct::LBracket) {
            if array_dims.len() >= MAX_NESTING {
                return Err(self.error(format!("more than {MAX_NESTING} array dimensions")));
            }
            match self.bump() {
                TokenKind::Int(n) if n > 0 => array_dims.push(n as usize),
                other => {
                    return Err(self.error(format!("expected positive array size, found {other}")))
                }
            }
            self.eat_punct(Punct::RBracket)?;
        }
        Ok(Declarator {
            name,
            ptr_depth,
            array_dims,
        })
    }

    fn unit(mut self) -> Result<Unit, CompileError> {
        let mut items = Vec::new();
        while *self.peek() != TokenKind::Eof {
            items.push(self.item()?);
        }
        Ok(Unit { items })
    }

    fn item(&mut self) -> Result<Item, CompileError> {
        let pos = self.pos();
        let is_extern = if let TokenKind::Keyword(Keyword::Extern) = self.peek() {
            self.bump();
            true
        } else {
            false
        };

        // struct definition: `struct S { … };`
        if let TokenKind::Keyword(Keyword::Struct) = self.peek() {
            if let TokenKind::Ident(_) = self.peek_at(1) {
                if *self.peek_at(2) == TokenKind::Punct(Punct::LBrace) {
                    if is_extern {
                        return Err(self.error("`extern` struct definitions are not allowed"));
                    }
                    return self.struct_def(pos);
                }
            }
        }

        if !self.at_type() {
            return Err(self.error(format!("expected a declaration, found {}", self.peek())));
        }
        let ty = self.base_type()?;
        let decl = self.declarator()?;

        // Function: name followed by `(`.
        if self.at_punct(Punct::LParen) {
            if !decl.array_dims.is_empty() {
                return Err(self.error("functions cannot return arrays"));
            }
            return self.func(ty, decl.ptr_depth, decl.name, is_extern, pos);
        }

        // Global variable.
        let init = if self.eat_if_punct(Punct::Assign) {
            if is_extern {
                return Err(self.error("`extern` variables cannot have initializers"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        self.eat_punct(Punct::Semi)?;
        Ok(Item::Global {
            ty,
            decl,
            init,
            is_extern,
            pos,
        })
    }

    fn struct_def(&mut self, pos: Pos) -> Result<Item, CompileError> {
        self.bump(); // struct
        let name = self.ident()?;
        self.eat_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat_if_punct(Punct::RBrace) {
            let fty = self.base_type()?;
            loop {
                let fd = self.declarator()?;
                fields.push((fty.clone(), fd));
                if !self.eat_if_punct(Punct::Comma) {
                    break;
                }
            }
            self.eat_punct(Punct::Semi)?;
        }
        self.eat_punct(Punct::Semi)?;
        Ok(Item::StructDef { name, fields, pos })
    }

    fn func(
        &mut self,
        ret: TypeAst,
        ret_ptr: u32,
        name: String,
        is_extern: bool,
        pos: Pos,
    ) -> Result<Item, CompileError> {
        self.eat_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            // `(void)` means zero parameters.
            if *self.peek() == TokenKind::Keyword(Keyword::Void)
                && *self.peek_at(1) == TokenKind::Punct(Punct::RParen)
            {
                self.bump();
            } else {
                loop {
                    let pty = self.base_type()?;
                    let pd = self.declarator()?;
                    params.push((pty, pd));
                    if !self.eat_if_punct(Punct::Comma) {
                        break;
                    }
                }
            }
        }
        self.eat_punct(Punct::RParen)?;

        if self.eat_if_punct(Punct::Semi) {
            // Declaration only (extern or forward).
            return Ok(Item::Func {
                ret,
                ret_ptr,
                name,
                params,
                body: None,
                is_extern,
                pos,
            });
        }
        if is_extern {
            return Err(self.error("`extern` functions cannot have bodies"));
        }
        self.eat_punct(Punct::LBrace)?;
        let body = self.block_body()?;
        Ok(Item::Func {
            ret,
            ret_ptr,
            name,
            params,
            body: Some(body),
            is_extern,
            pos,
        })
    }

    /// Parses statements until the matching `}` (already inside the block).
    fn block_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat_if_punct(Punct::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        match self.peek() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?))
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if *self.peek() == TokenKind::Keyword(Keyword::Else) {
                    self.bump();
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then,
                    els,
                    pos,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body, pos })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                match self.bump() {
                    TokenKind::Keyword(Keyword::While) => {}
                    other => return Err(self.error(format!("expected `while`, found {other}"))),
                }
                self.eat_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::DoWhile { body, cond, pos })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                let init = if self.at_punct(Punct::Semi) {
                    self.bump();
                    None
                } else {
                    Some(Box::new(self.simple_or_decl(true)?))
                };
                let cond = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat_punct(Punct::Semi)?;
                let step = if self.at_punct(Punct::RParen) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.eat_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    pos,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let v = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::Return(v, pos))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::Break(pos))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::Continue(pos))
            }
            TokenKind::Keyword(Keyword::Assert) => {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                let e = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::Assert(e, pos))
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                let scrutinee = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::LBrace)?;
                let mut cases: Vec<(i64, Vec<Stmt>)> = Vec::new();
                let mut default: Option<Vec<Stmt>> = None;
                loop {
                    match self.peek() {
                        TokenKind::Punct(Punct::RBrace) => {
                            self.bump();
                            break;
                        }
                        TokenKind::Keyword(Keyword::Case) => {
                            self.bump();
                            let negative = self.eat_if_punct(Punct::Minus);
                            let value = match self.bump() {
                                TokenKind::Int(v) => {
                                    if negative {
                                        -v
                                    } else {
                                        v
                                    }
                                }
                                other => {
                                    return Err(self
                                        .error(format!("expected case constant, found {other}")))
                                }
                            };
                            if cases.iter().any(|(k, _)| *k == value) {
                                return Err(self.error(format!("duplicate case {value}")));
                            }
                            if default.is_some() {
                                return Err(self.error("`case` after `default`".to_string()));
                            }
                            self.eat_punct(Punct::Colon)?;
                            cases.push((value, self.case_body()?));
                        }
                        TokenKind::Keyword(Keyword::Default) => {
                            self.bump();
                            if default.is_some() {
                                return Err(self.error("duplicate `default`"));
                            }
                            self.eat_punct(Punct::Colon)?;
                            default = Some(self.case_body()?);
                        }
                        other => {
                            return Err(self.error(format!(
                                "expected `case`, `default` or `}}`, found {other}"
                            )))
                        }
                    }
                }
                Ok(Stmt::Switch {
                    scrutinee,
                    cases,
                    default,
                    pos,
                })
            }
            TokenKind::Keyword(Keyword::Assume) => {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                let e = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::Assume(e, pos))
            }
            TokenKind::Keyword(Keyword::Abort) => {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::Abort(pos))
            }
            _ => {
                let s = self.simple_or_decl(false)?;
                self.eat_punct(Punct::Semi)?;
                Ok(s)
            }
        }
    }

    /// Statements of one `case` arm: up to the next `case`/`default`/`}`.
    fn case_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Punct(Punct::RBrace)
                | TokenKind::Keyword(Keyword::Case)
                | TokenKind::Keyword(Keyword::Default) => return Ok(stmts),
                TokenKind::Eof => return Err(self.error("unterminated switch")),
                _ => stmts.push(self.stmt()?),
            }
        }
    }

    /// A declaration or a simple (assignment/expression) statement.
    /// When `in_for` is set, eats the trailing `;` itself.
    fn simple_or_decl(&mut self, in_for: bool) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        if self.at_type() {
            let ty = self.base_type()?;
            let decl = self.declarator()?;
            let init = if self.eat_if_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            if in_for {
                self.eat_punct(Punct::Semi)?;
            }
            return Ok(Stmt::Decl {
                ty,
                decl,
                init,
                pos,
            });
        }
        let s = self.simple_stmt()?;
        if in_for {
            self.eat_punct(Punct::Semi)?;
        }
        Ok(s)
    }

    /// Assignment or expression statement (no trailing `;`).
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        let lhs = self.expr()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusAssign) => Some(AssignOp::AddAssign),
            TokenKind::Punct(Punct::MinusAssign) => Some(AssignOp::SubAssign),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.expr()?;
            Ok(Stmt::Assign { lhs, op, rhs, pos })
        } else {
            Ok(Stmt::ExprStmt(lhs, pos))
        }
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        let (c, c_height) = self.height_of(|p| p.binary(0))?;
        let at = self.pos();
        if self.eat_if_punct(Punct::Question) {
            // The condition sits one level below the `?:` it turned out
            // to belong to; the branches open their own level.
            self.reach(1 + c_height, at)?;
            let t = self.expr()?;
            self.eat_punct(Punct::Colon)?;
            let e = self.expr()?;
            Ok(Expr::Ternary(Box::new(c), Box::new(t), Box::new(e), pos))
        } else {
            Ok(c)
        }
    }

    /// Parses a chain of binary operators that bind at least as tightly as
    /// `min` (precedence climbing). Every operator is left-associative and
    /// makes the tree so far one level taller.
    fn binary(&mut self, min: u8) -> Result<Expr, CompileError> {
        let pos = self.pos();
        let (mut lhs, mut height) = self.height_of(Self::unary)?;
        while let Some(op) = binary_op(self.peek()).filter(|op| op.precedence() >= min) {
            let at = self.pos();
            self.bump();
            let (rhs, rhs_height) = self.height_of(|p| p.binary(op.precedence() + 1))?;
            height = 1 + height.max(rhs_height);
            self.reach(height, at)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), pos);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        // Cast: `(` type … `)` unary
        if self.at_punct(Punct::LParen) && self.peek_at(1_usize).is_type_start() {
            self.bump(); // (
            let ty = self.base_type()?;
            let ptr_depth = self.stars()?;
            self.eat_punct(Punct::RParen)?;
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Cast {
                ty,
                ptr_depth,
                expr: Box::new(e),
                pos,
            });
        }
        let un = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Not) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnaryOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnaryOp::AddrOf),
            _ => None,
        };
        if let Some(op) = un {
            self.bump();
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Unary(op, Box::new(e), pos));
        }
        if matches!(
            self.peek(),
            TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus)
        ) {
            let inc = self.at_punct(Punct::PlusPlus);
            self.bump();
            let target = self.nested(Self::unary)?;
            return Ok(Expr::IncDec {
                target: Box::new(target),
                inc,
                postfix: false,
                pos,
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        // Like a binary chain, each suffix makes the tree so far one level
        // taller.
        let (mut e, mut height) = self.height_of(Self::primary)?;
        loop {
            let pos = self.pos();
            if self.eat_if_punct(Punct::LBracket) {
                let (idx, idx_height) = self.height_of(Self::expr)?;
                self.eat_punct(Punct::RBracket)?;
                height = (1 + height).max(idx_height);
                e = Expr::Index(Box::new(e), Box::new(idx), pos);
            } else if self.eat_if_punct(Punct::Dot) {
                let field = self.ident()?;
                height += 1;
                e = Expr::Member {
                    base: Box::new(e),
                    field,
                    arrow: false,
                    pos,
                };
            } else if self.eat_if_punct(Punct::Arrow) {
                let field = self.ident()?;
                height += 1;
                e = Expr::Member {
                    base: Box::new(e),
                    field,
                    arrow: true,
                    pos,
                };
            } else if self.at_punct(Punct::PlusPlus) || self.at_punct(Punct::MinusMinus) {
                let inc = self.at_punct(Punct::PlusPlus);
                self.bump();
                height += 1;
                e = Expr::IncDec {
                    target: Box::new(e),
                    inc,
                    postfix: true,
                    pos,
                };
            } else {
                return Ok(e);
            }
            self.reach(height, pos)?;
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::IntLit(v, pos)),
            TokenKind::Keyword(Keyword::Null) => Ok(Expr::Null(pos)),
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.eat_punct(Punct::LParen)?;
                let ty = self.base_type()?;
                let ptr_depth = self.stars()?;
                self.eat_punct(Punct::RParen)?;
                Ok(Expr::SizeofType { ty, ptr_depth, pos })
            }
            TokenKind::Keyword(Keyword::Malloc) => {
                self.eat_punct(Punct::LParen)?;
                let e = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                Ok(Expr::Malloc(Box::new(e), pos))
            }
            TokenKind::Keyword(Keyword::Alloca) => {
                self.eat_punct(Punct::LParen)?;
                let e = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                Ok(Expr::Alloca(Box::new(e), pos))
            }
            TokenKind::Ident(name) => {
                if self.eat_if_punct(Punct::LParen) {
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_if_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.eat_punct(Punct::RParen)?;
                    Ok(Expr::Call { name, args, pos })
                } else {
                    Ok(Expr::Ident(name, pos))
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                let e = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::new(
                format!("expected an expression, found {other}"),
                pos,
            )),
        }
    }
}

/// The binary operator `t` spells, if any.
fn binary_op(t: &TokenKind) -> Option<BinaryOp> {
    let TokenKind::Punct(p) = t else {
        return None;
    };
    Some(match p {
        Punct::PipePipe => BinaryOp::LogOr,
        Punct::AmpAmp => BinaryOp::LogAnd,
        Punct::Pipe => BinaryOp::BitOr,
        Punct::Caret => BinaryOp::BitXor,
        Punct::Amp => BinaryOp::BitAnd,
        Punct::EqEq => BinaryOp::Eq,
        Punct::NotEq => BinaryOp::Ne,
        Punct::Le => BinaryOp::Le,
        Punct::Ge => BinaryOp::Ge,
        Punct::Lt => BinaryOp::Lt,
        Punct::Gt => BinaryOp::Gt,
        Punct::Shl => BinaryOp::Shl,
        Punct::Shr => BinaryOp::Shr,
        Punct::Plus => BinaryOp::Add,
        Punct::Minus => BinaryOp::Sub,
        Punct::Star => BinaryOp::Mul,
        Punct::Slash => BinaryOp::Div,
        Punct::Percent => BinaryOp::Rem,
        _ => return None,
    })
}

/// Whether a token begins a type (for cast disambiguation).
trait TypeStart {
    fn is_type_start(&self) -> bool;
}

impl TypeStart for TokenKind {
    fn is_type_start(&self) -> bool {
        matches!(
            self,
            TokenKind::Keyword(Keyword::Int)
                | TokenKind::Keyword(Keyword::Char)
                | TokenKind::Keyword(Keyword::Void)
                | TokenKind::Keyword(Keyword::Struct)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Unit {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn empty_unit() {
        assert_eq!(parse_ok("").items.len(), 0);
    }

    #[test]
    fn global_variables() {
        let u = parse_ok("int x; int y = 3; extern int z;");
        assert_eq!(u.items.len(), 3);
        match &u.items[1] {
            Item::Global { decl, init, .. } => {
                assert_eq!(decl.name, "y");
                assert!(matches!(init, Some(Expr::IntLit(3, _))));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &u.items[2] {
            Item::Global { is_extern, .. } => assert!(is_extern),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn struct_definition() {
        let u = parse_ok("struct foo { int i; char c; };");
        match &u.items[0] {
            Item::StructDef { name, fields, .. } => {
                assert_eq!(name, "foo");
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[1].1.name, "c");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_declarator_fields() {
        let u = parse_ok("struct p { int x, y; };");
        match &u.items[0] {
            Item::StructDef { fields, .. } => assert_eq!(fields.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_with_params_and_body() {
        let u = parse_ok("int add(int a, int b) { return a + b; }");
        match &u.items[0] {
            Item::Func {
                name, params, body, ..
            } => {
                assert_eq!(name, "add");
                assert_eq!(params.len(), 2);
                assert_eq!(body.as_ref().unwrap().len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn void_param_list() {
        let u = parse_ok("int f(void) { return 0; }");
        match &u.items[0] {
            Item::Func { params, .. } => assert!(params.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extern_function_declaration() {
        let u = parse_ok("extern int getchar();");
        match &u.items[0] {
            Item::Func {
                is_extern, body, ..
            } => {
                assert!(is_extern);
                assert!(body.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pointer_declarators() {
        let u = parse_ok("int **p; struct foo *q;");
        match &u.items[0] {
            Item::Global { decl, .. } => assert_eq!(decl.ptr_depth, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn array_declarators() {
        let u = parse_ok("int a[3][4];");
        match &u.items[0] {
            Item::Global { decl, .. } => assert_eq!(decl.array_dims, vec![3, 4]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_flow_statements() {
        parse_ok(
            r#"
            int main(int n) {
                int i;
                int acc = 0;
                for (i = 0; i < n; i++) {
                    if (i % 2 == 0) acc += i; else acc -= 1;
                }
                while (acc > 100) acc = acc - 1;
                do { acc = acc + 1; } while (acc < 0);
                return acc;
            }
            "#,
        );
    }

    #[test]
    fn break_continue_assert_abort() {
        parse_ok(
            r#"
            void f(int n) {
                while (1) {
                    if (n == 0) break;
                    if (n == 1) continue;
                    assert(n > 1);
                    abort();
                }
            }
            "#,
        );
    }

    #[test]
    fn casts_and_sizeof() {
        let u = parse_ok("void f(struct foo *a) { *((char *)a + sizeof(int)) = 1; }");
        // This is the paper's §2.5 line — must parse as cast + pointer math.
        match &u.items[0] {
            Item::Func { body, .. } => {
                assert!(matches!(body.as_ref().unwrap()[0], Stmt::Assign { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn member_access_chains() {
        parse_ok("struct s { int v; }; int g(struct s *p) { return p->v + (*p).v; }");
    }

    #[test]
    fn malloc_and_null() {
        parse_ok("int f() { int *p; p = malloc(2); if (p == NULL) return 0; return *p; }");
    }

    #[test]
    fn alloca_parses() {
        parse_ok("int f(int n) { int *p; p = alloca(n); return p == NULL; }");
    }

    #[test]
    fn short_circuit_and_ternary() {
        parse_ok("int f(int a, int b) { return a && b || !a ? 1 : 0; }");
    }

    #[test]
    fn precedence_mul_over_add() {
        let u = parse_ok("int x = 1 + 2 * 3;");
        match &u.items[0] {
            Item::Global {
                init: Some(Expr::Binary(BinaryOp::Add, _, rhs, _)),
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary(BinaryOp::Mul, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparison_chains_left_assoc() {
        // (a < b) == c parses as ((a < b) == c)
        let u = parse_ok("int x = 1 < 2 == 1;");
        match &u.items[0] {
            Item::Global {
                init: Some(Expr::Binary(BinaryOp::Eq, lhs, _, _)),
                ..
            } => assert!(matches!(**lhs, Expr::Binary(BinaryOp::Lt, _, _, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse("int x").is_err());
    }

    #[test]
    fn error_on_bad_array_size() {
        assert!(parse("int a[0];").is_err());
        assert!(parse("int a[x];").is_err());
    }

    #[test]
    fn error_on_extern_with_body() {
        assert!(parse("extern int f() { return 0; }").is_err());
    }

    #[test]
    fn error_on_extern_with_initializer() {
        assert!(parse("extern int x = 3;").is_err());
    }

    #[test]
    fn paper_ac_controller_parses() {
        parse_ok(
            r#"
            int is_room_hot = 0;
            int is_door_closed = 0;
            int ac = 0;
            void ac_controller(int message) {
                if (message == 0) is_room_hot = 1;
                if (message == 1) is_room_hot = 0;
                if (message == 2) { is_door_closed = 0; ac = 0; }
                if (message == 3) {
                    is_door_closed = 1;
                    if (is_room_hot) ac = 1;
                }
                if (is_room_hot && is_door_closed && !ac)
                    abort();
            }
            "#,
        );
    }

    /// Runs `f` on a thread with the 8 MiB stack of a main thread. An
    /// unoptimized build needs up to about 4.5 MiB to parse and compile
    /// input at the nesting limit, more than the 2 MiB the test harness
    /// gives each test (see [`MAX_NESTING`]).
    fn on_main_sized_stack(f: impl FnOnce() + Send) {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(8 << 20)
                .spawn_scoped(scope, f)
                .expect("spawning a test thread");
        });
    }

    /// A function whose body is `stmts`.
    fn body(stmts: &str) -> String {
        format!("int f(int x) {{ {stmts} return x; }}")
    }

    /// A ladder of `arms` `if`/`else if` arms: each `else if` is the
    /// `else` branch of the arm before it, one level deeper.
    fn else_if_ladder(arms: usize) -> String {
        let rungs: String = (1..arms)
            .map(|k| format!("else if (x == {k}) x = {k}; "))
            .collect();
        body(&format!("if (x == 0) x = 0; {rungs}else x = 1;"))
    }

    /// Each input that used to abort the process with a stack overflow
    /// (in the parser or a later recursive pass) is a `CompileError` at
    /// the token that crosses the nesting limit.
    #[test]
    fn deep_nesting_is_a_compile_error_not_a_stack_overflow() {
        let n = 10_000;
        let open_close = |open: &str, mid: &str, close: &str| {
            format!("{}{mid}{}", open.repeat(n), close.repeat(n))
        };
        let cases = [
            (
                "parentheses",
                body(&format!("x = {};", open_close("(", "x", ")"))),
            ),
            ("braces", body(&open_close("{", "", "}"))),
            ("ifs", body(&format!("{} x = 1;", "if (x) ".repeat(n)))),
            ("else-if ladder", else_if_ladder(n)),
            ("sum", body(&format!("x = x{};", " + x".repeat(100_000)))),
            (
                "mixed operators",
                body(&format!("x = x{};", " * x + x << x".repeat(n))),
            ),
            // 200 `+` above a right operand 200 `*` deep: no chain is
            // longer than 200, but the tree is 401 levels high.
            (
                "a long chain over a deep operand",
                body(&format!(
                    "x = x + x{}{};",
                    " * x".repeat(200),
                    " + x".repeat(200)
                )),
            ),
            ("negations", body(&format!("x = {}x;", "- ".repeat(n)))),
            ("casts", body(&format!("x = {}x;", "(int)".repeat(n)))),
            (
                "ternaries",
                body(&format!("x = {}x;", "x ? x : ".repeat(n))),
            ),
            (
                "calls",
                body(&format!("x = {};", open_close("f(", "x", ")"))),
            ),
            ("indexing", body(&format!("x = x{};", "[0]".repeat(n)))),
            ("members", body(&format!("x = x{};", "->n".repeat(n)))),
            ("pointers", format!("int {}p;", "*".repeat(n))),
            ("arrays", format!("int a{};", "[1]".repeat(n))),
        ];
        on_main_sized_stack(|| {
            for (what, src) in &cases {
                let err = crate::compile(src).expect_err(what);
                assert!(
                    err.message().contains(&MAX_NESTING.to_string()),
                    "{what}: {err}"
                );
            }
        });
        // The error names the token that crossed the limit. The statement
        // and its right-hand side take two levels, so that is the chain's
        // 255th `+`, 4 columns per term after the first.
        let err = parse(&body(&format!("x = x{};", " + x".repeat(1_000)))).unwrap_err();
        assert_eq!(err.pos().line, 1);
        let first_plus = "int f(int x) { x = x ".len() + 1;
        assert_eq!(err.pos().col as usize, first_plus + 4 * (MAX_NESTING - 2));
    }

    /// Nesting just inside the limit still compiles, in an unoptimized
    /// build on a main thread's stack; the parsed tree prints and drops
    /// there too, and so does the compiled program. Long shapes count as
    /// deep ones: an `else if` ladder of 248 arms and a 248-term sum are
    /// as close to the limit as 248 nested `if`s.
    #[test]
    fn nesting_inside_the_limit_compiles() {
        let n = MAX_NESTING - 8;
        let cases = [
            body(&format!("x = {}x{};", "(".repeat(n), ")".repeat(n))),
            body(&format!("{}x = 1;", "if (x) ".repeat(n))),
            else_if_ladder(n),
            body(&format!("x = x{};", " + x".repeat(n))),
            body(&format!("x = {}x;", "x ? x : ".repeat(n))),
            body(&format!("{}x = 1;{}", "{".repeat(n), "}".repeat(n))),
        ];
        on_main_sized_stack(|| {
            for src in &cases {
                let compiled = crate::compile(src).unwrap_or_else(|e| panic!("{e}"));
                assert!(!compiled.program.to_string().is_empty());
                let unit = parse(src).unwrap_or_else(|e| panic!("{e}"));
                assert!(!crate::print_unit(&unit).is_empty());
            }
        });
    }
}
