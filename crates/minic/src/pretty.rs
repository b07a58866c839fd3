//! Pretty-printer: AST → MiniC source.
//!
//! Emits parseable source whose AST round-trips exactly
//! (`parse(print(u)) == u` up to source positions), except that a body
//! the dangling `else` forces into braces reparses as a block. Useful for
//! dumping generated workloads, golden tests, and fuzzing the parser.
//!
//! The printout has only the parentheses that precedence needs and only
//! the braces that the AST's blocks and the dangling `else` need, so it
//! nests no deeper than the source it was parsed from: a unit within
//! [`MAX_NESTING`](crate::parser::MAX_NESTING) prints as source that
//! parses again.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole translation unit.
pub fn print_unit(unit: &Unit) -> String {
    let mut out = String::new();
    for item in &unit.items {
        print_item(&mut out, item);
        out.push('\n');
    }
    out
}

fn type_prefix(ty: &TypeAst) -> String {
    match ty {
        TypeAst::Int => "int".into(),
        TypeAst::Char => "char".into(),
        TypeAst::Void => "void".into(),
        TypeAst::Struct(name) => format!("struct {name}"),
    }
}

fn declarator(d: &Declarator) -> String {
    let mut s = String::new();
    for _ in 0..d.ptr_depth {
        s.push('*');
    }
    s.push_str(&d.name);
    for dim in &d.array_dims {
        let _ = write!(s, "[{dim}]");
    }
    s
}

fn print_item(out: &mut String, item: &Item) {
    match item {
        Item::StructDef { name, fields, .. } => {
            let _ = writeln!(out, "struct {name} {{");
            for (ty, d) in fields {
                let _ = writeln!(out, "    {} {};", type_prefix(ty), declarator(d));
            }
            let _ = writeln!(out, "}};");
        }
        Item::Global {
            ty,
            decl,
            init,
            is_extern,
            ..
        } => {
            if *is_extern {
                out.push_str("extern ");
            }
            let _ = write!(out, "{} {}", type_prefix(ty), declarator(decl));
            if let Some(e) = init {
                let _ = write!(out, " = {}", expr(e));
            }
            out.push_str(";\n");
        }
        Item::Func {
            ret,
            ret_ptr,
            name,
            params,
            body,
            is_extern,
            ..
        } => {
            if *is_extern {
                out.push_str("extern ");
            }
            let stars = "*".repeat(*ret_ptr as usize);
            let ps: Vec<String> = params
                .iter()
                .map(|(t, d)| format!("{} {}", type_prefix(t), declarator(d)))
                .collect();
            let _ = write!(out, "{} {stars}{name}({})", type_prefix(ret), ps.join(", "));
            match body {
                None => out.push_str(";\n"),
                Some(stmts) => {
                    out.push_str(" {\n");
                    for s in stmts {
                        stmt(out, s, 1);
                    }
                    out.push_str("}\n");
                }
            }
        }
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// Whether an `else` printed after `s` would bind inside it: `s` ends in
/// an `if` that has no `else`.
fn dangles(s: &Stmt) -> bool {
    match s {
        Stmt::If { els: None, .. } => true,
        Stmt::If { els: Some(e), .. } => dangles(e),
        Stmt::While { body, .. } | Stmt::For { body, .. } => dangles(body),
        _ => false,
    }
}

/// Prints `s` as the body of a statement whose header (`if (c)`, `else`,
/// `while (c)`, `for (...)`, `do`) is already written. A block, or any
/// body when `brace` is set, opens its brace on the header's line; any
/// other body goes on the next line, one level deeper. Returns whether
/// the body ended with its closing brace, which leaves the line open for
/// a following `else` or `while`.
fn body(out: &mut String, s: &Stmt, level: usize, brace: bool) -> bool {
    match s {
        Stmt::Block(stmts) => {
            out.push_str(" {\n");
            for inner in stmts {
                stmt(out, inner, level + 1);
            }
        }
        _ if brace => {
            out.push_str(" {\n");
            stmt(out, s, level + 1);
        }
        _ => {
            out.push('\n');
            stmt(out, s, level + 1);
            return false;
        }
    }
    indent(out, level);
    out.push('}');
    true
}

/// Prints a body that nothing follows on its line.
fn last_body(out: &mut String, s: &Stmt, level: usize) {
    if body(out, s, level, false) {
        out.push('\n');
    }
}

/// Prints an `if` statement from its keyword on (the caller has written
/// the indentation). An `else if` continues on the `else`'s line.
fn if_stmt(out: &mut String, cond: &Expr, then: &Stmt, els: Option<&Stmt>, level: usize) {
    let _ = write!(out, "if ({})", expr(cond));
    let Some(els) = els else {
        last_body(out, then, level);
        return;
    };
    if body(out, then, level, dangles(then)) {
        out.push(' ');
    } else {
        indent(out, level);
    }
    out.push_str("else");
    match els {
        Stmt::If {
            cond, then, els, ..
        } => {
            out.push(' ');
            if_stmt(out, cond, then, els.as_deref(), level);
        }
        other => last_body(out, other, level),
    }
}

fn stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::Block(stmts) => {
            out.push_str("{\n");
            for inner in stmts {
                stmt(out, inner, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Decl { ty, decl, init, .. } => {
            let _ = write!(out, "{} {}", type_prefix(ty), declarator(decl));
            if let Some(e) = init {
                let _ = write!(out, " = {}", expr(e));
            }
            out.push_str(";\n");
        }
        Stmt::If {
            cond, then, els, ..
        } => if_stmt(out, cond, then, els.as_deref(), level),
        Stmt::While { cond, body, .. } => {
            let _ = write!(out, "while ({})", expr(cond));
            last_body(out, body, level);
        }
        Stmt::DoWhile { body: b, cond, .. } => {
            out.push_str("do");
            if body(out, b, level, false) {
                out.push(' ');
            } else {
                indent(out, level);
            }
            let _ = writeln!(out, "while ({});", expr(cond));
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            out.push_str("for (");
            if let Some(i) = init {
                inline_simple(out, i);
            }
            out.push_str("; ");
            if let Some(c) = cond {
                out.push_str(&expr(c));
            }
            out.push_str("; ");
            if let Some(st) = step {
                inline_simple(out, st);
            }
            out.push(')');
            last_body(out, body, level);
        }
        Stmt::Return(None, _) => out.push_str("return;\n"),
        Stmt::Return(Some(e), _) => {
            let _ = writeln!(out, "return {};", expr(e));
        }
        Stmt::Break(_) => out.push_str("break;\n"),
        Stmt::Continue(_) => out.push_str("continue;\n"),
        Stmt::Assert(e, _) => {
            let _ = writeln!(out, "assert({});", expr(e));
        }
        Stmt::Assume(e, _) => {
            let _ = writeln!(out, "assume({});", expr(e));
        }
        Stmt::Abort(_) => out.push_str("abort();\n"),
        Stmt::Switch {
            scrutinee,
            cases,
            default,
            ..
        } => {
            let _ = writeln!(out, "switch ({}) {{", expr(scrutinee));
            for (k, body) in cases {
                indent(out, level);
                if *k < 0 {
                    let _ = writeln!(out, "case -{}:", -k);
                } else {
                    let _ = writeln!(out, "case {k}:");
                }
                for st in body {
                    stmt(out, st, level + 1);
                }
            }
            if let Some(body) = default {
                indent(out, level);
                out.push_str("default:\n");
                for st in body {
                    stmt(out, st, level + 1);
                }
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Assign { .. } | Stmt::ExprStmt(..) => {
            inline_simple(out, s);
            out.push_str(";\n");
        }
    }
}

/// Renders a `for`-header-style statement with no indentation/terminator.
fn inline_simple(out: &mut String, s: &Stmt) {
    match s {
        Stmt::Decl { ty, decl, init, .. } => {
            let _ = write!(out, "{} {}", type_prefix(ty), declarator(decl));
            if let Some(e) = init {
                let _ = write!(out, " = {}", expr(e));
            }
        }
        Stmt::Assign { lhs, op, rhs, .. } => {
            let op = match op {
                AssignOp::Assign => "=",
                AssignOp::AddAssign => "+=",
                AssignOp::SubAssign => "-=",
            };
            let _ = write!(out, "{} {op} {}", expr(lhs), expr(rhs));
        }
        Stmt::ExprStmt(e, _) => out.push_str(&expr(e)),
        other => {
            debug_assert!(false, "not a simple statement: {other:?}");
        }
    }
}

/// How tightly the parser binds the prefix forms: unary operators, casts
/// and `++x`. They bind tighter than every binary operator.
const PREFIX: u8 = 11;
/// How tightly the parser binds postfix and primary forms.
const POSTFIX: u8 = 12;

/// How tightly the parser binds `e`'s outermost form: a `?:` loosest,
/// then the binary operators by [`BinaryOp::precedence`], then the prefix
/// forms, then the postfix and primary ones.
fn strength(e: &Expr) -> u8 {
    match e {
        Expr::Ternary(..) => 0,
        Expr::Binary(op, ..) => op.precedence(),
        Expr::Unary(..) | Expr::Cast { .. } | Expr::IncDec { postfix: false, .. } => PREFIX,
        _ => POSTFIX,
    }
}

/// Renders `e` where the grammar wants a form that binds at least as
/// tightly as `min`, in parentheses when it binds looser.
fn operand(e: &Expr, min: u8) -> String {
    if strength(e) < min {
        format!("({})", expr(e))
    } else {
        expr(e)
    }
}

/// Renders a prefix operator applied to `e`, with a space where the two
/// would otherwise lex as one token: `- -x`, not `--x`, and `& &x`, not
/// `&&x`.
fn prefixed(sym: &str, e: &Expr) -> String {
    let inner = operand(e, PREFIX);
    let joins = match sym.chars().last() {
        Some(c @ ('-' | '&')) => inner.starts_with(c),
        _ => false,
    };
    if joins {
        format!("{sym} {inner}")
    } else {
        format!("{sym}{inner}")
    }
}

/// Renders an expression with only the parentheses that precedence needs,
/// so it reparses to the same tree.
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::IntLit(v, _) => {
            if *v < 0 {
                // Negative literals re-lex as unary minus; parenthesize.
                format!("({v})")
            } else {
                v.to_string()
            }
        }
        Expr::Null(_) => "NULL".into(),
        Expr::Ident(name, _) => name.clone(),
        Expr::Unary(op, inner, _) => {
            let sym = match op {
                UnaryOp::Neg => "-",
                UnaryOp::Not => "!",
                UnaryOp::BitNot => "~",
                UnaryOp::Deref => "*",
                UnaryOp::AddrOf => "&",
            };
            prefixed(sym, inner)
        }
        Expr::Binary(op, l, r, _) => {
            let sym = match op {
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "/",
                BinaryOp::Rem => "%",
                BinaryOp::Eq => "==",
                BinaryOp::Ne => "!=",
                BinaryOp::Lt => "<",
                BinaryOp::Le => "<=",
                BinaryOp::Gt => ">",
                BinaryOp::Ge => ">=",
                BinaryOp::LogAnd => "&&",
                BinaryOp::LogOr => "||",
                BinaryOp::BitAnd => "&",
                BinaryOp::BitOr => "|",
                BinaryOp::BitXor => "^",
                BinaryOp::Shl => "<<",
                BinaryOp::Shr => ">>",
            };
            // Left-associative: the right operand needs parentheses at
            // the operator's own level, the left one only below it.
            let prec = op.precedence();
            format!("{} {sym} {}", operand(l, prec), operand(r, prec + 1))
        }
        Expr::Ternary(c, t, f, _) => {
            // The condition is a binary chain; both branches are full
            // expressions, so `a ? b : c ? d : e` nests to the right.
            format!("{} ? {} : {}", operand(c, 1), expr(t), expr(f))
        }
        Expr::Call { name, args, .. } => {
            let list: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", list.join(", "))
        }
        Expr::Index(base, idx, _) => {
            format!("{}[{}]", operand(base, POSTFIX), expr(idx))
        }
        Expr::Member {
            base, field, arrow, ..
        } => {
            let sep = if *arrow { "->" } else { "." };
            format!("{}{sep}{field}", operand(base, POSTFIX))
        }
        Expr::Cast {
            ty,
            ptr_depth,
            expr: inner,
            ..
        } => {
            let stars = "*".repeat(*ptr_depth as usize);
            format!("({}{stars}){}", type_prefix(ty), operand(inner, PREFIX))
        }
        Expr::SizeofType { ty, ptr_depth, .. } => {
            let stars = "*".repeat(*ptr_depth as usize);
            format!("sizeof({}{stars})", type_prefix(ty))
        }
        Expr::Malloc(size, _) => format!("malloc({})", expr(size)),
        Expr::Alloca(size, _) => format!("alloca({})", expr(size)),
        Expr::IncDec {
            target,
            inc,
            postfix,
            ..
        } => {
            let sym = if *inc { "++" } else { "--" };
            if *postfix {
                format!("{}{sym}", operand(target, POSTFIX))
            } else {
                prefixed(sym, target)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Checks the printer fixpoint: `print(parse(print(u))) == print(u)`.
    /// (A body the dangling `else` forces into braces reparses as a
    /// `Block`, so a raw AST comparison could differ there; the printed
    /// form is the canonical one.)
    fn roundtrips(src: &str) {
        let first = parse(src).unwrap_or_else(|e| panic!("parse 1: {e}\n{src}"));
        let printed = print_unit(&first);
        let second = parse(&printed).unwrap_or_else(|e| panic!("parse 2: {e}\n{printed}"));
        assert_eq!(printed, print_unit(&second), "not a fixpoint:\n{printed}");
    }

    #[test]
    fn roundtrip_basics() {
        roundtrips("int x = 3; extern int y;");
        roundtrips("struct s { int a; char *b; int c[4]; };");
        roundtrips("extern int read();");
        roundtrips("int *alias(int **p) { return *p; }");
    }

    #[test]
    fn roundtrip_statements() {
        roundtrips(
            r#"
            int f(int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i++) {
                    if (i % 2 == 0) acc += i; else acc -= 1;
                    while (acc > 100) acc = acc - 50;
                    do { acc++; } while (acc < 0);
                    if (i == 9) break;
                    if (i == 3) continue;
                }
                assert(acc >= 0);
                assume(n < 1000);
                return acc;
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_expressions() {
        roundtrips(
            r#"
            struct foo { int i; char c; };
            int g(struct foo *a, int x, int y) {
                int v = x > 0 ? x : -y;
                int w = (x & y) | (x ^ 3) << 2 >> 1;
                *((char *)a + sizeof(int)) = 1;
                a->c = (*a).i + a->c;
                int *p = (int *) malloc(sizeof(struct foo));
                int *q = (int *) alloca(4);
                return v + w + !x + ~y + p[0] + q[0] + g(a, --x, y++);
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_paper_fig6() {
        roundtrips(
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
                if (is_room_hot && is_door_closed && !ac) abort();
            }
            "#,
        );
    }

    #[test]
    fn printed_source_compiles_and_runs_identically() {
        use dart_ram::{Machine, MachineConfig, StepOutcome, ZeroEnv};
        let src = r#"
            int fib(int n) {
                if (n < 2) return n;
                return fib(n - 1) + fib(n - 2);
            }
        "#;
        let printed = print_unit(&parse(src).unwrap());
        let original = crate::compile(src).unwrap();
        let reprinted = crate::compile(&printed).unwrap();
        for program in [&original, &reprinted] {
            let id = program.program.func_by_name("fib").unwrap();
            let mut m = Machine::new(&program.program, MachineConfig::default());
            m.call(id, &[10]).unwrap();
            assert_eq!(
                m.run(&mut ZeroEnv),
                StepOutcome::Finished { value: Some(55) }
            );
        }
    }

    /// The body of a function `int f(int x, int y)` as `print_unit`
    /// prints it, without the signature line and closing brace.
    fn printed_body(body: &str) -> String {
        let printed = print_unit(&parse(&format!("int f(int x, int y) {{ {body} }}")).unwrap());
        roundtrips(&printed);
        let lines: Vec<&str> = printed.trim_end().lines().collect();
        lines[1..lines.len() - 1]
            .iter()
            .map(|l| l.trim_start())
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn only_needed_parentheses_are_printed() {
        for (src, want) in [
            ("x = x + y * 2 - 1;", "x = x + y * 2 - 1;"),
            ("x = (x + y) * 2;", "x = (x + y) * 2;"),
            ("x = x - (y - 1);", "x = x - (y - 1);"),
            ("x = ((x - y)) - 1;", "x = x - y - 1;"),
            ("x = x < y == (y < x);", "x = x < y == y < x;"),
            ("x = (x == y) == (y == x);", "x = x == y == (y == x);"),
            ("x = x || y && !x;", "x = x || y && !x;"),
            ("x = (x || y) && x;", "x = (x || y) && x;"),
            ("x = -(x + 1);", "x = -(x + 1);"),
            ("x = - -x;", "x = - -x;"),
            ("x = -(--x);", "x = - --x;"),
            ("x = --(-x);", "x = -- -x;"),
            ("x = (int)(char)-x;", "x = (int)(char)-x;"),
            ("x = ((int)x)++;", "x = ((int)x)++;"),
            ("x = x ? y : x ? 1 : 2;", "x = x ? y : x ? 1 : 2;"),
            ("x = (x ? y : x) ? 1 : 2;", "x = (x ? y : x) ? 1 : 2;"),
            ("x = x + (y ? 1 : 2);", "x = x + (y ? 1 : 2);"),
            ("x = x ? y = 1 : 2;", "x = x ? y = 1 : 2;"),
        ] {
            if src.contains("y = 1") {
                // Assignment is a statement, never an operand.
                assert!(parse(&format!("int f(int x, int y) {{ {src} }}")).is_err());
                continue;
            }
            assert_eq!(printed_body(src), want, "{src}");
        }
        let u = parse("int *g(int **p) { return &*p[0] + *&p[1]->n; }").unwrap();
        assert!(print_unit(&u).contains("return &*p[0] + *&p[1]->n;"));
        let u = parse("int g(int *p) { return &(*p) == *(&p); }").unwrap();
        assert!(print_unit(&u).contains("return &*p == *&p;"));
    }

    #[test]
    fn only_needed_braces_are_printed() {
        for (src, want) in [
            ("if (x) if (y) x = 1;", "if (x) if (y) x = 1;"),
            (
                "if (x) { if (y) x = 1; } else x = 2;",
                "if (x) { if (y) x = 1; } else x = 2;",
            ),
            (
                "if (x) if (y) x = 1; else x = 2;",
                "if (x) if (y) x = 1; else x = 2;",
            ),
            (
                "if (x) { while (y) if (x) y = 1; } else x = 2;",
                "if (x) { while (y) if (x) y = 1; } else x = 2;",
            ),
            (
                "if (x == 0) x = 0; else if (x == 1) x = 1; else x = 2;",
                "if (x == 0) x = 0; else if (x == 1) x = 1; else x = 2;",
            ),
            (
                "if (x) { x = 1; } else { x = 2; }",
                "if (x) { x = 1; } else { x = 2; }",
            ),
            ("do x = x - 1; while (x);", "do x = x - 1; while (x);"),
            (
                "do { x = x - 1; } while (x);",
                "do { x = x - 1; } while (x);",
            ),
            ("while (x) x = x - 1;", "while (x) x = x - 1;"),
            ("for (;;) { break; }", "for (; ; ) { break; }"),
        ] {
            assert_eq!(printed_body(src), want, "{src}");
        }
    }

    #[test]
    fn negative_literal_is_reparseable() {
        let u = parse("int f() { return 0 - 5; }").unwrap();
        let printed = print_unit(&u);
        assert!(parse(&printed).is_ok());
    }
}
