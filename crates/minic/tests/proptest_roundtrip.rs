//! Property test: pretty-print ∘ parse is the identity on ASTs.
//!
//! Random ASTs are generated structurally (expressions and statements over
//! a fixed set of variable names), printed with `print_unit`, re-parsed,
//! and compared position-insensitively.

use dart_minic::ast::*;
use dart_minic::parser::MAX_NESTING;
use dart_minic::token::Pos;
use dart_minic::{parse, print_unit};
use proptest::prelude::*;

fn pos() -> Pos {
    Pos::default()
}

fn ident() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string())
    ]
}

fn binop() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::Div),
        Just(BinaryOp::Rem),
        Just(BinaryOp::Eq),
        Just(BinaryOp::Ne),
        Just(BinaryOp::Lt),
        Just(BinaryOp::Le),
        Just(BinaryOp::Gt),
        Just(BinaryOp::Ge),
        Just(BinaryOp::LogAnd),
        Just(BinaryOp::LogOr),
        Just(BinaryOp::BitAnd),
        Just(BinaryOp::BitOr),
        Just(BinaryOp::BitXor),
        Just(BinaryOp::Shl),
        Just(BinaryOp::Shr),
    ]
}

fn unop() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::Neg),
        Just(UnaryOp::Not),
        Just(UnaryOp::BitNot),
        // Deref/AddrOf need type-correct operands to *compile*, but for a
        // pure parse round-trip they are fine on any expression.
        Just(UnaryOp::Deref),
        Just(UnaryOp::AddrOf),
    ]
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..1000).prop_map(|v| Expr::IntLit(v, pos())),
        Just(Expr::Null(pos())),
        ident().prop_map(|n| Expr::Ident(n, pos())),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (unop(), inner.clone()).prop_map(|(op, e)| Expr::Unary(op, Box::new(e), pos())),
            (binop(), inner.clone(), inner.clone())
                .prop_map(|(op, l, r)| { Expr::Binary(op, Box::new(l), Box::new(r), pos()) }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| {
                Expr::Ternary(Box::new(c), Box::new(t), Box::new(f), pos())
            }),
            (ident(), proptest::collection::vec(inner.clone(), 0..3)).prop_map(|(name, args)| {
                Expr::Call {
                    name,
                    args,
                    pos: pos(),
                }
            }),
            (inner.clone(), inner.clone()).prop_map(|(b, i)| Expr::Index(
                Box::new(b),
                Box::new(i),
                pos()
            )),
            (inner.clone(), ident(), any::<bool>()).prop_map(|(b, f, arrow)| {
                Expr::Member {
                    base: Box::new(b),
                    field: f,
                    arrow,
                    pos: pos(),
                }
            }),
            inner.clone().prop_map(|e| Expr::Malloc(Box::new(e), pos())),
        ]
    })
}

fn stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        expr().prop_map(|e| Stmt::Return(Some(e), pos())),
        Just(Stmt::Return(None, pos())),
        Just(Stmt::Abort(pos())),
        expr().prop_map(|e| Stmt::Assert(e, pos())),
        expr().prop_map(|e| Stmt::Assume(e, pos())),
        (ident(), expr()).prop_map(|(n, e)| Stmt::Assign {
            lhs: Expr::Ident(n, pos()),
            op: AssignOp::Assign,
            rhs: e,
            pos: pos(),
        }),
        expr().prop_map(|e| Stmt::ExprStmt(e, pos())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (expr(), inner.clone(), proptest::option::of(inner.clone())).prop_map(|(c, t, e)| {
                Stmt::If {
                    cond: c,
                    then: Box::new(t),
                    els: e.map(Box::new),
                    pos: pos(),
                }
            }),
            (expr(), inner.clone()).prop_map(|(c, b)| Stmt::While {
                cond: c,
                body: Box::new(b),
                pos: pos(),
            }),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Stmt::Block),
        ]
    })
}

fn unit() -> impl Strategy<Value = Unit> {
    proptest::collection::vec(stmt(), 0..6).prop_map(|body| Unit {
        items: vec![Item::Func {
            ret: TypeAst::Int,
            ret_ptr: 0,
            name: "f".into(),
            params: vec![
                (
                    TypeAst::Int,
                    Declarator {
                        name: "a".into(),
                        ptr_depth: 0,
                        array_dims: vec![],
                    },
                ),
                (
                    TypeAst::Int,
                    Declarator {
                        name: "b".into(),
                        ptr_depth: 1,
                        array_dims: vec![],
                    },
                ),
            ],
            body: Some(body),
            is_extern: false,
            pos: pos(),
        }],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Printer fixpoint: printing, reparsing and printing again yields the
    /// same text (the printed form is canonical — a body the dangling
    /// `else` forces into braces reparses as a block, so the raw ASTs may
    /// differ by `Block` wrappers).
    #[test]
    fn print_parse_print_fixpoint(u in unit()) {
        let printed = print_unit(&u);
        let reparsed = match parse(&printed) {
            Ok(r) => r,
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "printed source failed to parse: {e}\n{printed}"
                )))
            }
        };
        prop_assert_eq!(&printed, &print_unit(&reparsed), "not a fixpoint:\n{}", printed);
    }
}

/// Functions nested `n` levels deep in each of the shapes whose printout
/// could nest deeper than their source: a printer that parenthesized
/// every operator, cast and `?:`, and braced every `if` body, would add
/// one level per node.
fn deep_shapes(n: usize) -> Vec<(&'static str, String)> {
    let body = |stmts: String| format!("int f(int x) {{ {stmts} return x; }}");
    let rungs: String = (1..n)
        .map(|k| format!("else if (x == {k}) x = {k}; "))
        .collect();
    vec![
        ("sum", body(format!("x = x{};", " + x".repeat(n)))),
        ("ifs", body(format!("{}x = 1;", "if (x) ".repeat(n)))),
        (
            "else-if ladder",
            body(format!("if (x == 0) x = 0; {rungs}else x = 1;")),
        ),
        ("negations", body(format!("x = {}x;", "- ".repeat(n)))),
        ("casts", body(format!("x = {}x;", "(int)".repeat(n)))),
        ("ternaries", body(format!("x = {}x;", "x ? x : ".repeat(n)))),
    ]
}

/// The printout nests no deeper than its source, so every shape just
/// inside `MAX_NESTING` reaches the print∘parse fixpoint. Runs on a main
/// thread's 8 MiB stack: an unoptimized build needs up to about 4.5 MiB
/// for input at the limit, more than a test thread's 2 MiB.
#[test]
fn printout_reparses_up_to_the_nesting_limit() {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn_scoped(scope, || {
                for (what, src) in deep_shapes(MAX_NESTING - 8) {
                    let printed = print_unit(&parse(&src).expect(what));
                    let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(printed, print_unit(&reparsed), "{what}");
                }
            })
            .expect("spawning a test thread");
    });
}
