//! Criterion benches for the constraint solver (the `lp_solve` stand-in):
//! the query shapes DART generates, from hint-satisfiable fast paths to
//! unsat proofs through the lazy `!=` case analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dart_solver::{Constraint, LinExpr, RelOp, SolveOutcome, Solver, Var};
use std::hint::black_box;

fn v(i: u32) -> LinExpr {
    LinExpr::var(Var(i))
}

/// `x0 == k` plus a tail of `xi != ci`: the AC-controller query shape.
fn filter_chain(len: u32) -> Vec<Constraint> {
    let mut cs = vec![Constraint::new(v(0).offset(-3), RelOp::Eq)];
    for i in 1..len {
        cs.push(Constraint::new(v(i).offset(-(i as i64)), RelOp::Ne));
    }
    cs
}

/// Nonce-propagation equality chain: the Needham-Schroeder query shape.
fn equality_chain(len: u32) -> Vec<Constraint> {
    let mut cs = vec![Constraint::new(v(0).offset(-1001), RelOp::Eq)];
    for i in 1..len {
        cs.push(Constraint::new(v(i).sub(&v(i - 1)).offset(-1), RelOp::Eq));
    }
    cs
}

/// The triangle postcondition shape: inequalities + multi-variable `!=`
/// (exercises the lazy case analysis; this exact shape used to blow the
/// eager splitter's budget).
fn triangle_unsat() -> Vec<Constraint> {
    vec![
        Constraint::new(v(0), RelOp::Gt),
        Constraint::new(v(1), RelOp::Gt),
        Constraint::new(v(2), RelOp::Gt),
        Constraint::new(v(0).add(&v(1)).sub(&v(2)), RelOp::Gt),
        Constraint::new(v(1).add(&v(2)).sub(&v(0)), RelOp::Gt),
        Constraint::new(v(0).sub(&v(1)), RelOp::Eq),
        Constraint::new(v(1).sub(&v(2)), RelOp::Eq),
        Constraint::new(v(0).sub(&v(2)), RelOp::Ne), // contradicts the chain
    ]
}

fn bench_query_shapes(c: &mut Criterion) {
    let solver = Solver::default();
    let mut group = c.benchmark_group("solver");

    for len in [4u32, 16] {
        group.bench_with_input(
            BenchmarkId::new("filter_chain_sat", len),
            &len,
            |b, &len| {
                let cs = filter_chain(len);
                b.iter(|| match solver.solve(&cs) {
                    SolveOutcome::Sat(m) => black_box(m.len()),
                    other => panic!("expected sat, got {other:?}"),
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("equality_chain_sat", len),
            &len,
            |b, &len| {
                let cs = equality_chain(len);
                b.iter(|| match solver.solve(&cs) {
                    SolveOutcome::Sat(m) => black_box(m.len()),
                    other => panic!("expected sat, got {other:?}"),
                })
            },
        );
    }

    group.bench_function("triangle_unsat_lazy_ne", |b| {
        let cs = triangle_unsat();
        b.iter(|| match solver.solve(&cs) {
            SolveOutcome::Unsat => black_box(0),
            other => panic!("expected unsat, got {other:?}"),
        })
    });

    group.bench_function("hint_hit_fast_path", |b| {
        // The solver should accept a satisfying hint without any search.
        let cs = filter_chain(8);
        b.iter(|| {
            match solver.solve_with_hint(&cs, |var| Some(if var == Var(0) { 3 } else { 999 })) {
                SolveOutcome::Sat(m) => black_box(m.len()),
                other => panic!("expected sat, got {other:?}"),
            }
        })
    });

    group.bench_function("bb_integrality", |b| {
        // 3x + 3y == 7 has rational but no integer solutions in range —
        // settled by the GCD test; 3x + 5y == 11 (x = 2, y = 1) needs
        // actual search. (The constant must keep the instance feasible
        // over nonnegative integers: 3x + 5y == 7 has no such solution.)
        let cs = vec![
            Constraint::new(v(0).scaled(3).add(&v(1).scaled(5)).offset(-11), RelOp::Eq),
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(1), RelOp::Ge),
        ];
        b.iter(|| match solver.solve(&cs) {
            SolveOutcome::Sat(m) => black_box(m.len()),
            other => panic!("expected sat, got {other:?}"),
        })
    });

    group.finish();
}

/// Incremental prefix sessions vs from-scratch solves of the same
/// queries: the `push`/`pop` tableau reuse the issue's third layer adds.
fn bench_prefix_session(c: &mut Criterion) {
    let solver = Solver::default();
    let path = equality_chain(12);
    let hint = |_| Some(-1);
    let mut group = c.benchmark_group("prefix_session");
    group.bench_function("plain_per_query", |b| {
        b.iter(|| {
            let mut sat = 0;
            for j in 0..path.len() {
                let mut q: Vec<Constraint> = path[..j].to_vec();
                q.push(path[j].negated());
                if solver.solve_with_hint(&q, hint).is_sat() {
                    sat += 1;
                }
            }
            black_box(sat)
        })
    });
    group.bench_function("incremental_session", |b| {
        b.iter(|| {
            let mut sess = solver.session();
            for cs in path.iter() {
                sess.push(cs);
            }
            let mut sat = 0;
            for (j, c) in path.iter().enumerate() {
                if sess.solve_query(j, &c.negated(), hint).is_sat() {
                    sat += 1;
                }
            }
            black_box(sat)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query_shapes, bench_prefix_session);
criterion_main!(benches);
