//! Property-based tests for the integer constraint solver.
//!
//! Strategy: generate random small systems two ways —
//! 1. *Planted* systems: pick a secret assignment first, then emit only
//!    constraints that the secret satisfies. The solver must answer `Sat`,
//!    and the model it returns must satisfy every constraint.
//! 2. *Arbitrary* systems: any answer is allowed, but `Sat` models must
//!    verify, and `Unsat` answers are cross-checked against a brute-force
//!    enumeration over a tiny box.

use dart_solver::{
    Bounds, Constraint, LinExpr, RelOp, SolveInfo, SolveOutcome, Solver, SolverConfig, Var,
};
use proptest::prelude::*;

const NUM_VARS: u32 = 4;

fn relop() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        Just(RelOp::Eq),
        Just(RelOp::Ne),
        Just(RelOp::Lt),
        Just(RelOp::Le),
        Just(RelOp::Gt),
        Just(RelOp::Ge),
    ]
}

fn lin_expr() -> impl Strategy<Value = LinExpr> {
    (
        proptest::collection::vec((-5i64..=5, 0u32..NUM_VARS), 0..4),
        -20i64..=20,
    )
        .prop_map(|(terms, k)| LinExpr::from_terms(terms.into_iter().map(|(c, v)| (Var(v), c)), k))
}

fn constraint() -> impl Strategy<Value = Constraint> {
    (lin_expr(), relop()).prop_map(|(e, op)| Constraint::new(e, op))
}

/// Path constraints for the session-retention test: random linear
/// constraints plus the shapes a prefix session screens at push time —
/// trivially true, trivially false and GCD-infeasible.
fn path_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        6 => constraint(),
        1 => Just(Constraint::new(LinExpr::constant_expr(0), RelOp::Eq)),
        1 => Just(Constraint::new(LinExpr::constant_expr(1), RelOp::Eq)),
        // 2a + 4b + odd == 0: no integer solution.
        1 => (0u32..NUM_VARS, 0u32..NUM_VARS, -5i64..=5).prop_map(|(a, b, k)| {
            Constraint::new(
                LinExpr::from_terms([(Var(a), 2), (Var(b), 4)], 2 * k + 1),
                RelOp::Eq,
            )
        }),
    ]
}

/// One step of a DART session's path sequence: keep a prefix of the
/// previous path, optionally change one constraint inside it (a
/// concretized non-linear term taking a new value), then append a fresh
/// suffix.
fn path_step() -> impl Strategy<Value = (usize, Option<(usize, Constraint)>, Vec<Constraint>)> {
    (
        0usize..8,
        proptest::option::of((0usize..8, path_constraint())),
        proptest::collection::vec(path_constraint(), 0..5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Planted systems are always satisfiable and returned models verify.
    #[test]
    fn planted_systems_are_sat(
        secret in proptest::collection::vec(-50i64..=50, NUM_VARS as usize),
        raw in proptest::collection::vec(constraint(), 1..8),
    ) {
        // Keep only constraints the secret satisfies; flip the rest so they do.
        let planted: Vec<Constraint> = raw
            .into_iter()
            .map(|c| {
                if c.satisfied_by(|v| Some(secret[v.index()])) {
                    c
                } else {
                    c.negated()
                }
            })
            .collect();
        let out = Solver::default().solve(&planted);
        match out {
            SolveOutcome::Sat(model) => {
                for c in &planted {
                    prop_assert!(
                        c.satisfied_by(|v| model.get(&v).copied()),
                        "model {model:?} violates {c}"
                    );
                }
            }
            other => prop_assert!(false, "planted system reported {other:?}"),
        }
    }

    /// On arbitrary systems over a tiny box, the solver agrees with
    /// brute-force enumeration.
    #[test]
    fn agrees_with_bruteforce_on_tiny_box(
        cs in proptest::collection::vec(constraint(), 1..6),
    ) {
        const LO: i64 = -4;
        const HI: i64 = 4;
        let solver = Solver::new(SolverConfig {
            default_bounds: Bounds::new(LO, HI),
            ..SolverConfig::default()
        });

        // Brute force over all assignments in the box.
        let mut brute_sat = false;
        let width = (HI - LO + 1) as usize;
        'outer: for idx in 0..width.pow(NUM_VARS) {
            let mut rem = idx;
            let mut point = [0i64; NUM_VARS as usize];
            for slot in point.iter_mut() {
                *slot = LO + (rem % width) as i64;
                rem /= width;
            }
            if cs.iter().all(|c| c.satisfied_by(|v| Some(point[v.index()]))) {
                brute_sat = true;
                break 'outer;
            }
        }

        match solver.solve(&cs) {
            SolveOutcome::Sat(model) => {
                prop_assert!(brute_sat, "solver found model but brute force says unsat");
                for c in &cs {
                    prop_assert!(c.satisfied_by(|v| model.get(&v).copied()));
                }
                for (_, &val) in model.iter() {
                    prop_assert!((LO..=HI).contains(&val), "model outside box");
                }
            }
            SolveOutcome::Unsat => prop_assert!(!brute_sat, "solver unsat, brute force sat"),
            SolveOutcome::Unknown => {
                // Permitted, but should be rare at this scale; accept.
            }
        }
    }

    /// Negation duality: a constraint and its negation never agree on any
    /// point, and always cover every point.
    #[test]
    fn negation_partitions_space(
        c in constraint(),
        point in proptest::collection::vec(-100i64..=100, NUM_VARS as usize),
    ) {
        let lookup = |v: Var| Some(point[v.index()]);
        prop_assert_ne!(c.satisfied_by(lookup), c.negated().satisfied_by(lookup));
    }

    /// Solutions honor the hint for unconstrained degrees of freedom when the
    /// hint already satisfies the system.
    #[test]
    fn hint_kept_when_satisfying(
        secret in proptest::collection::vec(-50i64..=50, NUM_VARS as usize),
        raw in proptest::collection::vec(constraint(), 1..5),
    ) {
        let planted: Vec<Constraint> = raw
            .into_iter()
            .map(|c| {
                if c.satisfied_by(|v| Some(secret[v.index()])) { c } else { c.negated() }
            })
            .collect();
        let out = Solver::default()
            .solve_with_hint(&planted, |v| Some(secret[v.index()]));
        match out {
            SolveOutcome::Sat(model) => {
                for (&v, &val) in model.iter() {
                    prop_assert_eq!(val, secret[v.index()], "hint value not preserved");
                }
            }
            other => prop_assert!(false, "expected sat, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Disequality-heavy systems (the lazy case-analysis path): an
    /// all-distinct constraint over k variables plus a planted witness.
    #[test]
    fn all_distinct_systems_solved(
        k in 2usize..5,
        base in -20i64..20,
    ) {
        let mut cs = Vec::new();
        // Pin each variable into a small band around distinct anchors so
        // the system is satisfiable but the zero/hint probes fail.
        for i in 0..k {
            let anchor = base + 10 * i as i64;
            cs.push(Constraint::new(
                LinExpr::var(Var(i as u32)).offset(-anchor - 3),
                RelOp::Le,
            ));
            cs.push(Constraint::new(
                LinExpr::var(Var(i as u32)).offset(-anchor + 3),
                RelOp::Ge,
            ));
        }
        for i in 0..k {
            for j in (i + 1)..k {
                cs.push(Constraint::new(
                    LinExpr::var(Var(i as u32)).sub(&LinExpr::var(Var(j as u32))),
                    RelOp::Ne,
                ));
            }
        }
        match Solver::default().solve(&cs) {
            SolveOutcome::Sat(m) => {
                for c in &cs {
                    prop_assert!(c.satisfied_by(|v| m.get(&v).copied()));
                }
            }
            other => prop_assert!(false, "expected sat, got {other:?}"),
        }
    }

    /// Pigeonhole-style unsat: k variables in a band of k-1 values, all
    /// distinct — the lazy splitter must refute every branch.
    #[test]
    fn pigeonhole_distinct_unsat(k in 2usize..5) {
        let mut cs = Vec::new();
        for i in 0..k {
            cs.push(Constraint::new(LinExpr::var(Var(i as u32)), RelOp::Ge));
            cs.push(Constraint::new(
                LinExpr::var(Var(i as u32)).offset(-(k as i64 - 2)),
                RelOp::Le,
            ));
        }
        for i in 0..k {
            for j in (i + 1)..k {
                cs.push(Constraint::new(
                    LinExpr::var(Var(i as u32)).sub(&LinExpr::var(Var(j as u32))),
                    RelOp::Ne,
                ));
            }
        }
        prop_assert_eq!(Solver::default().solve(&cs), SolveOutcome::Unsat);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The model pool against a bare solver: on a random query stream
    /// (with repeats, so pooled models get re-checked under the same and
    /// other hints), `QueryCache` and a plain `Solver::solve_with_hint`
    /// reach the same definite verdicts, every `Sat` model from either
    /// satisfies every constraint, and every query is either a fresh
    /// solve or a pool answer — nothing else answers without solving.
    #[test]
    fn cached_and_uncached_equisatisfiable(
        queries in proptest::collection::vec(
            (proptest::collection::vec(constraint(), 1..6),
             proptest::collection::vec(-30i64..=30, NUM_VARS as usize)),
            1..8,
        ),
        repeat_rounds in 1usize..3,
    ) {
        use dart_solver::QueryCache;
        let solver = Solver::default();
        let mut cache = QueryCache::default();
        let mut asked = 0u64;
        for _ in 0..=repeat_rounds {
            for (cs, hint) in &queries {
                let lookup = |v: Var| Some(hint[v.index()]);
                let cached = cache.solve_with_hint(&solver, cs, lookup);
                let bare = solver.solve_with_hint(cs, lookup);
                asked += 1;
                if cached != SolveOutcome::Unknown && bare != SolveOutcome::Unknown {
                    prop_assert_eq!(
                        cached.is_sat(),
                        bare.is_sat(),
                        "cache {:?} vs solver {:?} on {:?}", &cached, &bare, cs
                    );
                }
                for out in [&cached, &bare] {
                    if let SolveOutcome::Sat(m) = out {
                        for c in cs {
                            prop_assert!(
                                c.satisfied_by(|v| m.get(&v).copied()),
                                "model {:?} violates {}", m, c
                            );
                        }
                    }
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses + stats.model_reuse, asked);
    }

    /// An incremental prefix session answers every `negated_prefix(j)`
    /// query equisatisfiably with a from-scratch solve of the same
    /// conjunction, and its `Sat` models verify. A session query that
    /// reaches the component split splits exactly as the plain solver
    /// does: the session numbers the prefix's variables once and the
    /// plain solver numbers each query's own, but the components agree.
    #[test]
    fn session_matches_plain_solver(
        path in proptest::collection::vec(constraint(), 1..7),
        hint in proptest::collection::vec(-30i64..=30, NUM_VARS as usize),
    ) {
        let solver = Solver::default();
        let mut sess = solver.session();
        for c in &path {
            sess.push(c);
        }
        let lookup = |v: Var| Some(hint[v.index()]);
        for j in 0..path.len() {
            let negated = path[j].negated();
            let (mut info_a, mut info_b) = (SolveInfo::default(), SolveInfo::default());
            let a = sess.solve_query_info(j, &negated, lookup, &mut info_a);
            let mut query: Vec<Constraint> = path[..j].to_vec();
            query.push(negated.clone());
            let b = solver.solve_with_hint_info(&query, lookup, &mut info_b);
            // The session probes before it splits, so a query its probes
            // settle reports no components; past them, the split agrees.
            if info_a.components > 0 {
                prop_assert_eq!(
                    (info_a.components, info_a.was_split()),
                    (info_b.components, info_b.was_split()),
                    "split diverged at j={}", j
                );
            }
            // `Unknown` is a resource verdict, not a semantic one; the two
            // code paths may give up at different points, so only compare
            // definite answers.
            if a != SolveOutcome::Unknown && b != SolveOutcome::Unknown {
                prop_assert_eq!(
                    a.is_sat(), b.is_sat(),
                    "session diverged from plain solve at j={}: {:?} vs {:?}", j, a, b
                );
            }
            if let SolveOutcome::Sat(m) = &a {
                for c in &query {
                    prop_assert!(
                        c.satisfied_by(|v| m.get(&v).copied()),
                        "session model {:?} violates {}", m, c
                    );
                }
            }
        }
    }

    /// A session retained across a sequence of paths and re-based onto
    /// each one answers exactly like a session freshly built by pushing
    /// that path: for every `j`, the same outcome and the same model. The
    /// paths share random prefixes, include constraints the session
    /// screens at push time, and sometimes change an earlier constraint.
    /// Half the cases pin the search budgets tiny, so queries fall through
    /// the probes and the finite-domain pass into branch & bound, starting
    /// from the propagated boxes that re-basing must restore.
    #[test]
    fn retained_session_matches_fresh_session(
        first in proptest::collection::vec(path_constraint(), 1..7),
        steps in proptest::collection::vec(path_step(), 1..5),
        hint in proptest::collection::vec(-30i64..=30, NUM_VARS as usize),
        tiny_budgets in any::<bool>(),
    ) {
        let config = if tiny_budgets {
            SolverConfig {
                max_fd_nodes: 1,
                max_bb_nodes: 4,
                max_ne_leaves: 4,
                ..SolverConfig::default()
            }
        } else {
            SolverConfig::default()
        };
        let solver = Solver::new(config);
        let lookup = |v: Var| Some(hint[v.index()]);
        let mut paths = vec![first];
        for (keep, change, suffix) in steps {
            let mut path = paths[paths.len() - 1].clone();
            path.truncate(keep);
            if let Some((at, c)) = change {
                if at < path.len() {
                    path[at] = c;
                }
            }
            path.extend(suffix);
            paths.push(path);
        }
        let mut retained = solver.session();
        for path in &paths {
            retained.rebase(path);
            prop_assert_eq!(retained.depth(), path.len());
            let mut fresh = solver.session();
            for c in path {
                fresh.push(c);
            }
            // Deepest flip first, the directed search's order.
            for j in (0..path.len()).rev() {
                let negated = path[j].negated();
                prop_assert_eq!(
                    retained.solve_query(j, &negated, lookup),
                    fresh.solve_query(j, &negated, lookup),
                    "retained session diverged at j={} on {:?}", j, path
                );
            }
        }
    }

    /// Pushing then popping restores the session exactly: a query after a
    /// push/pop pair answers the same as before it.
    #[test]
    fn session_pop_undoes_push(
        path in proptest::collection::vec(constraint(), 1..5),
        extra in constraint(),
        hint in proptest::collection::vec(-30i64..=30, NUM_VARS as usize),
    ) {
        let solver = Solver::default();
        let mut sess = solver.session();
        for c in &path {
            sess.push(c);
        }
        let lookup = |v: Var| Some(hint[v.index()]);
        let j = path.len() - 1;
        let negated = path[j].negated();
        let before = sess.solve_query(j, &negated, lookup);
        sess.push(&extra);
        sess.pop();
        let after = sess.solve_query(j, &negated, lookup);
        prop_assert_eq!(before, after);
    }
}
