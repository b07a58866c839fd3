//! Model test of the symbolic store: random sequences of `bind`,
//! `bind_input`, `set` and `forget` over addresses in every region, at
//! each region's edges and outside every region, checked after each
//! operation against a plain `HashMap<i64, LinExpr>`.

use dart_ram::{SymView, GLOBAL_BASE, HEAP_BASE, STACK_BASE};
use dart_solver::{LinExpr, Var};
use dart_sym::SymMemory;
use proptest::prelude::*;
use std::collections::HashMap;

/// Addresses the operations draw from: a few cells of each region, each
/// region's first and last addresses, the first slots past the store's
/// dense ranges (`1 << 16` slots today; the test holds for any cap), far
/// into each region, below `GLOBAL_BASE`, negative, and the extremes.
const ADDRS: [i64; 26] = [
    GLOBAL_BASE,
    GLOBAL_BASE + 1,
    GLOBAL_BASE + 64,
    GLOBAL_BASE + (1 << 16) - 1,
    GLOBAL_BASE + (1 << 16),
    GLOBAL_BASE + (1 << 31),
    STACK_BASE - 1,
    STACK_BASE,
    STACK_BASE + 1,
    STACK_BASE + 65,
    STACK_BASE + (1 << 16) - 1,
    STACK_BASE + (1 << 16),
    STACK_BASE + (1 << 40),
    HEAP_BASE - 1,
    HEAP_BASE,
    HEAP_BASE + 1,
    HEAP_BASE + 64,
    0,
    100,
    164,
    GLOBAL_BASE - 1,
    -1,
    -64,
    i64::MIN,
    i64::MAX,
    i64::MAX - 63,
];

#[derive(Debug, Clone)]
enum Op {
    Bind(i64, Var),
    BindInput(i64),
    /// `set` with a non-constant form, or with a constant when `None`.
    Set(i64, Option<LinExpr>),
    Forget(i64),
}

fn addr() -> impl Strategy<Value = i64> {
    (0..ADDRS.len()).prop_map(|i| ADDRS[i])
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr(), 0u32..8).prop_map(|(a, v)| Op::Bind(a, Var(v))),
        addr().prop_map(Op::BindInput),
        (addr(), 0u32..8, -3i64..=3)
            .prop_map(|(a, v, k)| Op::Set(a, Some(LinExpr::var(Var(v)).offset(k)))),
        addr().prop_map(|a| Op::Set(a, None)),
        addr().prop_map(Op::Forget),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn store_matches_a_hashmap_model(ops in proptest::collection::vec(op(), 1..48)) {
        let mut store = SymMemory::new();
        let mut model: HashMap<i64, LinExpr> = HashMap::new();
        let mut inputs = 0u32;
        for (step, op) in ops.iter().enumerate() {
            match op.clone() {
                Op::Bind(a, v) => {
                    store.bind(a, v);
                    model.insert(a, LinExpr::var(v));
                }
                Op::BindInput(a) => {
                    let v = store.bind_input(a);
                    prop_assert_eq!(v, Var(inputs));
                    inputs += 1;
                    model.insert(a, LinExpr::var(v));
                }
                Op::Set(a, form) => {
                    let form = form.unwrap_or_else(|| LinExpr::constant_expr(a));
                    if form.is_constant() {
                        model.remove(&a);
                    } else {
                        model.insert(a, form.clone());
                    }
                    store.set(a, form);
                }
                Op::Forget(a) => {
                    store.forget(a);
                    model.remove(&a);
                }
            }
            for a in ADDRS {
                prop_assert_eq!(store.get(a), model.get(&a), "step {} {:?} at {}", step, op, a);
                prop_assert_eq!(store.tracks(a), model.contains_key(&a), "step {} at {}", step, a);
            }
            prop_assert_eq!(store.tracked(), model.len(), "step {} {:?}", step, op);
            prop_assert_eq!(store.num_inputs(), inputs);
            let summary = SymView::summary(&store);
            for &a in model.keys() {
                prop_assert!(summary & 1 << (a as u64 & 63) != 0, "step {}: bit of {} unset", step, a);
            }
            if model.is_empty() {
                prop_assert_eq!(summary, 0, "a drained store resets its summary");
            }
        }
    }
}
