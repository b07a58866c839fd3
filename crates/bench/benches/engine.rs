//! Criterion benches: engine throughput and the design-choice ablations
//! called out in DESIGN.md.
//!
//! Groups:
//! * `interpreter` — raw RAM-machine steps/second,
//! * `concolic_overhead` — instrumented vs plain execution of one run
//!   (the cost of the symbolic mirror),
//! * `directed_vs_random` — whole-session time to bug on the paper's
//!   AC-controller (directed) vs a fixed-budget random session,
//! * `strategies` — DFS vs random branch selection on a deep chain,
//! * `depth_scaling` — directed-search cost vs the `depth` parameter on
//!   the Dolev-Yao Needham-Schroeder model (the Figure 10 sweep, scaled
//!   down to bench-friendly depths).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dart::{run_once, Dart, DartConfig, EngineMode, InputTape, Strategy};
use dart_ram::{Machine, MachineConfig, StepOutcome, ZeroEnv};
use dart_workloads::{needham_schroeder, Intruder, LoweFix, AC_CONTROLLER};
use std::hint::black_box;

/// Tight arithmetic loop for raw interpreter throughput.
const SPIN: &str = r#"
    int spin(int n) {
        int acc = 0;
        int i;
        for (i = 0; i < n; i++) {
            acc = acc + i * 3 - (acc >> 1);
        }
        return acc;
    }
"#;

fn bench_interpreter(c: &mut Criterion) {
    let compiled = dart_minic::compile(SPIN).unwrap();
    let id = compiled.program.func_by_name("spin").unwrap();
    let mut group = c.benchmark_group("interpreter");
    for n in [100i64, 1000] {
        group.bench_with_input(BenchmarkId::new("spin", n), &n, |b, &n| {
            b.iter(|| {
                let mut m = Machine::new(&compiled.program, MachineConfig::default());
                m.call(id, &[n]).unwrap();
                match m.run(&mut ZeroEnv) {
                    StepOutcome::Finished { value } => black_box(value),
                    other => panic!("unexpected {other:?}"),
                }
            })
        });
    }
    group.finish();
}

fn bench_concolic_overhead(c: &mut Criterion) {
    let compiled = dart_minic::compile(SPIN).unwrap();
    let id = compiled.program.func_by_name("spin").unwrap();
    let sig = compiled.fn_sig("spin").unwrap().clone();
    let mut group = c.benchmark_group("concolic_overhead");
    group.bench_function("plain_run", |b| {
        b.iter(|| {
            let mut m = Machine::new(&compiled.program, MachineConfig::default());
            m.call(id, &[500]).unwrap();
            black_box(m.run(&mut ZeroEnv))
        })
    });
    group.bench_function("instrumented_run", |b| {
        b.iter(|| {
            let result = run_once(
                &compiled,
                &sig,
                1,
                MachineConfig::default(),
                InputTape::new(7),
                Vec::new(),
                32,
            );
            black_box(result.steps)
        })
    });
    group.finish();
}

fn bench_directed_vs_random(c: &mut Criterion) {
    let compiled = dart_minic::compile(AC_CONTROLLER).unwrap();
    let mut group = c.benchmark_group("directed_vs_random");
    group.bench_function("directed_to_bug_depth2", |b| {
        b.iter(|| {
            let report = Dart::new(
                &compiled,
                "ac_controller",
                DartConfig {
                    depth: 2,
                    max_runs: 1000,
                    seed: 1,
                    ..DartConfig::default()
                },
            )
            .unwrap()
            .run();
            assert!(report.found_bug());
            black_box(report.runs)
        })
    });
    group.bench_function("random_1000_runs_depth2", |b| {
        b.iter(|| {
            let report = Dart::new(
                &compiled,
                "ac_controller",
                DartConfig {
                    depth: 2,
                    max_runs: 1000,
                    seed: 1,
                    mode: EngineMode::RandomOnly,
                    ..DartConfig::default()
                },
            )
            .unwrap()
            .run();
            black_box(report.runs)
        })
    });
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    // A chain of filters: directed search must pass all of them.
    let src = r#"
        int chain(int a, int b, int cc, int d) {
            if (a == 11)
              if (b == 22)
                if (cc == 33)
                  if (d == 44)
                    abort();
            return 0;
        }
    "#;
    let compiled = dart_minic::compile(src).unwrap();
    let mut group = c.benchmark_group("strategies");
    for (name, strategy) in [
        ("dfs", Strategy::Dfs),
        ("random_branch", Strategy::RandomBranch),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = Dart::new(
                    &compiled,
                    "chain",
                    DartConfig {
                        max_runs: 10_000,
                        seed: 1,
                        strategy,
                        ..DartConfig::default()
                    },
                )
                .unwrap()
                .run();
                assert!(report.found_bug());
                black_box(report.runs)
            })
        });
    }
    group.finish();
}

fn bench_generational_vs_dfs(c: &mut Criterion) {
    // Ablation: the SAGE-style frontier vs the paper's DFS on a stateful
    // depth-5 search (the lock automaton combination).
    let src = dart_workloads::LOCK_FSM;
    let compiled = dart_minic::compile(src).unwrap();
    let mut group = c.benchmark_group("generational");
    for (name, mode) in [
        ("dfs", EngineMode::Directed),
        ("generational", EngineMode::Generational),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = Dart::new(
                    &compiled,
                    "step",
                    DartConfig {
                        depth: 5,
                        max_runs: 20_000,
                        seed: 1,
                        mode,
                        ..DartConfig::default()
                    },
                )
                .unwrap()
                .run();
                assert!(report.found_bug());
                black_box(report.runs)
            })
        });
    }
    group.finish();
}

fn bench_depth_scaling(c: &mut Criterion) {
    let src = needham_schroeder(Intruder::DolevYao, LoweFix::Off);
    let compiled = dart_minic::compile(&src).unwrap();
    let mut group = c.benchmark_group("depth_scaling");
    group.sample_size(10);
    for depth in [1u32, 2, 3] {
        group.bench_with_input(
            BenchmarkId::new("ns_dolev_yao", depth),
            &depth,
            |b, &depth| {
                b.iter(|| {
                    let report = Dart::new(
                        &compiled,
                        "deliver",
                        DartConfig {
                            depth,
                            max_runs: 100_000,
                            seed: 1,
                            ..DartConfig::default()
                        },
                    )
                    .unwrap()
                    .run();
                    black_box(report.runs)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_interpreter,
    bench_concolic_overhead,
    bench_directed_vs_random,
    bench_strategies,
    bench_generational_vs_dfs,
    bench_depth_scaling
);
criterion_main!(benches);
