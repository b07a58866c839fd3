//! E1 — §4.1 AC-controller results (in-text table).
//!
//! Paper: depth 1 → directed search explores all paths in 6 iterations,
//! no error; depth 2 → assertion violation found in 7 iterations; a random
//! search runs "for hours" without finding anything (probability 2^-64).

use dart::{Dart, DartConfig, EngineMode};
use dart_bench::{fmt_dur, header, reject_unknown_args, seed_from_args};
use dart_workloads::AC_CONTROLLER;
use std::time::Instant;

fn main() {
    reject_unknown_args(&["--seed"], &[]);
    let seed = seed_from_args();
    let compiled = dart_minic::compile(AC_CONTROLLER).expect("Fig. 6 compiles");

    header(
        "E1: AC-controller (paper §4.1)",
        &["depth", "mode", "error?", "runs (paper)", "time"],
    );

    for depth in [1u32, 2] {
        let t = Instant::now();
        let report = Dart::new(
            &compiled,
            "ac_controller",
            DartConfig {
                depth,
                max_runs: 100_000,
                seed,
                ..DartConfig::default()
            },
        )
        .expect("toplevel exists")
        .run();
        let paper = match depth {
            1 => "no; all paths in 6 runs",
            _ => "yes; 7 runs",
        };
        println!(
            "{depth} | directed | {} | {} runs (paper: {paper}) | {}",
            if report.found_bug() { "yes" } else { "no" },
            report.runs,
            fmt_dur(t.elapsed()),
        );
        if let Some(bug) = report.bug() {
            let msgs: Vec<i64> = bug.inputs.iter().map(|s| s.value).collect();
            println!("      witness message sequence: {msgs:?}");
        }
    }

    // Random baseline at depth 2 with a large budget.
    let t = Instant::now();
    let random = Dart::new(
        &compiled,
        "ac_controller",
        DartConfig {
            depth: 2,
            max_runs: 1_000_000,
            seed,
            mode: EngineMode::RandomOnly,
            ..DartConfig::default()
        },
    )
    .expect("toplevel exists")
    .run();
    println!(
        "2 | random   | {} | {} runs (paper: nothing after hours; p = 2^-64) | {}",
        if random.found_bug() { "yes" } else { "no" },
        random.runs,
        fmt_dur(t.elapsed()),
    );
}
