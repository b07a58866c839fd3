//! E2 — Figure 9: Needham-Schroeder with a possibilistic intruder model.
//!
//! Paper: depth 1 → no error, 69 runs (< 1 s); depth 2 → error, 664 runs
//! (2 s); a random search finds nothing. The "error" is the projection of
//! Lowe's attack onto the responder — with the most general environment
//! DART simply *solves* for the secret nonce.

use dart::{Dart, DartConfig, EngineMode};
use dart_bench::{fmt_dur, header, reject_unknown_args, seed_from_args};
use dart_workloads::{needham_schroeder, Intruder, LoweFix};
use std::time::Instant;

fn main() {
    reject_unknown_args(&["--seed"], &[]);
    let seed = seed_from_args();
    let src = needham_schroeder(Intruder::Possibilistic, LoweFix::Off);
    let compiled = dart_minic::compile(&src).expect("workload compiles");

    header(
        "E2: Needham-Schroeder, possibilistic intruder (Figure 9)",
        &["depth", "error?", "runs (paper)", "time"],
    );
    for (depth, paper) in [(1u32, "no; 69 runs, <1 s"), (2, "yes; 664 runs, 2 s")] {
        let t = Instant::now();
        let report = Dart::new(
            &compiled,
            "deliver",
            DartConfig {
                depth,
                max_runs: 1_000_000,
                seed,
                ..DartConfig::default()
            },
        )
        .expect("deliver exists")
        .run();
        println!(
            "{depth} | {} | {} runs (paper: {paper}) | {}",
            if report.found_bug() { "yes" } else { "no" },
            report.runs,
            fmt_dur(t.elapsed()),
        );
    }

    let t = Instant::now();
    let random = Dart::new(
        &compiled,
        "deliver",
        DartConfig {
            depth: 2,
            max_runs: 200_000,
            seed,
            mode: EngineMode::RandomOnly,
            ..DartConfig::default()
        },
    )
    .expect("deliver exists")
    .run();
    println!(
        "2 (random baseline) | {} | {} runs (paper: nothing after hours) | {}",
        if random.found_bug() { "yes" } else { "no" },
        random.runs,
        fmt_dur(t.elapsed()),
    );
}
