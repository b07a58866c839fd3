//! E5 — the §2 worked examples and the three-way tool comparison.
//!
//! The paper uses four small programs to position DART against random
//! testing, classic (static) symbolic execution, and predicate-
//! abstraction model checking. This binary runs each vignette under our
//! three engine modes and prints what each finds, mirroring the paper's
//! §2.1/§2.4/§2.5 narrative.

use dart::{Dart, DartConfig, EngineMode, Outcome};
use dart_bench::{header, reject_unknown_args, seed_from_args};
use dart_workloads::{EXAMPLE_2_4, FOOBAR, PAPER_H, STRUCT_CAST};

fn run(src: &str, toplevel: &str, mode: EngineMode, seed: u64, max_runs: u64) -> String {
    let compiled = dart_minic::compile(src).expect("vignette compiles");
    let report = Dart::new(
        &compiled,
        toplevel,
        DartConfig {
            mode,
            max_runs,
            seed,
            ..DartConfig::default()
        },
    )
    .expect("toplevel exists")
    .run();
    match (&report.outcome, report.found_bug()) {
        (_, true) => format!("BUG in {} runs", report.bug().unwrap().run_index),
        (Outcome::Complete, false) => format!("no bug; complete in {} runs", report.runs),
        (_, false) => format!("no bug in {} runs", report.runs),
    }
}

fn main() {
    reject_unknown_args(&["--seed"], &[]);
    let seed = seed_from_args();
    header(
        "E5: §2 vignettes under three engines",
        &["program", "directed (DART)", "random", "symbolic-only"],
    );
    let cases = [
        ("h/f (§2.1)", PAPER_H, "h", 2_000u64),
        ("example (§2.4)", EXAMPLE_2_4, "f", 2_000),
        ("struct cast (§2.5)", STRUCT_CAST, "bar", 2_000),
        ("foobar (§2.5)", FOOBAR, "foobar", 2_000),
    ];
    for (name, src, toplevel, budget) in cases {
        let directed = run(src, toplevel, EngineMode::Directed, seed, budget);
        let random = run(src, toplevel, EngineMode::RandomOnly, seed, budget);
        let symbolic = run(src, toplevel, EngineMode::SymbolicOnly, seed, budget);
        println!("{name} | {directed} | {random} | {symbolic}");
    }
    println!(
        "\npaper's expectations:\n\
         - h/f: DART bugs on run 2; random never (p = 2^-32/run).\n\
         - §2.4: DART terminates, proving both inner branches infeasible.\n\
         - struct cast: DART reaches the abort easily (and also finds the\n\
           NULL-argument crash); static analysis is stuck on aliasing.\n\
         - foobar: DART finds the only reachable abort with ~1/2 probability\n\
           per restart; symbolic execution is stuck at the non-linear branch;\n\
           predicate abstraction would report a false alarm at line 7."
    );
}
