//! E3 — Figure 10: Needham-Schroeder with a Dolev-Yao intruder model,
//! plus the paper's Lowe-fix follow-up.
//!
//! Paper: depths 1–3 → no error (5 / 85 / 6,260 runs); depth 4 → error
//! after 328,459 runs (18 min): the full six-step Lowe attack. With the
//! (incompletely implemented) fix the attack is *still* found (~22 min) —
//! a previously unknown bug; after completing the fix, no violation.

use dart::{Dart, DartConfig};
use dart_bench::{fmt_dur, header, reject_unknown_args, seed_from_args};
use dart_workloads::{needham_schroeder, Intruder, LoweFix};
use std::time::Instant;

fn session(fix: LoweFix, depth: u32, max_runs: u64, seed: u64) -> (dart::SessionReport, String) {
    let src = needham_schroeder(Intruder::DolevYao, fix);
    let compiled = dart_minic::compile(&src).expect("workload compiles");
    let t = Instant::now();
    let report = Dart::new(
        &compiled,
        "deliver",
        DartConfig {
            depth,
            max_runs,
            seed,
            ..DartConfig::default()
        },
    )
    .expect("deliver exists")
    .run();
    (report, fmt_dur(t.elapsed()))
}

fn main() {
    reject_unknown_args(&["--seed"], &[]);
    let seed = seed_from_args();

    header(
        "E3: Needham-Schroeder, Dolev-Yao intruder (Figure 10)",
        &["depth", "error?", "runs (paper)", "time"],
    );
    let paper = [
        "no; 5 runs, <1 s",
        "no; 85 runs, <1 s",
        "no; 6,260 runs, 22 s",
        "yes; 328,459 runs, 18 min",
    ];
    for depth in 1..=4u32 {
        let (report, dur) = session(LoweFix::Off, depth, 2_000_000, seed);
        println!(
            "{depth} | {} | {} runs (paper: {}) | {dur}",
            if report.found_bug() { "yes" } else { "no" },
            report.runs,
            paper[depth as usize - 1],
        );
        if depth == 4 {
            if let Some(bug) = report.bug() {
                println!("\nThe discovered attack (one line per delivered message):");
                let vals: Vec<i64> = bug.inputs.iter().map(|s| s.value).collect();
                for (i, msg) in vals.chunks(5).enumerate() {
                    println!(
                        "  {}. to={} key={} data=({}, {}, {})",
                        i + 1,
                        msg[0],
                        msg[1],
                        msg[2],
                        msg[3],
                        msg[4]
                    );
                }
                println!(
                    "  (agents: 1=A, 2=B, 3=intruder; nonces: 1001=Na, 1002=Nb —\n\
                     \x20  message 2 impersonates A to B with the learned Na, message 3\n\
                     \x20  forwards B's undecryptable reply to A, message 4 returns the\n\
                     \x20  extracted Nb to B: Lowe's attack, steps 2/3/5/6.)"
                );
            }
        }
    }

    header(
        "E3b: Lowe's fix (paper §4.2, last paragraph)",
        &["variant", "attack found?", "runs", "time"],
    );
    for (fix, label, paper) in [
        (
            LoweFix::Incomplete,
            "incomplete fix (the bug DART found)",
            "yes, ~22 min",
        ),
        (LoweFix::Complete, "complete fix", "no"),
    ] {
        let (report, dur) = session(fix, 4, 2_000_000, seed);
        println!(
            "{label} | {} (paper: {paper}) | {} runs | {dur}",
            if report.found_bug() { "yes" } else { "no" },
            report.runs,
        );
    }
}
