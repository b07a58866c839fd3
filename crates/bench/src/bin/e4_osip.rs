//! E4 — §4.3: unit testing an oSIP-like library.
//!
//! Paper: DART crashes 65 % of oSIP's ~600 externally visible functions
//! within 1,000 runs each, almost all via unchecked NULL pointer
//! parameters; and it finds one deep, externally controllable crash — an
//! unchecked `alloca(message_size)` in `osip_message_parse` that returns
//! NULL for messages over ~2.5 MB.
//!
//! This binary sweeps the synthetic library (same defect distribution;
//! see DESIGN.md), prints the crash rate and per-class detection table
//! (including the classes DART is *expected* to miss), and reproduces the
//! parser attack. `--functions N` controls the sweep size;
//! `--engine directed|generational` selects the search engine; under
//! `generational`, `--frontier-budget N` bounds the scored frontier
//! (EXPERIMENTS.md E10) and the sweep line reports the aggregate
//! dedup/eviction/peak counters.

use dart::{Dart, DartConfig, EngineMode};
use dart_bench::{flag_value, fmt_dur, header, reject_unknown_args, seed_from_args};
use dart_workloads::{generate_osip, OsipConfig, Planted};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    reject_unknown_args(
        &["--seed", "--functions", "--engine", "--frontier-budget"],
        &[],
    );
    let seed = seed_from_args();
    let num_functions = flag_value("--functions").unwrap_or(200);
    let engine = match flag_value::<String>("--engine").as_deref() {
        None | Some("directed") => EngineMode::Directed,
        Some("generational") => EngineMode::Generational,
        Some(other) => {
            eprintln!("unknown --engine `{other}` (expected `directed` or `generational`)");
            std::process::exit(2);
        }
    };
    let frontier_budget: Option<usize> = flag_value("--frontier-budget");

    let lib = generate_osip(OsipConfig {
        num_functions,
        seed,
    });
    let compiled = dart_minic::compile(&lib.source).expect("library compiles");

    let t = Instant::now();
    let mut crashed = 0usize;
    let mut by_class: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    let mut runs_to_crash: Vec<u64> = Vec::new();
    let names: Vec<String> = lib.functions.iter().map(|f| f.name.clone()).collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let config = DartConfig {
        max_runs: 1000, // the paper's per-function cap
        seed,
        mode: engine,
        frontier_budget,
        ..DartConfig::default()
    };
    // Every toplevel comes from the generated library, so only the
    // configuration (e.g. `--frontier-budget 0`) can be rejected.
    let results = dart::sweep(&compiled, &names, &config, threads).unwrap_or_else(|e| {
        eprintln!("e4_osip: {e}");
        std::process::exit(2)
    });
    for (f, result) in lib.functions.iter().zip(&results) {
        let report = result
            .report()
            .expect("no faults are injected in a plain benchmark sweep");
        if report.found_bug() {
            crashed += 1;
            runs_to_crash.push(report.runs);
        }
        let class = match f.planted {
            Planted::None => "correctly guarded (no defect)",
            Planted::UnguardedNullDeref => "unguarded NULL deref",
            Planted::GuardedWrongPath => "guard missing on rare path",
            Planted::NonTermination => "input-gated hang",
            Planted::BlindDivByZero => "blind div-by-zero (expected miss)",
            Planted::BoundaryOffByOne => "boundary off-by-one (expected miss)",
        };
        let e = by_class.entry(class).or_insert((0, 0));
        e.0 += usize::from(report.found_bug());
        e.1 += 1;
    }
    let elapsed = t.elapsed();

    header(
        "E4: oSIP-like library sweep (paper §4.3)",
        &["metric", "ours", "paper"],
    );
    println!(
        "functions crashed within 1000 runs | {}/{} ({:.0}%) | ~65% of ~600",
        crashed,
        lib.functions.len(),
        100.0 * crashed as f64 / lib.functions.len() as f64,
    );
    runs_to_crash.sort_unstable();
    if !runs_to_crash.is_empty() {
        println!(
            "median runs to first crash | {} | (not reported)",
            runs_to_crash[runs_to_crash.len() / 2]
        );
    }
    println!("sweep time | {} | (not reported)", fmt_dur(elapsed));
    if engine == EngineMode::Generational {
        let (dedup, evicted, peak) =
            results
                .iter()
                .filter_map(|r| r.report())
                .fold((0u64, 0u64, 0u64), |(d, e, p), rep| {
                    (
                        d + rep.dedup_hits,
                        e + rep.frontier_evicted,
                        p.max(rep.frontier_peak),
                    )
                });
        println!(
            "generational frontier | budget {}, dedup hits {}, evicted {}, peak {} | (n/a)",
            frontier_budget.map_or("unbounded".to_string(), |b| b.to_string()),
            dedup,
            evicted,
            peak,
        );
    }

    header(
        "E4: detection by defect class (ground truth from the generator)",
        &["class", "found/total"],
    );
    for (class, (found, total)) in by_class {
        println!("{class} | {found}/{total}");
    }

    header(
        "E4b: the osip_message_parse alloca attack",
        &["result", "details"],
    );
    let t = Instant::now();
    let report = Dart::new(
        &compiled,
        "osip_message_parse",
        DartConfig {
            max_runs: 1000,
            seed,
            ..DartConfig::default()
        },
    )
    .expect("parser exists")
    .run();
    match report.bug() {
        Some(bug) => {
            println!(
                "CRASH FOUND | {} in {} runs, {}",
                bug.kind,
                report.runs,
                fmt_dur(t.elapsed())
            );
            let len = bug.inputs.iter().find(|s| s.name.contains("len"));
            if let Some(len) = len {
                println!(
                    "attack message length | {} words (> stack budget, so alloca \
                     returned NULL — the paper's >2.5 MB SIP message)",
                    len.value
                );
            }
        }
        None => println!("no crash | UNEXPECTED — the planted bug was missed"),
    }
}
