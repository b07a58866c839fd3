//! `dartc` — the DART command-line tool.
//!
//! Point it at a MiniC source file and a toplevel function; it extracts the
//! interface, generates the random test driver, and runs the directed
//! search — no harness code required (the paper's headline claim).
//!
//! ```text
//! dartc program.mc --toplevel parse [options]
//!
//! options:
//!   --toplevel NAME    function under test (required unless --interface/--print-ir)
//!   --depth N          iterative toplevel calls per run        [1]
//!   --runs N           maximum instrumented runs               [100000]
//!   --seed N           RNG seed                                [0]
//!   --mode M           directed | random | symbolic | generational [directed]
//!   --engine M         alias of --mode
//!   --strategy S       dfs | random-branch                     [dfs]
//!   --frontier-budget N  cap the generational frontier at N queued items,
//!                      evicting the lowest-scored (0 is rejected) [unbounded]
//!   --checkpoint FILE  persist the generational session after every work
//!                      item; an existing FILE with the same seed resumes it
//!   --all-bugs         keep searching after the first bug
//!   --max-steps N      per-run step budget (non-termination; a loop
//!                      writing nothing is proven sooner)  [2000000]
//!   --mem-budget N     per-run allocation budget in words      [unbounded]
//!   --deadline MS      per-session wall-clock deadline; also caps
//!                      each solver query                       [none]
//!   --sweep NAMES      comma-separated toplevels: run one supervised
//!                      session per function (overrides --toplevel)
//!   --threads N        sweep parallelism                       [4]
//!   --max-retries N    reseeded retries per faulted sweep session [1]
//!   --farm             with --sweep: run each function in its own worker
//!                      process (true fault isolation — aborts, OOM kills
//!                      and runaway workers are contained and retried)
//!   --stream PATH      farm-only: append one JSON line per finished
//!                      function to PATH (`-` streams to stdout)
//!   --worker-deadline MS  farm-only: kill any worker process that runs
//!                      longer than MS (fault, retriable, resumable)
//!   --interface        print the extracted interface and exit
//!   --print-ir         print the compiled RAM program and exit
//!   --stats            print detailed solver/cache statistics
//!   --save-bug FILE    write the first bug's input vector to FILE
//!   --replay FILE      replay a saved input vector instead of searching
//!   --trace            with --replay: print every executed statement
//! ```
//!
//! Exit status: 0 = no bug, 1 = bug found, 2 = usage/compile error.

use dart::{Dart, DartConfig, EngineMode, Strategy, SweepOutcome};
use std::process::ExitCode;

struct Options {
    file: String,
    toplevel: Option<String>,
    depth: u32,
    runs: u64,
    seed: u64,
    mode: EngineMode,
    strategy: Strategy,
    frontier_budget: Option<usize>,
    checkpoint: Option<String>,
    all_bugs: bool,
    max_steps: u64,
    mem_budget: Option<u64>,
    deadline_ms: Option<u64>,
    sweep: Option<String>,
    threads: usize,
    max_retries: u32,
    farm: bool,
    stream: Option<String>,
    worker_deadline_ms: Option<u64>,
    // Hidden worker mode: `dartc <file> --farm-worker --toplevel NAME
    // --farm-index I --farm-attempt A [engine flags]`, spawned by the
    // farm supervisor. Never part of the public usage string.
    farm_worker: bool,
    farm_index: usize,
    farm_attempt: u32,
    interface_only: bool,
    print_ir: bool,
    save_bug: Option<String>,
    replay: Option<String>,
    trace: bool,
    stats: bool,
}

fn usage() -> &'static str {
    "usage: dartc <file.mc> --toplevel NAME [--depth N] [--runs N] [--seed N] \
     [--mode|--engine directed|random|symbolic|generational] \
     [--strategy dfs|random-branch] [--frontier-budget N] [--checkpoint FILE] \
     [--all-bugs] [--max-steps N] [--mem-budget N] [--deadline MS] \
     [--sweep NAMES --threads N --max-retries N] \
     [--farm --stream PATH|- --worker-deadline MS] \
     [--stats] [--interface] [--print-ir]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        file: String::new(),
        toplevel: None,
        depth: 1,
        runs: 100_000,
        seed: 0,
        mode: EngineMode::Directed,
        strategy: Strategy::Dfs,
        frontier_budget: None,
        checkpoint: None,
        all_bugs: false,
        max_steps: 2_000_000,
        mem_budget: None,
        deadline_ms: None,
        sweep: None,
        threads: 4,
        max_retries: 1,
        farm: false,
        stream: None,
        worker_deadline_ms: None,
        farm_worker: false,
        farm_index: 0,
        farm_attempt: 0,
        interface_only: false,
        print_ir: false,
        save_bug: None,
        replay: None,
        trace: false,
        stats: false,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--toplevel" => opts.toplevel = Some(value(&mut it, "--toplevel")?),
            "--depth" => {
                opts.depth = value(&mut it, "--depth")?
                    .parse()
                    .map_err(|_| "--depth expects a positive integer".to_string())?
            }
            "--runs" => {
                opts.runs = value(&mut it, "--runs")?
                    .parse()
                    .map_err(|_| "--runs expects an integer".to_string())?
            }
            "--seed" => {
                opts.seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--max-steps" => {
                opts.max_steps = value(&mut it, "--max-steps")?
                    .parse()
                    .map_err(|_| "--max-steps expects an integer".to_string())?
            }
            "--mem-budget" => {
                opts.mem_budget = Some(
                    value(&mut it, "--mem-budget")?
                        .parse()
                        .map_err(|_| "--mem-budget expects a word count".to_string())?,
                )
            }
            "--deadline" => {
                opts.deadline_ms = Some(
                    value(&mut it, "--deadline")?
                        .parse()
                        .map_err(|_| "--deadline expects milliseconds".to_string())?,
                )
            }
            "--sweep" => opts.sweep = Some(value(&mut it, "--sweep")?),
            "--threads" => {
                opts.threads = value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?
            }
            "--max-retries" => {
                opts.max_retries = value(&mut it, "--max-retries")?
                    .parse()
                    .map_err(|_| "--max-retries expects an integer".to_string())?
            }
            "--farm" => opts.farm = true,
            "--stream" => opts.stream = Some(value(&mut it, "--stream")?),
            "--worker-deadline" => {
                opts.worker_deadline_ms = Some(
                    value(&mut it, "--worker-deadline")?
                        .parse()
                        .map_err(|_| "--worker-deadline expects milliseconds".to_string())?,
                )
            }
            "--farm-worker" => opts.farm_worker = true,
            "--farm-index" => {
                opts.farm_index = value(&mut it, "--farm-index")?
                    .parse()
                    .map_err(|_| "--farm-index expects an integer".to_string())?
            }
            "--farm-attempt" => {
                opts.farm_attempt = value(&mut it, "--farm-attempt")?
                    .parse()
                    .map_err(|_| "--farm-attempt expects an integer".to_string())?
            }
            "--mode" | "--engine" => {
                opts.mode = match value(&mut it, arg)?.as_str() {
                    "directed" => EngineMode::Directed,
                    "random" => EngineMode::RandomOnly,
                    "symbolic" => EngineMode::SymbolicOnly,
                    "generational" => EngineMode::Generational,
                    other => return Err(format!("unknown mode `{other}`")),
                }
            }
            "--frontier-budget" => {
                // 0 parses fine and is rejected by the engine as an
                // invalid config.
                opts.frontier_budget = Some(
                    value(&mut it, "--frontier-budget")?
                        .parse()
                        .map_err(|_| "--frontier-budget expects an integer".to_string())?,
                )
            }
            "--checkpoint" => opts.checkpoint = Some(value(&mut it, "--checkpoint")?),
            "--strategy" => {
                opts.strategy = match value(&mut it, "--strategy")?.as_str() {
                    "dfs" => Strategy::Dfs,
                    "random-branch" => Strategy::RandomBranch,
                    other => return Err(format!("unknown strategy `{other}`")),
                }
            }
            "--all-bugs" => opts.all_bugs = true,
            "--save-bug" => opts.save_bug = Some(value(&mut it, "--save-bug")?),
            "--replay" => opts.replay = Some(value(&mut it, "--replay")?),
            "--trace" => opts.trace = true,
            "--stats" => opts.stats = true,
            "--interface" => opts.interface_only = true,
            "--print-ir" => opts.print_ir = true,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            file => {
                if !opts.file.is_empty() {
                    return Err("multiple input files given".into());
                }
                opts.file = file.to_string();
            }
        }
    }
    if opts.file.is_empty() {
        return Err("no input file".into());
    }
    if !opts.farm_worker {
        if opts.farm && opts.sweep.is_none() {
            return Err("--farm requires --sweep".into());
        }
        if !opts.farm && (opts.stream.is_some() || opts.worker_deadline_ms.is_some()) {
            return Err("--stream/--worker-deadline require --farm".into());
        }
    }
    Ok(opts)
}

fn build_config(opts: &Options) -> DartConfig {
    let mut config = DartConfig {
        depth: opts.depth,
        max_runs: opts.runs,
        seed: opts.seed,
        mode: opts.mode,
        strategy: opts.strategy,
        stop_at_first_bug: !opts.all_bugs,
        machine: dart_ram::MachineConfig {
            max_steps: opts.max_steps,
            ..dart_ram::MachineConfig::default()
        },
        frontier_budget: opts.frontier_budget,
        checkpoint: opts.checkpoint.as_ref().map(std::path::PathBuf::from),
        max_retries: opts.max_retries,
        ..DartConfig::default()
    };
    if let Some(words) = opts.mem_budget {
        config.machine.budget.max_alloc_words = words;
    }
    if let Some(ms) = opts.deadline_ms {
        let d = std::time::Duration::from_millis(ms);
        config.deadline = Some(d);
        // Cap each solver query too, so a single runaway query cannot
        // overshoot the session deadline by an arbitrary amount.
        config.solver.deadline = Some(d);
    }
    config
}

/// Engine flags every worker process must inherit so a farm shard runs
/// the exact session the in-process sweep would. Supervisor-only flags
/// (`--threads`, `--max-retries`, `--farm`, `--stream`,
/// `--worker-deadline`) are deliberately absent; retries are driven by
/// the supervisor via `--farm-attempt`.
fn worker_forward_args(opts: &Options) -> Vec<String> {
    let mode = match opts.mode {
        EngineMode::Directed => "directed",
        EngineMode::RandomOnly => "random",
        EngineMode::SymbolicOnly => "symbolic",
        EngineMode::Generational => "generational",
    };
    let strategy = match opts.strategy {
        Strategy::Dfs => "dfs",
        Strategy::RandomBranch => "random-branch",
    };
    let mut args: Vec<String> = [
        "--depth",
        &opts.depth.to_string(),
        "--runs",
        &opts.runs.to_string(),
        "--seed",
        &opts.seed.to_string(),
        "--mode",
        mode,
        "--strategy",
        strategy,
        "--max-steps",
        &opts.max_steps.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(budget) = opts.frontier_budget {
        args.extend(["--frontier-budget".to_string(), budget.to_string()]);
    }
    if let Some(path) = &opts.checkpoint {
        args.extend(["--checkpoint".to_string(), path.clone()]);
    }
    if opts.all_bugs {
        args.push("--all-bugs".to_string());
    }
    if let Some(words) = opts.mem_budget {
        args.extend(["--mem-budget".to_string(), words.to_string()]);
    }
    if let Some(ms) = opts.deadline_ms {
        args.extend(["--deadline".to_string(), ms.to_string()]);
    }
    args
}

/// Runs `--sweep` in farm mode: shards across worker processes spawned
/// from this same executable in the hidden `--farm-worker` mode.
fn run_farm_sweep(opts: &Options, names: &[String]) -> Result<Vec<dart::SweepResult>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate own executable for farm workers: {e}"))?;
    let forwarded = worker_forward_args(opts);
    let file = opts.file.clone();
    let command = move |job: &dart::FarmJob| -> std::process::Command {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg(&file)
            .arg("--farm-worker")
            .arg("--toplevel")
            .arg(job.function)
            .arg("--farm-index")
            .arg(job.index.to_string())
            .arg("--farm-attempt")
            .arg(job.attempt.to_string())
            .args(&forwarded);
        cmd
    };
    let farm_options = dart::FarmOptions {
        threads: opts.threads,
        max_retries: opts.max_retries,
        worker_deadline: opts
            .worker_deadline_ms
            .map(std::time::Duration::from_millis),
        ..dart::FarmOptions::default()
    };
    // `Stdout` (unlocked) rather than `StdoutLock`: the lock guard is
    // not `Send`, and the stream writer crosses into scoped threads.
    let mut stdout_stream;
    let mut file_stream;
    let stream: Option<&mut (dyn std::io::Write + Send)> = match opts.stream.as_deref() {
        Some("-") => {
            stdout_stream = std::io::stdout();
            Some(&mut stdout_stream)
        }
        Some(path) => {
            file_stream = std::fs::File::create(path)
                .map_err(|e| format!("cannot create stream file {path}: {e}"))?;
            Some(&mut file_stream)
        }
        None => None,
    };
    dart::run_farm(names, &farm_options, &command, stream).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("dartc: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dartc: cannot read {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };
    let compiled = match dart_minic::compile(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dartc: {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };

    if opts.farm_worker {
        // Hidden mode: one farm shard, spawned by the supervisor below.
        // All human-readable output goes to stderr; stdout carries the
        // wire protocol the supervisor parses.
        let Some(toplevel) = opts.toplevel.as_deref() else {
            eprintln!("dartc: --farm-worker requires --toplevel");
            return ExitCode::from(2);
        };
        if compiled.fn_sig(toplevel).is_none() {
            eprintln!("dartc: no function `{toplevel}` in {}", opts.file);
            return ExitCode::from(2);
        }
        #[allow(unused_mut)]
        let mut config = build_config(&opts);
        #[cfg(feature = "fault-injection")]
        {
            config.faults = dart::FaultPlan::from_env();
        }
        let mut out = std::io::stdout();
        let code = dart::run_worker(
            &compiled,
            toplevel,
            opts.farm_index,
            opts.farm_attempt,
            &config,
            &mut out,
        );
        return ExitCode::from(code as u8);
    }

    if opts.print_ir {
        print!("{}", compiled.program);
        return ExitCode::SUCCESS;
    }

    if let Some(list) = &opts.sweep {
        let names: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if names.is_empty() {
            eprintln!("dartc: --sweep needs at least one function name");
            return ExitCode::from(2);
        }
        for name in &names {
            if compiled.fn_sig(name).is_none() {
                eprintln!("dartc: no function `{name}` in {}", opts.file);
                return ExitCode::from(2);
            }
        }
        let results = if opts.farm {
            match run_farm_sweep(&opts, &names) {
                Ok(r) => r,
                Err(msg) => {
                    eprintln!("dartc: {msg}");
                    return ExitCode::from(2);
                }
            }
        } else {
            match dart::sweep(&compiled, &names, &build_config(&opts), opts.threads) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("dartc: {e}");
                    return ExitCode::from(2);
                }
            }
        };
        let mut buggy = 0usize;
        let mut faulted = 0usize;
        let mut retried = 0usize;
        let mut unset = 0usize;
        for r in &results {
            match &r.outcome {
                SweepOutcome::Finished {
                    report,
                    retried: r2,
                } => {
                    if report.found_bug() {
                        buggy += 1;
                    }
                    if *r2 {
                        retried += 1;
                    }
                    let note = if *r2 { "  [recovered after retry]" } else { "" };
                    println!("{:<24} {report}{note}", r.function);
                }
                SweepOutcome::EngineFault {
                    message,
                    retried: r2,
                } => {
                    faulted += 1;
                    if *r2 {
                        retried += 1;
                    }
                    println!("{:<24} ENGINE FAULT: {message}", r.function);
                }
                SweepOutcome::SetupFailed { message } => {
                    unset += 1;
                    println!("{:<24} SETUP ERROR: {message}", r.function);
                }
            }
        }
        println!(
            "\nsweep: {} functions | {} with bugs | {} engine faults | {} retried | {} setup errors",
            results.len(),
            buggy,
            faulted,
            retried,
            unset
        );
        return if buggy > 0 || faulted > 0 || unset > 0 {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }

    let Some(toplevel) = opts.toplevel.as_deref().map(str::to_string).or_else(|| {
        // Single-function programs need no flag.
        (compiled.functions.len() == 1).then(|| compiled.functions[0].name.clone())
    }) else {
        eprintln!(
            "dartc: choose a toplevel with --toplevel; defined functions: {}",
            compiled
                .functions
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };

    match dart::describe_interface(&compiled, &toplevel) {
        Some(report) => print!("{report}"),
        None => {
            eprintln!("dartc: no function `{toplevel}` in {}", opts.file);
            return ExitCode::from(2);
        }
    }
    if opts.interface_only {
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dartc: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let slots = match dart::parse_inputs(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dartc: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        // The session's machine config, so every budget that ended the
        // recorded run (steps, allocation) ends the replay too.
        let machine = build_config(&opts).machine;
        let replayed = if opts.trace {
            dart::replay_traced(&compiled, &toplevel, opts.depth, machine, slots, opts.seed).map(
                |(termination, trace)| {
                    for line in &trace {
                        println!("{line}");
                    }
                    termination
                },
            )
        } else {
            dart::replay(&compiled, &toplevel, opts.depth, machine, slots, opts.seed)
        };
        let termination = match replayed {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dartc: {e}");
                return ExitCode::from(2);
            }
        };
        println!("replay: {termination:?}");
        return match termination {
            dart::RunTermination::Ok => ExitCode::SUCCESS,
            _ => ExitCode::from(1),
        };
    }

    // The toplevel was checked above, but `Dart::new` can still reject the
    // config (e.g. a malformed checkpoint file).
    let session = match Dart::new(&compiled, &toplevel, build_config(&opts)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dartc: {e}");
            return ExitCode::from(2);
        }
    };
    let report = session.run();
    println!("\n{report}");
    if opts.stats {
        let s = &report.solver;
        let queries = s.sat + s.unsat + s.unknown;
        println!("\nsolver statistics:");
        println!("  queries            {queries}");
        println!("  sat                {}", s.sat);
        println!("  unsat              {}", s.unsat);
        println!("  unknown            {}", s.unknown);
        println!("  unknown rate       {:.1}%", s.unknown_rate() * 100.0);
        println!("  model reuse        {}", s.cache_model_reuse);
        println!("  split solves       {}", s.split_solves);
        println!("  dedup hits         {}", report.dedup_hits);
        println!("  frontier evicted   {}", report.frontier_evicted);
        println!("  frontier peak      {}", report.frontier_peak);
        println!("  exec time          {:?}", report.exec_time);
        println!("  solve time         {:?}", report.solve_time);
    }
    for bug in &report.bugs {
        println!("\n{bug}");
    }
    if let (Some(path), Some(bug)) = (&opts.save_bug, report.bug()) {
        let text = dart::serialize_inputs(&bug.inputs);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("dartc: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("reproduction written to {path}");
    }
    if report.found_bug() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Options, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_file() {
        let o = parse(&["prog.mc"]).unwrap();
        assert_eq!(o.file, "prog.mc");
        assert_eq!(o.depth, 1);
        assert_eq!(o.mode, EngineMode::Directed);
        assert!(o.toplevel.is_none());
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "p.mc",
            "--toplevel",
            "f",
            "--depth",
            "3",
            "--runs",
            "42",
            "--seed",
            "9",
            "--mode",
            "generational",
            "--strategy",
            "random-branch",
            "--all-bugs",
            "--max-steps",
            "1000",
            "--save-bug",
            "bug.txt",
            "--replay",
            "in.txt",
        ])
        .unwrap();
        assert_eq!(o.toplevel.as_deref(), Some("f"));
        assert_eq!(o.depth, 3);
        assert_eq!(o.runs, 42);
        assert_eq!(o.seed, 9);
        assert_eq!(o.mode, EngineMode::Generational);
        assert_eq!(o.strategy, Strategy::RandomBranch);
        assert!(o.all_bugs);
        assert_eq!(o.max_steps, 1000);
        assert_eq!(o.save_bug.as_deref(), Some("bug.txt"));
        assert_eq!(o.replay.as_deref(), Some("in.txt"));
    }

    #[test]
    fn stats_and_cache_flags() {
        let o = parse(&["p.mc", "--stats"]).unwrap();
        assert!(o.stats);
        let o = parse(&["p.mc"]).unwrap();
        assert!(!o.stats);
        // The query cache has no switch: it memoizes no verdicts, and
        // sessions share none, so there is nothing to turn on either.
        assert!(parse(&["p.mc", "--no-cache"]).is_err());
        assert!(parse(&["p.mc", "--shared-cache"]).is_err());
    }

    #[test]
    fn robustness_flags() {
        let o = parse(&[
            "p.mc",
            "--mem-budget",
            "4096",
            "--deadline",
            "250",
            "--sweep",
            "f,g,h",
            "--threads",
            "8",
            "--max-retries",
            "2",
        ])
        .unwrap();
        assert_eq!(o.mem_budget, Some(4096));
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(o.sweep.as_deref(), Some("f,g,h"));
        assert_eq!(o.threads, 8);
        assert_eq!(o.max_retries, 2);
        let o = parse(&["p.mc"]).unwrap();
        assert_eq!(o.mem_budget, None);
        assert_eq!(o.deadline_ms, None);
        assert!(o.sweep.is_none());
        assert_eq!(o.threads, 4);
        assert_eq!(o.max_retries, 1);
    }

    #[test]
    fn farm_flags() {
        let o = parse(&[
            "p.mc",
            "--sweep",
            "f,g",
            "--farm",
            "--stream",
            "-",
            "--worker-deadline",
            "750",
        ])
        .unwrap();
        assert!(o.farm);
        assert_eq!(o.stream.as_deref(), Some("-"));
        assert_eq!(o.worker_deadline_ms, Some(750));
        let o = parse(&["p.mc"]).unwrap();
        assert!(!o.farm);
        assert!(o.stream.is_none());
        assert_eq!(o.worker_deadline_ms, None);
        // Farm flags are tied to the farm, and the farm to the sweep.
        assert!(parse(&["p.mc", "--farm"]).is_err());
        assert!(parse(&["p.mc", "--sweep", "f", "--stream", "out.jsonl"]).is_err());
        assert!(parse(&["p.mc", "--sweep", "f", "--worker-deadline", "9"]).is_err());
        // `--store` is no option in any mode: a farm session resumes from
        // its checkpoint alone.
        for args in [
            &["p.mc", "--sweep", "f", "--farm", "--store", "fp.store"][..],
            &["p.mc", "--store", "fp.store"],
            &["p.mc", "--farm-worker", "--store", "fp.store"],
        ] {
            let err = parse(args).err().expect("--store is rejected");
            assert!(err.contains("unknown option `--store`"), "{err}");
        }
        assert!(parse(&[
            "p.mc",
            "--sweep",
            "f",
            "--farm",
            "--worker-deadline",
            "soon"
        ])
        .is_err());
    }

    #[test]
    fn farm_worker_mode_flags() {
        let o = parse(&[
            "p.mc",
            "--farm-worker",
            "--toplevel",
            "f",
            "--farm-index",
            "3",
            "--farm-attempt",
            "1",
            "--checkpoint",
            "cp",
        ])
        .unwrap();
        assert!(o.farm_worker);
        assert_eq!(o.farm_index, 3);
        assert_eq!(o.farm_attempt, 1);
        assert_eq!(o.checkpoint.as_deref(), Some("cp"));
    }

    #[test]
    fn worker_args_forward_the_engine_configuration() {
        let o = parse(&[
            "p.mc",
            "--sweep",
            "f",
            "--farm",
            "--mode",
            "generational",
            "--checkpoint",
            "cp",
            "--threads",
            "8",
            "--worker-deadline",
            "100",
        ])
        .unwrap();
        let args = worker_forward_args(&o);
        let has = |flag: &str| args.iter().any(|a| a == flag);
        assert!(has("--mode") && args.contains(&"generational".to_string()));
        assert!(has("--checkpoint"));
        // Supervisor-only flags must not leak into workers.
        assert!(!has("--threads") && !has("--worker-deadline") && !has("--farm"));
        // Unset optionals stay unset.
        let o = parse(&["p.mc", "--sweep", "f", "--farm"]).unwrap();
        let args = worker_forward_args(&o);
        assert!(!args.iter().any(|a| a == "--checkpoint"));
    }

    #[test]
    fn exec_tier_flag() {
        // The compiled execution tier is gone, and so is its flag: any use
        // of it is an unknown option.
        for args in [
            &["p.mc", "--exec-tier", "compiled"][..],
            &["p.mc", "--exec-tier", "interp"],
            &["p.mc", "--exec-tier"],
        ] {
            let err = parse(args).err().expect("--exec-tier is rejected");
            assert!(err.contains("unknown option `--exec-tier`"), "{err}");
        }
    }

    #[test]
    fn portfolio_flag() {
        // The strategy race is gone, and so is its flag: any use of it is
        // an unknown option.
        for args in [
            &["p.mc", "--portfolio", "on"][..],
            &["p.mc", "--portfolio", "off"],
            &["p.mc", "--portfolio"],
        ] {
            let err = parse(args).err().expect("--portfolio is rejected");
            assert!(err.contains("unknown option `--portfolio`"), "{err}");
        }
    }

    #[test]
    fn frontier_flags() {
        let o = parse(&[
            "p.mc",
            "--engine",
            "generational",
            "--frontier-budget",
            "64",
            "--checkpoint",
            "cp.txt",
        ])
        .unwrap();
        assert_eq!(o.mode, EngineMode::Generational);
        assert_eq!(o.frontier_budget, Some(64));
        assert_eq!(o.checkpoint.as_deref(), Some("cp.txt"));
        let config = build_config(&o);
        assert_eq!(config.frontier_budget, Some(64));
        assert_eq!(config.checkpoint, Some(std::path::PathBuf::from("cp.txt")));
        // Defaults: unbounded frontier, no checkpoint.
        let o = parse(&["p.mc"]).unwrap();
        assert_eq!(o.frontier_budget, None);
        assert!(o.checkpoint.is_none());
        // A zero budget parses; the engine rejects it as InvalidConfig.
        let o = parse(&["p.mc", "--frontier-budget", "0"]).unwrap();
        assert_eq!(o.frontier_budget, Some(0));
        assert!(parse(&["p.mc", "--frontier-budget", "many"]).is_err());
        assert!(parse(&["p.mc", "--checkpoint"]).is_err());
        assert!(parse(&["p.mc", "--engine", "quantum"]).is_err());
    }

    #[test]
    fn budget_and_deadline_reach_the_config() {
        let o = parse(&["p.mc", "--mem-budget", "512", "--deadline", "100"]).unwrap();
        let config = build_config(&o);
        assert_eq!(config.machine.budget.max_alloc_words, 512);
        assert_eq!(config.deadline, Some(std::time::Duration::from_millis(100)));
        assert_eq!(
            config.solver.deadline,
            Some(std::time::Duration::from_millis(100))
        );
        // Without the flags, budgets stay unbounded and no deadline is set.
        let config = build_config(&parse(&["p.mc"]).unwrap());
        assert_eq!(config.machine.budget.max_alloc_words, u64::MAX);
        assert_eq!(config.deadline, None);
        assert_eq!(config.solver.deadline, None);
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["a.mc", "--mode", "quantum"]).is_err());
        assert!(parse(&["a.mc", "--depth"]).is_err());
        assert!(parse(&["a.mc", "--deadline"]).is_err());
        assert!(parse(&["a.mc", "--mem-budget", "lots"]).is_err());
        assert!(parse(&["a.mc", "b.mc"]).is_err());
        assert!(parse(&["a.mc", "--frobnicate"]).is_err());
    }
}
