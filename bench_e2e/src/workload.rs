//! The four workloads: one definition of every paper session — its
//! program, toplevel, [`DartConfig`] and ground-truth verdict.

use dart::{BugKind, DartConfig, EngineMode, Outcome};
use dart_minic::CompiledProgram;
use dart_workloads::{
    generate_osip, needham_schroeder, Intruder, LoweFix, OsipConfig, Planted, AC_CONTROLLER,
};
use std::time::{Duration, Instant};

use crate::Observed;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E3 Needham-Schroeder, Dolev-Yao intruder at attack depth 4, all
    /// three Lowe-fix variants, directed search.
    NsDyD4,
    /// The same sessions under the generational engine.
    NsDyD4Gen,
    /// The E4 oSIP-like library sweep.
    OsipSweep,
    /// E1, E2 and the E4b parser: sub-millisecond sessions.
    PaperSmall,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::NsDyD4,
        Workload::NsDyD4Gen,
        Workload::OsipSweep,
        Workload::PaperSmall,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NsDyD4 => "ns_dy_d4",
            Workload::NsDyD4Gen => "ns_dy_d4_gen",
            Workload::OsipSweep => "osip_sweep",
            Workload::PaperSmall => "paper_small",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates and compiles the workload's programs and lists its
    /// sessions for seed base `base`.
    pub fn build(self, base: u64) -> Built {
        match self {
            Workload::NsDyD4 => ns_dolev_yao(NS_DY_SEEDS.to_vec(), EngineMode::Directed),
            Workload::NsDyD4Gen => ns_dolev_yao(
                seeds(base, NS_DY_GEN_SEEDS).collect(),
                EngineMode::Generational,
            ),
            Workload::OsipSweep => osip_sweep(),
            Workload::PaperSmall => paper_small(base),
        }
    }
}

/// The seeds of `ns_dy_d4`, the same for every seed base: seeds 1 and 2
/// take the two ways a directed depth-4 session finds the attack (see the
/// crate documentation).
const NS_DY_SEEDS: [u64; 2] = [1, 2];
/// Seeds per Lowe-fix variant in `ns_dy_d4_gen`.
const NS_DY_GEN_SEEDS: u64 = 3;
/// The swept oSIP libraries, each swept with its generator seed as the
/// sweep seed (as `e4_osip` does), the same for every seed base (see the
/// crate documentation).
const OSIP_LIBRARIES: [u64; 2] = [1, 2];
/// Generated functions per oSIP library (plus `osip_message_parse`).
const OSIP_FUNCTIONS: usize = 200;
/// Seeds per session kind in `paper_small`.
const PAPER_SMALL_SEEDS: u64 = 3000;

/// The session seeds of one seed base: `base·n + 1 ..= base·n + n`, so
/// each base draws a range no other base draws.
fn seeds(base: u64, n: u64) -> impl Iterator<Item = u64> {
    (1..=n).map(move |i| base.wrapping_mul(n).wrapping_add(i))
}

/// The verdict a session must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A bug is reported.
    Bug,
    /// A crash is reported.
    Crash,
    /// The search proves every feasible path bug-free.
    Complete,
    /// No bug is reported (the search may end complete or exhausted).
    NoBug,
    /// Any verdict: a planted defect DART is not expected to find.
    Any,
}

impl Expect {
    /// Whether `observed` reaches this verdict.
    pub fn holds(self, observed: &Observed) -> bool {
        match self {
            Expect::Bug => matches!(observed.outcome, Outcome::BugFound(_)),
            Expect::Crash => {
                matches!(&observed.outcome, Outcome::BugFound(b) if matches!(b.kind, BugKind::Crash(_)))
            }
            Expect::Complete => observed.outcome == Outcome::Complete,
            Expect::NoBug => observed.bugs.is_empty(),
            Expect::Any => true,
        }
    }

    /// Whether the session's ground truth is a bug it must find, so its
    /// time to verdict is a time to first bug.
    pub fn is_bug(self) -> bool {
        matches!(self, Expect::Bug | Expect::Crash)
    }
}

/// One DART session of a workload.
#[derive(Debug, Clone)]
pub struct Session {
    /// Index into [`Built::programs`].
    pub program: usize,
    /// The toplevel function under test.
    pub toplevel: String,
    /// The session's configuration.
    pub config: DartConfig,
    /// The verdict it must reach.
    pub expect: Expect,
}

/// A workload ready to run.
pub struct Built {
    /// The compiled programs the sessions test.
    pub programs: Vec<CompiledProgram>,
    /// The sessions, in the order they run.
    pub sessions: Vec<Session>,
    /// Time spent in the source generators (`dart_workloads`).
    pub generate: Duration,
    /// Time spent in the MiniC front end (`dart_minic::compile`).
    pub compile: Duration,
}

/// Collects programs while timing the generator and the front end apart.
#[derive(Default)]
struct Programs {
    programs: Vec<CompiledProgram>,
    generate: Duration,
    compile: Duration,
}

impl Programs {
    /// Generates a source with `generate`, compiles it and returns its
    /// index.
    fn add(&mut self, generate: impl FnOnce() -> String) -> usize {
        let t0 = Instant::now();
        let source = generate();
        self.generate += t0.elapsed();
        let t1 = Instant::now();
        let compiled = dart_minic::compile(&source).expect("workload programs compile");
        self.compile += t1.elapsed();
        self.programs.push(compiled);
        self.programs.len() - 1
    }

    fn finish(self, sessions: Vec<Session>) -> Built {
        Built {
            programs: self.programs,
            sessions,
            generate: self.generate,
            compile: self.compile,
        }
    }
}

/// A session configuration: the code's defaults, except one solver
/// thread (the load is one closed loop on one thread) and the given
/// depth, run budget, seed and engine.
fn config(depth: u32, max_runs: u64, seed: u64, mode: EngineMode) -> DartConfig {
    DartConfig {
        depth,
        max_runs,
        seed,
        mode,
        solve_threads: 1,
        ..DartConfig::default()
    }
}

/// E3 at depth 4 (`e3_ns_dolev_yao`'s sessions): Lowe-fix variants Off
/// and Incomplete must report the attack, Complete must prove the whole
/// tree bug-free.
fn ns_dolev_yao(seeds: Vec<u64>, mode: EngineMode) -> Built {
    let mut programs = Programs::default();
    let variants: Vec<(usize, Expect)> = [
        (LoweFix::Off, Expect::Bug),
        (LoweFix::Incomplete, Expect::Bug),
        (LoweFix::Complete, Expect::Complete),
    ]
    .into_iter()
    .map(|(fix, expect)| {
        let program = programs.add(|| needham_schroeder(Intruder::DolevYao, fix));
        (program, expect)
    })
    .collect();
    let sessions = seeds
        .into_iter()
        .flat_map(|seed| {
            variants.iter().map(move |&(program, expect)| Session {
                program,
                toplevel: "deliver".into(),
                config: config(4, 2_000_000, seed, mode),
                expect,
            })
        })
        .collect();
    programs.finish(sessions)
}

/// E4 (`e4_osip`'s sweep): every function of each library at the paper's
/// 1000-run cap, seeded the way `dart::sweep` seeds them. A correctly
/// guarded function must never crash and every defect class DART is
/// expected to find must be found; the expected misses are free.
fn osip_sweep() -> Built {
    let mut programs = Programs::default();
    let mut sessions = Vec::new();
    for library in OSIP_LIBRARIES {
        let mut functions = Vec::new();
        let program = programs.add(|| {
            let lib = generate_osip(OsipConfig {
                num_functions: OSIP_FUNCTIONS,
                seed: library,
            });
            functions = lib.functions;
            lib.source
        });
        for f in functions {
            let expect = if f.planted == Planted::None {
                Expect::NoBug
            } else if f.planted.expected_found() {
                Expect::Bug
            } else {
                Expect::Any
            };
            sessions.push(Session {
                program,
                config: config(1, 1000, library ^ fnv1a(&f.name), EngineMode::Directed),
                toplevel: f.name,
                expect,
            });
        }
    }
    programs.finish(sessions)
}

/// E1 (AC-controller) and E2 (NS, possibilistic intruder) at depths 1 and
/// 2 — complete at depth 1, a bug at depth 2 — and the E4b
/// `osip_message_parse` alloca crash, over the full first E4 library.
fn paper_small(base: u64) -> Built {
    let mut programs = Programs::default();
    let ac = programs.add(|| AC_CONTROLLER.to_string());
    let ns = programs.add(|| needham_schroeder(Intruder::Possibilistic, LoweFix::Off));
    let osip = programs.add(|| {
        generate_osip(OsipConfig {
            num_functions: OSIP_FUNCTIONS,
            seed: OSIP_LIBRARIES[0],
        })
        .source
    });
    let kinds = [
        (ac, "ac_controller", 1, 100_000, Expect::Complete),
        (ac, "ac_controller", 2, 100_000, Expect::Bug),
        (ns, "deliver", 1, 1_000_000, Expect::Complete),
        (ns, "deliver", 2, 1_000_000, Expect::Bug),
        (osip, "osip_message_parse", 1, 1000, Expect::Crash),
    ];
    let sessions = seeds(base, PAPER_SMALL_SEEDS)
        .flat_map(|seed| {
            kinds.iter().map(
                move |&(program, toplevel, depth, max_runs, expect)| Session {
                    program,
                    toplevel: toplevel.into(),
                    config: config(depth, max_runs, seed, EngineMode::Directed),
                    expect,
                },
            )
        })
        .collect();
    programs.finish(sessions)
}

/// FNV-1a over a function name: the per-function seed offset
/// `dart::sweep` applies (`seed ^ fnv1a(name)`).
pub fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
