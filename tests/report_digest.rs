//! Report identity: a fixed list of short sessions must produce the same
//! reports as the commit that fixed the constants below.
//!
//! Each session runs through `Dart::run` at seeds 1–3: E1's
//! `ac_controller` and E2's `deliver` at depths 1 and 2, the E4b
//! `osip_message_parse` session, the first 20 functions of the first E4
//! library, one generational E1 session, E1 at depth 3, and E3's
//! Dolev-Yao `deliver` at depth 4 with Lowe fix Off and Complete, capped
//! at [`DEEP_RUNS`] runs. Three of the depth-4 sessions vary the
//! directed search: one records every path and keeps going past its
//! bugs, one flips random branches, one runs symbolic-only. Each
//! session's report, with the wall-clock times zeroed, is printed with
//! `{:?}` and digested with FNV-1a. Those times are the only fields the contract lets differ
//! between runs, so the test passes unchanged in every CI leg (with the
//! fault hooks compiled in, `DartConfig::default()` still injects no
//! fault).
//!
//! A change that alters reports on purpose updates the digests and names
//! the fields that moved. On a mismatch the test prints each differing
//! session, its digest and its report, then the whole table to paste.

use dart::{Dart, DartConfig, EngineMode, SessionReport, Strategy};
use dart_minic::CompiledProgram;
use dart_workloads::{
    generate_osip, needham_schroeder, Intruder, LoweFix, OsipConfig, AC_CONTROLLER,
};
use std::time::Duration;

/// `(session, digest)` for every session [`sessions`] lists, in order.
const DIGESTS: &[(&str, u64)] = &[
    ("E1 ac_controller d1 s1", 0x3146ae596f26a90d),
    ("E1 ac_controller d2 s1", 0xd0bacd4e8457a48d),
    ("E2 deliver d1 s1", 0xf8e356021ccf4f2b),
    ("E2 deliver d2 s1", 0x3290d52785814ea6),
    ("E4b osip_message_parse d1 s1", 0xfa51425679816dc6),
    ("E4 osip_fn_0 d1 s1", 0x5e0f57e7f5f9d889),
    ("E4 osip_fn_1 d1 s1", 0x09213deaa18a05e3),
    ("E4 osip_fn_2 d1 s1", 0x37bd106baea5b57d),
    ("E4 osip_fn_3 d1 s1", 0x37bd106baea5b57d),
    ("E4 osip_fn_4 d1 s1", 0x7a2193aa2fccc3a9),
    ("E4 osip_fn_5 d1 s1", 0xe832023115cce8b1),
    ("E4 osip_fn_6 d1 s1", 0xe832023115cce8b1),
    ("E4 osip_fn_7 d1 s1", 0xdb2971bd32b4a5b1),
    ("E4 osip_fn_8 d1 s1", 0x2181a96a6c20ad1b),
    ("E4 osip_fn_9 d1 s1", 0x5e0f57e7f5f9d889),
    ("E4 osip_fn_10 d1 s1", 0x1c768b10166e4fce),
    ("E4 osip_fn_11 d1 s1", 0xc82e1eac6abe1f25),
    ("E4 osip_fn_12 d1 s1", 0xf04cbb6abe61a7b9),
    ("E4 osip_fn_13 d1 s1", 0x02f366f239e2c134),
    ("E4 osip_fn_14 d1 s1", 0x87977f79e0ac02ab),
    ("E4 osip_fn_15 d1 s1", 0x1a18a888dd244a7e),
    ("E4 osip_fn_16 d1 s1", 0x37bd106baea5b57d),
    ("E4 osip_fn_17 d1 s1", 0x7a2193aa2fccc3a9),
    ("E4 osip_fn_18 d1 s1", 0xe832023115cce8b1),
    ("E4 osip_fn_19 d1 s1", 0xf830de8aad479b35),
    ("E1 gen ac_controller d2 s1", 0xfe1cb09b89b9741f),
    ("E1 ac_controller d3 s1", 0x351344dc90575da9),
    ("E3 off random-branch deliver d4 s1", 0x8684e1e9a60a15a2),
    ("E3 complete deliver d4 s1", 0xc0ffa9edf3ad52ea),
    ("E1 ac_controller d1 s2", 0x3146ae596f26a90d),
    ("E1 ac_controller d2 s2", 0xd0bacd4e8457a48d),
    ("E2 deliver d1 s2", 0xf8e356021ccf4f2b),
    ("E2 deliver d2 s2", 0x5ea290749c6522ee),
    ("E4b osip_message_parse d1 s2", 0x4d94214e76fe2ccc),
    ("E4 osip_fn_0 d1 s2", 0x70424b379ee4f845),
    ("E4 osip_fn_1 d1 s2", 0x67677e80a0605dda),
    ("E4 osip_fn_2 d1 s2", 0xd6c102afe91afaec),
    ("E4 osip_fn_3 d1 s2", 0xd6c102afe91afaec),
    ("E4 osip_fn_4 d1 s2", 0x81c2a99772808330),
    ("E4 osip_fn_5 d1 s2", 0x0a482f9837e2763b),
    ("E4 osip_fn_6 d1 s2", 0xb4c48f799d597524),
    ("E4 osip_fn_7 d1 s2", 0x20be4099e1c2fdca),
    ("E4 osip_fn_8 d1 s2", 0xb08c6e05950fb5c6),
    ("E4 osip_fn_9 d1 s2", 0x70424b379ee4f845),
    ("E4 osip_fn_10 d1 s2", 0xc405019ae989b9cb),
    ("E4 osip_fn_11 d1 s2", 0x173bdcfec3b63a5c),
    ("E4 osip_fn_12 d1 s2", 0x5d13d33980ff0a58),
    ("E4 osip_fn_13 d1 s2", 0x8deeb0a362f975d9),
    ("E4 osip_fn_14 d1 s2", 0xcd5382a336de7e62),
    ("E4 osip_fn_15 d1 s2", 0x81c2a99772808330),
    ("E4 osip_fn_16 d1 s2", 0xd6c102afe91afaec),
    ("E4 osip_fn_17 d1 s2", 0x81c2a99772808330),
    ("E4 osip_fn_18 d1 s2", 0xb4c48f799d597524),
    ("E4 osip_fn_19 d1 s2", 0xdf0a1b6a49a67964),
    ("E1 gen ac_controller d2 s2", 0xfe1cb09b89b9741f),
    ("E1 ac_controller d3 s2", 0x79e10864e126b509),
    ("E3 off all-bugs paths deliver d4 s2", 0xf81408d30551ebcd),
    ("E3 complete deliver d4 s2", 0xf7b2f2d7ac40bdaf),
    ("E1 ac_controller d1 s3", 0x3146ae596f26a90d),
    ("E1 ac_controller d2 s3", 0xd0bacd4e8457a48d),
    ("E2 deliver d1 s3", 0xf8e356021ccf4f2b),
    ("E2 deliver d2 s3", 0x5bd6cbcfcf625078),
    ("E4b osip_message_parse d1 s3", 0x674a2937db4dde8c),
    ("E4 osip_fn_0 d1 s3", 0x2d96abaa694b5499),
    ("E4 osip_fn_1 d1 s3", 0x59f49030d1b1c0a3),
    ("E4 osip_fn_2 d1 s3", 0xca6123e855ab4911),
    ("E4 osip_fn_3 d1 s3", 0xca6123e855ab4911),
    ("E4 osip_fn_4 d1 s3", 0x819ea514e9c593d9),
    ("E4 osip_fn_5 d1 s3", 0x766bcf1d3ddc796d),
    ("E4 osip_fn_6 d1 s3", 0x766bcf1d3ddc796d),
    ("E4 osip_fn_7 d1 s3", 0x588cb6fe03b8b852),
    ("E4 osip_fn_8 d1 s3", 0x2181a96a6c20ad1b),
    ("E4 osip_fn_9 d1 s3", 0x2d96abaa694b5499),
    ("E4 osip_fn_10 d1 s3", 0x897e94ae8a3bd646),
    ("E4 osip_fn_11 d1 s3", 0x53a7f8f1bca9f57c),
    ("E4 osip_fn_12 d1 s3", 0xf04cbb6abe61a7b9),
    ("E4 osip_fn_13 d1 s3", 0x68a4dbb3cae63ad6),
    ("E4 osip_fn_14 d1 s3", 0xce1e76ec05e60f8f),
    ("E4 osip_fn_15 d1 s3", 0x819ea514e9c593d9),
    ("E4 osip_fn_16 d1 s3", 0xca6123e855ab4911),
    ("E4 osip_fn_17 d1 s3", 0x819ea514e9c593d9),
    ("E4 osip_fn_18 d1 s3", 0x766bcf1d3ddc796d),
    ("E4 osip_fn_19 d1 s3", 0x24cee7f35562e062),
    ("E1 gen ac_controller d2 s3", 0xfe1cb09b89b9741f),
    ("E1 ac_controller d3 s3", 0x31c07d7a37ffd73b),
    ("E3 off deliver d4 s3", 0x582b1d8e540bde28),
    ("E3 complete symbolic deliver d4 s3", 0x6882ff74d558ff4d),
];

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The report with every field outside the determinism contract zeroed.
fn scrubbed(mut report: SessionReport) -> SessionReport {
    report.exec_time = Duration::ZERO;
    report.solve_time = Duration::ZERO;
    report
}

struct Session<'a> {
    name: String,
    program: &'a CompiledProgram,
    toplevel: String,
    config: DartConfig,
}

fn config(depth: u32, max_runs: u64, seed: u64, mode: EngineMode) -> DartConfig {
    DartConfig {
        depth,
        max_runs,
        seed,
        mode,
        ..DartConfig::default()
    }
}

/// Run cap of the depth-4 sessions, which keeps the debug build's run of
/// this test short; only seed 2's Lowe-fix-Off session reaches its bug
/// (at run 3,103) below it.
const DEEP_RUNS: u64 = 4000;

/// The programs the sessions test.
struct Programs {
    ac: CompiledProgram,
    ns: CompiledProgram,
    ns_dy_off: CompiledProgram,
    ns_dy_complete: CompiledProgram,
    osip: CompiledProgram,
}

/// The sessions, in a fixed order.
fn sessions<'a>(p: &'a Programs, osip_functions: &[String]) -> Vec<Session<'a>> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        let mut add = |program, toplevel: &str, tag: &str, config: DartConfig| {
            out.push(Session {
                name: format!("{tag} {toplevel} d{} s{seed}", config.depth),
                program,
                toplevel: toplevel.to_string(),
                config,
            })
        };
        let directed = |depth, max_runs| config(depth, max_runs, seed, EngineMode::Directed);
        for depth in [1, 2] {
            add(&p.ac, "ac_controller", "E1", directed(depth, 100_000));
        }
        for depth in [1, 2] {
            add(&p.ns, "deliver", "E2", directed(depth, 1_000_000));
        }
        add(&p.osip, "osip_message_parse", "E4b", directed(1, 1000));
        for f in osip_functions {
            add(&p.osip, f, "E4", directed(1, 1000));
        }
        let generational = config(2, 100_000, seed, EngineMode::Generational);
        add(&p.ac, "ac_controller", "E1 gen", generational);
        add(&p.ac, "ac_controller", "E1", directed(3, 100_000));
        let mut off = directed(4, DEEP_RUNS);
        let mut complete = directed(4, DEEP_RUNS);
        let (off_tag, complete_tag) = match seed {
            1 => {
                off.strategy = Strategy::RandomBranch;
                ("E3 off random-branch", "E3 complete")
            }
            2 => {
                off.record_paths = true;
                off.stop_at_first_bug = false;
                ("E3 off all-bugs paths", "E3 complete")
            }
            _ => {
                complete.mode = EngineMode::SymbolicOnly;
                ("E3 off", "E3 complete symbolic")
            }
        };
        add(&p.ns_dy_off, "deliver", off_tag, off);
        add(&p.ns_dy_complete, "deliver", complete_tag, complete);
    }
    out
}

#[test]
fn reports_match_the_committed_digests() {
    let lib = generate_osip(OsipConfig {
        num_functions: 200,
        seed: 1,
    });
    let ns = |intruder, fix| dart_minic::compile(&needham_schroeder(intruder, fix)).unwrap();
    let programs = Programs {
        ac: dart_minic::compile(AC_CONTROLLER).unwrap(),
        ns: ns(Intruder::Possibilistic, LoweFix::Off),
        ns_dy_off: ns(Intruder::DolevYao, LoweFix::Off),
        ns_dy_complete: ns(Intruder::DolevYao, LoweFix::Complete),
        osip: dart_minic::compile(&lib.source).unwrap(),
    };
    let osip_functions: Vec<String> = lib
        .functions
        .iter()
        .take(20)
        .map(|f| f.name.clone())
        .collect();

    let mut table = String::new();
    let mut mismatches = Vec::new();
    let list = sessions(&programs, &osip_functions);
    for (i, s) in list.iter().enumerate() {
        let report = Dart::new(s.program, &s.toplevel, s.config.clone())
            .unwrap()
            .run();
        let line = format!("{:?}", scrubbed(report));
        let digest = fnv1a(&line);
        table.push_str(&format!("    ({:?}, {digest:#018x}),\n", s.name));
        match DIGESTS.get(i) {
            Some(&(name, want)) if name == s.name && want == digest => {}
            expected => mismatches.push(format!(
                "{}: digest {digest:#018x}, expected {expected:?}\n{line}",
                s.name
            )),
        }
    }
    assert!(
        mismatches.is_empty() && DIGESTS.len() == list.len(),
        "{} of {} sessions differ from the committed digests:\n{}\n\
         digest table of this build:\n{table}",
        mismatches.len(),
        list.len(),
        mismatches.join("\n"),
    );
}
