//! Report identity: a fixed list of short sessions must produce the same
//! reports as the commit that fixed the constants below.
//!
//! Each session runs through `Dart::run` at seeds 1–3: E1's
//! `ac_controller` and E2's `deliver` at depths 1 and 2, the E4b
//! `osip_message_parse` session, the first 20 functions of the first E4
//! library, and one generational E1 session. Its report, with the
//! wall-clock times and the compiled tier's block counters zeroed, is
//! printed with `{:?}` and digested with FNV-1a. Those fields are the only
//! ones the contract lets differ between runs and tiers, so the test
//! passes unchanged in every CI leg (`DART_EXEC_TIER` and the fault hooks
//! reach the sessions through `DartConfig::default()`).
//!
//! A change that alters reports on purpose updates the digests and names
//! the fields that moved. On a mismatch the test prints each differing
//! session, its digest and its report, then the whole table to paste.

use dart::{Dart, DartConfig, EngineMode, SessionReport};
use dart_minic::CompiledProgram;
use dart_workloads::{
    generate_osip, needham_schroeder, Intruder, LoweFix, OsipConfig, AC_CONTROLLER,
};
use std::time::Duration;

/// `(session, digest)` for every session [`sessions`] lists, in order.
const DIGESTS: &[(&str, u64)] = &[
    ("E1 ac_controller d1 s1", 0xf13e1ea3271e0df6),
    ("E1 ac_controller d2 s1", 0x5e4cef98ff739076),
    ("E2 deliver d1 s1", 0x1f57cd2141f2aae0),
    ("E2 deliver d2 s1", 0xcd42c8674e5181a3),
    ("E4b osip_message_parse d1 s1", 0x407da28b3a7c31c3),
    ("E4 osip_fn_0 d1 s1", 0x9801b36717f4c9f2),
    ("E4 osip_fn_1 d1 s1", 0xc70bd1594d873638),
    ("E4 osip_fn_2 d1 s1", 0x5d63b3f115faa4c6),
    ("E4 osip_fn_3 d1 s1", 0x5d63b3f115faa4c6),
    ("E4 osip_fn_4 d1 s1", 0x279bbc5b68493692),
    ("E4 osip_fn_5 d1 s1", 0x52e7ab2bdc5c579a),
    ("E4 osip_fn_6 d1 s1", 0x52e7ab2bdc5c579a),
    ("E4 osip_fn_7 d1 s1", 0xa31385f5e107ee9a),
    ("E4 osip_fn_8 d1 s1", 0xf40541cd3168acf0),
    ("E4 osip_fn_9 d1 s1", 0x9801b36717f4c9f2),
    ("E4 osip_fn_10 d1 s1", 0xca96dee2503d1b8b),
    ("E4 osip_fn_11 d1 s1", 0x8ed6bf6bf4e7bbce),
    ("E4 osip_fn_12 d1 s1", 0x3405c2ffdccd64c2),
    ("E4 osip_fn_13 d1 s1", 0xcbdadb69710426b5),
    ("E4 osip_fn_14 d1 s1", 0x15a82f2d4ef45560),
    ("E4 osip_fn_15 d1 s1", 0xc94f9c5681fd8f9b),
    ("E4 osip_fn_16 d1 s1", 0x5d63b3f115faa4c6),
    ("E4 osip_fn_17 d1 s1", 0x279bbc5b68493692),
    ("E4 osip_fn_18 d1 s1", 0x52e7ab2bdc5c579a),
    ("E4 osip_fn_19 d1 s1", 0xca480fe0873d557e),
    ("E1 gen ac_controller d2 s1", 0x3967abb14caf8e94),
    ("E1 ac_controller d1 s2", 0xf13e1ea3271e0df6),
    ("E1 ac_controller d2 s2", 0x5e4cef98ff739076),
    ("E2 deliver d1 s2", 0x1f57cd2141f2aae0),
    ("E2 deliver d2 s2", 0xbc0192bdb2ae062b),
    ("E4b osip_message_parse d1 s2", 0x566880b76905776d),
    ("E4 osip_fn_0 d1 s2", 0x60518b03229ab76e),
    ("E4 osip_fn_1 d1 s2", 0x18d183af269d7347),
    ("E4 osip_fn_2 d1 s2", 0x54c17892c2866a8d),
    ("E4 osip_fn_3 d1 s2", 0x54c17892c2866a8d),
    ("E4 osip_fn_4 d1 s2", 0x798b14b0490a9851),
    ("E4 osip_fn_5 d1 s2", 0xdb0a900ea8943710),
    ("E4 osip_fn_6 d1 s2", 0xe9f66fbc62cf0005),
    ("E4 osip_fn_7 d1 s2", 0xf5a6fe7f97677f17),
    ("E4 osip_fn_8 d1 s2", 0xa83373c3f53e09c3),
    ("E4 osip_fn_9 d1 s2", 0x60518b03229ab76e),
    ("E4 osip_fn_10 d1 s2", 0x180c05899f16fb00),
    ("E4 osip_fn_11 d1 s2", 0xd055fca481d46ddd),
    ("E4 osip_fn_12 d1 s2", 0x83892148f563b919),
    ("E4 osip_fn_13 d1 s2", 0xf44ae29fa53b9262),
    ("E4 osip_fn_14 d1 s2", 0x327cc3782f51abcf),
    ("E4 osip_fn_15 d1 s2", 0x798b14b0490a9851),
    ("E4 osip_fn_16 d1 s2", 0x54c17892c2866a8d),
    ("E4 osip_fn_17 d1 s2", 0x798b14b0490a9851),
    ("E4 osip_fn_18 d1 s2", 0xe9f66fbc62cf0005),
    ("E4 osip_fn_19 d1 s2", 0xb3ec71b7565a7045),
    ("E1 gen ac_controller d2 s2", 0x3967abb14caf8e94),
    ("E1 ac_controller d1 s3", 0xf13e1ea3271e0df6),
    ("E1 ac_controller d2 s3", 0x5e4cef98ff739076),
    ("E2 deliver d1 s3", 0x1f57cd2141f2aae0),
    ("E2 deliver d2 s3", 0xdf0c7397202680b9),
    ("E4b osip_message_parse d1 s3", 0x3a5c665ecb9fd82d),
    ("E4 osip_fn_0 d1 s3", 0xbff67b424fdd0622),
    ("E4 osip_fn_1 d1 s3", 0x327426f21d23bdf8),
    ("E4 osip_fn_2 d1 s3", 0x78a10975fa12327a),
    ("E4 osip_fn_3 d1 s3", 0x78a10975fa12327a),
    ("E4 osip_fn_4 d1 s3", 0x93d4a8bf1ce42c62),
    ("E4 osip_fn_5 d1 s3", 0xb6da5a639a0f9fd6),
    ("E4 osip_fn_6 d1 s3", 0xb6da5a639a0f9fd6),
    ("E4 osip_fn_7 d1 s3", 0x4971491f8c87785f),
    ("E4 osip_fn_8 d1 s3", 0xf40541cd3168acf0),
    ("E4 osip_fn_9 d1 s3", 0xbff67b424fdd0622),
    ("E4 osip_fn_10 d1 s3", 0xbd0c9b984a6c5b43),
    ("E4 osip_fn_11 d1 s3", 0x66352eb9e1a75d7d),
    ("E4 osip_fn_12 d1 s3", 0x3405c2ffdccd64c2),
    ("E4 osip_fn_13 d1 s3", 0x67321e9c87290eb3),
    ("E4 osip_fn_14 d1 s3", 0x2bf98bd314b9c364),
    ("E4 osip_fn_15 d1 s3", 0x93d4a8bf1ce42c62),
    ("E4 osip_fn_16 d1 s3", 0x78a10975fa12327a),
    ("E4 osip_fn_17 d1 s3", 0x93d4a8bf1ce42c62),
    ("E4 osip_fn_18 d1 s3", 0xb6da5a639a0f9fd6),
    ("E4 osip_fn_19 d1 s3", 0xd0e4b0e16b8a91cf),
    ("E1 gen ac_controller d2 s3", 0x3967abb14caf8e94),
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
    report.blocks_fused = 0;
    report.block_fallbacks = 0;
    report.steps_fast_pathed = 0;
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

/// The sessions, in a fixed order.
fn sessions<'a>(
    ac: &'a CompiledProgram,
    ns: &'a CompiledProgram,
    osip: &'a CompiledProgram,
    osip_functions: &[String],
) -> Vec<Session<'a>> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        let mut add = |program, toplevel: &str, depth, max_runs, mode, tag: &str| {
            out.push(Session {
                name: format!("{tag} {toplevel} d{depth} s{seed}"),
                program,
                toplevel: toplevel.to_string(),
                config: config(depth, max_runs, seed, mode),
            })
        };
        for depth in [1, 2] {
            add(
                ac,
                "ac_controller",
                depth,
                100_000,
                EngineMode::Directed,
                "E1",
            );
        }
        for depth in [1, 2] {
            add(ns, "deliver", depth, 1_000_000, EngineMode::Directed, "E2");
        }
        add(
            osip,
            "osip_message_parse",
            1,
            1000,
            EngineMode::Directed,
            "E4b",
        );
        for f in osip_functions {
            add(osip, f, 1, 1000, EngineMode::Directed, "E4");
        }
        add(
            ac,
            "ac_controller",
            2,
            100_000,
            EngineMode::Generational,
            "E1 gen",
        );
    }
    out
}

#[test]
fn reports_match_the_committed_digests() {
    let ac = dart_minic::compile(AC_CONTROLLER).unwrap();
    let ns =
        dart_minic::compile(&needham_schroeder(Intruder::Possibilistic, LoweFix::Off)).unwrap();
    let lib = generate_osip(OsipConfig {
        num_functions: 200,
        seed: 1,
    });
    let osip = dart_minic::compile(&lib.source).unwrap();
    let osip_functions: Vec<String> = lib
        .functions
        .iter()
        .take(20)
        .map(|f| f.name.clone())
        .collect();

    let mut table = String::new();
    let mut mismatches = Vec::new();
    let list = sessions(&ac, &ns, &osip, &osip_functions);
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
