//! Report identity: a fixed list of short sessions must produce the same
//! reports as the commit that fixed the constants below.
//!
//! Each session runs through `Dart::run` at seeds 1–3: E1's
//! `ac_controller` and E2's `deliver` at depths 1 and 2, the E4b
//! `osip_message_parse` session, the first 20 functions of the first E4
//! library, and one generational E1 session. Its report, with the
//! wall-clock times and the compiled tier's block counters zeroed and
//! `scrub_scheduling` applied, is printed with `{:?}` and digested with
//! FNV-1a. Those fields are the only ones the contract lets differ between
//! runs, tiers and solver thread counts, so the test passes unchanged in
//! every CI leg (`DART_EXEC_TIER`, `DART_SOLVE_THREADS` and the fault hooks
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
    ("E1 ac_controller d1 s1", 0xe4e28168cb836e9a),
    ("E1 ac_controller d2 s1", 0x02c801f6907bb840),
    ("E2 deliver d1 s1", 0x5ac78b603a607b2c),
    ("E2 deliver d2 s1", 0x4c2cd138e6eedb7f),
    ("E4b osip_message_parse d1 s1", 0xae0fba8028f2098b),
    ("E4 osip_fn_0 d1 s1", 0x6d029fb38b6f1386),
    ("E4 osip_fn_1 d1 s1", 0x321791ef13e0cdda),
    ("E4 osip_fn_2 d1 s1", 0x61f73adcc53a07ee),
    ("E4 osip_fn_3 d1 s1", 0x61f73adcc53a07ee),
    ("E4 osip_fn_4 d1 s1", 0x72036f4306c88b7c),
    ("E4 osip_fn_5 d1 s1", 0xeb7c7432e407e6a2),
    ("E4 osip_fn_6 d1 s1", 0xeb7c7432e407e6a2),
    ("E4 osip_fn_7 d1 s1", 0xdbc0cc66596a00e8),
    ("E4 osip_fn_8 d1 s1", 0x2d7abcec60cc81cc),
    ("E4 osip_fn_9 d1 s1", 0x6d029fb38b6f1386),
    ("E4 osip_fn_10 d1 s1", 0x94c403bdf6308e19),
    ("E4 osip_fn_11 d1 s1", 0x44319412d9a00924),
    ("E4 osip_fn_12 d1 s1", 0xe875bcff0b151b8e),
    ("E4 osip_fn_13 d1 s1", 0x24043e797d75868b),
    ("E4 osip_fn_14 d1 s1", 0xed4d694dd7daf584),
    ("E4 osip_fn_15 d1 s1", 0x0a5cc6ceafe31895),
    ("E4 osip_fn_16 d1 s1", 0x61f73adcc53a07ee),
    ("E4 osip_fn_17 d1 s1", 0x72036f4306c88b7c),
    ("E4 osip_fn_18 d1 s1", 0xeb7c7432e407e6a2),
    ("E4 osip_fn_19 d1 s1", 0x5524eb7b2c60bb9c),
    ("E1 gen ac_controller d2 s1", 0x6aef1c233c98c55e),
    ("E1 ac_controller d1 s2", 0xe4e28168cb836e9a),
    ("E1 ac_controller d2 s2", 0x02c801f6907bb840),
    ("E2 deliver d1 s2", 0x5ac78b603a607b2c),
    ("E2 deliver d2 s2", 0x4fe933c07ffa94f7),
    ("E4b osip_message_parse d1 s2", 0xbd24f8397d780d15),
    ("E4 osip_fn_0 d1 s2", 0xa164a9e9fa184d22),
    ("E4 osip_fn_1 d1 s2", 0xbab325e55592886f),
    ("E4 osip_fn_2 d1 s2", 0x75d6b6ab3cfa6a05),
    ("E4 osip_fn_3 d1 s2", 0x75d6b6ab3cfa6a05),
    ("E4 osip_fn_4 d1 s2", 0x6d470959953784b9),
    ("E4 osip_fn_5 d1 s2", 0x8d08df113942e8d8),
    ("E4 osip_fn_6 d1 s2", 0xf4a5b726308806ad),
    ("E4 osip_fn_7 d1 s2", 0xeb181c0ad7ac5351),
    ("E4 osip_fn_8 d1 s2", 0x6d382509104289b7),
    ("E4 osip_fn_9 d1 s2", 0xa164a9e9fa184d22),
    ("E4 osip_fn_10 d1 s2", 0xb9354e3b8f497508),
    ("E4 osip_fn_11 d1 s2", 0x43373395acf5bc51),
    ("E4 osip_fn_12 d1 s2", 0x3d2a1a890cb4b67d),
    ("E4 osip_fn_13 d1 s2", 0x6db92d1736d02c4a),
    ("E4 osip_fn_14 d1 s2", 0xe7a7139e1e323443),
    ("E4 osip_fn_15 d1 s2", 0x6d470959953784b9),
    ("E4 osip_fn_16 d1 s2", 0x75d6b6ab3cfa6a05),
    ("E4 osip_fn_17 d1 s2", 0x6d470959953784b9),
    ("E4 osip_fn_18 d1 s2", 0xf4a5b726308806ad),
    ("E4 osip_fn_19 d1 s2", 0x254d30593365f783),
    ("E1 gen ac_controller d2 s2", 0x6aef1c233c98c55e),
    ("E1 ac_controller d1 s3", 0xe4e28168cb836e9a),
    ("E1 ac_controller d2 s3", 0x02c801f6907bb840),
    ("E2 deliver d1 s3", 0x5ac78b603a607b2c),
    ("E2 deliver d2 s3", 0x37ca5df19a0df8c1),
    ("E4b osip_message_parse d1 s3", 0x5acc37f6b6a83fd5),
    ("E4 osip_fn_0 d1 s3", 0x3e57fd364d80e296),
    ("E4 osip_fn_1 d1 s3", 0xa0a332045e33c240),
    ("E4 osip_fn_2 d1 s3", 0xf7397ed1055b909e),
    ("E4 osip_fn_3 d1 s3", 0xf7397ed1055b909e),
    ("E4 osip_fn_4 d1 s3", 0xf1bccff5069d2eba),
    ("E4 osip_fn_5 d1 s3", 0x8a85f1f0e595d24a),
    ("E4 osip_fn_6 d1 s3", 0x8a85f1f0e595d24a),
    ("E4 osip_fn_7 d1 s3", 0xf0d4c2fe7f88cae9),
    ("E4 osip_fn_8 d1 s3", 0x2d7abcec60cc81cc),
    ("E4 osip_fn_9 d1 s3", 0x3e57fd364d80e296),
    ("E4 osip_fn_10 d1 s3", 0x969beebbcf5ec9db),
    ("E4 osip_fn_11 d1 s3", 0xfb9c65ce839c7531),
    ("E4 osip_fn_12 d1 s3", 0xe875bcff0b151b8e),
    ("E4 osip_fn_13 d1 s3", 0x4938a9a2b47b0f4b),
    ("E4 osip_fn_14 d1 s3", 0xe51c178f93d754ac),
    ("E4 osip_fn_15 d1 s3", 0xf1bccff5069d2eba),
    ("E4 osip_fn_16 d1 s3", 0xf7397ed1055b909e),
    ("E4 osip_fn_17 d1 s3", 0xf1bccff5069d2eba),
    ("E4 osip_fn_18 d1 s3", 0x8a85f1f0e595d24a),
    ("E4 osip_fn_19 d1 s3", 0x22107f52f64e4cb9),
    ("E1 gen ac_controller d2 s3", 0x6aef1c233c98c55e),
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
    report.solver.scrub_scheduling();
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
