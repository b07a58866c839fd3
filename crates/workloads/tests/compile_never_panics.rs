//! The MiniC front end never panics: `dart_minic::compile` returns `Ok`
//! or a `CompileError` on random bytes and on truncations and
//! single-byte edits of every workload program.

use dart_workloads::{
    generate_osip, needham_schroeder, Intruder, LoweFix, OsipConfig, AC_CONTROLLER, BOUNDED_STACK,
    BST_INSERT, EXAMPLE_2_4, FOOBAR, LOCK_FSM, PAPER_H, SIP_URI_PARSER, STRUCT_CAST, TCAS_LITE,
    TRIANGLE_BUGGY, TRIANGLE_FIXED,
};
use proptest::prelude::*;

fn sources() -> Vec<String> {
    let mut out: Vec<String> = [
        AC_CONTROLLER,
        BOUNDED_STACK,
        BST_INSERT,
        EXAMPLE_2_4,
        FOOBAR,
        LOCK_FSM,
        PAPER_H,
        SIP_URI_PARSER,
        STRUCT_CAST,
        TCAS_LITE,
        TRIANGLE_BUGGY,
        TRIANGLE_FIXED,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for intruder in [Intruder::Possibilistic, Intruder::DolevYao] {
        for fix in [LoweFix::Off, LoweFix::Incomplete, LoweFix::Complete] {
            out.push(needham_schroeder(intruder, fix));
        }
    }
    out.push(
        generate_osip(OsipConfig {
            num_functions: 12,
            ..OsipConfig::default()
        })
        .source,
    );
    out
}

/// Compiles `bytes` read as (lossy) UTF-8. A panic fails the test case.
fn compile_bytes(bytes: &[u8]) {
    let _ = dart_minic::compile(&String::from_utf8_lossy(bytes));
}

#[test]
fn every_workload_program_compiles() {
    for src in sources() {
        if let Err(e) = dart_minic::compile(&src) {
            panic!("{e}\n{src}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compile_never_panics(
        which in 0usize..19,
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        cuts in proptest::collection::vec(any::<usize>(), 8),
        edits in proptest::collection::vec(
            (
                any::<usize>(),
                // Syntax bytes half the time, so edits reach past the lexer.
                prop_oneof![any::<u8>(), Just(b'('), Just(b'{'), Just(b';'), Just(b'*')],
            ),
            8,
        ),
    ) {
        let sources = sources();
        let src = sources[which % sources.len()].as_bytes();
        compile_bytes(&noise);
        for cut in &cuts {
            compile_bytes(&src[..cut % (src.len() + 1)]);
        }
        for (pos, byte) in &edits {
            let mut edited = src.to_vec();
            edited[pos % src.len()] = *byte;
            compile_bytes(&edited);
        }
    }
}
