//! The traced replica reproduces the untraced session exactly, so the
//! per-layer numbers describe the same program the end-to-end run
//! measured: for one seed of each directed workload, the replica's
//! observed fields equal `Dart::run`'s, and for one oSIP library they
//! equal `dart::sweep`'s.

use dart::{sweep, DartConfig};
use dart_bench_e2e::trace::LayerTrace;
use dart_bench_e2e::workload::{fnv1a, Workload};
use dart_bench_e2e::{run, run_traced, Observed};

#[test]
fn replica_matches_dart_run_on_one_seed_of_each_directed_workload() {
    for (workload, sessions_per_seed) in [(Workload::NsDyD4, 3), (Workload::PaperSmall, 5)] {
        let built = workload.build(1);
        for session in &built.sessions[..sessions_per_seed] {
            let program = &built.programs[session.program];
            let plain = run(program, &session.toplevel, &session.config).expect("no engine fault");
            let mut layers = LayerTrace::default();
            let traced = run_traced(program, &session.toplevel, &session.config, &mut layers)
                .expect("no engine fault");
            assert_eq!(plain, traced, "{} {}", workload.name(), session.toplevel);
            assert!(
                session.expect.holds(&traced),
                "{} {}",
                workload.name(),
                session.toplevel
            );
            assert_eq!(layers.runs, traced.runs);
            assert!(layers.exec + layers.search <= layers.session);
        }
    }
}

#[test]
fn replica_matches_dart_sweep_on_one_osip_library() {
    let built = Workload::OsipSweep.build(1);
    let library = built.sessions[0].program;
    let sessions: Vec<_> = built
        .sessions
        .iter()
        .filter(|s| s.program == library)
        .collect();
    let sweep_seed = sessions[0].config.seed ^ fnv1a(&sessions[0].toplevel);
    let names: Vec<String> = sessions.iter().map(|s| s.toplevel.clone()).collect();
    let config = DartConfig {
        seed: sweep_seed,
        ..sessions[0].config.clone()
    };
    let swept = sweep(&built.programs[library], &names, &config, 1).expect("valid sweep");
    let mut layers = LayerTrace::default();
    for (session, result) in sessions.iter().zip(&swept) {
        assert_eq!(session.config.seed, sweep_seed ^ fnv1a(&session.toplevel));
        let expected = Observed::of(result.report().expect("no engine fault"));
        let traced = run_traced(
            &built.programs[library],
            &session.toplevel,
            &session.config,
            &mut layers,
        )
        .expect("no engine fault");
        assert_eq!(expected, traced, "{}", session.toplevel);
        assert!(session.expect.holds(&traced), "{}", session.toplevel);
    }
}
