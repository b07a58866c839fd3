//! A run resumed from its parent's snapshot at the start of the last
//! depth iteration equals the same run from scratch, field for field.
//!
//! Each case runs a parent from scratch, keeping its snapshot, and then
//! a chain of up to three children derived the way the directed search
//! derives them: one recorded branch flipped, and a random model applied
//! that changes slots above the snapshot's tape cursor and, in some
//! children, below it. `Snapshot::admits` must accept exactly the
//! children whose model leaves every slot below the cursor alone and
//! whose flip lies at or past the prefix's conditionals. Every accepted
//! child runs from scratch and resumed, and the two results must agree
//! on steps, path, stack, branches, every tape slot with its name (and
//! the tape's cursor and random stream), flags, `taint_at`,
//! `init_truncated`, divergence and termination. As in `Dart::run`, the
//! next child resumes from the same snapshot with the resumed run's
//! path and branches.
//!
//! With the `fault-injection` feature, a case may also place the plan's
//! denied allocation inside the restored prefix, where
//! `FaultState::skip_allocs` must refuse and the child runs from
//! scratch, or after it, where the resumed run must meet the denial
//! exactly where the run from scratch does.
//!
//! The programs are random depth-2–4 MiniC programs whose globals carry
//! state from one toplevel call to the next (branches, calls, heap
//! allocations, pointer inputs, external inputs, non-linear guards,
//! loops and aborts), and the E3 Needham-Schroeder Dolev-Yao and E1
//! AC-controller programs.

use dart::exec::{run_from, RunResult, Snapshot, Start};
use dart::{DartConfig, FaultState, InputTape};
use dart_minic::CompiledProgram;
use dart_ram::MachineConfig;
use dart_solver::{Assignment, Var};
use dart_sym::BranchRecord;
use dart_workloads::{needham_schroeder, Intruder, LoweFix, AC_CONTROLLER};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Cases per property; the release build, which CI also runs, affords
/// more.
const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 2048 };

/// A step budget small enough that a runaway loop or recursion ends
/// quickly.
fn machine() -> MachineConfig {
    MachineConfig {
        max_steps: 20_000,
        ..MachineConfig::default()
    }
}

/// One random statement of the toplevel's body. Every choice reads or
/// writes a global, so what the prefix leaves behind steers the last
/// iteration.
fn stmt_strategy() -> impl proptest::strategy::Strategy<Value = String> {
    prop_oneof![
        3 => (1i64..=3, 0usize..3, -4i64..=4, 0usize..4).prop_map(|(a, g, c, op)| {
            let op = ["==", "<", ">", "!="][op];
            format!("if ({a} * x + g{g} {op} {c}) {{ g{g} = g{g} + {a}; }}")
        }),
        (0usize..3).prop_map(|g| format!("g{g} = mix(y, g{g});")),
        Just("hp = malloc(2); *hp = y + g0;".to_string()),
        (0usize..3).prop_map(|g| {
            format!("if (hp != NULL) {{ if (*hp == g{g}) {{ g{g} = g{g} - 1; }} }}")
        }),
        Just("if (p != NULL) { if (p->v > x) { g1 = p->v; } }".to_string()),
        Just("g2 = g2 + sensor(); if (g2 == 3) { g0 = g0 + 2; }".to_string()),
        Just("if (x * y == g1) { g1 = g1 + 2; }".to_string()),
        Just("i = 0; while (i < 2) { if (y + i == g0) { g0 = g0 + 1; } i = i + 1; }".to_string()),
        (0usize..3, -2i64..=2).prop_map(|(g, c)| {
            format!("if (g{g} == {c}) {{ if (x == y) {{ abort(); }} }}")
        }),
    ]
}

/// A random program whose toplevel `f` runs 2–6 random statements.
fn program_strategy() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(stmt_strategy(), 2..=6).prop_map(|body| {
        format!(
            "struct node {{ int v; struct node *next; }};
            int g0; int g1; int g2;
            int *hp;
            extern int sensor();
            int mix(int a, int b) {{ if (a > b) {{ return a - b; }} return b + 1; }}
            void f(int x, int y, struct node *p) {{ int i; {} }}",
            body.join(" ")
        )
    })
}

/// Where a case puts the fault plan's denied allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deny {
    Nowhere,
    InPrefix,
    AfterPrefix,
}

/// A fault state denying allocation `deny`; without the
/// `fault-injection` feature nothing is denied.
fn fault_state(deny: Option<u64>) -> FaultState {
    #[cfg(feature = "fault-injection")]
    let config = DartConfig {
        faults: dart::FaultPlan {
            deny_alloc: deny,
            ..dart::FaultPlan::default()
        },
        ..DartConfig::default()
    };
    #[cfg(not(feature = "fault-injection"))]
    let config = {
        let _ = deny;
        DartConfig::default()
    };
    FaultState::for_config(&config)
}

/// A model over `tape`'s slots: each slot is left out, kept at its value
/// or changed, but a slot below `cursor` only changes when
/// `change_below`.
fn random_model(
    rng: &mut SmallRng,
    tape: &InputTape,
    cursor: usize,
    change_below: bool,
) -> Assignment {
    let mut model = Assignment::new();
    for i in 0..tape.len() {
        let var = Var(i as u32);
        let old = tape.value_of(var).expect("slot below the tape's length");
        match rng.gen_range(0..3) {
            0 => {}
            1 => {
                model.insert(var, old);
            }
            _ if i < cursor && !change_below => {
                model.insert(var, old);
            }
            _ => {
                let new = if rng.gen() {
                    rng.gen_range(-3..=3)
                } else {
                    old ^ 1
                };
                model.insert(var, new);
            }
        }
    }
    model
}

/// The child of `parent` that flips conditional `flipped` and applies
/// `model`, as `solve_next` and `Dart::run` derive it.
fn child(parent: &RunResult, flipped: usize, model: &Assignment) -> (InputTape, Vec<BranchRecord>) {
    let mut stack = parent.stack[..=flipped].to_vec();
    stack[flipped].branch = !stack[flipped].branch;
    let mut tape = parent.tape.clone();
    tape.apply_model(model);
    (tape, stack)
}

/// Fails unless the two runs agree on every field.
fn assert_same(scratch: &RunResult, resumed: &RunResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(scratch.steps, resumed.steps);
    prop_assert_eq!(scratch.path.constraints(), resumed.path.constraints());
    prop_assert_eq!(&scratch.stack, &resumed.stack);
    prop_assert_eq!(&scratch.branches, &resumed.branches);
    prop_assert_eq!(scratch.tape.snapshot(), resumed.tape.snapshot());
    // The cursor and the random stream that draws fresh slots.
    prop_assert_eq!(format!("{:?}", scratch.tape), format!("{:?}", resumed.tape));
    prop_assert_eq!(scratch.flags, resumed.flags);
    prop_assert_eq!(scratch.taint_at, resumed.taint_at);
    prop_assert_eq!(scratch.init_truncated, resumed.init_truncated);
    prop_assert_eq!(scratch.diverged, resumed.diverged);
    prop_assert_eq!(&scratch.termination, &resumed.termination);
    Ok(())
}

/// One case: a parent of `depth` from `seed`, then its chain of
/// children, with the choices drawn from `choices`.
fn check_case(
    program: &CompiledProgram,
    toplevel: &str,
    depth: u32,
    seed: u64,
    choices: u64,
    deny: Deny,
) -> Result<(), TestCaseError> {
    let sig = program.fn_sig(toplevel).expect("toplevel defined");
    let run = |tape, stack, faults: &mut FaultState, start| {
        run_from(
            program,
            sig,
            depth,
            machine(),
            tape,
            stack,
            32,
            faults,
            start,
        )
    };
    let mut rng = SmallRng::seed_from_u64(choices);
    let mut probe = fault_state(None);
    let fresh = Start::Fresh { snapshot: true };
    let (mut parent, snapshot) = run(InputTape::new(seed), Vec::new(), &mut probe, fresh);
    // A parent that ended before its last iteration keeps no snapshot.
    let Some(snapshot): Option<Snapshot> = snapshot else {
        return Ok(());
    };
    let parent_allocs = probe.allocs_seen();
    let deny_at = match deny {
        Deny::InPrefix if snapshot.allocs() > 0 => {
            Some(parent_allocs + rng.gen_range(0..snapshot.allocs()))
        }
        Deny::AfterPrefix => Some(parent_allocs + snapshot.allocs() + rng.gen_range(0..3u64)),
        _ => None,
    };
    // Two sessions that both ran the parent, one for each way to run
    // its children.
    let mut scratch_faults = fault_state(deny_at);
    let mut resume_faults = fault_state(deny_at);
    prop_assert!(scratch_faults.skip_allocs(parent_allocs));
    prop_assert!(resume_faults.skip_allocs(parent_allocs));

    let mut children = 0;
    for _ in 0..6 {
        let candidates = parent.stack.len().min(parent.path.len());
        if children == 3 || parent.diverged || candidates == 0 {
            break;
        }
        // Mostly flips the directed search could resume after; the rest
        // check that `admits` refuses a flip inside the prefix.
        let k = snapshot.conditionals();
        let flipped = if k < candidates && rng.gen_range(0..4) > 0 {
            rng.gen_range(k..candidates)
        } else {
            rng.gen_range(0..candidates)
        };
        let change_below = rng.gen_range(0..5) == 0;
        let model = random_model(&mut rng, &parent.tape, snapshot.cursor(), change_below);
        let below_kept = model
            .range(..Var(snapshot.cursor() as u32))
            .all(|(&var, &value)| parent.tape.value_of(var) == Some(value));
        let admitted = snapshot.admits(&parent.tape, &model, flipped);
        prop_assert_eq!(
            admitted,
            below_kept && flipped >= k,
            "flipped {}, conditionals {}",
            flipped,
            k
        );
        if !admitted {
            continue;
        }
        children += 1;
        let (tape, stack) = child(&parent, flipped, &model);
        let fresh = Start::Fresh { snapshot: false };
        let (scratch, _) = run(tape.clone(), stack.clone(), &mut scratch_faults, fresh);
        let next = resume_faults.allocs_seen();
        let denied_in_prefix = cfg!(feature = "fault-injection")
            && deny_at.is_some_and(|m| m >= next && m - next < snapshot.allocs());
        let skipped = resume_faults.skip_allocs(snapshot.allocs());
        prop_assert_eq!(
            skipped,
            !denied_in_prefix,
            "denied allocation {:?}",
            deny_at
        );
        let start = if skipped {
            Start::Resume {
                from: &snapshot,
                path: parent.path.clone(),
                branches: parent.branches.clone(),
            }
        } else {
            Start::Fresh { snapshot: false }
        };
        let (resumed, none) = run(tape, stack, &mut resume_faults, start);
        prop_assert!(
            none.is_none(),
            "only a fresh start asked to keeps a snapshot"
        );
        assert_same(&scratch, &resumed)?;
        prop_assert_eq!(scratch_faults.allocs_seen(), resume_faults.allocs_seen());
        if !skipped {
            // The session runs this child from scratch, and the denial
            // ended it inside the prefix.
            break;
        }
        parent = resumed;
    }
    Ok(())
}

fn deny_strategy() -> impl proptest::strategy::Strategy<Value = Deny> {
    prop_oneof![
        Just(Deny::Nowhere),
        Just(Deny::InPrefix),
        Just(Deny::AfterPrefix)
    ]
}

/// The E3 Dolev-Yao programs (Lowe fix Off and Complete) and E1, each
/// with its toplevel, compiled once.
fn paper_programs() -> &'static [(CompiledProgram, &'static str)] {
    static PROGRAMS: OnceLock<Vec<(CompiledProgram, &'static str)>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let ns = |fix| {
            let source = needham_schroeder(Intruder::DolevYao, fix);
            (dart_minic::compile(&source).unwrap(), "deliver")
        };
        vec![
            ns(LoweFix::Off),
            ns(LoweFix::Complete),
            (dart_minic::compile(AC_CONTROLLER).unwrap(), "ac_controller"),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn random_programs_resume_as_from_scratch(
        source in program_strategy(),
        depth in 2u32..=4,
        seed in any::<u64>(),
        choices in any::<u64>(),
        deny in deny_strategy(),
    ) {
        let program = dart_minic::compile(&source).expect("generated source compiles");
        check_case(&program, "f", depth, seed, choices, deny)
            .map_err(|e| TestCaseError::fail(format!("{e}\nsource: {source}")))?;
    }

    #[test]
    fn paper_programs_resume_as_from_scratch(
        which in 0usize..3,
        depth in 2u32..=4,
        seed in any::<u64>(),
        choices in any::<u64>(),
        deny in deny_strategy(),
    ) {
        let (program, toplevel) = &paper_programs()[which];
        check_case(program, toplevel, depth, seed, choices, deny)?;
    }
}
