//! Saving and replaying input vectors.
//!
//! The paper's driver persists `(stack, IM)` "in a file between
//! executions"; this module provides the user-facing half of that: a bug's
//! input vector serializes to a small text file, and replaying it later
//! reproduces the failing run deterministically (Theorem 1(a) made
//! tangible — every reported error ships with a working reproduction).
//!
//! Format: one slot per line, `kind value  # origin`, where kind is `int`
//! or `ptr`. The text after the first `#` (less one leading space) is the
//! slot's name, so a saved vector parses back to itself. Lines starting
//! with `#` and blank lines are ignored.

use crate::driver::DartError;
use crate::exec::{run_once, run_once_traced, RunTermination};
use crate::tape::{InputSlot, InputTape};
use crate::text::{kind_word, parse_kind, Lines, ParseError};
use dart_minic::CompiledProgram;
use dart_ram::MachineConfig;
use std::fmt::Write as _;

/// Serializes an input vector (e.g. [`crate::Bug::inputs`]) to the replay
/// text format.
pub fn serialize_inputs(slots: &[InputSlot]) -> String {
    let mut out = String::from("# dart replay file: one input per line\n");
    for s in slots {
        let _ = writeln!(out, "{} {}  # {}", kind_word(s.kind), s.value, s.name);
    }
    out
}

/// Parses the replay text format. A slot line without a `#` comment is
/// named `replayed input N`.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first malformed line.
pub fn parse_inputs(text: &str) -> Result<Vec<InputSlot>, ParseError> {
    let mut slots = Vec::new();
    let mut lines = Lines::new(text);
    while let Some(raw) = lines.next_line() {
        let (line, name) = match raw.split_once('#') {
            Some((line, name)) => (line, Some(name.strip_prefix(' ').unwrap_or(name))),
            None => (raw, None),
        };
        let mut parts = line.split_whitespace();
        let Some(kind) = parts.next() else {
            continue;
        };
        let kind = parse_kind(kind).ok_or_else(|| lines.err(format!("unknown kind `{kind}`")))?;
        let value: i64 = parts
            .next()
            .ok_or_else(|| lines.err("missing value"))?
            .parse()
            .map_err(|_| lines.err("value is not an integer"))?;
        if let Some(junk) = parts.next() {
            return Err(lines.err(format!("trailing `{junk}`")));
        }
        let name = match name {
            Some(name) => name.to_string(),
            None => format!("replayed input {}", slots.len()),
        };
        slots.push(InputSlot { kind, value, name });
    }
    Ok(slots)
}

/// Replays an input vector against `toplevel` and returns how the run
/// ended. Inputs beyond the recorded vector (if the program consumes more,
/// e.g. after a code change) are drawn from `seed`.
///
/// # Errors
///
/// [`DartError::UnknownToplevel`] if the function is not defined — a
/// replay file can outlive the function it was recorded against, so a
/// stale file must surface as an error, not an engine panic.
pub fn replay(
    compiled: &CompiledProgram,
    toplevel: &str,
    depth: u32,
    machine: MachineConfig,
    slots: Vec<InputSlot>,
    seed: u64,
) -> Result<RunTermination, DartError> {
    let sig = compiled
        .fn_sig(toplevel)
        .ok_or_else(|| DartError::UnknownToplevel(toplevel.to_string()))?
        .clone();
    let tape = InputTape::from_slots(slots, seed);
    Ok(run_once(compiled, &sig, depth, machine, tape, Vec::new(), 32).termination)
}

/// Like [`replay`], but also returns the statement-level execution trace
/// (one disassembly line per executed statement).
///
/// # Errors
///
/// [`DartError::UnknownToplevel`] if the function is not defined.
pub fn replay_traced(
    compiled: &CompiledProgram,
    toplevel: &str,
    depth: u32,
    machine: MachineConfig,
    slots: Vec<InputSlot>,
    seed: u64,
) -> Result<(RunTermination, Vec<String>), DartError> {
    let sig = compiled
        .fn_sig(toplevel)
        .ok_or_else(|| DartError::UnknownToplevel(toplevel.to_string()))?
        .clone();
    let tape = InputTape::from_slots(slots, seed);
    let mut trace = Vec::new();
    let result = run_once_traced(
        compiled,
        &sig,
        depth,
        machine,
        tape,
        Vec::new(),
        32,
        &mut trace,
    );
    Ok((result.termination, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::InputKind;
    use crate::{Dart, DartConfig};

    #[test]
    fn roundtrip_serialization() {
        let slots = vec![
            InputSlot {
                kind: InputKind::IntLike,
                value: -42,
                name: "arg x".into(),
            },
            InputSlot {
                kind: InputKind::Pointer,
                value: 0,
                name: "arg p".into(),
            },
        ];
        let text = serialize_inputs(&slots);
        assert_eq!(parse_inputs(&text), Ok(slots), "names included");
        // Hand-written lines without a comment get a positional name.
        let bare = parse_inputs("int 5\nptr 0 #\n").unwrap();
        assert_eq!(bare[0].name, "replayed input 0");
        assert_eq!(bare[1].name, "");
    }

    /// The bytes of a saved vector: a header comment, then one `kind
    /// value  # name` line per slot, the name kept to its last byte.
    #[test]
    fn saved_vectors_keep_their_bytes() {
        let slot = |kind, value, name: &str| InputSlot {
            kind,
            value,
            name: name.to_string(),
        };
        let slots = [
            slot(InputKind::IntLike, -41, "arg 0 of f (iter 1)"),
            slot(InputKind::Pointer, 0, "deref at 7"),
            slot(InputKind::IntLike, i64::MIN, " # odd\r"),
        ];
        assert_eq!(
            serialize_inputs(&slots),
            "# dart replay file: one input per line\n\
             int -41  # arg 0 of f (iter 1)\n\
             ptr 0  # deref at 7\n\
             int -9223372036854775808  #  # odd\r\n"
        );
        let err = parse_inputs("int 1\n\nfloat 3\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: unknown kind `float`");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_inputs("int").is_err());
        assert!(parse_inputs("float 3").is_err());
        assert!(parse_inputs("int abc").is_err());
        assert!(parse_inputs("int 3 4").is_err());
        // Comments and blanks are fine.
        assert_eq!(parse_inputs("# hi\n\n  \n").unwrap().len(), 0);
    }

    #[test]
    fn bug_replays_to_the_same_error() {
        let compiled = dart_minic::compile(
            r#"
            int f(int x) { return 2 * x; }
            int h(int x, int y) {
                if (x != y)
                    if (f(x) == x + 10)
                        abort();
                return 0;
            }
            "#,
        )
        .unwrap();
        let report = Dart::new(&compiled, "h", DartConfig::default())
            .unwrap()
            .run();
        let bug = report.bug().expect("found");

        // Serialize, parse back, replay: same abort.
        let text = serialize_inputs(&bug.inputs);
        let slots = parse_inputs(&text).unwrap();
        let termination = replay(&compiled, "h", 1, MachineConfig::default(), slots, 0).unwrap();
        assert!(
            matches!(termination, RunTermination::Abort(_)),
            "replay must reproduce the abort, got {termination:?}"
        );
    }

    #[test]
    fn stale_toplevel_is_an_error_not_a_panic() {
        // A replay file recorded against a function that has since been
        // removed (or renamed) must fail gracefully.
        let compiled = dart_minic::compile("void f(int x) { }").unwrap();
        let slots = vec![InputSlot {
            kind: InputKind::IntLike,
            value: 1,
            name: "x".into(),
        }];
        let r = replay(
            &compiled,
            "gone",
            1,
            MachineConfig::default(),
            slots.clone(),
            0,
        );
        assert_eq!(r, Err(DartError::UnknownToplevel("gone".into())));
        let r = replay_traced(&compiled, "gone", 1, MachineConfig::default(), slots, 0);
        assert!(matches!(r, Err(DartError::UnknownToplevel(_))));
    }

    #[test]
    fn traced_replay_shows_the_path_to_the_abort() {
        let compiled = dart_minic::compile("void f(int x) { if (x == 5) abort(); }").unwrap();
        let slots = vec![InputSlot {
            kind: InputKind::IntLike,
            value: 5,
            name: "x".into(),
        }];
        let (termination, trace) =
            replay_traced(&compiled, "f", 1, MachineConfig::default(), slots, 0).unwrap();
        assert!(matches!(termination, RunTermination::Abort(_)));
        assert!(!trace.is_empty());
        assert!(
            trace.last().unwrap().contains("abort"),
            "trace must end at the abort: {trace:?}"
        );
        assert!(trace.iter().any(|l| l.contains("if")), "{trace:?}");
    }

    #[test]
    fn pointer_bug_replays() {
        let compiled = dart_minic::compile(
            r#"
            struct s { int v; };
            int f(struct s *p) { return p->v; }
            "#,
        )
        .unwrap();
        let report = Dart::new(&compiled, "f", DartConfig::default())
            .unwrap()
            .run();
        let bug = report.bug().expect("NULL crash found");
        let slots = parse_inputs(&serialize_inputs(&bug.inputs)).unwrap();
        let termination = replay(&compiled, "f", 1, MachineConfig::default(), slots, 0).unwrap();
        assert!(matches!(termination, RunTermination::Crash(_)));
    }

    fn slot_strategy() -> impl proptest::strategy::Strategy<Value = InputSlot> {
        use proptest::prelude::*;
        // Printable ASCII plus the characters a name must keep: `#`,
        // spaces at either end, a tab, a carriage return and non-ASCII.
        let name_char = prop_oneof![
            4 => (0x20u8..0x7f).prop_map(char::from),
            Just('#'),
            Just(' '),
            Just('\t'),
            Just('\r'),
            Just('é'),
        ];
        (
            any::<bool>(),
            any::<i64>(),
            proptest::collection::vec(name_char, 0..12),
        )
            .prop_map(|(ptr, value, name)| InputSlot {
                kind: if ptr {
                    InputKind::Pointer
                } else {
                    InputKind::IntLike
                },
                value,
                name: name.into_iter().collect(),
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `parse_inputs` never panics — on random bytes, on every
        /// truncation of a saved vector and on single-byte edits of one —
        /// and a saved vector whose names hold no newline parses back to
        /// itself, names included.
        #[test]
        fn parse_inputs_never_panics_and_roundtrips(
            slots in proptest::collection::vec(slot_strategy(), 0..6),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
                48,
            ),
        ) {
            let parse_bytes = |bytes: &[u8]| parse_inputs(&String::from_utf8_lossy(bytes));
            let text = serialize_inputs(&slots);
            proptest::prop_assert_eq!(parse_inputs(&text), Ok(slots.clone()));
            let _ = parse_bytes(&noise);
            let bytes = text.as_bytes();
            for cut in 0..bytes.len() {
                if let Ok(got) = parse_bytes(&bytes[..cut]) {
                    proptest::prop_assert!(got.len() <= slots.len(), "cut at {cut}");
                }
            }
            for (pos, byte) in &edits {
                let mut mutated = bytes.to_vec();
                mutated[pos % bytes.len()] = *byte;
                let _ = parse_bytes(&mutated);
            }
        }
    }
}
