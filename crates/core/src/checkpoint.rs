//! The generational checkpoint: the file from which a killed session
//! resumes exactly where its last completed work item left off.
//!
//! The paper's driver keeps its state "in a file between executions";
//! this is that file for the generational engine
//! ([`crate::DartConfig::checkpoint`]). It is written over the shared
//! text codec (`crate::text`), whose report block the farm's wire
//! documents carry too:
//!
//! ```text
//! dart-generational-checkpoint v4
//! program <fingerprint in hex>
//! seed <u64>
//! complete 0|1
//! next_seq <u64>
//! ...report block...                          the whole SessionReport
//! covered <site>/<0|1> ...
//! seen <child fingerprint in hex> ...
//! pool <var>:<value>,... ...                  `-` for an empty model
//! item <score> <bound> <seq> <rng seed> <key in hex, or ->
//! stack <0|1|2|3 per branch record, or ->      (branch + 2 * done)
//! slot <int|ptr> <value> <name> ...
//! end                                         item to end, per item
//! done
//! ```
//!
//! The report is saved whole, so everything it counts survives a resume
//! (bugs, recorded paths and times included) without a list of fields
//! here. Exactness rests on every queued tape carrying a *pristine* RNG:
//! roots record the seed they were drawn with, and children are rebuilt
//! from parent slots with a seed derived deterministically from the
//! session seed and the item's sequence number. The model pool is saved
//! because which pooled model answers a query decides the child tape
//! that query derives.

use crate::driver::DartError;
use crate::frontier::{fnv, Frontier, FrontierItem};
use crate::report::SessionReport;
use crate::tape::InputTape;
use crate::text::{
    parse_bit, parse_report, parse_slots, render_report, render_slots, Lines, ParseError,
};
use dart_minic::{CompiledProgram, FnSig};
use dart_solver::{Assignment, Var, MODEL_POOL};
use dart_sym::BranchRecord;
use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;
use std::path::Path;

/// First line of every checkpoint. Headers v1 to v3 lacked, in turn, the
/// model pool, the solver counters, and the program's fingerprint with
/// the rest of the report; they are malformed now.
const HEADER: &str = "dart-generational-checkpoint v4";

/// Who wrote a checkpoint, and the claim of the restart it interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head {
    /// [`fingerprint`] of the session's program, toplevel and depth.
    pub(crate) program: u64,
    /// The session seed.
    pub(crate) seed: u64,
    /// Whether the interrupted restart can still claim completeness.
    pub(crate) complete: bool,
}

/// A parsed checkpoint: everything `run_generational` needs to resume.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    pub(crate) head: Head,
    /// The sequence number of the next queued item.
    pub(crate) next_seq: u64,
    /// The session's report when the checkpoint was written; its
    /// frontier counters are the frontier's.
    pub(crate) report: SessionReport,
    pub(crate) coverage: Vec<(usize, bool)>,
    /// The frontier's seen set.
    pub(crate) seen: Vec<u64>,
    /// The query cache's model pool, oldest first (at most
    /// [`MODEL_POOL`] models).
    pub(crate) pool: Vec<Assignment>,
    /// The frontier's queued items.
    pub(crate) items: Vec<FrontierItem>,
}

/// The fingerprint a checkpoint records: FNV-1a of the compiled
/// program's rendering, its global initializers and external interface,
/// the toplevel's signature and the depth, which decides the tape
/// layout. A checkpoint resumed under another program would splice its
/// frontier and coverage into a session they do not describe.
pub(crate) fn fingerprint(compiled: &CompiledProgram, sig: &FnSig, depth: u32) -> u64 {
    fnv(format_args!(
        "{}{:?}{:?}{:?}{sig:?}\n{depth}",
        compiled.program, compiled.global_inits, compiled.extern_vars, compiled.extern_fns
    ))
}

/// Loads the checkpoint at `path`, or `None` when there is no file yet.
///
/// # Errors
///
/// [`DartError::InvalidConfig`] for an unreadable or malformed file, or
/// one recorded under another seed (resuming it would splice two
/// unrelated random sequences) or for another [`fingerprint`].
pub(crate) fn load(path: &Path, program: u64, seed: u64) -> Result<Option<Checkpoint>, DartError> {
    let invalid = |reason: String| DartError::InvalidConfig(reason);
    let text = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(invalid(format!(
                "cannot read checkpoint {}: {e}",
                path.display()
            )))
        }
        Ok(text) => text,
    };
    let cp = parse(&text)
        .map_err(|e| invalid(format!("malformed checkpoint {}: {e}", path.display())))?;
    if cp.head.seed != seed {
        return Err(invalid(format!(
            "checkpoint {} was recorded with seed {}, not {seed}",
            path.display(),
            cp.head.seed
        )));
    }
    if cp.head.program != program {
        return Err(invalid(format!(
            "checkpoint {} was recorded for a different program, toplevel or depth",
            path.display()
        )));
    }
    Ok(Some(cp))
}

/// Writes `text` to `path` through a `.tmp` sibling and a rename, so a
/// kill mid-write leaves the previous checkpoint in place. Write
/// failures are deliberately swallowed: checkpointing is crash
/// insurance, and a full disk must not turn a healthy session into a
/// failed one.
pub(crate) fn save(path: &Path, text: &str) {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Renders a checkpoint straight from the live session: its `report`,
/// whose frontier counters the caller has taken from `frontier`, the
/// frontier's queue and seen set, the coverage set and the query cache's
/// model pool. Nothing is copied but the coverage pairs, which are
/// sorted so that equal sessions write equal files.
pub(crate) fn render(
    head: Head,
    report: &SessionReport,
    frontier: &Frontier,
    coverage: &HashSet<(usize, bool)>,
    pool: &[Assignment],
) -> String {
    let Head {
        program,
        seed,
        complete,
    } = head;
    let mut out = format!(
        "{HEADER}\nprogram {program:x}\nseed {seed}\ncomplete {}\nnext_seq {}\n",
        u8::from(complete),
        frontier.next_seq()
    );
    render_report(&mut out, report);
    let mut covered: Vec<&(usize, bool)> = coverage.iter().collect();
    covered.sort_unstable();
    out.push_str("covered");
    for (site, dir) in covered {
        let _ = write!(out, " {site}/{}", u8::from(*dir));
    }
    out.push_str("\nseen");
    for k in frontier.seen() {
        let _ = write!(out, " {k:x}");
    }
    out.push_str("\npool");
    for model in pool {
        out.push(' ');
        if model.is_empty() {
            out.push('-');
        }
        for (n, (var, value)) in model.iter().enumerate() {
            let sep = if n == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}:{value}", var.0);
        }
    }
    out.push('\n');
    for it in frontier.items() {
        let _ = write!(
            out,
            "item {} {} {} {} ",
            it.score, it.bound, it.seq, it.rng_seed
        );
        match it.key {
            Some(k) => {
                let _ = writeln!(out, "{k:x}");
            }
            None => out.push_str("-\n"),
        }
        out.push_str("stack ");
        if it.stack.is_empty() {
            out.push('-');
        }
        for r in &it.stack {
            out.push(char::from(b'0' + u8::from(r.branch) + 2 * u8::from(r.done)));
        }
        out.push('\n');
        render_slots(&mut out, it.tape.slots());
        out.push_str("end\n");
    }
    out.push_str("done\n");
    out
}

/// Parses a checkpoint.
///
/// # Errors
///
/// A [`ParseError`] naming the first malformed line: a truncated or
/// corrupt checkpoint (e.g. from a crash mid-write of a non-atomic copy)
/// must surface as a config error, never resume a wrong session. That
/// includes a report with `restarts` above `runs + 1`, which no session
/// writes, and item sequence numbers that [`Frontier::restore`] cannot
/// key apart: items are keyed by `(score, seq)`, so a repeated `seq` can
/// overwrite an earlier item, and a `seq` at or past `next_seq` can be
/// overwritten by a child pushed after the resume. Either way queued work
/// would vanish, and a resumed session could claim completeness without
/// exploring it. A `pool` line with more than [`MODEL_POOL`] models, or a
/// model that names one variable twice, is rejected too: no session
/// writes either.
pub(crate) fn parse(text: &str) -> Result<Checkpoint, ParseError> {
    let mut lines = Lines::new(text);
    let header = lines.next()?;
    if header != HEADER {
        return Err(lines.err(format!("bad header `{header}`")));
    }
    let program = lines.field_rest("program")?;
    let program = parse_hex(program).ok_or_else(|| lines.err("bad program fingerprint"))?;
    let seed = lines.field("seed")?;
    let complete = parse_bit(lines.field_rest("complete")?)
        .ok_or_else(|| lines.err("`complete` must be 0 or 1"))?;
    let next_seq: u64 = lines.field("next_seq")?;
    let report = parse_report(&mut lines)?;
    // Each restart pushes its root, and the checkpoint written right
    // after is the last before that root runs: every earlier restart's
    // root has run. A larger count would make a resume replay that many
    // RNG draws.
    if report.restarts > report.runs.saturating_add(1) {
        let (restarts, runs) = (report.restarts, report.runs);
        return Err(lines.err(format!("`restarts` {restarts} exceeds `runs` {runs} + 1")));
    }
    let coverage: Option<Vec<(usize, bool)>> = lines
        .words("covered")?
        .into_iter()
        .map(|pair| {
            let (site, dir) = pair.split_once('/')?;
            Some((site.parse().ok()?, parse_bit(dir)?))
        })
        .collect();
    let coverage = coverage.ok_or_else(|| lines.err("bad coverage pair"))?;
    let seen: Option<Vec<u64>> = lines.words("seen")?.into_iter().map(parse_hex).collect();
    let seen = seen.ok_or_else(|| lines.err("bad seen fingerprint"))?;
    let models = lines.words("pool")?;
    if models.len() > MODEL_POOL {
        return Err(lines.err(format!("more than {MODEL_POOL} pooled models")));
    }
    let mut pool = Vec::new();
    for field in models {
        let mut model = Assignment::new();
        for entry in field.split(',').filter(|_| field != "-") {
            let (var, value) = entry
                .split_once(':')
                .and_then(|(v, x)| Some((v.parse().ok()?, x.parse().ok()?)))
                .ok_or_else(|| lines.err(format!("bad pooled model entry `{entry}`")))?;
            if model.insert(Var(var), value).is_some() {
                return Err(lines.err(format!("variable {var} repeated in a pooled model")));
            }
        }
        pool.push(model);
    }
    let mut items = Vec::new();
    let mut seqs = BTreeSet::new();
    loop {
        let line = lines.next()?;
        if line == "done" {
            break;
        }
        let fields: Vec<&str> = line
            .strip_prefix("item ")
            .ok_or_else(|| lines.err(format!("expected `item` or `done`, got `{line}`")))?
            .split(' ')
            .collect();
        let &[score, bound, seq, rng_seed, key] = &fields[..] else {
            return Err(lines.err("`item` needs 5 fields"));
        };
        let number = |word: &str| word.parse::<u64>().ok();
        let (Some(score), Ok(bound), Some(seq), Some(rng_seed)) =
            (number(score), bound.parse(), number(seq), number(rng_seed))
        else {
            return Err(lines.err(format!("bad item line `{line}`")));
        };
        if seq >= next_seq {
            return Err(lines.err(format!("item seq {seq} is not below next_seq {next_seq}")));
        }
        if !seqs.insert(seq) {
            return Err(lines.err(format!("duplicate item seq {seq}")));
        }
        let key = match key {
            "-" => None,
            hex => Some(parse_hex(hex).ok_or_else(|| lines.err(format!("bad item key `{hex}`")))?),
        };
        let records = lines.field_rest("stack")?;
        let stack: Option<Vec<BranchRecord>> = records
            .chars()
            .filter(|_| records != "-")
            .map(|c| {
                let n = c.to_digit(10).filter(|&n| n < 4)?;
                Some(BranchRecord {
                    branch: n % 2 == 1,
                    done: n >= 2,
                })
            })
            .collect();
        let stack = stack.ok_or_else(|| lines.err(format!("bad stack `{records}`")))?;
        let slots = parse_slots(&mut lines, "end")?;
        items.push(FrontierItem {
            tape: InputTape::from_slots(slots, rng_seed),
            stack,
            bound,
            score,
            rng_seed,
            key,
            seq,
        });
    }
    lines.expect_end()?;
    Ok(Checkpoint {
        head: Head {
            program,
            seed,
            complete,
        },
        next_seq,
        report,
        coverage,
        seen,
        pool,
        items,
    })
}

fn parse_hex(text: &str) -> Option<u64> {
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{InputKind, InputSlot};
    use crate::text::tests::sample_report;

    fn head() -> Head {
        Head {
            program: 0xfeed_f00d,
            seed: 1,
            complete: true,
        }
    }

    fn item(seq: u64, slots: Vec<InputSlot>, stack: Vec<BranchRecord>) -> FrontierItem {
        FrontierItem {
            tape: InputTape::from_slots(slots, seq),
            stack,
            bound: stack_len_bound(seq),
            score: seq % 3,
            rng_seed: seq,
            key: (seq % 2 == 1).then_some(seq << 40),
            seq,
        }
    }

    fn stack_len_bound(seq: u64) -> usize {
        (seq % 5) as usize
    }

    fn checkpoint(next_seq: u64, items: Vec<FrontierItem>) -> Checkpoint {
        let mut report = SessionReport::new(0);
        report.restarts = 1;
        Checkpoint {
            head: head(),
            next_seq,
            report,
            coverage: Vec::new(),
            seen: Vec::new(),
            pool: Vec::new(),
            items,
        }
    }

    /// Renders `cp` as a session holding its state would: through a
    /// frontier restored from it.
    fn render_cp(cp: &Checkpoint) -> String {
        let mut frontier = Frontier::new(None, true);
        frontier.restore(cp);
        let coverage = cp.coverage.iter().copied().collect();
        render(cp.head, &cp.report, &frontier, &coverage, &cp.pool)
    }

    /// A live session's state renders, parses and restores to the same
    /// state: the same text, the same report, and a frontier that pops
    /// the same items and still knows its seen set.
    #[test]
    fn live_state_round_trips() {
        let mut frontier = Frontier::new(Some(8), true);
        frontier.push_root(InputTape::new(77), 77);
        assert!(frontier.note_candidate(10));
        let mut tape = InputTape::new(5);
        tape.take(InputKind::IntLike, || "x".to_string());
        tape.take(InputKind::Pointer, || "p (iter 1)".to_string());
        tape.apply_model(&Assignment::from([(Var(0), 123)]));
        let stack = vec![
            BranchRecord {
                branch: true,
                done: false,
            },
            BranchRecord {
                branch: false,
                done: true,
            },
        ];
        frontier.push_child(tape, stack, 2, 3, 5, 10);
        let mut report = sample_report();
        frontier.count_into(&mut report);
        let coverage = HashSet::from([(4, true), (0, false), (0, true)]);
        let pool = vec![
            Assignment::from([(Var(0), -5), (Var(3), i64::MAX)]),
            Assignment::new(),
            Assignment::from([(Var(u32::MAX), i64::MIN)]),
        ];
        let text = render(head(), &report, &frontier, &coverage, &pool);
        for line in [
            "\ncovered 0/0 0/1 4/1\n",
            "\npool 0:-5,3:9223372036854775807 - 4294967295:-9223372036854775808\n",
            "\nstack 12\nslot int 123 x\nslot ptr ",
        ] {
            assert!(text.contains(line), "{line} in {text}");
        }

        let cp = parse(&text).unwrap();
        assert_eq!((cp.head, cp.next_seq), (head(), 2));
        assert_eq!(cp.report, report);
        assert_eq!(cp.pool, pool);
        assert_eq!(render_cp(&cp), text);
        let mut restored = Frontier::new(Some(8), true);
        restored.restore(&cp);
        assert!(!restored.note_candidate(10), "the seen set survives");
        assert_eq!(restored.peak, frontier.peak);
        while let Some(want) = frontier.pop() {
            let got = restored.pop().expect("as many items");
            assert_eq!(
                (got.seq, got.bound, got.score),
                (want.seq, want.bound, want.score)
            );
            assert_eq!((got.key, got.rng_seed), (want.key, want.rng_seed));
            assert_eq!(
                (got.tape.slots(), &got.stack),
                (want.tape.slots(), &want.stack)
            );
        }
        assert!(restored.pop().is_none());
    }

    #[test]
    fn truncated_or_garbled_checkpoints_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("not a checkpoint").is_err());
        let slot = InputSlot {
            kind: InputKind::Pointer,
            value: 1,
            name: "p".into(),
        };
        let good = render_cp(&checkpoint(1, vec![item(0, vec![slot], Vec::new())]));
        assert!(parse(&good).is_ok());
        // Truncation anywhere must be an error, not a partial resume.
        for cut in 1..good.lines().count() {
            let truncated: String = good.lines().take(cut).map(|l| format!("{l}\n")).collect();
            let err = parse(&truncated).unwrap_err();
            assert_eq!(err.line, cut + 1, "{err}");
        }
        for (from, to) in [
            ("seed 1", "seed x"),
            ("stack -", "stack 4"),
            ("complete 1", "complete 2"),
            ("program feedf00d", "program feedf00g"),
            ("slot ptr", "slot float"),
            ("item 0 0 0 0 -", "item 0 0 0 0"),
            ("done\n", "done\nmore\n"),
        ] {
            assert!(parse(&good.replacen(from, to, 1)).is_err(), "`{to}` parsed");
        }
    }

    /// Checkpoints of headers v1 to v3 lack the model pool, the solver
    /// counters, or the rest of the report and the program fingerprint:
    /// each would resume into a session that answers or reports
    /// differently, so their headers are malformed. So is every `pool`
    /// line that no session writes.
    #[test]
    fn old_headers_and_bad_pools_are_rejected() {
        let mut cp = checkpoint(0, Vec::new());
        cp.pool = vec![Assignment::from([(Var(0), 7), (Var(2), -1)])];
        let good = render_cp(&cp);
        assert!(good.contains("\npool 0:7,2:-1\n"), "{good}");
        for old in ["v1", "v2", "v3"] {
            let text = good.replacen("checkpoint v4", &format!("checkpoint {old}"), 1);
            let err = parse(&text).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.message.contains("bad header"), "{err}");
        }
        for bad in [
            "pool 0:7,2:",
            "pool 0:7,,2:-1",
            "pool 0:7 ",
            "pool  0:7",
            "pool x:7",
            "pool -1:7",
            "pool 0:9223372036854775808",
            "pool 0=7",
            "pool 0:7,0:8",
            "pooled",
            "0:7,2:-1",
        ] {
            let text = good.replace("pool 0:7,2:-1", bad);
            assert!(parse(&text).is_err(), "`{bad}` parsed");
        }
        let repeated = parse(&good.replace("0:7,2:-1", "2:7,2:-1")).unwrap_err();
        assert!(repeated.message.contains("repeated"), "{repeated}");
        cp.pool = vec![Assignment::from([(Var(1), 1)]); MODEL_POOL];
        let full = render_cp(&cp);
        assert_eq!(parse(&full).unwrap().pool.len(), MODEL_POOL);
        let over = parse(&full.replace("pool ", "pool - ")).unwrap_err();
        assert!(over.message.contains("pooled models"), "{over}");
    }

    /// Two items with one `seq`, or an item at or past `next_seq`, would
    /// collide in the restored queue (or with the next pushed child), and
    /// the lost item's subtree would never run.
    #[test]
    fn duplicate_and_future_seqs_are_rejected() {
        let cp = |next_seq, seqs: &[u64]| {
            let items = seqs.iter().map(|&s| item(s, Vec::new(), Vec::new()));
            checkpoint(next_seq, items.collect())
        };
        assert!(parse(&render_cp(&cp(2, &[0, 1]))).is_ok());
        // Restoring a duplicate keeps one item, so render the text whole.
        let two = render_cp(&cp(2, &[0, 1]));
        let dup = parse(&two.replacen("item 1 1 1 1 10000000000", "item 0 0 0 0 -", 1));
        let dup = dup.unwrap_err();
        assert!(dup.message.contains("duplicate item seq 0"), "{dup}");
        let future = parse(&render_cp(&cp(0, &[0]))).unwrap_err();
        assert!(future.message.contains("not below next_seq"), "{future}");
        assert!(parse(&render_cp(&cp(1, &[0, 1]))).is_err());
    }

    /// A resume replays one RNG draw per checkpointed restart, and no
    /// session writes more restarts than `runs + 1`; a larger count is
    /// corrupt, and a huge one would spin the resume.
    #[test]
    fn restarts_are_bounded_by_runs() {
        let parse_with = |restarts, runs| {
            let mut cp = checkpoint(0, Vec::new());
            (cp.report.restarts, cp.report.runs) = (restarts, runs);
            parse(&render_cp(&cp))
        };
        assert!(parse_with(2, 1).is_ok());
        let over = parse_with(5, 1).unwrap_err();
        assert!(over.message.contains("exceeds `runs`"), "{over}");
        assert!(parse_with(u64::MAX, u64::MAX).is_ok());
        assert!(parse_with(u64::MAX, u64::MAX - 2).is_err());
    }

    /// A valid random checkpoint: a random report whose `restarts` stay
    /// within `runs + 1`, sorted coverage, a sorted seen set, unique item
    /// sequence numbers below `next_seq`, slot names from a newline-free
    /// alphabet, and a model pool that is empty, small, or full to
    /// [`MODEL_POOL`].
    fn checkpoint_strategy() -> impl proptest::strategy::Strategy<Value = Checkpoint> {
        use proptest::collection::vec;
        use proptest::prelude::*;
        const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ()";
        let slot = (any::<bool>(), any::<i64>(), vec(0..NAME.len(), 0..10)).prop_map(
            |(ptr, value, name)| InputSlot {
                kind: if ptr {
                    InputKind::Pointer
                } else {
                    InputKind::IntLike
                },
                value,
                name: name.into_iter().map(|c| char::from(NAME[c])).collect(),
            },
        );
        let item = (
            vec(slot, 0..3),
            vec((any::<bool>(), any::<bool>()), 0..6),
            (0usize..20, any::<u64>(), any::<u64>()),
            (proptest::option::of(any::<u64>()), 1u64..5),
        )
            .prop_map(|(slots, stack, (bound, score, rng_seed), (key, gap))| {
                let stack = stack
                    .into_iter()
                    .map(|(branch, done)| BranchRecord { branch, done })
                    .collect();
                // `seq` is assigned from the gaps below.
                let item = FrontierItem {
                    tape: InputTape::from_slots(slots, rng_seed),
                    stack,
                    bound,
                    score,
                    rng_seed,
                    key,
                    seq: 0,
                };
                (item, gap)
            });
        let model = || {
            vec((any::<u32>(), any::<i64>()), 0..4).prop_map(|pairs| {
                pairs
                    .into_iter()
                    .map(|(var, value)| (Var(var), value))
                    .collect::<Assignment>()
            })
        };
        let pool = prop_oneof![vec(model(), 0..4), vec(model(), MODEL_POOL)];
        let head =
            (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(program, seed, complete)| {
                Head {
                    program,
                    seed,
                    complete,
                }
            });
        let report = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(runs, restarts, steps, reuse)| {
                let mut report = sample_report();
                report.runs = runs;
                // `parse` accepts at most `runs + 1` restarts.
                report.restarts = match runs.checked_add(2) {
                    Some(bound) => restarts % bound,
                    None => restarts,
                };
                report.steps = steps;
                report.solver.cache_hits = reuse;
                report.solver.cache_model_reuse = reuse;
                report
            },
        );
        (
            (head, report, 0u64..3),
            vec((0usize..50, any::<bool>()), 0..6),
            vec(any::<u64>(), 0..5),
            pool,
            vec(item, 0..4),
        )
            .prop_map(
                |((head, report, slack), mut coverage, mut seen, pool, items)| {
                    coverage.sort_unstable();
                    coverage.dedup();
                    seen.sort_unstable();
                    seen.dedup();
                    let mut next_seq = 0;
                    let items = items
                        .into_iter()
                        .map(|(mut item, gap)| {
                            item.seq = next_seq + gap - 1;
                            next_seq = item.seq + 1;
                            item
                        })
                        .collect();
                    Checkpoint {
                        head,
                        next_seq: next_seq + slack,
                        report,
                        coverage,
                        seen,
                        pool,
                        items,
                    }
                },
            )
    }

    /// What `parse` guarantees about an accepted checkpoint: at most
    /// `runs + 1` restarts, unique item sequence numbers below
    /// `next_seq`, so a restore keeps every item and the next pushed child
    /// collides with none of them, and a model pool that a query cache
    /// restores whole.
    fn assert_restorable(cp: &Checkpoint) {
        let report = &cp.report;
        assert!(
            report.restarts <= report.runs.saturating_add(1),
            "restarts past runs + 1"
        );
        assert!(cp.pool.len() <= MODEL_POOL, "pool past its capacity");
        let mut cache = dart_solver::QueryCache::default();
        cache.restore_models(cp.pool.clone());
        assert_eq!(cache.models(), &cp.pool[..], "restore dropped models");
        let seqs: BTreeSet<u64> = cp.items.iter().map(|it| it.seq).collect();
        assert_eq!(seqs.len(), cp.items.len(), "duplicate seq accepted");
        assert!(
            seqs.iter().all(|&seq| seq < cp.next_seq),
            "seq past next_seq"
        );
        let mut f = Frontier::new(None, true);
        f.restore(cp);
        assert_eq!(f.items().count(), cp.items.len(), "restore dropped items");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `parse` never panics — on random bytes (bare or behind a valid
        /// header), on every truncation of a rendered checkpoint, and on
        /// single-byte mutations of one. Whatever it accepts is
        /// restorable without losing an item, and a valid checkpoint
        /// round-trips.
        #[test]
        fn checkpoint_parse_never_panics_and_roundtrips(
            cp in checkpoint_strategy(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            edits in proptest::collection::vec(
                (
                    proptest::prelude::any::<usize>(),
                    // Digits half the time: they keep a numeric field
                    // parseable and so reach the checks behind it.
                    proptest::prop_oneof![proptest::prelude::any::<u8>(), b'0'..=b'9'],
                ),
                48,
            ),
        ) {
            let parse_bytes = |bytes: &[u8]| parse(&String::from_utf8_lossy(bytes));
            let text = render_cp(&cp);
            let parsed = parse(&text).expect("a rendered checkpoint parses");
            proptest::prop_assert_eq!(&parsed.report, &cp.report);
            proptest::prop_assert_eq!((parsed.head, &parsed.coverage), (cp.head, &cp.coverage));
            proptest::prop_assert_eq!(render_cp(&parsed), text.clone());
            assert_restorable(&cp);
            let mut headed = format!("{HEADER}\n").into_bytes();
            headed.extend_from_slice(&noise);
            for bytes in [&noise[..], &headed[..]] {
                if let Ok(got) = parse_bytes(bytes) {
                    assert_restorable(&got);
                }
            }
            let bytes = text.as_bytes();
            let last = bytes.len() - 1;
            for cut in 0..last {
                // Every cut before the final newline loses at least part
                // of the closing `done` line, so none may parse.
                proptest::prop_assert!(parse_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let unterminated = parse_bytes(&bytes[..last]).expect("the last newline is optional");
            proptest::prop_assert_eq!(render_cp(&unterminated), text);
            for (pos, byte) in &edits {
                let mut mutated = bytes.to_vec();
                mutated[pos % bytes.len()] = *byte;
                if let Ok(got) = parse_bytes(&mutated) {
                    assert_restorable(&got);
                }
            }
        }
    }
}
