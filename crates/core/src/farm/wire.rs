//! The farm's worker → supervisor wire protocol.
//!
//! A `--farm-worker` process writes one line-oriented text document to
//! its stdout and exits; the supervisor parses it after reaping the
//! process. The document carries the full [`SessionReport`], a caught
//! engine-fault message, or the error that kept the session from being
//! set up.
//!
//! The report serialization is *exact* — every field round-trips
//! bit-for-bit (durations included) — because the farm's determinism
//! contract promises results byte-identical to an in-process sweep, and
//! a lossy wire format would silently break that. Both directions
//! destructure the structs exhaustively, so adding a report field
//! without extending the protocol is a compile error, not a silent
//! truncation. Three [`SolveStats`] counters are not carried: the two
//! ignored ones (`warm_pivots`, `cold_restarts`) always read 0, and
//! `cache_hits` always equals `cache_model_reuse`, so the parser fills
//! it from that field.
//!
//! Layout (`-` marks an empty list field throughout):
//!
//! ```text
//! dart-farm-worker v5
//! report | fault <escaped message> | setup <escaped message>
//! ...report block...
//! done
//! ```

use crate::report::{Bug, BugKind, Outcome, SessionReport};
use crate::search::SolveStats;
use crate::tape::{InputKind, InputSlot};
use dart_ram::Fault;
use std::fmt::Write as _;
use std::time::Duration;

/// First line of every worker document: versions the protocol so a
/// supervisor never misparses output from a mismatched binary.
pub(crate) const HEADER: &str = "dart-farm-worker v5";

/// What a worker produced for its function.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WorkerPayload {
    /// The session ran to completion.
    Report(Box<SessionReport>),
    /// The engine panicked; the message is what `catch_unwind` captured.
    Fault(String),
    /// [`crate::Dart::new`] rejected the session's configuration (a
    /// malformed, stale or other-seed checkpoint, say); the message is
    /// the error's.
    Setup(String),
}

/// Renders a complete worker document, `done` terminator included.
pub(crate) fn render_payload(payload: &WorkerPayload) -> String {
    let mut text = String::new();
    text.push_str(HEADER);
    text.push('\n');
    match payload {
        WorkerPayload::Fault(message) => {
            let _ = writeln!(text, "fault {}", escape(message));
        }
        WorkerPayload::Setup(message) => {
            let _ = writeln!(text, "setup {}", escape(message));
        }
        WorkerPayload::Report(report) => {
            text.push_str("report\n");
            render_report(&mut text, report);
        }
    }
    text.push_str("done\n");
    text
}

/// Parses a worker document; errors carry the offending line number.
pub(crate) fn parse_payload(text: &str) -> Result<WorkerPayload, String> {
    let mut lines = Lines::new(text);
    let header = lines.next()?;
    if header != HEADER {
        return Err(format!("bad worker header `{header}`"));
    }
    let line = lines.next()?;
    let payload = if let Some(message) = line.strip_prefix("fault ") {
        WorkerPayload::Fault(unescape(message).ok_or_else(|| lines.err("bad fault escape"))?)
    } else if let Some(message) = line.strip_prefix("setup ") {
        WorkerPayload::Setup(unescape(message).ok_or_else(|| lines.err("bad setup escape"))?)
    } else if line == "report" {
        WorkerPayload::Report(Box::new(parse_report(&mut lines)?))
    } else {
        return Err(lines.err(&format!("unexpected line `{line}`")));
    };
    lines.expect("done")?;
    lines.expect_end()?;
    Ok(payload)
}

fn render_report(text: &mut String, report: &SessionReport) {
    // Exhaustive destructure: a new `SessionReport` field fails to
    // compile here until the wire format carries it.
    let SessionReport {
        outcome,
        runs,
        bugs,
        divergences,
        restarts,
        solver,
        steps,
        branches_covered,
        branch_sites,
        dedup_hits,
        frontier_evicted,
        frontier_peak,
        paths,
        exec_time,
        solve_time,
        blocks_fused,
        block_fallbacks,
        steps_fast_pathed,
    } = report;
    match outcome {
        Outcome::Complete => text.push_str("outcome complete\n"),
        Outcome::Exhausted => text.push_str("outcome exhausted\n"),
        Outcome::DeadlineExceeded => text.push_str("outcome deadline\n"),
        Outcome::BugFound(bug) => {
            text.push_str("outcome bugfound\n");
            render_bug(text, bug);
        }
    }
    let _ = writeln!(text, "runs {runs}");
    let _ = writeln!(text, "divergences {divergences}");
    let _ = writeln!(text, "restarts {restarts}");
    let _ = writeln!(text, "steps {steps}");
    let _ = writeln!(text, "branches {branches_covered} {branch_sites}");
    let _ = writeln!(
        text,
        "frontier {dedup_hits} {frontier_evicted} {frontier_peak}"
    );
    let _ = writeln!(
        text,
        "blocks {blocks_fused} {block_fallbacks} {steps_fast_pathed}"
    );
    let SolveStats {
        sat,
        unsat,
        unknown,
        cache_hits: _,
        cache_model_reuse,
        split_solves,
        parallel_wasted,
        steals,
        pool_idle_ns,
        max_queue_depth,
        per_worker_solves,
        warm_pivots: _,
        cold_restarts: _,
    } = solver;
    let _ = writeln!(
        text,
        "solver {sat} {unsat} {unknown} {cache_model_reuse} {split_solves} \
         {parallel_wasted} {steals} {pool_idle_ns} {max_queue_depth}"
    );
    let _ = writeln!(text, "workers {}", render_u64_list(per_worker_solves));
    let _ = writeln!(
        text,
        "exec {} {}",
        exec_time.as_secs(),
        exec_time.subsec_nanos()
    );
    let _ = writeln!(
        text,
        "solve {} {}",
        solve_time.as_secs(),
        solve_time.subsec_nanos()
    );
    let _ = writeln!(text, "bugs {}", bugs.len());
    for bug in bugs {
        render_bug(text, bug);
    }
    let _ = writeln!(text, "paths {}", paths.len());
    for path in paths {
        if path.is_empty() {
            text.push_str("path -\n");
        } else {
            let parts: Vec<String> = path
                .iter()
                .map(|(site, dir)| format!("{site}:{}", *dir as u8))
                .collect();
            let _ = writeln!(text, "path {}", parts.join(","));
        }
    }
    text.push_str("endreport\n");
}

fn parse_report(lines: &mut Lines<'_>) -> Result<SessionReport, String> {
    let outcome_line = lines.next()?;
    let outcome = match outcome_line.strip_prefix("outcome ") {
        Some("complete") => Outcome::Complete,
        Some("exhausted") => Outcome::Exhausted,
        Some("deadline") => Outcome::DeadlineExceeded,
        Some("bugfound") => Outcome::BugFound(parse_bug(lines)?),
        _ => return Err(lines.err(&format!("bad outcome line `{outcome_line}`"))),
    };
    let runs = lines.field_u64("runs")?;
    let divergences = lines.field_u64("divergences")?;
    let restarts = lines.field_u64("restarts")?;
    let steps = lines.field_u64("steps")?;
    let branches = lines.field_list("branches", 2)?;
    let frontier = lines.field_list("frontier", 3)?;
    let blocks = lines.field_list("blocks", 3)?;
    let solver_fields = lines.field_list("solver", 9)?;
    let workers_line = lines.field_rest("workers")?;
    let per_worker_solves =
        parse_u64_list(&workers_line).ok_or_else(|| lines.err("bad workers list"))?;
    let exec_time = lines.field_duration("exec")?;
    let solve_time = lines.field_duration("solve")?;
    let bug_count = lines.field_u64("bugs")?;
    let mut bugs = Vec::new();
    for _ in 0..bug_count {
        bugs.push(parse_bug(lines)?);
    }
    let path_count = lines.field_u64("paths")?;
    let mut paths = Vec::new();
    for _ in 0..path_count {
        let body = lines.field_rest("path")?;
        if body == "-" {
            paths.push(Vec::new());
            continue;
        }
        let path: Option<Vec<(usize, bool)>> = body
            .split(',')
            .map(|pair| {
                let (site, dir) = pair.split_once(':')?;
                let dir = match dir {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                Some((site.parse::<usize>().ok()?, dir))
            })
            .collect();
        paths.push(path.ok_or_else(|| lines.err("bad path entry"))?);
    }
    lines.expect("endreport")?;
    Ok(SessionReport {
        outcome,
        runs,
        bugs,
        divergences,
        restarts,
        solver: SolveStats {
            sat: solver_fields[0],
            unsat: solver_fields[1],
            unknown: solver_fields[2],
            cache_hits: solver_fields[3],
            cache_model_reuse: solver_fields[3],
            split_solves: solver_fields[4],
            parallel_wasted: solver_fields[5],
            steals: solver_fields[6],
            pool_idle_ns: solver_fields[7],
            max_queue_depth: solver_fields[8],
            per_worker_solves,
            warm_pivots: 0,
            cold_restarts: 0,
        },
        steps,
        branches_covered: branches[0] as usize,
        branch_sites: branches[1] as usize,
        dedup_hits: frontier[0],
        frontier_evicted: frontier[1],
        frontier_peak: frontier[2],
        paths,
        exec_time,
        solve_time,
        blocks_fused: blocks[0],
        block_fallbacks: blocks[1],
        steps_fast_pathed: blocks[2],
    })
}

fn render_bug(text: &mut String, bug: &Bug) {
    let Bug {
        kind,
        run_index,
        inputs,
    } = bug;
    let kind = match kind {
        BugKind::Abort(reason) => format!("abort {}", escape(reason)),
        BugKind::NonTermination => "nonterm".to_string(),
        BugKind::OutOfMemory => "oom".to_string(),
        BugKind::Crash(fault) => match fault {
            Fault::NullDeref { addr } => format!("crash null {addr}"),
            Fault::OutOfBounds { addr } => format!("crash oob {addr}"),
            Fault::DivisionByZero => "crash div0".to_string(),
            Fault::StackOverflow => "crash stackoverflow".to_string(),
            Fault::BadJump { label } => format!("crash badjump {label}"),
            Fault::BadArity { func } => format!("crash badarity {func}"),
        },
    };
    let _ = writeln!(text, "bug {run_index} {kind}");
    for InputSlot { kind, value, name } in inputs {
        let kind = match kind {
            InputKind::IntLike => "int",
            InputKind::Pointer => "ptr",
        };
        // The name is the rest of the line, like the checkpoint format's
        // slot lines: names contain spaces but never newlines.
        let _ = writeln!(text, "slot {kind} {value} {name}");
    }
    text.push_str("endbug\n");
}

fn parse_bug(lines: &mut Lines<'_>) -> Result<Bug, String> {
    let head = lines.field_rest("bug")?;
    let (run_index, kind) = head
        .split_once(' ')
        .ok_or_else(|| lines.err("malformed bug line"))?;
    let run_index: u64 = run_index
        .parse()
        .map_err(|_| lines.err("bad bug run index"))?;
    let kind = parse_bug_kind(kind).ok_or_else(|| lines.err(&format!("bad bug kind `{kind}`")))?;
    let mut inputs = Vec::new();
    loop {
        let line = lines.next()?;
        if line == "endbug" {
            break;
        }
        let mut fields = line.splitn(4, ' ');
        let (Some("slot"), Some(slot_kind), Some(value)) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Err(lines.err(&format!("expected slot or endbug, got `{line}`")));
        };
        let kind = match slot_kind {
            "int" => InputKind::IntLike,
            "ptr" => InputKind::Pointer,
            _ => return Err(lines.err("bad slot kind")),
        };
        inputs.push(InputSlot {
            kind,
            value: value.parse().map_err(|_| lines.err("bad slot value"))?,
            name: fields.next().unwrap_or("").to_string(),
        });
    }
    Ok(Bug {
        kind,
        run_index,
        inputs,
    })
}

fn parse_bug_kind(text: &str) -> Option<BugKind> {
    if let Some(reason) = text.strip_prefix("abort ") {
        return Some(BugKind::Abort(unescape(reason)?));
    }
    match text {
        "nonterm" => return Some(BugKind::NonTermination),
        "oom" => return Some(BugKind::OutOfMemory),
        _ => {}
    }
    let crash = text.strip_prefix("crash ")?;
    if let Some(addr) = crash.strip_prefix("null ") {
        return Some(BugKind::Crash(Fault::NullDeref {
            addr: addr.parse().ok()?,
        }));
    }
    if let Some(addr) = crash.strip_prefix("oob ") {
        return Some(BugKind::Crash(Fault::OutOfBounds {
            addr: addr.parse().ok()?,
        }));
    }
    if let Some(label) = crash.strip_prefix("badjump ") {
        return Some(BugKind::Crash(Fault::BadJump {
            label: label.parse().ok()?,
        }));
    }
    if let Some(func) = crash.strip_prefix("badarity ") {
        return Some(BugKind::Crash(Fault::BadArity {
            func: func.parse().ok()?,
        }));
    }
    match crash {
        "div0" => Some(BugKind::Crash(Fault::DivisionByZero)),
        "stackoverflow" => Some(BugKind::Crash(Fault::StackOverflow)),
        _ => None,
    }
}

fn render_u64_list(values: &[u64]) -> String {
    if values.is_empty() {
        return "-".to_string();
    }
    let parts: Vec<String> = values.iter().map(u64::to_string).collect();
    parts.join(",")
}

fn parse_u64_list(text: &str) -> Option<Vec<u64>> {
    if text == "-" {
        return Some(Vec::new());
    }
    text.split(',').map(|v| v.parse().ok()).collect()
}

/// Escapes newlines and backslashes so arbitrary abort reasons and panic
/// messages stay single-line. Spaces are fine: escaped strings only ever
/// occupy a line's final field.
pub(crate) fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn unescape(text: &str) -> Option<String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Line cursor with 1-based positions for error messages; running out of
/// lines is reported as truncation (the torn-pipe case).
struct Lines<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Lines<'a> {
        Lines {
            lines: text.lines(),
            line_no: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| format!("truncated worker output at line {}", self.line_no))
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at line {}", self.line_no)
    }

    fn expect(&mut self, want: &str) -> Result<(), String> {
        let line = self.next()?;
        if line == want {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{want}`, got `{line}`")))
        }
    }

    fn expect_end(&mut self) -> Result<(), String> {
        match self.lines.next() {
            None => Ok(()),
            Some(extra) => Err(format!("trailing data after `done`: `{extra}`")),
        }
    }

    /// A `<name> <u64>` line.
    fn field_u64(&mut self, name: &str) -> Result<u64, String> {
        let body = self.field_rest(name)?;
        body.parse()
            .map_err(|_| self.err(&format!("bad {name} value `{body}`")))
    }

    /// A `<name> <u64> ...` line with exactly `count` values.
    fn field_list(&mut self, name: &str, count: usize) -> Result<Vec<u64>, String> {
        let body = self.field_rest(name)?;
        let values: Option<Vec<u64>> = body.split(' ').map(|v| v.parse().ok()).collect();
        match values {
            Some(v) if v.len() == count => Ok(v),
            _ => Err(self.err(&format!("bad {name} line `{body}`"))),
        }
    }

    /// A `<name> <secs> <nanos>` line, as rendered from `as_secs` and
    /// `subsec_nanos`. A nanosecond field of a second or more is
    /// rejected: `Duration::new` would carry it into the seconds, which
    /// panics on overflow and otherwise yields a value never rendered.
    fn field_duration(&mut self, name: &str) -> Result<Duration, String> {
        match self.field_list(name, 2)?[..] {
            [secs, nanos] if nanos < 1_000_000_000 => Ok(Duration::new(secs, nanos as u32)),
            _ => Err(self.err(&format!("bad {name} nanoseconds"))),
        }
    }

    /// A `<name> <rest of line>` line.
    fn field_rest(&mut self, name: &str) -> Result<String, String> {
        let line = self.next()?;
        line.strip_prefix(name)
            .and_then(|r| r.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| self.err(&format!("expected `{name}`, got `{line}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SessionReport {
        let mut report = SessionReport::new(12);
        report.runs = 17;
        report.divergences = 2;
        report.restarts = 3;
        report.steps = 90210;
        report.branches_covered = 9;
        report.dedup_hits = 4;
        report.frontier_evicted = 1;
        report.frontier_peak = 6;
        report.solver.sat = 5;
        report.solver.unsat = 7;
        report.solver.unknown = 1;
        report.solver.cache_hits = 8;
        report.solver.cache_model_reuse = 8;
        report.solver.split_solves = 6;
        report.solver.pool_idle_ns = 12345;
        report.solver.per_worker_solves = vec![3, 0, 9];
        report.exec_time = Duration::new(1, 999_999_999);
        report.solve_time = Duration::from_nanos(1);
        report.blocks_fused = 311;
        report.block_fallbacks = 13;
        report.steps_fast_pathed = 88000;
        report.paths = vec![vec![(0, true), (3, false)], Vec::new()];
        let bug = Bug {
            kind: BugKind::Abort("assertion failed:\n x > 0 \\ always".to_string()),
            run_index: 9,
            inputs: vec![
                InputSlot {
                    kind: InputKind::IntLike,
                    value: -41,
                    name: "arg 0 of f (iter 1)".to_string(),
                },
                InputSlot {
                    kind: InputKind::Pointer,
                    value: 0,
                    name: "deref at 7".to_string(),
                },
            ],
        };
        report.bugs = vec![
            bug.clone(),
            Bug {
                kind: BugKind::Crash(Fault::NullDeref { addr: -8 }),
                run_index: 11,
                inputs: Vec::new(),
            },
            Bug {
                kind: BugKind::Crash(Fault::DivisionByZero),
                run_index: 12,
                inputs: Vec::new(),
            },
            Bug {
                kind: BugKind::NonTermination,
                run_index: 13,
                inputs: Vec::new(),
            },
            Bug {
                kind: BugKind::OutOfMemory,
                run_index: 14,
                inputs: Vec::new(),
            },
        ];
        report.outcome = Outcome::BugFound(bug);
        report
    }

    #[test]
    fn report_round_trips_exactly() {
        let payload = WorkerPayload::Report(Box::new(sample_report()));
        assert_eq!(parse_payload(&render_payload(&payload)), Ok(payload));
    }

    #[test]
    fn fault_round_trips_with_escapes() {
        let payload = WorkerPayload::Fault("panicked:\nline two \\ backslash".to_string());
        assert_eq!(parse_payload(&render_payload(&payload)), Ok(payload));
    }

    #[test]
    fn setup_error_round_trips() {
        let payload = WorkerPayload::Setup("malformed checkpoint cp: line 1".to_string());
        let text = render_payload(&payload);
        assert!(
            text.contains("\nsetup malformed checkpoint cp: line 1\n"),
            "{text}"
        );
        assert_eq!(parse_payload(&text), Ok(payload));
    }

    #[test]
    fn empty_report_round_trips() {
        let payload = WorkerPayload::Report(Box::new(SessionReport::new(0)));
        assert_eq!(parse_payload(&render_payload(&payload)), Ok(payload));
    }

    /// `cache_hits` always equals `cache_model_reuse`, so the `solver`
    /// line carries the value once and the parser fills both fields.
    #[test]
    fn solver_line_carries_model_reuse_once() {
        let full = render_payload(&WorkerPayload::Report(Box::new(sample_report())));
        let solver_line = full.lines().find(|l| l.starts_with("solver ")).unwrap();
        assert_eq!(solver_line, "solver 5 7 1 8 6 0 0 12345 0");
        let Ok(WorkerPayload::Report(report)) = parse_payload(&full) else {
            panic!("a rendered report parses");
        };
        assert_eq!(report.solver.cache_hits, 8);
        assert_eq!(report.solver.cache_model_reuse, 8);
    }

    #[test]
    fn truncated_and_malformed_output_are_rejected() {
        let full = render_payload(&WorkerPayload::Report(Box::new(sample_report())));
        // Every strict prefix (on line boundaries) must fail to parse:
        // a torn pipe can never produce a silently wrong report.
        let lines: Vec<&str> = full.lines().collect();
        for cut in 0..lines.len() {
            let partial = lines[..cut].join("\n");
            assert!(
                parse_payload(&partial).is_err(),
                "prefix of {cut} lines parsed"
            );
        }
        assert!(parse_payload(&full).is_ok());
        assert!(
            parse_payload(&format!("{full}extra\n")).is_err(),
            "trailing data"
        );
        assert!(parse_payload("nonsense\n").is_err());
        // An older worker's document: a v1 to v4 header (a v4 worker
        // reported a setup error as a fault), v1's retired `verdict` line,
        // v3's `fp` fingerprint lines, or the ten-field `solver` line of
        // v3 (which also carried `cache_hits`).
        for old in [
            "dart-farm-worker v1",
            "dart-farm-worker v2",
            "dart-farm-worker v3",
            "dart-farm-worker v4",
        ] {
            let old_header = full.replacen(HEADER, old, 1);
            assert!(parse_payload(&old_header).is_err(), "{old} header");
        }
        let verdict = full.replacen("report\n", "verdict u 07 1\nreport\n", 1);
        assert!(parse_payload(&verdict).is_err(), "verdict line");
        let fp = "fp 00000000deadbeef 000000000000002a\n";
        let fingerprint = full.replacen("report\n", &format!("{fp}report\n"), 1);
        assert!(parse_payload(&fingerprint).is_err(), "fp line");
        let fault = render_payload(&WorkerPayload::Fault("boom".to_string()));
        let fault_fp = fault.replacen("fault ", &format!("{fp}fault "), 1);
        assert!(parse_payload(&fault_fp).is_err(), "fp line before a fault");
        let solver_line = full
            .lines()
            .find(|l| l.starts_with("solver "))
            .expect("a solver line");
        let v3_solver = full.replacen(solver_line, &solver_line.replacen(" 8 ", " 8 8 ", 1), 1);
        assert!(parse_payload(&v3_solver).is_err(), "v3 solver line");
    }

    /// `Duration::new` carries a nanosecond field of a second or more
    /// into the seconds: with `u64::MAX` seconds that panicked in the
    /// supervisor, and `2^32` nanoseconds truncated to a silent zero.
    #[test]
    fn out_of_range_duration_nanos_are_rejected() {
        let full = render_payload(&WorkerPayload::Report(Box::new(sample_report())));
        for (name, rendered) in [("exec", "exec 1 999999999"), ("solve", "solve 0 1")] {
            assert!(full.contains(&format!("\n{rendered}\n")), "{rendered}");
            for nanos in ["1000000000", "4294967296", "18446744073709551615"] {
                for secs in ["18446744073709551615", "0"] {
                    let bad = full.replace(rendered, &format!("{name} {secs} {nanos}"));
                    assert!(parse_payload(&bad).is_err(), "{name} {secs} {nanos}");
                }
            }
        }
        let max = full.replace("exec 1 999999999", "exec 18446744073709551615 999999999");
        let Ok(WorkerPayload::Report(report)) = parse_payload(&max) else {
            panic!("the largest renderable duration must parse");
        };
        assert_eq!(report.exec_time, Duration::new(u64::MAX, 999_999_999));
    }

    /// A random valid worker document: a fault message from a printable
    /// alphabet (with the escaped newline and backslash), or a report
    /// with random counters and durations.
    fn payload_strategy() -> impl proptest::strategy::Strategy<Value = WorkerPayload> {
        use proptest::collection::vec;
        use proptest::prelude::*;
        let text = |alphabet: &'static [u8], len: std::ops::Range<usize>| {
            vec(0..alphabet.len(), len).prop_map(move |chars| {
                chars
                    .into_iter()
                    .map(|c| char::from(alphabet[c]))
                    .collect::<String>()
            })
        };
        let report = (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (
                any::<u64>(),
                0u32..1_000_000_000,
                any::<u64>(),
                0u32..1_000_000_000,
            ),
            vec(any::<u64>(), 0..4),
        )
            .prop_map(|((runs, steps, reuse), (es, en, ss, sn), workers)| {
                let mut report = sample_report();
                report.runs = runs;
                report.steps = steps;
                report.solver.cache_hits = reuse;
                report.solver.cache_model_reuse = reuse;
                report.solver.per_worker_solves = workers;
                report.exec_time = Duration::new(es, en);
                report.solve_time = Duration::new(ss, sn);
                WorkerPayload::Report(Box::new(report))
            });
        let fault = text(b"abcxyz0129 -:\\\n", 0..40).prop_map(WorkerPayload::Fault);
        let setup = text(b"abcxyz0129 -:\\\n", 0..40).prop_map(WorkerPayload::Setup);
        prop_oneof![report, fault, setup]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `parse_payload` runs in the supervisor on whatever a worker
        /// wrote, so it never panics: not on random bytes (bare or behind
        /// a valid header), not on any truncation of a rendered document,
        /// and not on single-byte edits of one. A valid document
        /// round-trips exactly.
        #[test]
        fn parse_payload_never_panics_and_roundtrips(
            payload in payload_strategy(),
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
            let parse_bytes = |bytes: &[u8]| parse_payload(&String::from_utf8_lossy(bytes));
            let text = render_payload(&payload);
            proptest::prop_assert_eq!(parse_payload(&text), Ok(payload.clone()));
            let mut headed = format!("{HEADER}\n").into_bytes();
            headed.extend_from_slice(&noise);
            let _ = parse_bytes(&noise);
            let _ = parse_bytes(&headed);
            let bytes = text.as_bytes();
            let last = bytes.len() - 1;
            for cut in 0..last {
                // Every cut before the final newline loses at least part
                // of the closing `done` line, so none may parse.
                proptest::prop_assert!(parse_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            proptest::prop_assert_eq!(parse_bytes(&bytes[..last]), Ok(payload));
            for (pos, byte) in &edits {
                let mut mutated = bytes.to_vec();
                mutated[pos % bytes.len()] = *byte;
                let _ = parse_bytes(&mutated);
            }
        }
    }
}
