//! The line codec behind the engine's three text formats: the farm's
//! worker documents (`farm::wire`), generational checkpoints
//! (`checkpoint`) and replay files ([`crate::replay`](mod@crate::replay)).
//!
//! One line reader, [`Lines`], and one error, [`ParseError`], serve all
//! three. The records two formats share are coded here once: an input
//! slot line (its `int`/`ptr` kind word is the replay format's too), a
//! bug block and the whole [`SessionReport`] block.
//!
//! The report block is *exact*: every field round-trips bit for bit,
//! durations included, because the farm promises results byte-identical
//! to an in-process sweep and a resumed session promises the report of
//! the uninterrupted one. Both directions destructure the structs
//! exhaustively, so a new report field fails to compile here until the
//! block carries it. Three [`SolveStats`] counters are not carried: the
//! ignored `warm_pivots` and `cold_restarts` always read 0, and
//! `cache_hits` always equals `cache_model_reuse`, so the parser fills it
//! from that field. Nor is the report's ignored `steps_fast_pathed`,
//! which always reads 0.
//!
//! Report block layout (`-` marks an empty path):
//!
//! ```text
//! outcome complete|exhausted|deadline|bugfound   (bugfound: a bug block)
//! runs N / divergences N / restarts N / steps N
//! branches <covered> <sites>
//! frontier <dedup hits> <evicted> <peak>
//! solver <sat> <unsat> <unknown> <model reuse> <split solves>
//! exec <secs> <nanos> / solve <secs> <nanos>
//! bugs N, then N bug blocks: bug <run index> <kind>, slot lines, endbug
//! paths N, then N lines: path <site>:<0|1>,... | path -
//! endreport
//! ```

use crate::report::{Bug, BugKind, Outcome, SessionReport};
use crate::search::SolveStats;
use crate::tape::{InputKind, InputSlot};
use dart_ram::Fault;
use std::fmt::{self, Write as _};
use std::time::Duration;

/// A malformed checkpoint, worker document or replay file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number; one past the last line when the text ended
    /// too soon.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Line cursor with 1-based positions for errors. Lines split on `\n`
/// alone, so a replayed name keeps a trailing `\r`.
pub(crate) struct Lines<'a> {
    lines: std::str::SplitTerminator<'a, char>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a str) -> Lines<'a> {
        Lines {
            lines: text.split_terminator('\n'),
            line_no: 0,
        }
    }

    /// The next line, if any.
    pub(crate) fn next_line(&mut self) -> Option<&'a str> {
        self.line_no += 1;
        self.lines.next()
    }

    /// The next line; running out of lines is an error (a torn write or a
    /// torn pipe).
    pub(crate) fn next(&mut self) -> Result<&'a str, ParseError> {
        self.next_line()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    /// An error at the current line.
    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// Reads the line `want`.
    pub(crate) fn expect(&mut self, want: &str) -> Result<(), ParseError> {
        let line = self.next()?;
        if line == want {
            Ok(())
        } else {
            Err(self.err(format!("expected `{want}`, got `{line}`")))
        }
    }

    /// Checks that no line is left.
    pub(crate) fn expect_end(&mut self) -> Result<(), ParseError> {
        match self.next_line() {
            None => Ok(()),
            Some(extra) => Err(self.err(format!("trailing data `{extra}`"))),
        }
    }

    /// A `<name> <rest of line>` line.
    pub(crate) fn field_rest(&mut self, name: &str) -> Result<&'a str, ParseError> {
        let line = self.next()?;
        line.strip_prefix(name)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected `{name}`, got `{line}`")))
    }

    /// A `<name> <value>` line.
    pub(crate) fn field<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, ParseError> {
        let body = self.field_rest(name)?;
        body.parse()
            .map_err(|_| self.err(format!("bad {name} value `{body}`")))
    }

    /// A `<name>` line, bare or followed by words, each after one space.
    pub(crate) fn words(&mut self, name: &str) -> Result<Vec<&'a str>, ParseError> {
        let line = self.next()?;
        match line.strip_prefix(name) {
            Some("") => Ok(Vec::new()),
            Some(rest) if rest.starts_with(' ') => Ok(rest[1..].split(' ').collect()),
            _ => Err(self.err(format!("expected `{name}`, got `{line}`"))),
        }
    }

    /// A `<name> <u64> ...` line with exactly `count` values.
    fn field_list(&mut self, name: &str, count: usize) -> Result<Vec<u64>, ParseError> {
        let words = self.words(name)?;
        let values: Option<Vec<u64>> = words.iter().map(|v| v.parse().ok()).collect();
        match values {
            Some(v) if v.len() == count => Ok(v),
            _ => Err(self.err(format!("bad {name} line `{}`", words.join(" ")))),
        }
    }

    /// A `<name> <secs> <nanos>` line, as rendered from `as_secs` and
    /// `subsec_nanos`. A nanosecond field of a second or more is
    /// rejected: `Duration::new` would carry it into the seconds, which
    /// panics on overflow and otherwise yields a value never rendered.
    fn field_duration(&mut self, name: &str) -> Result<Duration, ParseError> {
        match self.field_list(name, 2)?[..] {
            [secs, nanos] if nanos < 1_000_000_000 => Ok(Duration::new(secs, nanos as u32)),
            _ => Err(self.err(format!("bad {name} nanoseconds"))),
        }
    }
}

/// A slot kind's word in slot lines and replay files.
pub(crate) fn kind_word(kind: InputKind) -> &'static str {
    match kind {
        InputKind::IntLike => "int",
        InputKind::Pointer => "ptr",
    }
}

/// Reads a [`kind_word`] back.
pub(crate) fn parse_kind(word: &str) -> Option<InputKind> {
    match word {
        "int" => Some(InputKind::IntLike),
        "ptr" => Some(InputKind::Pointer),
        _ => None,
    }
}

/// Writes one `slot <kind> <value> <name>` line per slot. The name is the
/// rest of the line: names hold spaces but never a newline.
pub(crate) fn render_slots(out: &mut String, slots: &[InputSlot]) {
    for InputSlot { kind, value, name } in slots {
        let _ = writeln!(out, "slot {} {value} {name}", kind_word(*kind));
    }
}

/// Reads slot lines up to the line `end`, which it consumes.
pub(crate) fn parse_slots(lines: &mut Lines<'_>, end: &str) -> Result<Vec<InputSlot>, ParseError> {
    let mut slots = Vec::new();
    loop {
        let line = lines.next()?;
        if line == end {
            return Ok(slots);
        }
        let mut fields = line.splitn(4, ' ');
        let (Some("slot"), Some(kind), Some(value)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(lines.err(format!("expected `slot` or `{end}`, got `{line}`")));
        };
        let kind = parse_kind(kind).ok_or_else(|| lines.err(format!("bad slot kind `{kind}`")))?;
        let value = value
            .parse()
            .map_err(|_| lines.err(format!("bad slot value `{value}`")))?;
        let name = fields.next().unwrap_or("").to_string();
        slots.push(InputSlot { kind, value, name });
    }
}

/// Writes the report block (see the module docs).
pub(crate) fn render_report(text: &mut String, report: &SessionReport) {
    // Exhaustive destructure: a new `SessionReport` field fails to
    // compile here until the block carries it.
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
        steps_fast_pathed: _,
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
    let SolveStats {
        sat,
        unsat,
        unknown,
        cache_hits: _,
        cache_model_reuse,
        split_solves,
        warm_pivots: _,
        cold_restarts: _,
    } = solver;
    let _ = writeln!(
        text,
        "solver {sat} {unsat} {unknown} {cache_model_reuse} {split_solves}"
    );
    for (name, time) in [("exec", exec_time), ("solve", solve_time)] {
        let _ = writeln!(text, "{name} {} {}", time.as_secs(), time.subsec_nanos());
    }
    let _ = writeln!(text, "bugs {}", bugs.len());
    for bug in bugs {
        render_bug(text, bug);
    }
    let _ = writeln!(text, "paths {}", paths.len());
    for path in paths {
        text.push_str("path ");
        if path.is_empty() {
            text.push('-');
        }
        for (n, (site, dir)) in path.iter().enumerate() {
            let sep = if n == 0 { "" } else { "," };
            let _ = write!(text, "{sep}{site}:{}", u8::from(*dir));
        }
        text.push('\n');
    }
    text.push_str("endreport\n");
}

/// Reads a report block, `endreport` included.
pub(crate) fn parse_report(lines: &mut Lines<'_>) -> Result<SessionReport, ParseError> {
    let outcome = match lines.field_rest("outcome")? {
        "complete" => Outcome::Complete,
        "exhausted" => Outcome::Exhausted,
        "deadline" => Outcome::DeadlineExceeded,
        "bugfound" => Outcome::BugFound(parse_bug(lines)?),
        other => return Err(lines.err(format!("bad outcome `{other}`"))),
    };
    let runs = lines.field("runs")?;
    let divergences = lines.field("divergences")?;
    let restarts = lines.field("restarts")?;
    let steps = lines.field("steps")?;
    let branches = lines.field_list("branches", 2)?;
    let frontier = lines.field_list("frontier", 3)?;
    let solver = lines.field_list("solver", 5)?;
    let exec_time = lines.field_duration("exec")?;
    let solve_time = lines.field_duration("solve")?;
    let bug_count: u64 = lines.field("bugs")?;
    let mut bugs = Vec::new();
    for _ in 0..bug_count {
        bugs.push(parse_bug(lines)?);
    }
    let path_count: u64 = lines.field("paths")?;
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
                Some((site.parse().ok()?, parse_bit(dir)?))
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
            sat: solver[0],
            unsat: solver[1],
            unknown: solver[2],
            cache_hits: solver[3],
            cache_model_reuse: solver[3],
            split_solves: solver[4],
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
        steps_fast_pathed: 0,
    })
}

/// Reads a `0`/`1` direction or flag.
pub(crate) fn parse_bit(text: &str) -> Option<bool> {
    match text {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
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
    render_slots(text, inputs);
    text.push_str("endbug\n");
}

fn parse_bug(lines: &mut Lines<'_>) -> Result<Bug, ParseError> {
    let head = lines.field_rest("bug")?;
    let (run_index, kind) = head
        .split_once(' ')
        .ok_or_else(|| lines.err("malformed bug line"))?;
    let run_index = run_index
        .parse()
        .map_err(|_| lines.err("bad bug run index"))?;
    let kind = parse_bug_kind(kind).ok_or_else(|| lines.err(format!("bad bug kind `{kind}`")))?;
    let inputs = parse_slots(lines, "endbug")?;
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
    let fault = match crash.split_once(' ') {
        Some(("null", addr)) => Fault::NullDeref {
            addr: addr.parse().ok()?,
        },
        Some(("oob", addr)) => Fault::OutOfBounds {
            addr: addr.parse().ok()?,
        },
        Some(("badjump", label)) => Fault::BadJump {
            label: label.parse().ok()?,
        },
        Some(("badarity", func)) => Fault::BadArity {
            func: func.parse().ok()?,
        },
        None if crash == "div0" => Fault::DivisionByZero,
        None if crash == "stackoverflow" => Fault::StackOverflow,
        _ => return None,
    };
    Some(BugKind::Crash(fault))
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A report with every field set and every bug kind's line shape, for
    /// the codec tests of the wire and the checkpoint.
    pub(crate) fn sample_report() -> SessionReport {
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
        report.exec_time = Duration::new(1, 999_999_999);
        report.solve_time = Duration::from_nanos(1);
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
        let crash = |fault| Bug {
            kind: BugKind::Crash(fault),
            run_index: 11,
            inputs: Vec::new(),
        };
        report.bugs = vec![
            bug.clone(),
            crash(Fault::NullDeref { addr: -8 }),
            crash(Fault::OutOfBounds { addr: 1 << 40 }),
            crash(Fault::DivisionByZero),
            crash(Fault::StackOverflow),
            crash(Fault::BadJump { label: 7 }),
            crash(Fault::BadArity { func: 2 }),
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

    fn round_trip(report: &SessionReport) -> Result<SessionReport, ParseError> {
        let mut text = String::new();
        render_report(&mut text, report);
        let mut lines = Lines::new(&text);
        let parsed = parse_report(&mut lines)?;
        lines.expect_end()?;
        Ok(parsed)
    }

    #[test]
    fn report_block_round_trips_every_bug_kind() {
        let report = sample_report();
        assert_eq!(round_trip(&report), Ok(report));
        let empty = SessionReport::new(0);
        assert_eq!(round_trip(&empty), Ok(empty));
    }

    /// `cache_hits` always equals `cache_model_reuse`, so the `solver`
    /// line carries the value once and the parser fills both fields.
    #[test]
    fn solver_line_carries_model_reuse_once() {
        let mut text = String::new();
        render_report(&mut text, &sample_report());
        let solver_line = text.lines().find(|l| l.starts_with("solver ")).unwrap();
        assert_eq!(solver_line, "solver 5 7 1 8 6");
        let report = parse_report(&mut Lines::new(&text)).unwrap();
        assert_eq!(report.solver.cache_hits, 8);
        assert_eq!(report.solver.cache_model_reuse, 8);
    }

    /// One slot line shape and one pair of kind words, whatever block the
    /// slots close with.
    #[test]
    fn slot_lines_round_trip_and_reject_other_kinds() {
        let slots = sample_report().bugs[0].inputs.clone();
        let mut text = String::new();
        render_slots(&mut text, &slots);
        assert_eq!(
            text,
            "slot int -41 arg 0 of f (iter 1)\nslot ptr 0 deref at 7\n"
        );
        text.push_str("end\n");
        assert_eq!(parse_slots(&mut Lines::new(&text), "end"), Ok(slots));
        for bad in [
            "slot float 1 x",
            "slot int x y",
            "slot int",
            "slots int 1 x",
        ] {
            let err = parse_slots(&mut Lines::new(&format!("{bad}\nend\n")), "end").unwrap_err();
            assert_eq!(err.line, 1, "{bad}: {err}");
        }
        let err = parse_slots(&mut Lines::new("slot int 1 x\n"), "end").unwrap_err();
        assert_eq!(
            err,
            ParseError {
                line: 2,
                message: "unexpected end of input".to_string()
            }
        );
    }
}
