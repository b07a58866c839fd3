//! The farm's worker → supervisor wire protocol.
//!
//! A `--farm-worker` process writes one line-oriented text document to
//! its stdout and exits; the supervisor parses it after reaping the
//! process. The document carries the full [`SessionReport`] in the
//! report block of the shared text codec (`crate::text`), a caught
//! engine-fault message, or the error that kept the session from being
//! set up:
//!
//! ```text
//! dart-farm-worker v7
//! report | fault <escaped message> | setup <escaped message>
//! ...report block...
//! done
//! ```
//!
//! [`SessionReport`]: crate::SessionReport

use crate::supervise::Attempt;
use crate::text::{escape, parse_report, render_report, unescape, Lines, ParseError};

/// First line of every worker document: versions the protocol so a
/// supervisor never misparses output from a mismatched binary.
pub(crate) const HEADER: &str = "dart-farm-worker v7";

/// Renders a complete worker document, `done` terminator included.
pub(crate) fn render_payload(payload: &Attempt) -> String {
    let mut text = format!("{HEADER}\n");
    match payload {
        Attempt::Fault(message) => text.push_str(&format!("fault {}\n", escape(message))),
        Attempt::Setup(message) => text.push_str(&format!("setup {}\n", escape(message))),
        Attempt::Report(report) => {
            text.push_str("report\n");
            render_report(&mut text, report);
        }
    }
    text.push_str("done\n");
    text
}

/// Parses a worker document.
pub(crate) fn parse_payload(text: &str) -> Result<Attempt, ParseError> {
    let mut lines = Lines::new(text);
    let header = lines.next()?;
    if header != HEADER {
        return Err(lines.err(format!("bad worker header `{header}`")));
    }
    let line = lines.next()?;
    let payload = if let Some(message) = line.strip_prefix("fault ") {
        Attempt::Fault(unescape(message).ok_or_else(|| lines.err("bad fault escape"))?)
    } else if let Some(message) = line.strip_prefix("setup ") {
        Attempt::Setup(unescape(message).ok_or_else(|| lines.err("bad setup escape"))?)
    } else if line == "report" {
        Attempt::Report(Box::new(parse_report(&mut lines)?))
    } else {
        return Err(lines.err(format!("unexpected line `{line}`")));
    };
    lines.expect("done")?;
    lines.expect_end()?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SessionReport;
    use crate::text::tests::sample_report;
    use std::time::Duration;

    #[test]
    fn report_round_trips_exactly() {
        let payload = Attempt::Report(Box::new(sample_report()));
        assert_eq!(parse_payload(&render_payload(&payload)), Ok(payload));
    }

    #[test]
    fn fault_round_trips_with_escapes() {
        let payload = Attempt::Fault("panicked:\nline two \\ backslash".to_string());
        assert_eq!(parse_payload(&render_payload(&payload)), Ok(payload));
    }

    #[test]
    fn setup_error_round_trips() {
        let payload = Attempt::Setup("malformed checkpoint cp: line 1".to_string());
        let text = render_payload(&payload);
        assert!(
            text.contains("\nsetup malformed checkpoint cp: line 1\n"),
            "{text}"
        );
        assert_eq!(parse_payload(&text), Ok(payload));
    }

    #[test]
    fn empty_report_round_trips() {
        let payload = Attempt::Report(Box::new(SessionReport::new(0)));
        assert_eq!(parse_payload(&render_payload(&payload)), Ok(payload));
    }

    /// The documents of header v7, byte for byte: a report with every
    /// bug kind, an empty report, a fault and a setup error.
    #[test]
    fn documents_keep_their_v7_bytes() {
        let documents: String = [
            Attempt::Report(Box::new(sample_report())),
            Attempt::Report(Box::new(SessionReport::new(0))),
            Attempt::Fault("panicked:\nline two \\ backslash".to_string()),
            Attempt::Setup("malformed checkpoint cp: line 1".to_string()),
        ]
        .iter()
        .map(render_payload)
        .collect();
        assert_eq!(documents, GOLDEN);
    }

    const GOLDEN: &str = r"dart-farm-worker v7
report
outcome bugfound
bug 9 abort assertion failed:\n x > 0 \\ always
slot int -41 arg 0 of f (iter 1)
slot ptr 0 deref at 7
endbug
runs 17
divergences 2
restarts 3
steps 90210
branches 9 12
frontier 4 1 6
solver 5 7 1 8 6
exec 1 999999999
solve 0 1
bugs 9
bug 9 abort assertion failed:\n x > 0 \\ always
slot int -41 arg 0 of f (iter 1)
slot ptr 0 deref at 7
endbug
bug 11 crash null -8
endbug
bug 11 crash oob 1099511627776
endbug
bug 11 crash div0
endbug
bug 11 crash stackoverflow
endbug
bug 11 crash badjump 7
endbug
bug 11 crash badarity 2
endbug
bug 13 nonterm
endbug
bug 14 oom
endbug
paths 2
path 0:1,3:0
path -
endreport
done
dart-farm-worker v7
report
outcome exhausted
runs 0
divergences 0
restarts 0
steps 0
branches 0 0
frontier 0 0 0
solver 0 0 0 0 0
exec 0 0
solve 0 0
bugs 0
paths 0
endreport
done
dart-farm-worker v7
fault panicked:\nline two \\ backslash
done
dart-farm-worker v7
setup malformed checkpoint cp: line 1
done
";

    #[test]
    fn truncated_and_malformed_output_are_rejected() {
        let full = render_payload(&Attempt::Report(Box::new(sample_report())));
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
        // An older worker's document: a v1 to v6 header (a v4 worker
        // reported a setup error as a fault), v1's retired `verdict` line,
        // v3's `fp` fingerprint lines, the ten-field `solver` line of v3
        // (which also carried `cache_hits`), v5's nine-field `solver`
        // line and `workers` line (the solver-pool counters), or v6's
        // `blocks` line (the compiled execution tier's counters).
        for old in [
            "dart-farm-worker v1",
            "dart-farm-worker v2",
            "dart-farm-worker v3",
            "dart-farm-worker v4",
            "dart-farm-worker v5",
            "dart-farm-worker v6",
        ] {
            let old_header = full.replacen(HEADER, old, 1);
            assert!(parse_payload(&old_header).is_err(), "{old} header");
        }
        let verdict = full.replacen("report\n", "verdict u 07 1\nreport\n", 1);
        assert!(parse_payload(&verdict).is_err(), "verdict line");
        let fp = "fp 00000000deadbeef 000000000000002a\n";
        let fingerprint = full.replacen("report\n", &format!("{fp}report\n"), 1);
        assert!(parse_payload(&fingerprint).is_err(), "fp line");
        let fault = render_payload(&Attempt::Fault("boom".to_string()));
        let fault_fp = fault.replacen("fault ", &format!("{fp}fault "), 1);
        assert!(parse_payload(&fault_fp).is_err(), "fp line before a fault");
        let solver_line = full
            .lines()
            .find(|l| l.starts_with("solver "))
            .expect("a solver line");
        let v3_solver = full.replacen(solver_line, &solver_line.replacen(" 8 ", " 8 8 ", 1), 1);
        assert!(parse_payload(&v3_solver).is_err(), "v3 solver line");
        let v5_solver = full.replacen(solver_line, &format!("{solver_line} 0 0 12345 0"), 1);
        assert!(parse_payload(&v5_solver).is_err(), "v5 solver line");
        let v5_workers = full.replacen(solver_line, &format!("{solver_line}\nworkers 3,0,9"), 1);
        assert!(parse_payload(&v5_workers).is_err(), "v5 workers line");
        let v6_blocks = full.replacen(solver_line, &format!("blocks 0 0 0\n{solver_line}"), 1);
        assert!(parse_payload(&v6_blocks).is_err(), "v6 blocks line");
    }

    /// `Duration::new` carries a nanosecond field of a second or more
    /// into the seconds: with `u64::MAX` seconds that panicked in the
    /// supervisor, and `2^32` nanoseconds truncated to a silent zero.
    #[test]
    fn out_of_range_duration_nanos_are_rejected() {
        let full = render_payload(&Attempt::Report(Box::new(sample_report())));
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
        let Ok(Attempt::Report(report)) = parse_payload(&max) else {
            panic!("the largest renderable duration must parse");
        };
        assert_eq!(report.exec_time, Duration::new(u64::MAX, 999_999_999));
    }

    /// A random valid worker document: a fault message from a printable
    /// alphabet (with the escaped newline and backslash), or a report
    /// with random counters and durations.
    fn payload_strategy() -> impl proptest::strategy::Strategy<Value = Attempt> {
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
        )
            .prop_map(|((runs, steps, reuse), (es, en, ss, sn))| {
                let mut report = sample_report();
                report.runs = runs;
                report.steps = steps;
                report.solver.cache_hits = reuse;
                report.solver.cache_model_reuse = reuse;
                report.exec_time = Duration::new(es, en);
                report.solve_time = Duration::new(ss, sn);
                Attempt::Report(Box::new(report))
            });
        let fault = text(b"abcxyz0129 -:\\\n", 0..40).prop_map(Attempt::Fault);
        let setup = text(b"abcxyz0129 -:\\\n", 0..40).prop_map(Attempt::Setup);
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
