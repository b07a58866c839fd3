//! Incremental JSONL result streaming.
//!
//! A farm emits one JSON object per line as each function *finishes*
//! (completion order, not input order — the `index` field recovers the
//! input position), so a consumer tailing the stream sees progress
//! live instead of waiting for the whole sweep. The encoder is a few
//! lines of by-hand JSON: the schema is flat, and the repo vendors no
//! serialization crates.

use crate::sweep::{SweepOutcome, SweepResult};
use std::time::Duration;

/// Renders one finished function as a single JSON line (no trailing
/// newline). `attempts` counts process launches, so `attempts - 1` is
/// the number of retries.
pub(crate) fn function_line(
    index: usize,
    result: &SweepResult,
    attempts: u32,
    wall: Duration,
) -> String {
    let common = format!(
        "{{\"event\":\"function\",\"index\":{index},\"function\":\"{}\",\
         \"attempts\":{attempts},\"wall_ms\":{}",
        json_escape(&result.function),
        wall.as_millis(),
    );
    match &result.outcome {
        SweepOutcome::Finished { report, retried } => format!(
            "{common},\"outcome\":\"finished\",\"retried\":{retried},\
             \"runs\":{},\"bugs\":{},\"complete\":{},\"unknown_rate\":{:.4},\
             \"summary\":\"{}\"}}",
            report.runs,
            report.bugs.len(),
            report.is_complete(),
            report.solver.unknown_rate(),
            json_escape(&report.to_string()),
        ),
        SweepOutcome::EngineFault { message, retried } => format!(
            "{common},\"outcome\":\"engine_fault\",\"retried\":{retried},\
             \"message\":\"{}\"}}",
            json_escape(message),
        ),
        SweepOutcome::SetupFailed { message } => format!(
            "{common},\"outcome\":\"setup_failed\",\"message\":\"{}\"}}",
            json_escape(message),
        ),
    }
}

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters (as `\uXXXX`).
pub(crate) fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SessionReport;

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn finished_and_fault_lines_have_the_expected_shape() {
        let finished = SweepResult {
            function: "f".to_string(),
            outcome: SweepOutcome::Finished {
                report: Box::new(SessionReport::new(4)),
                retried: false,
            },
        };
        let line = function_line(3, &finished, 1, Duration::from_millis(250));
        assert!(line.starts_with("{\"event\":\"function\",\"index\":3,"));
        assert!(line.contains("\"outcome\":\"finished\""));
        assert!(line.contains("\"wall_ms\":250"));
        assert!(line.contains("\"unknown_rate\":0.0000,\"summary\":"));
        assert!(line.ends_with('}'));

        let fault = SweepResult {
            function: "g".to_string(),
            outcome: SweepOutcome::EngineFault {
                message: "worker killed by signal 6".to_string(),
                retried: true,
            },
        };
        let line = function_line(0, &fault, 2, Duration::ZERO);
        assert!(line.contains("\"outcome\":\"engine_fault\""));
        assert!(line.contains("\"retried\":true"));
        assert!(line.contains("\"attempts\":2"));
        assert!(line.contains("worker killed by signal 6"));

        let setup = SweepResult {
            function: "s".to_string(),
            outcome: SweepOutcome::SetupFailed {
                message: "malformed \"cp\"".to_string(),
            },
        };
        let line = function_line(1, &setup, 1, Duration::ZERO);
        assert!(line.contains("\"outcome\":\"setup_failed\""));
        assert!(
            line.ends_with("\"message\":\"malformed \\\"cp\\\"\"}"),
            "{line}"
        );
    }
}
