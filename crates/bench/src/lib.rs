//! # dart-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure of the evaluation section (§4), printing
//! the paper's reported numbers next to ours:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `e1_ac_controller`    | §4.1 in-text results (AC-controller) |
//! | `e2_ns_possibilistic` | Figure 9 |
//! | `e3_ns_dolev_yao`     | Figure 10 + the Lowe-fix follow-up |
//! | `e4_osip`             | §4.3 oSIP statistics |
//! | `e5_vignettes`        | §2 worked examples + tool comparison |
//!
//! All binaries accept `--seed N` and print deterministic results. A
//! numeric flag whose value is missing or malformed exits with status 2
//! and names the flag ([`flag_value`]); it never falls back to a default.
//! Criterion benches (in `benches/`) cover engine and solver throughput
//! and the design-choice ablations called out in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::str::FromStr;
use std::time::Duration;

/// Parses `--seed N` (default 1) from argv.
pub fn seed_from_args() -> u64 {
    flag_value("--seed").unwrap_or(1)
}

/// The value after `flag` in argv, parsed as `T`; `None` when the flag is
/// absent. A missing or malformed value prints an error naming the flag
/// and exits with status 2, so a typo never runs as the default.
pub fn flag_value<T: FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The value after `flag` in `args`, parsed as `T`: `Ok(None)` when the
/// flag is absent, and an error naming the flag when its value is
/// missing or does not parse.
fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: malformed value `{value}`"))
}

/// Formats a duration compactly for table cells.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 60 {
        format!("{:.1} min", d.as_secs_f64() / 60.0)
    } else if d.as_secs() >= 1 {
        format!("{:.1} s", d.as_secs_f64())
    } else {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    }
}

/// Prints a table header with a title and column names.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", cols.join(" | "));
    println!(
        "{}",
        "-".repeat(cols.iter().map(|c| c.len() + 3).sum::<usize>())
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_strictly() {
        let args: Vec<String> = [
            "bin",
            "--seed",
            "7",
            "--functions",
            "x",
            "--frontier-budget",
            "0",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        assert_eq!(parse_flag::<u64>(&args, "--seed"), Ok(Some(7)));
        assert_eq!(parse_flag::<u64>(&args, "--tolerance"), Ok(None));
        let bad = parse_flag::<usize>(&args, "--functions").unwrap_err();
        assert!(bad.contains("--functions") && bad.contains("`x`"), "{bad}");
        let zero = parse_flag::<std::num::NonZeroUsize>(&args, "--frontier-budget");
        assert!(zero.unwrap_err().contains("--frontier-budget"));
        let trailing: Vec<String> = vec!["bin".into(), "--seed".into()];
        assert!(parse_flag::<u64>(&trailing, "--seed").is_err());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_millis(3)), "3.0 ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.0 s");
        assert_eq!(fmt_dur(Duration::from_secs(120)), "2.0 min");
    }
}
