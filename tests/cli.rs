//! Process-level tests of the `dartc` binary: the paper's headline claim
//! ("testing can be performed completely automatically on any program that
//! compiles") exercised the way a user would.

use std::io::Write as _;
use std::process::Command;

fn dartc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dartc"))
}

fn write_demo(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("demo.mc");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        r#"
        int f(int x) {{ return 2 * x; }}
        int h(int x, int y) {{
            if (x != y)
                if (f(x) == x + 10)
                    abort();
            return 0;
        }}
        "#
    )
    .unwrap();
    path
}

/// A fresh directory per call: the tests run in parallel and write files
/// with the same names, so a shared directory lets one test truncate a
/// file another test's `dartc` is reading.
fn tempdir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dartc-test-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn finds_bug_and_exits_one() {
    let dir = tempdir();
    let demo = write_demo(&dir);
    let out = dartc()
        .arg(&demo)
        .args(["--toplevel", "h"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "bug found => exit 1\n{stdout}");
    assert!(stdout.contains("BUG FOUND"), "{stdout}");
    assert!(
        stdout.contains("toplevel: h"),
        "interface printed\n{stdout}"
    );
    assert!(stdout.contains("x0 = 10"), "witness printed\n{stdout}");
}

#[test]
fn save_and_replay_roundtrip() {
    let dir = tempdir();
    let demo = write_demo(&dir);
    let bugfile = dir.join("bug.txt");

    let out = dartc()
        .arg(&demo)
        .args(["--toplevel", "h", "--save-bug"])
        .arg(&bugfile)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(bugfile.exists());

    let out = dartc()
        .arg(&demo)
        .args(["--toplevel", "h", "--replay"])
        .arg(&bugfile)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("replay: Abort"), "{stdout}");

    // Traced replay prints disassembly lines ending at the abort.
    let out = dartc()
        .arg(&demo)
        .args(["--toplevel", "h", "--trace", "--replay"])
        .arg(&bugfile)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("if"), "trace shows conditionals\n{stdout}");
    assert!(stdout.contains("abort"), "{stdout}");
}

/// Saves the first bug `src`'s `f` shows under `flags`, replays it under
/// the same flags and returns the replay's exit code and stdout.
fn save_and_replay(src: &str, flags: &[&str]) -> (Option<i32>, String) {
    let dir = tempdir();
    let path = dir.join("prog.mc");
    std::fs::write(&path, src).unwrap();
    let bugfile = dir.join("bug.txt");
    let out = dartc()
        .arg(&path)
        .args(["--toplevel", "f"])
        .args(flags)
        .arg("--save-bug")
        .arg(&bugfile)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let out = dartc()
        .arg(&path)
        .args(["--toplevel", "f"])
        .args(flags)
        .arg("--replay")
        .arg(&bugfile)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn replay_keeps_the_allocation_budget() {
    let src = r#"
        int f(int n) {
            int i;
            int *p;
            if (n > 50) {
                for (i = 0; i < 20; i++) { p = (int *) malloc(100); }
            }
            return 0;
        }
    "#;
    let (code, stdout) = save_and_replay(src, &["--mem-budget", "500"]);
    assert!(stdout.contains("replay: OutOfMemory"), "{stdout}");
    assert_eq!(code, Some(1), "{stdout}");
}

#[test]
fn write_free_hang_replays_as_out_of_steps() {
    let src = "int f(int x) { while (x == 9) { } return 0; }";
    let (code, stdout) = save_and_replay(src, &[]);
    assert!(stdout.contains("replay: OutOfSteps"), "{stdout}");
    assert_eq!(code, Some(1), "{stdout}");
}

#[test]
fn clean_program_exits_zero() {
    let dir = tempdir();
    let path = dir.join("clean.mc");
    std::fs::write(&path, "int id(int x) { return x; }").unwrap();
    let out = dartc().arg(&path).output().unwrap(); // single function: no --toplevel needed
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("complete"), "{stdout}");
}

#[test]
fn compile_errors_exit_two() {
    let dir = tempdir();
    let path = dir.join("broken.mc");
    std::fs::write(&path, "int f( { }").unwrap();
    let out = dartc()
        .arg(&path)
        .args(["--toplevel", "f"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
}

/// Source nested 10,000 levels deep is a compile error (exit 2), not a
/// stack overflow that aborts the process.
#[test]
fn deeply_nested_source_exits_two() {
    let dir = tempdir();
    let path = dir.join("deep.mc");
    let n = 10_000;
    let src = format!(
        "int f(int x) {{ return {}x{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    std::fs::write(&path, src).unwrap();
    let out = dartc()
        .arg(&path)
        .args(["--toplevel", "f"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nested deeper than 256 levels"));
}

#[test]
fn usage_errors_exit_two() {
    let out = dartc().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn print_ir_disassembles() {
    let dir = tempdir();
    let demo = write_demo(&dir);
    let out = dartc().arg(&demo).arg("--print-ir").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout.contains("; fn h"), "{stdout}");
    assert!(stdout.contains("goto"), "{stdout}");
}
