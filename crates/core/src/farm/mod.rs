//! The fuzzing farm: process-isolated sweep shards.
//!
//! [`crate::sweep()`] contains engine faults with `catch_unwind` — which
//! only helps for *unwinding* panics. A target-triggered `abort()`, an
//! OOM kill, or a runaway worker takes down the whole sweep process and
//! every in-memory artifact with it. The farm lifts the same
//! supervision discipline (bounded reseeded retries, one result per
//! function, input-order results) from caught panics to **OS
//! processes**: a supervisor spawns one worker process per function
//! (the `dartc` binary re-executed in its hidden `--farm-worker` mode),
//! reaps it via exit status, translates signals into engine faults, and
//! enforces a per-worker wall-clock deadline with kill-on-timeout.
//!
//! Two artifacts make the farm observable:
//!
//! * `wire` — the exact (bit-for-bit round-tripping) worker →
//!   supervisor report protocol over the worker's stdout pipe.
//! * `stream` — JSONL result streaming, one line per finished
//!   function, in completion order.
//!
//! **Determinism.** A worker derives its session seed exactly as
//! [`crate::sweep()`] does (`config.seed ^ fnv(name)`, retry constant
//! folded in per attempt) and runs the same supervised session body, so
//! farm results are byte-identical to an in-process sweep of the same
//! seeds, wall-clock times aside. A worker keeps no state of its own
//! between runs: with [`DartConfig::checkpoint`] set,
//! the session's checkpoint is all it resumes from.

pub(crate) mod stream;
pub(crate) mod wire;

use crate::driver::{DartConfig, DartError};
use crate::report::SessionReport;
use crate::supervise;
use crate::sweep::{SweepOutcome, SweepResult};
use dart_minic::CompiledProgram;
use std::io::Write;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wire::WorkerPayload;

/// Supervisor-side knobs for one farm run.
#[derive(Debug, Clone)]
pub struct FarmOptions {
    /// Concurrent worker processes.
    pub threads: usize,
    /// Reseeded retries after a worker fault, mirroring
    /// [`DartConfig::max_retries`] — the farm applies it at the process
    /// level, so it covers aborts and kills, not just panics.
    pub max_retries: u32,
    /// Wall-clock budget per worker process; the supervisor SIGKILLs a
    /// worker that exceeds it and reports the kill as an engine fault
    /// (retriable, and resumable from the worker's checkpoint).
    pub worker_deadline: Option<Duration>,
    /// Base of the exponential backoff slept before retry `n`
    /// (`backoff * 2^(n-1)`).
    pub retry_backoff: Duration,
}

impl Default for FarmOptions {
    fn default() -> FarmOptions {
        FarmOptions {
            threads: 4,
            max_retries: 1,
            worker_deadline: None,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// One worker launch the supervisor asks the caller to describe: the
/// caller (normally `dartc`) turns it into a [`Command`] that re-execs
/// itself in `--farm-worker` mode with matching engine flags. Keeping
/// command construction on the caller's side is what lets tests inject
/// per-worker environment (fault plans) and lets `dartc` own its flag
/// syntax.
#[derive(Debug, Clone, Copy)]
pub struct FarmJob<'a> {
    /// The toplevel function this worker will test.
    pub function: &'a str,
    /// Its input-order index in the farm's function list (the index
    /// fault-injection plans key on).
    pub index: usize,
    /// Which attempt this launch is (0 = first, >0 = reseeded retry).
    pub attempt: u32,
}

/// Runs a farm: every function in `toplevels` tested in its own worker
/// process, results in input order — one [`SweepResult`] per function,
/// exactly like [`crate::sweep::sweep`].
///
/// `command` builds the [`Command`] for one worker launch (see
/// [`FarmJob`]); the supervisor pipes its stdout (the `wire` protocol)
/// and stderr, reaps it, and maps exit status to outcomes: a parsed
/// report is [`SweepOutcome::Finished`], a caught panic or any abnormal
/// exit (signal, nonzero code, malformed output, deadline kill) is
/// retried and ultimately reported as [`SweepOutcome::EngineFault`]
/// with the exit status or signal in the message.
///
/// `stream`, when given, receives one JSONL line per finished function
/// in completion order.
///
/// # Errors
///
/// [`DartError::InvalidConfig`] if `threads` is 0. Worker-side failures
/// are never errors — they surface as per-function
/// [`SweepOutcome::EngineFault`]s, which is the point of the farm.
pub fn run_farm(
    toplevels: &[String],
    options: &FarmOptions,
    command: &(dyn Fn(&FarmJob) -> Command + Sync),
    stream: Option<&mut (dyn Write + Send)>,
) -> Result<Vec<SweepResult>, DartError> {
    if options.threads == 0 {
        return Err(DartError::InvalidConfig(
            "farm needs at least one worker process".to_string(),
        ));
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<SweepResult>> = Vec::new();
    slots.resize_with(toplevels.len(), || None);
    let slots_ref = Mutex::new(&mut slots);
    let stream_ref = stream.map(Mutex::new);

    std::thread::scope(|scope| {
        for _ in 0..options.threads.min(toplevels.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(name) = toplevels.get(i) else {
                    return;
                };
                let started = Instant::now();
                let (outcome, attempts) = run_one(name, i, options, command);
                let result = SweepResult {
                    function: name.clone(),
                    outcome,
                };
                if let Some(stream) = &stream_ref {
                    let line = stream::function_line(i, &result, attempts, started.elapsed());
                    let mut w = stream.lock().expect("stream writers don't panic");
                    let _ = writeln!(w, "{line}");
                    let _ = w.flush();
                }
                slots_ref.lock().expect("worker threads don't panic")[i] = Some(result);
            });
        }
    });

    Ok(slots
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect())
}

/// One function under process supervision: launch, reap, retry.
/// Returns the outcome plus the number of attempts launched.
fn run_one(
    name: &str,
    index: usize,
    options: &FarmOptions,
    command: &(dyn Fn(&FarmJob) -> Command + Sync),
) -> (SweepOutcome, u32) {
    let mut attempt: u32 = 0;
    loop {
        let retried = attempt > 0;
        let job = FarmJob {
            function: name,
            index,
            attempt,
        };
        let message = match run_attempt(&job, options, command) {
            Ok(WorkerPayload::Report(report)) => {
                return (SweepOutcome::Finished { report, retried }, attempt + 1)
            }
            Ok(WorkerPayload::Setup(message)) => {
                return (SweepOutcome::SetupFailed { message }, attempt + 1)
            }
            Ok(WorkerPayload::Fault(message)) | Err(message) => message,
        };
        if attempt >= options.max_retries {
            return (SweepOutcome::EngineFault { message, retried }, attempt + 1);
        }
        let backoff = options.retry_backoff.saturating_mul(1 << attempt.min(10));
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        attempt += 1;
    }
}

/// Launches and reaps one worker process. `Ok` carries well-formed
/// worker output (which may still be a caught fault); `Err` is a
/// supervisor-observed failure: spawn error, death by signal, abnormal
/// exit, or malformed output.
fn run_attempt(
    job: &FarmJob<'_>,
    options: &FarmOptions,
    command: &(dyn Fn(&FarmJob) -> Command + Sync),
) -> Result<WorkerPayload, String> {
    let mut cmd = command(job);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("failed to spawn worker: {e}"))?;
    // Drain both pipes on their own threads while the supervisor thread
    // polls for exit: a worker writing more than a pipe buffer must not
    // deadlock against a supervisor waiting for exit first.
    let stdout_reader = drain(child.stdout.take().expect("stdout is piped"));
    let stderr_reader = drain(child.stderr.take().expect("stderr is piped"));
    let (status, deadline_killed) = wait_with_deadline(&mut child, options.worker_deadline);
    let stdout = String::from_utf8_lossy(&stdout_reader.join().unwrap_or_default()).into_owned();
    let stderr = String::from_utf8_lossy(&stderr_reader.join().unwrap_or_default()).into_owned();
    let status = status.map_err(|e| format!("failed to wait for worker: {e}"))?;

    if let Some(signal) = unix_signal(&status) {
        // The satellite contract: process-path faults name the signal.
        let mut message = format!("worker killed by signal {signal}");
        if deadline_killed {
            message.push_str(&format!(
                " (supervisor deadline of {:?} exceeded)",
                options.worker_deadline.unwrap_or_default()
            ));
        }
        return Err(message);
    }
    match wire::parse_payload(&stdout) {
        // Exit 0 with any well-formed payload, or a nonzero exit that
        // still shipped a caught fault or a setup error (the worker's
        // exit-70 and exit-78 paths): both are usable worker output.
        Ok(payload) => match (&payload, status.success()) {
            (_, true) | (WorkerPayload::Fault(_) | WorkerPayload::Setup(_), false) => Ok(payload),
            (WorkerPayload::Report(_), false) => Err(format!(
                "worker exited with code {} despite reporting a completed session",
                status.code().unwrap_or(-1)
            )),
        },
        Err(parse_err) if status.success() => {
            Err(format!("worker produced malformed output: {parse_err}"))
        }
        Err(_) => {
            let detail = stderr.lines().next().unwrap_or("").trim();
            let mut message = format!("worker exited with code {}", status.code().unwrap_or(-1));
            if !detail.is_empty() {
                message.push_str(": ");
                message.push_str(detail);
            }
            Err(message)
        }
    }
}

/// Reads a pipe to EOF on a dedicated thread.
fn drain(mut pipe: impl std::io::Read + Send + 'static) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = pipe.read_to_end(&mut buf);
        buf
    })
}

/// Waits for the child, killing it (SIGKILL — it must die, not unwind)
/// once `deadline` elapses. The boolean reports whether the kill fired.
fn wait_with_deadline(
    child: &mut Child,
    deadline: Option<Duration>,
) -> (std::io::Result<ExitStatus>, bool) {
    let Some(deadline) = deadline else {
        return (child.wait(), false);
    };
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return (Ok(status), false),
            Err(e) => return (Err(e), false),
            Ok(None) => {
                if start.elapsed() >= deadline {
                    let _ = child.kill();
                    return (child.wait(), true);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn unix_signal(status: &ExitStatus) -> Option<i32> {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        status.signal()
    }
    #[cfg(not(unix))]
    {
        let _ = status;
        None
    }
}

/// The worker half: runs one supervised session and writes the `wire`
/// document to `out`. This is what `dartc --farm-worker` calls after
/// compiling the program; everything engine-visible (seed derivation,
/// checkpoint qualification) matches the in-process sweep byte for
/// byte.
///
/// Returns the process exit code: 0 for a completed session (bugs found
/// or not — those are *results*), 70 for a caught engine fault and 78
/// for a session [`crate::Dart::new`] rejected; the supervisor reads
/// those from the `fault` and `setup` lines rather than the code.
pub fn run_worker(
    compiled: &CompiledProgram,
    toplevel: &str,
    index: usize,
    attempt: u32,
    config: &DartConfig,
    out: &mut dyn Write,
) -> i32 {
    let base_seed = config.seed ^ crate::sweep::name_hash(toplevel);
    let seed = crate::sweep::retry_seed(base_seed, attempt);
    let cfg = DartConfig {
        seed,
        checkpoint: config
            .checkpoint
            .as_ref()
            .map(|base| crate::sweep::qualified_checkpoint(base, toplevel, seed)),
        ..config.clone()
    };

    let run = supervise::run_caught(|| {
        supervise::maybe_panic(&cfg, index);
        supervise::maybe_abort(&cfg, index);
        let dart = crate::Dart::new(compiled, toplevel, cfg.clone())?;
        Ok::<SessionReport, DartError>(dart.run())
    });

    let payload = match run {
        Err(message) => WorkerPayload::Fault(message),
        Ok(Err(e)) => WorkerPayload::Setup(e.to_string()),
        Ok(Ok(report)) => WorkerPayload::Report(Box::new(report)),
    };
    let _ = out.write_all(wire::render_payload(&payload).as_bytes());
    let _ = out.flush();
    match payload {
        WorkerPayload::Fault(_) => 70,
        WorkerPayload::Setup(_) => 78,
        WorkerPayload::Report(_) => 0,
    }
}
