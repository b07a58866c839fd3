//! Worker supervision and deterministic fault injection.
//!
//! The oSIP study (paper §4.3) points DART at hundreds of library
//! functions and *expects* the targets to crash, hang and exhaust
//! resources — the engine must survive all of that. This module holds
//! the supervision that [`crate::sweep()`] and the farm
//! ([`crate::run_farm`]) share, and the fault injection that tests it:
//!
//! * `attempt` — one attempt at one function's session: its seed, its
//!   seed-qualified checkpoint, and the session under `run_caught`,
//!   which runs it under [`std::panic::catch_unwind`] so an
//!   engine-internal panic is reported as data (a
//!   [`crate::sweep::SweepOutcome::EngineFault`]) instead of poisoning
//!   the whole sweep. The default panic hook is suppressed for
//!   supervised calls only, so faulted sessions do not spray backtraces
//!   over the sweep's output. An in-process sweep calls it directly; the
//!   farm calls it in each worker process.
//! * `retry` — bounded reseeded retries with backoff, and `fan_out` —
//!   the input-order thread pool both paths run their functions on.
//! * `FaultPlan` / [`FaultState`] — a deterministic fault-injection
//!   hook ("panic in session *k*", "force `Unknown` on query *n*", "deny
//!   allocation *m*") threaded through the driver and sweep, available
//!   only under `cfg(any(test, feature = "fault-injection"))`. Injected
//!   faults are keyed to deterministic per-session counters, never to
//!   wall-clock or scheduling, so supervision tests reproduce
//!   byte-for-byte.

use crate::driver::{Dart, DartConfig, DartError};
use crate::frontier::fnv;
use crate::report::SessionReport;
use crate::sweep::SweepOutcome;
use dart_minic::CompiledProgram;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

/// How one supervised attempt at a session ended: what a farm worker
/// ships to its supervisor, and what a sweep decides its retries on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Attempt {
    /// The session ran to completion.
    Report(Box<SessionReport>),
    /// The engine panicked; the message is what `catch_unwind` captured.
    Fault(String),
    /// [`crate::Dart::new`] rejected the session's configuration (a
    /// malformed or stale checkpoint, or one of another seed or program,
    /// say); the message is the error's.
    Setup(String),
}

/// Attempt `attempt` at the session of `name`, the function at `index`
/// of a sweep or farm. The session's seed is `config.seed ^ fnv(name)`
/// with the retry constant folded in (`retry_seed`), so supervised and
/// plain runs agree on attempt 0 and farm workers agree with the
/// in-process sweep. Its checkpoint is `config.checkpoint` qualified by
/// function and seed (`qualified_checkpoint`). The session runs under
/// `run_caught`, after the plan's injected panic and then `hook` (the
/// farm worker's injected abort).
pub(crate) fn attempt(
    compiled: &CompiledProgram,
    name: &str,
    index: usize,
    attempt: u32,
    config: &DartConfig,
    hook: fn(&DartConfig, usize),
) -> Attempt {
    let seed = retry_seed(config.seed ^ name_hash(name), attempt);
    let config = DartConfig {
        seed,
        checkpoint: config
            .checkpoint
            .as_ref()
            .map(|base| qualified_checkpoint(base, name, seed)),
        ..config.clone()
    };
    let run = run_caught(|| {
        maybe_panic(&config, index);
        hook(&config, index);
        Ok::<_, DartError>(Dart::new(compiled, name, config)?.run())
    });
    match run {
        Ok(Ok(report)) => Attempt::Report(Box::new(report)),
        Ok(Err(e)) => Attempt::Setup(e.to_string()),
        Err(message) => Attempt::Fault(message),
    }
}

/// Runs attempts 0, 1, ... of one function until one yields a report or
/// a setup error (never retried: a reseeded retry would only start
/// afresh under another checkpoint path and hide the error), or until
/// `max_retries` retries have faulted too. Sleeps `backoff * 2^(n-1)`
/// before retry `n`. An `Err` from `run` is a fault seen from outside the
/// session, such as a worker process killed by a signal. Returns the
/// outcome and the number of attempts made.
pub(crate) fn retry(
    max_retries: u32,
    backoff: Duration,
    mut run: impl FnMut(u32) -> Result<Attempt, String>,
) -> (SweepOutcome, u32) {
    let mut attempt = 0;
    loop {
        let retried = attempt > 0;
        let message = match run(attempt) {
            Ok(Attempt::Report(report)) => {
                return (SweepOutcome::Finished { report, retried }, attempt + 1)
            }
            Ok(Attempt::Setup(message)) => {
                return (SweepOutcome::SetupFailed { message }, attempt + 1)
            }
            Ok(Attempt::Fault(message)) | Err(message) => message,
        };
        if attempt >= max_retries {
            return (SweepOutcome::EngineFault { message, retried }, attempt + 1);
        }
        let backoff = backoff.saturating_mul(1 << attempt.min(10));
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        attempt += 1;
    }
}

/// Runs `work(i, &items[i])` for every item on up to `threads` scoped
/// threads, each taking the next unclaimed index, and returns the results
/// in input order.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    work: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return;
                };
                let result = work(i, item);
                slots.lock().expect("no thread panics holding the lock")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("no thread panics holding the lock")
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect()
}

/// The seed for retry `attempt` of a session: attempt 0 keeps the
/// function's sweep seed (so supervised and plain runs agree), later
/// attempts fold in a fixed odd constant so a fault caused by one input
/// sequence is not replayed verbatim.
fn retry_seed(base_seed: u64, attempt: u32) -> u64 {
    base_seed ^ (attempt as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// FNV-1a of the name, so per-function seeds are stable across runs and
/// platforms.
fn name_hash(name: &str) -> u64 {
    fnv(format_args!("{name}"))
}

/// The seed-qualified checkpoint path for one session of a sweep or
/// farm: `<base>.<function>-<seed in hex>`. Functions must not clobber
/// each other's resume points, and a reseeded retry must not resume the
/// very state that faulted (a checkpoint is only valid under the seed
/// that recorded it).
fn qualified_checkpoint(base: &std::path::Path, name: &str, seed: u64) -> std::path::PathBuf {
    let mut qualified = base.to_path_buf().into_os_string();
    qualified.push(format!(".{name}-{seed:016x}"));
    std::path::PathBuf::from(qualified)
}

/// A deterministic fault-injection plan.
///
/// Each field selects one fault site by a scheduling-independent index;
/// `None` (the [`Default`]) injects nothing. The plan rides on
/// [`crate::DartConfig`] and is consulted through a per-session
/// [`FaultState`], so a sweep with a plan is exactly as reproducible as
/// one without.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic (an injected engine fault) in the sweep session with this
    /// input-order index — on every attempt, so a retried session faults
    /// again and surfaces as an
    /// [`crate::sweep::SweepOutcome::EngineFault`].
    pub panic_in_session: Option<usize>,
    /// Force the session's `n`-th solver query (0-based, counted across
    /// runs) to return `Unknown` without solving. The driver records it
    /// as ordinary solver incompleteness.
    pub unknown_on_query: Option<u64>,
    /// Deny the session's `m`-th dynamic allocation statement (0-based,
    /// counted across runs), terminating that run with
    /// [`crate::RunTermination::OutOfMemory`] as if the allocation
    /// budget had just run out.
    pub deny_alloc: Option<u64>,
    /// `abort()` the whole process (a non-unwinding crash that
    /// `catch_unwind` cannot contain) in the sweep session with this
    /// input-order index. Only honoured on the farm's worker-process
    /// path, where the supervisor reaps the SIGABRT; the in-process
    /// sweep ignores it rather than kill its host.
    pub abort_in_session: Option<usize>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultPlan {
    /// Reads a plan from the `DART_FAULT_*` environment variables
    /// (`PANIC_SESSION`, `ABORT_SESSION`, `UNKNOWN_QUERY`, `DENY_ALLOC`):
    /// the transport a farm supervisor (or test) uses to hand a plan to
    /// a spawned `--farm-worker` process. Unset or unparseable variables
    /// inject nothing.
    pub fn from_env() -> FaultPlan {
        fn read<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.parse().ok()
        }
        FaultPlan {
            panic_in_session: read("DART_FAULT_PANIC_SESSION"),
            unknown_on_query: read("DART_FAULT_UNKNOWN_QUERY"),
            deny_alloc: read("DART_FAULT_DENY_ALLOC"),
            abort_in_session: read("DART_FAULT_ABORT_SESSION"),
        }
    }
}

/// Per-session fault-injection counters.
///
/// Always compiled so driver/search signatures do not change shape with
/// the feature gate; without `cfg(any(test, feature = "fault-injection"))`
/// it is a zero-sized no-op whose methods return `false`.
#[derive(Debug, Default)]
pub struct FaultState {
    #[cfg(any(test, feature = "fault-injection"))]
    plan: FaultPlan,
    #[cfg(any(test, feature = "fault-injection"))]
    queries_seen: u64,
    #[cfg(any(test, feature = "fault-injection"))]
    allocs_seen: u64,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultState {
    /// Fresh counters for one session under `config`'s plan.
    pub fn for_config(config: &crate::DartConfig) -> FaultState {
        FaultState {
            plan: config.faults,
            queries_seen: 0,
            allocs_seen: 0,
        }
    }

    /// Consumes one query slot; `true` iff this query is the plan's
    /// forced-`Unknown` one.
    pub fn force_unknown_next_query(&mut self) -> bool {
        let n = self.queries_seen;
        self.queries_seen += 1;
        self.plan.unknown_on_query == Some(n)
    }

    /// Consumes one allocation slot; `true` iff this allocation is the
    /// plan's denied one.
    pub fn deny_next_alloc(&mut self) -> bool {
        let n = self.allocs_seen;
        self.allocs_seen += 1;
        self.plan.deny_alloc == Some(n)
    }

    /// Allocation slots consumed so far.
    pub fn allocs_seen(&self) -> u64 {
        self.allocs_seen
    }

    /// Consumes the next `n` allocation slots at once, for a run that
    /// restores a prefix instead of executing its `n` allocations.
    /// Returns `false` and consumes nothing when the plan's denied
    /// allocation is among them: that denial needs the prefix executed.
    pub fn skip_allocs(&mut self, n: u64) -> bool {
        let next = self.allocs_seen;
        if self
            .plan
            .deny_alloc
            .is_some_and(|m| m >= next && m - next < n)
        {
            return false;
        }
        self.allocs_seen += n;
        true
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
impl FaultState {
    /// Fresh counters for one session (no-op without the gate).
    pub fn for_config(_config: &crate::DartConfig) -> FaultState {
        FaultState::default()
    }

    /// Never injects without the gate.
    pub fn force_unknown_next_query(&mut self) -> bool {
        false
    }

    /// Never injects without the gate.
    pub fn deny_next_alloc(&mut self) -> bool {
        false
    }

    /// Always 0 without the gate.
    pub fn allocs_seen(&self) -> u64 {
        0
    }

    /// Never refuses without the gate.
    pub fn skip_allocs(&mut self, _n: u64) -> bool {
        true
    }
}

/// Panics iff `config`'s plan names this sweep-session `index`
/// (the fault-injection entry point of every supervised attempt).
#[cfg(any(test, feature = "fault-injection"))]
fn maybe_panic(config: &crate::DartConfig, index: usize) {
    if config.faults.panic_in_session == Some(index) {
        panic!("injected fault: panic in session {index}");
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
fn maybe_panic(_config: &crate::DartConfig, _index: usize) {}

/// Aborts the process iff `config`'s plan names this sweep-session
/// `index` — a non-unwinding crash for exercising process-level
/// containment. Only the farm worker passes it to `attempt` as its hook;
/// the in-process sweep deliberately never consults this field.
#[cfg(any(test, feature = "fault-injection"))]
pub(crate) fn maybe_abort(config: &crate::DartConfig, index: usize) {
    if config.faults.abort_in_session == Some(index) {
        std::process::abort();
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
pub(crate) fn maybe_abort(_config: &crate::DartConfig, _index: usize) {}

thread_local! {
    /// Whether this thread is currently inside [`run_caught`]: the
    /// wrapping panic hook stays quiet for those panics (they are
    /// reported as data), and loud for everything else.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that defers to the previous
/// hook except while the current thread runs supervised work.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `work` under [`catch_unwind`], converting a panic into its
/// payload message. The worker state is per-session and discarded on
/// fault (the caller retries from a fresh session), which is what makes
/// the `AssertUnwindSafe` sound: nothing that survives a fault is
/// observed again.
fn run_caught<T>(work: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(work));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result.map_err(|payload| payload_message(payload.as_ref()))
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// literal yields `&str`, with a format string `String`). Non-string
/// payloads — `panic_any(42)` and friends — are rendered by value for
/// the handful of primitive types worth special-casing, and otherwise by
/// the payload's [`TypeId`](std::any::TypeId), so the fault message
/// always identifies *what* was thrown instead of collapsing to one
/// generic string.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! try_primitive {
        ($($ty:ty),*) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!(
                    "engine panic with {} payload: {v}",
                    stringify!($ty)
                );
            })*
        };
    }
    try_primitive!(
        i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, bool, char, f32, f64
    );
    format!(
        "engine panic with non-string payload of type {:?}",
        payload.type_id()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_caught_passes_values_through() {
        assert_eq!(run_caught(|| 42), Ok(42));
    }

    #[test]
    fn run_caught_reports_str_and_string_payloads() {
        assert_eq!(
            run_caught(|| -> u32 { panic!("plain literal") }),
            Err("plain literal".to_string())
        );
        let n = 7;
        assert_eq!(
            run_caught(|| -> u32 { panic!("formatted {n}") }),
            Err("formatted 7".to_string())
        );
    }

    #[test]
    fn run_caught_describes_non_string_payloads() {
        let msg = run_caught(|| -> u32 { std::panic::panic_any(42i32) }).unwrap_err();
        assert_eq!(msg, "engine panic with i32 payload: 42");
        let msg = run_caught(|| -> u32 { std::panic::panic_any(true) }).unwrap_err();
        assert_eq!(msg, "engine panic with bool payload: true");
        #[derive(Debug)]
        struct Opaque;
        let msg = run_caught(|| -> u32 { std::panic::panic_any(Opaque) }).unwrap_err();
        assert!(
            msg.starts_with("engine panic with non-string payload of type "),
            "unexpected message: {msg}"
        );
    }

    /// Allocation 3 is denied: skipping slots 0–2 passes it by, but a
    /// skip over it is refused and consumes nothing.
    #[test]
    fn skipped_allocations_keep_the_denied_one() {
        let config = crate::DartConfig {
            faults: FaultPlan {
                deny_alloc: Some(3),
                ..FaultPlan::default()
            },
            ..crate::DartConfig::default()
        };
        let mut faults = FaultState::for_config(&config);
        assert!(faults.skip_allocs(3));
        assert!(!faults.skip_allocs(1));
        assert_eq!(faults.allocs_seen(), 3);
        assert!(faults.skip_allocs(0));
        assert!(faults.deny_next_alloc());
        assert!(faults.skip_allocs(5));
        assert_eq!(faults.allocs_seen(), 9);
    }

    #[test]
    fn fault_plan_reads_from_environment() {
        // Process-global env: use names no other test touches, and clean up.
        std::env::set_var("DART_FAULT_ABORT_SESSION", "3");
        std::env::set_var("DART_FAULT_UNKNOWN_QUERY", "junk");
        let plan = FaultPlan::from_env();
        std::env::remove_var("DART_FAULT_ABORT_SESSION");
        std::env::remove_var("DART_FAULT_UNKNOWN_QUERY");
        assert_eq!(plan.abort_in_session, Some(3));
        assert_eq!(plan.unknown_on_query, None);
        assert_eq!(plan.panic_in_session, None);
    }

    #[test]
    fn fault_state_counters_are_deterministic() {
        let config = crate::DartConfig {
            faults: FaultPlan {
                unknown_on_query: Some(2),
                deny_alloc: Some(0),
                ..FaultPlan::default()
            },
            ..crate::DartConfig::default()
        };
        let mut st = FaultState::for_config(&config);
        assert!(!st.force_unknown_next_query()); // query 0
        assert!(!st.force_unknown_next_query()); // query 1
        assert!(st.force_unknown_next_query()); // query 2: injected
        assert!(!st.force_unknown_next_query()); // query 3
        assert!(st.deny_next_alloc()); // alloc 0: injected
        assert!(!st.deny_next_alloc()); // alloc 1
    }

    #[test]
    fn default_plan_injects_nothing() {
        let mut st = FaultState::for_config(&crate::DartConfig::default());
        for _ in 0..10 {
            assert!(!st.force_unknown_next_query());
            assert!(!st.deny_next_alloc());
        }
    }
}
