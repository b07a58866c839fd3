//! A persistent work-stealing solver pool.
//!
//! PR 3's speculation layer parallelised candidate solving *within* one
//! [`crate::search::solve_next`] call: a `std::thread::scope` was spawned
//! and torn down on every run of every session, and a worker stalled on
//! one hard query kept its share of the remaining candidates. This
//! module replaces that with a [`SolvePool`]: long-lived workers, one
//! deque per worker, and stealing — created **once per session** (or
//! once per sweep, shared by every session in it) and fed one
//! [`WalkRequest`] per `solve_next` walk.
//!
//! # Why worker reuse cannot leak state between runs
//!
//! A pool worker owns *nothing* that outlives a walk. Each [`WalkRequest`]
//! carries owned copies of everything a verdict is a function of — the
//! path-constraint prefix, the per-candidate negated constraints, the
//! input tape the hint is read from, and the [`SolverConfig`] — and a
//! worker rebuilds a fresh [`Solver`] + [`PrefixSession`] from exactly
//! those when it first touches a walk. Workers never see a
//! [`dart_solver::QueryCache`] at all: the committing thread pre-peeks
//! the session cache (read-only) before dispatch and only enqueues
//! candidates no cache tier can answer, so a worker's verdict is the
//! same pure function of `(config, prefix, negated, hint)` a synchronous
//! solve would compute. Between walks a worker retains only its empty
//! deque and its diagnostic counters — there is no channel through which
//! one run's (or one session's) cache state can reach another's verdicts,
//! which is the invariant the byte-identical-reports contract rests on
//! (see DESIGN.md and the `cache_determinism` proptest).
//!
//! # Cancellation
//!
//! Each walk carries an atomic high-water mark, initialised to the first
//! position the cache already knows to be satisfiable (or `usize::MAX`).
//! In a first-Sat-wins walk ([`WalkRequest::cancel_on_sat`] set, as
//! `solve_next` submits), a worker finding `Sat` at position `p` lowers
//! the mark to `p`, and a worker popping a job past the mark abandons it
//! without solving. The mark only ever decreases, so an abandoned
//! position is strictly past the final mark, which is at or past the
//! committed winner — the commit walk can never reach it (absent fault
//! injection, which the commit walk covers with a synchronous fallback
//! solve; see `search::solve_next`). A generational expansion walk
//! (`cancel_on_sat` clear) commits *every* candidate, so `Sat` cancels
//! nothing and all enqueued jobs run to a verdict.
//!
//! # Observability
//!
//! Every walk reports scheduler diagnostics back to the session that
//! submitted it: jobs executed by a worker other than the one they were
//! queued on (`steals`), the nanoseconds the committing thread spent
//! blocked on the walk's last verdict (`pool_idle_ns`), the deepest any
//! worker deque got while the walk was being enqueued
//! (`max_queue_depth`), and per-worker fresh-solve counts. They surface
//! as [`crate::SolveStats`] fields and `dartc --stats` lines. All of
//! them are scheduling-dependent diagnostics, excluded from the
//! determinism contract.

use crate::tape::InputTape;
use dart_solver::{Constraint, SolveInfo, SolveOutcome, Solver, SolverConfig};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One candidate query of a walk: solve `prefix[..] ∧ negated` (the
/// prefix's live constraints at depth `j`, exactly as
/// [`dart_solver::PrefixSession::solve_query`] frames it).
#[derive(Debug)]
pub struct WalkItem {
    /// Position of this candidate in the walk's strategy order.
    pub pos: usize,
    /// Depth of the flipped conditional (index into the prefix).
    pub j: usize,
    /// The negated branch constraint.
    pub negated: Constraint,
}

/// An owned, self-contained description of one `solve_next` walk's
/// speculative work. Owning (rather than borrowing) every input is what
/// lets the pool's workers be long-lived threads instead of a scope.
#[derive(Debug)]
pub struct WalkRequest {
    /// The path-constraint prefix shared by every candidate query.
    pub prefix: Vec<Constraint>,
    /// The candidates that actually need a fresh solve (positions the
    /// committing thread's cache pre-peek could not answer).
    pub items: Vec<WalkItem>,
    /// The input tape the solver hint is read from.
    pub tape: InputTape,
    /// Solver limits — workers rebuild a [`Solver`] from this, so every
    /// speculative verdict uses exactly the session's configuration.
    pub config: SolverConfig,
    /// Initial high-water mark: the first position already known
    /// satisfiable, `usize::MAX` if none. Candidates past it are never
    /// enqueued, but a worker `Sat` may lower it further mid-walk.
    pub initial_cap: usize,
    /// Whether a worker `Sat` cancels positions past it. `true` for a
    /// first-Sat-wins `solve_next` walk (only the winner is committed);
    /// `false` for a generational expansion, where *every* satisfiable
    /// candidate spawns a child and cancelling would throw away work the
    /// commit loop must then redo synchronously.
    pub cancel_on_sat: bool,
}

/// What one walk's speculation produced, plus scheduler diagnostics.
#[derive(Debug)]
pub struct WalkVerdicts {
    /// Per-position fresh verdicts (`None` where the job was abandoned
    /// past the high-water mark, or where no job was enqueued). Indexed
    /// by candidate position, same length as the walk's candidate list.
    pub verdicts: Vec<Option<(SolveOutcome, SolveInfo)>>,
    /// Fresh solver invocations the workers performed.
    pub fresh: u64,
    /// Jobs executed by a worker other than the one they were queued on.
    pub steals: u64,
    /// Nanoseconds the submitting thread spent blocked waiting for the
    /// walk's verdicts.
    pub idle_ns: u64,
    /// Deepest any worker deque got while this walk was enqueued.
    pub max_queue_depth: u64,
    /// Fresh solves per worker (length = pool worker count).
    pub per_worker: Vec<u64>,
}

/// State shared between one walk's submitter and the workers.
#[derive(Debug)]
struct Walk {
    prefix: Vec<Constraint>,
    items: Vec<WalkItem>,
    tape: InputTape,
    config: SolverConfig,
    /// Lowest position found satisfiable so far; only ever decreases.
    high_water: AtomicUsize,
    /// Whether `Sat` verdicts move the mark / abandon later jobs (see
    /// [`WalkRequest::cancel_on_sat`]).
    cancel_on_sat: bool,
    /// One verdict slot per candidate position (not per item: the
    /// committing walk indexes by position).
    slots: Vec<std::sync::OnceLock<(SolveOutcome, SolveInfo)>>,
    /// Jobs not yet executed or abandoned; the submitter waits for 0.
    remaining: AtomicUsize,
    finished: Mutex<bool>,
    finished_cv: Condvar,
    steals: AtomicU64,
    per_worker: Vec<AtomicU64>,
}

impl Walk {
    /// Marks one job done (executed or abandoned) and wakes the
    /// submitter when it was the last.
    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.finished.lock().expect("no panics while flagging") = true;
            self.finished_cv.notify_all();
        }
    }

    /// The item (if any) queued at candidate position `pos`.
    fn item_at(&self, pos: usize) -> &WalkItem {
        // Items are sorted by position at submission; positions are
        // sparse (only un-peekable candidates), so binary search.
        let i = self
            .items
            .binary_search_by_key(&pos, |it| it.pos)
            .expect("jobs are only created for enqueued items");
        &self.items[i]
    }
}

/// One unit of pool work: a candidate position of a walk, remembering
/// which deque it was queued on so stealing is observable.
#[derive(Debug)]
struct Job {
    walk: Arc<Walk>,
    pos: usize,
    home: usize,
}

#[derive(Debug)]
struct Inner {
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Signalled on submit and shutdown; workers park here when every
    /// deque is empty.
    work_cv: Condvar,
    work_lock: Mutex<()>,
    shutdown: AtomicBool,
    /// Round-robin cursor for distributing a walk's jobs over deques.
    next_queue: AtomicUsize,
}

impl Inner {
    /// Pops a job: own deque front first (FIFO keeps position order
    /// roughly increasing), then steal from the back of the others.
    fn grab(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me].lock().expect("queue lock").pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for k in 1..n {
            let victim = (me + k) % n;
            if let Some(job) = self.queues[victim].lock().expect("queue lock").pop_back() {
                return Some(job);
            }
        }
        None
    }
}

/// A persistent work-stealing pool of solver workers.
///
/// Create one per session — or one per sweep, shared by every session in
/// it via [`crate::Dart::with_pool`], which caps the *total* number of
/// solver threads at the pool's worker count no matter how many sessions
/// run concurrently (the oversubscription fix: a `sweep(threads = T)`
/// with `solve_threads = S` used to spawn up to `T × S` scoped workers).
///
/// Dropping the pool shuts the workers down and joins them.
#[derive(Debug)]
pub struct SolvePool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SolvePool {
    /// Spawns a pool with `workers` long-lived worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0 — the callers ([`crate::Dart::run`],
    /// [`crate::sweep::sweep`]) only build a pool for `solve_threads > 1`
    /// and validate the configuration first.
    pub fn new(workers: usize) -> SolvePool {
        assert!(workers > 0, "a solve pool needs at least one worker");
        let inner = Arc::new(Inner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            work_cv: Condvar::new(),
            work_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|me| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("dart-solve-{me}"))
                    .spawn(move || worker_loop(&inner, me))
                    .expect("spawning a pool worker")
            })
            .collect();
        SolvePool { inner, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Runs one walk's speculative candidate solving on the pool and
    /// blocks until every job is executed or abandoned. `positions` is
    /// the walk's total candidate count (the verdict vector's length).
    pub fn run_walk(&self, req: WalkRequest, positions: usize) -> WalkVerdicts {
        let workers = self.workers();
        debug_assert!(req.items.windows(2).all(|w| w[0].pos < w[1].pos));
        let jobs = req.items.len();
        let walk = Arc::new(Walk {
            prefix: req.prefix,
            items: req.items,
            tape: req.tape,
            config: req.config,
            high_water: AtomicUsize::new(req.initial_cap),
            cancel_on_sat: req.cancel_on_sat,
            slots: (0..positions).map(|_| std::sync::OnceLock::new()).collect(),
            remaining: AtomicUsize::new(jobs),
            finished: Mutex::new(jobs == 0),
            finished_cv: Condvar::new(),
            steals: AtomicU64::new(0),
            per_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let mut max_queue_depth = 0u64;
        for i in 0..jobs {
            let q = self.inner.next_queue.fetch_add(1, Ordering::Relaxed) % workers;
            let depth = {
                let mut deque = self.inner.queues[q].lock().expect("queue lock");
                deque.push_back(Job {
                    walk: walk.clone(),
                    pos: walk.items[i].pos,
                    home: q,
                });
                deque.len() as u64
            };
            max_queue_depth = max_queue_depth.max(depth);
        }
        // Synchronize with parking workers before notifying: a worker
        // only waits after re-checking every deque *under* `work_lock`,
        // so once this acquire/release completes, any worker not yet
        // waiting is guaranteed to see the pushes when it re-checks —
        // no notification can be lost. (No deque lock is held here, so
        // the work_lock → deque-lock order inside workers cannot
        // deadlock against this.)
        if jobs > 0 {
            drop(self.inner.work_lock.lock().expect("park lock"));
            for _ in 0..jobs.min(workers) {
                self.inner.work_cv.notify_one();
            }
        }
        let wait_started = Instant::now();
        {
            let mut done = walk.finished.lock().expect("no panics while flagging");
            while !*done {
                done = walk
                    .finished_cv
                    .wait(done)
                    .expect("no panics while flagging");
            }
        }
        let idle_ns = if jobs == 0 {
            0
        } else {
            wait_started.elapsed().as_nanos() as u64
        };
        // A worker can still hold its Arc for an instant after flagging
        // completion (it drops the job after `finish_one`); spin until
        // ours is the last reference rather than cloning the slots out.
        let mut walk = walk;
        let walk = loop {
            match Arc::try_unwrap(walk) {
                Ok(w) => break w,
                Err(again) => {
                    walk = again;
                    std::thread::yield_now();
                }
            }
        };
        let verdicts: Vec<Option<(SolveOutcome, SolveInfo)>> =
            walk.slots.into_iter().map(|s| s.into_inner()).collect();
        let fresh = verdicts.iter().filter(|v| v.is_some()).count() as u64;
        WalkVerdicts {
            verdicts,
            fresh,
            steals: walk.steals.load(Ordering::Relaxed),
            idle_ns,
            max_queue_depth,
            per_worker: walk
                .per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for SolvePool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Same protocol as job submission: taking the park lock orders
        // the shutdown flag before any worker's under-lock re-check, so
        // the notify_all cannot be lost to a worker about to wait.
        drop(self.inner.work_lock.lock().expect("park lock"));
        self.inner.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A worker: grab a job, build the walk's prefix session once, then keep
/// draining jobs — preferring more of the same walk so the incremental
/// session is reused — stealing from other deques when its own runs dry,
/// parking when the whole pool is dry.
fn worker_loop(inner: &Inner, me: usize) {
    // A job grabbed while draining another walk, carried over so the
    // outer loop rebuilds the right session for it.
    let mut carried: Option<Job> = None;
    loop {
        let job = match carried.take().or_else(|| inner.grab(me)) {
            Some(job) => job,
            None => {
                // Park protocol: shutdown and the deques are re-checked
                // *under* `work_lock`, and both submitters and `Drop`
                // acquire that lock before notifying, so nothing flagged
                // or pushed after the re-check can slip past the wait.
                // The long timeout is pure defense-in-depth (a spurious
                // or missed wakeup just loops), not a polling interval.
                let guard = inner.work_lock.lock().expect("park lock");
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match inner.grab(me) {
                    Some(job) => {
                        drop(guard);
                        job
                    }
                    None => {
                        let _ = inner
                            .work_cv
                            .wait_timeout(guard, std::time::Duration::from_millis(100))
                            .expect("park lock");
                        continue;
                    }
                }
            }
        };
        let walk = job.walk.clone();
        let solver = Solver::new(walk.config);
        let mut session = solver.session();
        for c in &walk.prefix {
            session.push(c);
        }
        let mut current = Some(job);
        while let Some(job) = current.take() {
            let ok = execute(&mut session, &job, me);
            if !ok {
                // The solve panicked: the session may be inconsistent.
                // Drop it; the commit walk re-solves synchronously (and
                // surfaces the panic under the session's supervision).
                break;
            }
            match inner.grab(me) {
                Some(next) if Arc::ptr_eq(&next.walk, &walk) => current = Some(next),
                Some(next) => carried = Some(next),
                None => {}
            }
        }
    }
}

/// Runs one job against the walk's prefix session. Returns `false` when
/// the solve panicked (the job is still marked finished, verdict-less).
fn execute(session: &mut dart_solver::PrefixSession, job: &Job, me: usize) -> bool {
    let walk = &job.walk;
    if walk.cancel_on_sat && job.pos > walk.high_water.load(Ordering::Acquire) {
        walk.finish_one();
        return true;
    }
    if job.home != me {
        walk.steals.fetch_add(1, Ordering::Relaxed);
    }
    let item = walk.item_at(job.pos);
    let solved = catch_unwind(AssertUnwindSafe(|| {
        let mut info = SolveInfo::default();
        let out =
            session.solve_query_info(item.j, &item.negated, |v| walk.tape.value_of(v), &mut info);
        (out, info)
    }));
    let ok = solved.is_ok();
    if let Ok((out, info)) = solved {
        if walk.cancel_on_sat && out.is_sat() {
            walk.high_water.fetch_min(job.pos, Ordering::AcqRel);
        }
        walk.per_worker[me].fetch_add(1, Ordering::Relaxed);
        let _ = walk.slots[job.pos].set((out, info));
    }
    walk.finish_one();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::InputKind;
    use dart_solver::{LinExpr, RelOp, Var};

    fn v(i: u32) -> LinExpr {
        LinExpr::var(Var(i))
    }

    /// prefix: x != 1, x != 2, x != 3 — every flip is satisfiable.
    fn walk_request(initial_cap: usize) -> (WalkRequest, usize) {
        let prefix = vec![
            Constraint::new(v(0).offset(-1), RelOp::Ne),
            Constraint::new(v(0).offset(-2), RelOp::Ne),
            Constraint::new(v(0).offset(-3), RelOp::Ne),
        ];
        let mut tape = InputTape::new(0);
        let _ = tape.take(InputKind::IntLike, || "x".into());
        // DFS order: deepest first (position 0 = j 2).
        let items = vec![
            WalkItem {
                pos: 0,
                j: 2,
                negated: prefix[2].negated(),
            },
            WalkItem {
                pos: 1,
                j: 1,
                negated: prefix[1].negated(),
            },
            WalkItem {
                pos: 2,
                j: 0,
                negated: prefix[0].negated(),
            },
        ];
        (
            WalkRequest {
                prefix,
                items,
                tape,
                config: SolverConfig::default(),
                initial_cap,
                cancel_on_sat: true,
            },
            3,
        )
    }

    #[test]
    fn pool_solves_every_enqueued_candidate() {
        let pool = SolvePool::new(2);
        let (req, positions) = walk_request(usize::MAX);
        let out = pool.run_walk(req, positions);
        // Position 0 is always solved; later positions may be abandoned
        // once an earlier Sat lowers the mark, but any verdict present
        // matches the synchronous solver's.
        let first = out.verdicts[0]
            .as_ref()
            .expect("position 0 never cancelled");
        assert!(first.0.is_sat());
        assert!(out.fresh >= 1);
        assert_eq!(out.per_worker.len(), 2);
        assert_eq!(
            out.per_worker.iter().sum::<u64>(),
            out.fresh,
            "per-worker counts partition the fresh solves"
        );
    }

    #[test]
    fn initial_cap_cancels_everything_past_it() {
        let pool = SolvePool::new(2);
        let (mut req, positions) = walk_request(0);
        // Only enqueue positions at or below the cap, as solve_next does.
        req.items.truncate(1);
        let out = pool.run_walk(req, positions);
        assert!(out.verdicts[0].is_some());
        assert!(out.verdicts[1].is_none());
        assert!(out.verdicts[2].is_none());
    }

    #[test]
    fn uncancellable_walk_solves_every_candidate() {
        // A generational expansion commits every candidate, so with
        // `cancel_on_sat` clear no Sat may abandon later jobs.
        let pool = SolvePool::new(2);
        let (mut req, positions) = walk_request(usize::MAX);
        req.cancel_on_sat = false;
        let out = pool.run_walk(req, positions);
        assert!(out.verdicts.iter().all(Option::is_some), "no job abandoned");
        assert_eq!(out.fresh, 3);
        assert!(out.verdicts.iter().flatten().all(|(o, _)| o.is_sat()));
    }

    #[test]
    fn empty_walk_returns_immediately() {
        let pool = SolvePool::new(2);
        let (mut req, positions) = walk_request(usize::MAX);
        req.items.clear();
        let out = pool.run_walk(req, positions);
        assert_eq!(out.fresh, 0);
        assert_eq!(out.idle_ns, 0);
        assert!(out.verdicts.iter().all(Option::is_none));
    }

    #[test]
    fn pool_is_reusable_across_walks_with_identical_verdicts() {
        let pool = SolvePool::new(3);
        let (req, positions) = walk_request(usize::MAX);
        let first = pool.run_walk(req, positions);
        for _ in 0..8 {
            let (req, positions) = walk_request(usize::MAX);
            let again = pool.run_walk(req, positions);
            // Verdicts that are present must be byte-identical run to
            // run — worker reuse leaks no state between walks.
            for (a, b) in first.verdicts.iter().zip(&again.verdicts) {
                if let (Some(a), Some(b)) = (a, b) {
                    assert_eq!(a.0, b.0);
                }
            }
            assert!(again.verdicts[0]
                .as_ref()
                .expect("never cancelled")
                .0
                .is_sat());
        }
    }

    #[test]
    fn drop_joins_workers() {
        let pool = SolvePool::new(4);
        let (req, positions) = walk_request(usize::MAX);
        let _ = pool.run_walk(req, positions);
        drop(pool); // must not hang
    }
}
