//! The generational frontier: a scored, deduplicated, bounded work queue
//! with checkpoint/resume.
//!
//! [`crate::driver::Dart`]'s generational engine explores the execution
//! tree breadth-wise from a frontier of `(inputs, prediction, generation
//! bound)` work items. This module is that frontier as a real subsystem:
//!
//! * **Scored priority order**: items are ranked by the coverage novelty
//!   of the run that spawned them — how many new `(site, direction)`
//!   pairs the parent run discovered — so children of runs that opened
//!   new code are executed first. Ties fall back to insertion order.
//! * **Path-prefix dedup**: every candidate child is fingerprinted by
//!   the solver query that derives it (the rendered constraint prefix
//!   plus the negated branch), and a seen-set suppresses re-deriving —
//!   and re-*solving* — the same child across restarts. Each suppression
//!   counts as a `dedup_hits` and soundly clears the session's
//!   completeness flag: a restart only happens after an incomplete pass,
//!   so no [`crate::Outcome::Complete`] claim is ever built on a skip.
//! * **Bounded memory** ([`crate::DartConfig::frontier_budget`]): when
//!   full, the lowest-scored (then newest) item is evicted, counted in
//!   `frontier_evicted`, and the completeness flag is cleared by the
//!   driver — an evicted subtree was provably not explored.
//! * **Checkpoint/resume**: the frontier, the coverage set, the query
//!   cache's model pool and the session's RNG position serialize to a
//!   small text file (same hand-rolled line format family as
//!   [`crate::replay`](mod@crate::replay)), so a killed session resumes
//!   exactly where its last completed work item left off. Exactness rests
//!   on every queued tape carrying a *pristine* RNG: roots record the
//!   seed they were drawn with, and children are rebuilt from parent
//!   slots with a seed derived deterministically from the session seed
//!   and the item's sequence number. The model pool is saved because
//!   which pooled model answers a query decides the child tape that
//!   query derives.

use crate::tape::{InputKind, InputSlot, InputTape};
use dart_solver::{Assignment, Constraint, Var, MODEL_POOL};
use dart_sym::BranchRecord;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One frontier work item: the inputs to replay, the branch prediction,
/// and the generation bound below which no branch may be re-negated.
#[derive(Debug, Clone)]
pub(crate) struct FrontierItem {
    /// The child's input tape (pristine RNG — never run yet).
    pub(crate) tape: InputTape,
    /// Predicted branch stack (the forced prefix, deepest bit flipped).
    pub(crate) stack: Vec<BranchRecord>,
    /// First negatable index: children only expand at or beyond it.
    pub(crate) bound: usize,
    /// Coverage novelty of the parent run (0 for roots).
    pub(crate) score: u64,
    /// Seed of the tape's fresh-value RNG (for checkpoint rebuild).
    pub(crate) rng_seed: u64,
    /// Dedup fingerprint this item holds in the seen-set, if dedup is on
    /// and the item is not a root. Removed from the set on eviction so
    /// the subtree can be re-derived by a later restart.
    pub(crate) key: Option<u64>,
    /// Insertion sequence number (total order; also seeds [`derive_seed`]).
    pub(crate) seq: u64,
}

/// The scored, deduplicated, bounded frontier.
#[derive(Debug)]
pub(crate) struct Frontier {
    budget: Option<usize>,
    dedup: bool,
    /// Keyed by `(score, Reverse(seq))`: `pop_last` yields the highest
    /// score and, among equals, the lowest sequence number.
    items: BTreeMap<(u64, Reverse<u64>), FrontierItem>,
    /// Fingerprints of every child derived (and not since evicted).
    seen: BTreeSet<u64>,
    next_seq: u64,
    /// Candidate derivations suppressed by the seen-set.
    pub(crate) dedup_hits: u64,
    /// Items evicted by the budget before they could run.
    pub(crate) evicted: u64,
    /// High-water mark of the queue length.
    pub(crate) peak: u64,
}

impl Frontier {
    /// An empty frontier. `budget` of `Some(0)` is rejected upstream by
    /// [`crate::Dart::new`] / [`crate::sweep::sweep`].
    pub(crate) fn new(budget: Option<usize>, dedup: bool) -> Frontier {
        Frontier {
            budget,
            dedup,
            items: BTreeMap::new(),
            seen: BTreeSet::new(),
            next_seq: 0,
            dedup_hits: 0,
            evicted: 0,
            peak: 0,
        }
    }

    /// The sequence number the next pushed item will receive.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Inserts `item` and enforces the budget. Returns `true` if any
    /// eviction happened (possibly of the just-inserted item).
    fn insert(&mut self, item: FrontierItem) -> bool {
        self.items.insert((item.score, Reverse(item.seq)), item);
        self.peak = self.peak.max(self.items.len() as u64);
        let mut any_evicted = false;
        while self.budget.is_some_and(|budget| self.items.len() > budget) {
            // Lowest score; among equals, the *newest* goes
            // (Reverse(seq) makes pop_first yield the highest seq).
            let (_, victim) = self
                .items
                .pop_first()
                .expect("over budget implies non-empty");
            if let Some(k) = victim.key {
                // Un-see it: the subtree was never explored, so a later
                // restart must be allowed to derive it again.
                self.seen.remove(&k);
            }
            self.evicted += 1;
            any_evicted = true;
        }
        any_evicted
    }

    /// Queues a fresh random root (restart). Roots bypass dedup — they
    /// are not derived from any solver query.
    pub(crate) fn push_root(&mut self, tape: InputTape, rng_seed: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(FrontierItem {
            tape,
            stack: Vec::new(),
            bound: 0,
            score: 0,
            rng_seed,
            key: None,
            seq,
        });
    }

    /// Registers a candidate child derivation *before* its solver query
    /// runs. Returns `false` — and counts a dedup hit — when the same
    /// derivation was already performed (this restart or an earlier
    /// one), in which case the caller skips the query entirely; that is
    /// the perf win. With dedup off this always returns `true` and
    /// tracks nothing. Unsat candidates stay registered forever —
    /// suppressing their re-proof on every restart is most of the win —
    /// but unknowns must be released via
    /// [`Frontier::forget_candidate`].
    pub(crate) fn note_candidate(&mut self, key: u64) -> bool {
        if !self.dedup {
            return true;
        }
        if self.seen.insert(key) {
            true
        } else {
            self.dedup_hits += 1;
            false
        }
    }

    /// Releases a fingerprint whose query came back `Unknown`: no child
    /// was derived and no verdict was established, so a later restart
    /// must be allowed to attempt the derivation again — otherwise
    /// dedup-on would permanently lose the subtree behind one transient
    /// solver give-up.
    pub(crate) fn forget_candidate(&mut self, key: u64) {
        if self.dedup {
            self.seen.remove(&key);
        }
    }

    /// Queues a derived child. `key` is the fingerprint previously passed
    /// to [`Frontier::note_candidate`]. Returns `true` if the push
    /// evicted anything (caller must clear its completeness flag).
    pub(crate) fn push_child(
        &mut self,
        tape: InputTape,
        stack: Vec<BranchRecord>,
        bound: usize,
        score: u64,
        rng_seed: u64,
        key: u64,
    ) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(FrontierItem {
            tape,
            stack,
            bound,
            score,
            rng_seed,
            key: self.dedup.then_some(key),
            seq,
        })
    }

    /// Removes and returns the next item to execute: highest score,
    /// oldest among ties.
    pub(crate) fn pop(&mut self) -> Option<FrontierItem> {
        self.items.pop_last().map(|(_, item)| item)
    }

    /// Snapshots this frontier plus the driver-side session state into a
    /// serializable [`Checkpoint`]. Queued tapes are pristine (never
    /// run), so their slots plus their recorded seed rebuild them
    /// exactly. `pool` is the query cache's model pool, oldest first.
    #[allow(clippy::too_many_arguments)] // one spot, mirrors the session state
    pub(crate) fn to_checkpoint(
        &self,
        seed: u64,
        restarts: u64,
        runs: u64,
        steps: u64,
        divergences: u64,
        session_complete: bool,
        coverage: Vec<(usize, bool)>,
        pool: Vec<Assignment>,
    ) -> Checkpoint {
        Checkpoint {
            seed,
            restarts,
            runs,
            steps,
            divergences,
            session_complete,
            coverage,
            dedup_hits: self.dedup_hits,
            evicted: self.evicted,
            peak: self.peak,
            next_seq: self.next_seq,
            seen: self.seen.iter().copied().collect(),
            pool,
            items: self
                .items
                .values()
                .map(|it| CheckpointItem {
                    slots: it.tape.snapshot(),
                    stack: it.stack.clone(),
                    bound: it.bound,
                    score: it.score,
                    rng_seed: it.rng_seed,
                    key: it.key,
                    seq: it.seq,
                })
                .collect(),
        }
    }

    /// Rebuilds this frontier from a checkpoint: items, seen-set,
    /// counters and the sequence cursor all restored, each tape rebuilt
    /// from its slots with its recorded (still-unconsumed) RNG seed.
    pub(crate) fn restore(&mut self, cp: &Checkpoint) {
        self.items.clear();
        self.seen = cp.seen.iter().copied().collect();
        self.next_seq = cp.next_seq;
        self.dedup_hits = cp.dedup_hits;
        self.evicted = cp.evicted;
        self.peak = cp.peak;
        for it in &cp.items {
            self.items.insert(
                (it.score, Reverse(it.seq)),
                FrontierItem {
                    tape: InputTape::from_slots(it.slots.clone(), it.rng_seed),
                    stack: it.stack.clone(),
                    bound: it.bound,
                    score: it.score,
                    rng_seed: it.rng_seed,
                    key: it.key,
                    seq: it.seq,
                },
            );
        }
    }
}

/// The deterministic seed of a child tape's fresh-value RNG: splitmix64
/// of the session seed xor the item's gamma-weighted sequence number.
/// Derived (rather than drawn from the parent's mid-stream RNG) so a
/// checkpointed child rebuilds with exactly the randomness it would have
/// used — [`rand::rngs::SmallRng`] state is not serializable, but a seed
/// is.
pub(crate) fn derive_seed(session_seed: u64, seq: u64) -> u64 {
    let mut z = session_seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the rendered solver query that derives a child: every
/// prefix constraint plus the negated branch constraint. Two candidates
/// collide only if their whole symbolic derivation is identical — in
/// which case solving both is pure rework. (Identical constraint
/// prefixes reached through *different* concrete branch histories imply
/// an untracked conditional, i.e. taint — which already forfeits the
/// completeness claim, and every dedup hit clears it besides.)
pub(crate) fn child_key(constraints: &[Constraint], j: usize) -> u64 {
    use fmt::Write;
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for c in &constraints[..j] {
        let _ = write!(h, "{c};");
    }
    let _ = write!(h, "!{}", constraints[j].negated());
    h.0
}

/// A malformed checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for CheckpointParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CheckpointParseError {}

/// One serialized frontier item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointItem {
    pub(crate) slots: Vec<InputSlot>,
    pub(crate) stack: Vec<BranchRecord>,
    pub(crate) bound: usize,
    pub(crate) score: u64,
    pub(crate) rng_seed: u64,
    pub(crate) key: Option<u64>,
    pub(crate) seq: u64,
}

/// A serialized generational session: everything `run_generational`
/// needs to resume exactly where the last completed work item left off.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Checkpoint {
    pub(crate) seed: u64,
    pub(crate) restarts: u64,
    pub(crate) runs: u64,
    pub(crate) steps: u64,
    pub(crate) divergences: u64,
    pub(crate) session_complete: bool,
    pub(crate) coverage: Vec<(usize, bool)>,
    pub(crate) dedup_hits: u64,
    pub(crate) evicted: u64,
    pub(crate) peak: u64,
    pub(crate) next_seq: u64,
    pub(crate) seen: Vec<u64>,
    /// The query cache's model pool, oldest first (at most
    /// [`MODEL_POOL`] models).
    pub(crate) pool: Vec<Assignment>,
    pub(crate) items: Vec<CheckpointItem>,
}

const CHECKPOINT_HEADER: &str = "dart-generational-checkpoint v2";

impl Checkpoint {
    /// Renders the line-based text format (see the module docs).
    pub(crate) fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{CHECKPOINT_HEADER}");
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "restarts {}", self.restarts);
        let _ = writeln!(out, "runs {}", self.runs);
        let _ = writeln!(out, "steps {}", self.steps);
        let _ = writeln!(out, "divergences {}", self.divergences);
        let _ = writeln!(out, "complete {}", u8::from(self.session_complete));
        let _ = writeln!(
            out,
            "counters {} {} {} {}",
            self.dedup_hits, self.evicted, self.peak, self.next_seq
        );
        out.push_str("covered");
        for (site, dir) in &self.coverage {
            let _ = write!(out, " {site}/{}", u8::from(*dir));
        }
        out.push('\n');
        out.push_str("seen");
        for k in &self.seen {
            let _ = write!(out, " {k:x}");
        }
        out.push('\n');
        // One field per model, `var:value` pairs joined by commas; an
        // empty model is `-`.
        out.push_str("pool");
        for model in &self.pool {
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
        for it in &self.items {
            let _ = writeln!(
                out,
                "item {} {} {} {} {}",
                it.score,
                it.bound,
                it.seq,
                it.rng_seed,
                match it.key {
                    Some(k) => format!("{k:x}"),
                    None => "-".to_string(),
                }
            );
            out.push_str("stack ");
            if it.stack.is_empty() {
                out.push('-');
            } else {
                for r in &it.stack {
                    out.push(match (r.branch, r.done) {
                        (false, false) => '0',
                        (true, false) => '1',
                        (false, true) => '2',
                        (true, true) => '3',
                    });
                }
            }
            out.push('\n');
            for s in &it.slots {
                let kind = match s.kind {
                    InputKind::IntLike => "int",
                    InputKind::Pointer => "ptr",
                };
                let _ = writeln!(out, "slot {kind} {} {}", s.value, s.name);
            }
            out.push_str("end\n");
        }
        out.push_str("done\n");
        out
    }

    /// Parses the text format back.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointParseError`] naming the first malformed
    /// line — a truncated or corrupt checkpoint (e.g. from a crash
    /// mid-write of a non-atomic copy) must surface as a config error,
    /// never resume a wrong session. That includes a `restarts` count
    /// above `runs + 1`, which no session writes, and item sequence numbers
    /// that [`Frontier::restore`] cannot key apart: items are keyed by
    /// `(score, seq)`, so a repeated `seq` can overwrite an earlier item,
    /// and a `seq` at or past `next_seq` can be overwritten by a child
    /// pushed after the resume. Either way queued work would vanish, and
    /// a resumed session could claim completeness without exploring it.
    /// A `pool` line with more than [`MODEL_POOL`] models, or a model
    /// that names one variable twice, is rejected too: no session writes
    /// either.
    pub(crate) fn parse(text: &str) -> Result<Checkpoint, CheckpointParseError> {
        let mut lines = text.lines().enumerate();
        let err = |line: usize, message: String| CheckpointParseError {
            line: line + 1,
            message,
        };
        let mut next = |expect: &str| -> Result<(usize, String), CheckpointParseError> {
            match lines.next() {
                Some((i, raw)) => Ok((i, raw.to_string())),
                None => Err(CheckpointParseError {
                    line: text.lines().count() + 1,
                    message: format!("unexpected end of file (expected {expect})"),
                }),
            }
        };
        let (i, header) = next("header")?;
        if header != CHECKPOINT_HEADER {
            return Err(err(i, format!("bad header `{header}`")));
        }
        let field = |(i, line): (usize, String), name: &str| -> Result<u64, CheckpointParseError> {
            let rest = line
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| err(i, format!("expected `{name} <n>`, got `{line}`")))?;
            rest.trim()
                .parse()
                .map_err(|_| err(i, format!("`{name}` is not an integer: `{rest}`")))
        };
        let seed = field(next("seed")?, "seed")?;
        let restarts = field(next("restarts")?, "restarts")?;
        let runs_line = next("runs")?;
        let runs_lineno = runs_line.0;
        let runs = field(runs_line, "runs")?;
        // Each restart pushes its root, and the checkpoint written right
        // after is the last before that root runs: every earlier
        // restart's root has run. A larger count would make a resume
        // replay that many RNG draws.
        if restarts > runs.saturating_add(1) {
            return Err(err(
                runs_lineno,
                format!("`restarts` {restarts} exceeds `runs` {runs} + 1"),
            ));
        }
        let steps = field(next("steps")?, "steps")?;
        let divergences = field(next("divergences")?, "divergences")?;
        let complete_line = next("complete")?;
        let complete_lineno = complete_line.0;
        let session_complete = match field(complete_line, "complete")? {
            0 => false,
            1 => true,
            other => {
                return Err(err(
                    complete_lineno,
                    format!("`complete` must be 0 or 1, got {other}"),
                ))
            }
        };
        let (i, counters) = next("counters")?;
        let nums: Vec<&str> = counters
            .strip_prefix("counters")
            .ok_or_else(|| err(i, format!("expected `counters`, got `{counters}`")))?
            .split_whitespace()
            .collect();
        let [dedup_hits, evicted, peak, next_seq] = nums[..] else {
            return Err(err(i, "`counters` needs 4 integers".to_string()));
        };
        let parse_u64 = |i: usize, s: &str| -> Result<u64, CheckpointParseError> {
            s.parse()
                .map_err(|_| err(i, format!("not an integer: `{s}`")))
        };
        let dedup_hits = parse_u64(i, dedup_hits)?;
        let evicted = parse_u64(i, evicted)?;
        let peak = parse_u64(i, peak)?;
        let next_seq = parse_u64(i, next_seq)?;
        let (i, covered) = next("covered")?;
        let mut coverage = Vec::new();
        for pair in covered
            .strip_prefix("covered")
            .ok_or_else(|| err(i, format!("expected `covered`, got `{covered}`")))?
            .split_whitespace()
        {
            let (site, dir) = pair
                .split_once('/')
                .ok_or_else(|| err(i, format!("bad coverage pair `{pair}`")))?;
            let site: usize = site
                .parse()
                .map_err(|_| err(i, format!("bad coverage site `{site}`")))?;
            let dir = match dir {
                "0" => false,
                "1" => true,
                other => return Err(err(i, format!("bad coverage direction `{other}`"))),
            };
            coverage.push((site, dir));
        }
        let (i, seen_line) = next("seen")?;
        let mut seen = Vec::new();
        for k in seen_line
            .strip_prefix("seen")
            .ok_or_else(|| err(i, format!("expected `seen`, got `{seen_line}`")))?
            .split_whitespace()
        {
            seen.push(
                u64::from_str_radix(k, 16)
                    .map_err(|_| err(i, format!("bad seen fingerprint `{k}`")))?,
            );
        }
        let (i, pool_line) = next("pool")?;
        let fields: Vec<&str> = match pool_line.strip_prefix("pool") {
            Some("") => Vec::new(),
            Some(rest) if rest.starts_with(' ') => rest[1..].split(' ').collect(),
            _ => return Err(err(i, format!("expected `pool`, got `{pool_line}`"))),
        };
        if fields.len() > MODEL_POOL {
            return Err(err(i, format!("more than {MODEL_POOL} pooled models")));
        }
        let mut pool = Vec::new();
        for field in fields {
            let mut model = Assignment::new();
            if field != "-" {
                for entry in field.split(',') {
                    let (var, value) = entry
                        .split_once(':')
                        .and_then(|(v, x)| Some((v.parse().ok()?, x.parse().ok()?)))
                        .ok_or_else(|| err(i, format!("bad pooled model entry `{entry}`")))?;
                    if model.insert(Var(var), value).is_some() {
                        return Err(err(i, format!("variable {var} repeated in a pooled model")));
                    }
                }
            }
            pool.push(model);
        }
        let mut items = Vec::new();
        let mut seqs = BTreeSet::new();
        let mut terminated = false;
        while let Some((i, line)) = lines.next() {
            if line == "done" {
                terminated = true;
                if let Some((j, extra)) = lines.next() {
                    return Err(err(j, format!("trailing data after `done`: `{extra}`")));
                }
                break;
            }
            let fields: Vec<&str> = line
                .strip_prefix("item")
                .ok_or_else(|| err(i, format!("expected `item`, got `{line}`")))?
                .split_whitespace()
                .collect();
            let [score, bound, seq, rng_seed, key] = fields[..] else {
                return Err(err(i, "`item` needs 5 fields".to_string()));
            };
            let score = parse_u64(i, score)?;
            let bound: usize = bound
                .parse()
                .map_err(|_| err(i, format!("bad bound `{bound}`")))?;
            let seq = parse_u64(i, seq)?;
            if seq >= next_seq {
                return Err(err(
                    i,
                    format!("item seq {seq} is not below next_seq {next_seq}"),
                ));
            }
            if !seqs.insert(seq) {
                return Err(err(i, format!("duplicate item seq {seq}")));
            }
            let rng_seed = parse_u64(i, rng_seed)?;
            let key = match key {
                "-" => None,
                hex => Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|_| err(i, format!("bad item key `{hex}`")))?,
                ),
            };
            let (si, stack_line) = match lines.next() {
                Some(l) => l,
                None => return Err(err(i, "truncated item: missing `stack`".to_string())),
            };
            let chars = stack_line
                .strip_prefix("stack ")
                .ok_or_else(|| err(si, format!("expected `stack`, got `{stack_line}`")))?;
            let mut stack = Vec::new();
            if chars != "-" {
                for c in chars.chars() {
                    let (branch, done) = match c {
                        '0' => (false, false),
                        '1' => (true, false),
                        '2' => (false, true),
                        '3' => (true, true),
                        other => return Err(err(si, format!("bad stack char `{other}`"))),
                    };
                    stack.push(BranchRecord { branch, done });
                }
            }
            let mut slots = Vec::new();
            loop {
                let (li, line) = match lines.next() {
                    Some(l) => l,
                    None => return Err(err(si, "truncated item: missing `end`".to_string())),
                };
                if line == "end" {
                    break;
                }
                let rest = line
                    .strip_prefix("slot ")
                    .ok_or_else(|| err(li, format!("expected `slot` or `end`, got `{line}`")))?;
                let mut parts = rest.splitn(3, ' ');
                let kind = match parts.next() {
                    Some("int") => InputKind::IntLike,
                    Some("ptr") => InputKind::Pointer,
                    other => return Err(err(li, format!("bad slot kind `{other:?}`"))),
                };
                let value: i64 = parts
                    .next()
                    .ok_or_else(|| err(li, "slot missing value".to_string()))?
                    .parse()
                    .map_err(|_| err(li, "slot value is not an integer".to_string()))?;
                let name = parts.next().unwrap_or("").to_string();
                slots.push(InputSlot { kind, value, name });
            }
            items.push(CheckpointItem {
                slots,
                stack,
                bound,
                score,
                rng_seed,
                key,
                seq,
            });
        }
        if !terminated {
            return Err(CheckpointParseError {
                line: text.lines().count() + 1,
                message: "truncated checkpoint: missing `done` terminator".to_string(),
            });
        }
        Ok(Checkpoint {
            seed,
            restarts,
            runs,
            steps,
            divergences,
            session_complete,
            coverage,
            dedup_hits,
            evicted,
            peak,
            next_seq,
            seen,
            pool,
            items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_solver::{LinExpr, RelOp, Var};

    fn item_tape(seed: u64) -> InputTape {
        InputTape::new(seed)
    }

    fn rec(branch: bool) -> BranchRecord {
        BranchRecord {
            branch,
            done: false,
        }
    }

    #[test]
    fn scored_pops_highest_score_then_oldest() {
        let mut f = Frontier::new(None, true);
        assert!(f.note_candidate(1) && f.note_candidate(2) && f.note_candidate(3));
        f.push_child(item_tape(0), vec![rec(true)], 1, 5, 0, 1);
        f.push_child(item_tape(0), vec![rec(false)], 1, 9, 0, 2);
        f.push_child(item_tape(0), vec![rec(true), rec(true)], 2, 9, 0, 3);
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| f.pop())
            .map(|it| (it.score, it.seq))
            .collect();
        assert_eq!(order, vec![(9, 1), (9, 2), (5, 0)], "score desc, seq asc");
    }

    #[test]
    fn dedup_counts_hits_and_suppresses_reuse() {
        let mut f = Frontier::new(None, true);
        assert!(f.note_candidate(0xAB));
        assert!(!f.note_candidate(0xAB), "second derivation suppressed");
        assert!(!f.note_candidate(0xAB));
        assert_eq!(f.dedup_hits, 2);
        // Dedup off: nothing tracked, nothing counted.
        let mut off = Frontier::new(None, false);
        assert!(off.note_candidate(0xAB));
        assert!(off.note_candidate(0xAB));
        assert_eq!(off.dedup_hits, 0);
    }

    #[test]
    fn budget_evicts_lowest_score_newest_and_unsees_it() {
        let mut f = Frontier::new(Some(2), true);
        assert!(f.note_candidate(1) && f.note_candidate(2) && f.note_candidate(3));
        assert!(!f.push_child(item_tape(0), vec![rec(true)], 1, 5, 0, 1));
        assert!(!f.push_child(item_tape(0), vec![rec(true)], 1, 3, 0, 2));
        // Third push overflows: the lowest-score item (key 2) is evicted
        // and its fingerprint released for future re-derivation.
        assert!(f.push_child(item_tape(0), vec![rec(true)], 1, 7, 0, 3));
        assert_eq!(f.evicted, 1);
        assert_eq!(f.peak, 3, "peak counts the pre-eviction high-water");
        assert!(
            f.note_candidate(2),
            "evicted fingerprint must be derivable again"
        );
        assert!(!f.note_candidate(3), "queued fingerprint stays seen");
        let scores: Vec<u64> = std::iter::from_fn(|| f.pop()).map(|it| it.score).collect();
        assert_eq!(scores, vec![7, 5]);
    }

    #[test]
    fn forget_candidate_releases_unknown_fingerprints() {
        let mut f = Frontier::new(None, true);
        assert!(f.note_candidate(42));
        f.forget_candidate(42);
        assert!(f.note_candidate(42), "forgotten keys are derivable again");
        assert_eq!(f.dedup_hits, 0);
        assert!(!f.note_candidate(42));
        assert_eq!(f.dedup_hits, 1);
    }

    #[test]
    fn child_key_distinguishes_prefix_and_depth() {
        let c = |k: i64, op: RelOp| Constraint::new(LinExpr::var(Var(0)).offset(-k), op);
        let a = vec![c(1, RelOp::Ne), c(2, RelOp::Ne), c(3, RelOp::Ne)];
        let b = vec![c(1, RelOp::Ne), c(9, RelOp::Ne), c(3, RelOp::Ne)];
        assert_ne!(child_key(&a, 0), child_key(&a, 1));
        assert_ne!(child_key(&a, 1), child_key(&a, 2));
        assert_ne!(child_key(&a, 2), child_key(&b, 2), "prefix differs");
        assert_eq!(child_key(&a, 0), child_key(&b, 0), "shared prefix + flip");
        // Negating the deepest is not the same as asserting it.
        let taken = vec![c(1, RelOp::Ne), c(1, RelOp::Eq)];
        assert_ne!(child_key(&a, 1), child_key(&taken, 1));
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn checkpoint_roundtrips() {
        let cp = Checkpoint {
            seed: 42,
            restarts: 3,
            runs: 17,
            steps: 900,
            divergences: 1,
            session_complete: false,
            coverage: vec![(0, false), (0, true), (4, true)],
            dedup_hits: 5,
            evicted: 2,
            peak: 9,
            next_seq: 21,
            seen: vec![1, 0xdead_beef, u64::MAX],
            pool: vec![
                Assignment::from([(Var(0), -5), (Var(3), i64::MAX)]),
                Assignment::new(),
                Assignment::from([(Var(u32::MAX), i64::MIN)]),
            ],
            items: vec![
                CheckpointItem {
                    slots: vec![
                        InputSlot {
                            kind: InputKind::IntLike,
                            value: -77,
                            name: "arg 0 of f (iter 1)".into(),
                        },
                        InputSlot {
                            kind: InputKind::Pointer,
                            value: 1,
                            name: "p".into(),
                        },
                    ],
                    stack: vec![
                        BranchRecord {
                            branch: true,
                            done: false,
                        },
                        BranchRecord {
                            branch: false,
                            done: true,
                        },
                    ],
                    bound: 2,
                    score: 4,
                    rng_seed: 0x1234,
                    key: Some(0xfeed),
                    seq: 11,
                },
                CheckpointItem {
                    slots: vec![],
                    stack: vec![],
                    bound: 0,
                    score: 0,
                    rng_seed: 99,
                    key: None,
                    seq: 12,
                },
            ],
        };
        let text = cp.render();
        assert_eq!(Checkpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn checkpoint_parse_rejects_garbage() {
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("not a checkpoint").is_err());
        let good = Checkpoint {
            seed: 1,
            restarts: 1,
            runs: 0,
            steps: 0,
            divergences: 0,
            session_complete: true,
            coverage: vec![],
            dedup_hits: 0,
            evicted: 0,
            peak: 1,
            next_seq: 1,
            seen: vec![],
            pool: vec![Assignment::from([(Var(0), 7), (Var(2), -1)])],
            items: vec![CheckpointItem {
                slots: vec![],
                stack: vec![],
                bound: 0,
                score: 0,
                rng_seed: 5,
                key: None,
                seq: 0,
            }],
        }
        .render();
        // Truncation anywhere must be an error, not a partial resume.
        for cut in 1..good.lines().count() {
            let truncated: String = good.lines().take(cut).map(|l| format!("{l}\n")).collect();
            assert!(
                Checkpoint::parse(&truncated).is_err(),
                "truncated at line {cut} must not parse"
            );
        }
        assert!(Checkpoint::parse(&good.replace("seed 1", "seed x")).is_err());
        assert!(Checkpoint::parse(&good.replace("stack -", "stack 9")).is_err());
    }

    /// A checkpoint from before the model pool was saved would resume
    /// with an empty pool, and so answer differently from the session
    /// that wrote it: its `v1` header is rejected. So is every `pool`
    /// line that no session writes.
    #[test]
    fn checkpoint_parse_rejects_v1_and_bad_pools() {
        let cp = |pool| Checkpoint {
            seed: 1,
            restarts: 0,
            runs: 0,
            steps: 0,
            divergences: 0,
            session_complete: true,
            coverage: vec![],
            dedup_hits: 0,
            evicted: 0,
            peak: 0,
            next_seq: 0,
            seen: vec![],
            pool,
            items: vec![],
        };
        let good = cp(vec![Assignment::from([(Var(0), 7), (Var(2), -1)])]).render();
        assert!(good.contains("\npool 0:7,2:-1\n"), "{good}");
        assert!(Checkpoint::parse(&good).is_ok());
        let v1 = good
            .replace("checkpoint v2", "checkpoint v1")
            .replace("pool 0:7,2:-1\n", "");
        let err = Checkpoint::parse(&v1).unwrap_err();
        assert!(err.message.contains("bad header"), "{err}");
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
            assert!(Checkpoint::parse(&text).is_err(), "`{bad}` parsed");
        }
        let repeated = Checkpoint::parse(&good.replace("0:7,2:-1", "2:7,2:-1")).unwrap_err();
        assert!(repeated.message.contains("repeated"), "{repeated}");
        let full = cp(vec![Assignment::from([(Var(1), 1)]); MODEL_POOL]).render();
        assert_eq!(Checkpoint::parse(&full).unwrap().pool.len(), MODEL_POOL);
        let over = Checkpoint::parse(&full.replace("pool ", "pool - ")).unwrap_err();
        assert!(over.message.contains("pooled models"), "{over}");
    }

    /// Two items with one `seq`, or an item at or past `next_seq`, would
    /// collide in the restored queue (or with the next pushed child), and
    /// the lost item's subtree would never run.
    #[test]
    fn checkpoint_parse_rejects_duplicate_and_future_seqs() {
        let item = |seq| CheckpointItem {
            slots: vec![],
            stack: vec![],
            bound: 0,
            score: 0,
            rng_seed: seq,
            key: None,
            seq,
        };
        let cp = |next_seq, items| Checkpoint {
            seed: 1,
            restarts: 1,
            runs: 0,
            steps: 0,
            divergences: 0,
            session_complete: true,
            coverage: vec![],
            dedup_hits: 0,
            evicted: 0,
            peak: 2,
            next_seq,
            seen: vec![],
            pool: vec![],
            items,
        };
        let parse = |c: Checkpoint| Checkpoint::parse(&c.render());
        assert!(parse(cp(2, vec![item(0), item(1)])).is_ok());
        let dup = parse(cp(2, vec![item(0), item(0)])).unwrap_err();
        assert!(dup.message.contains("duplicate item seq 0"), "{dup}");
        let future = parse(cp(0, vec![item(0)])).unwrap_err();
        assert!(future.message.contains("not below next_seq"), "{future}");
        assert!(parse(cp(1, vec![item(0), item(1)])).is_err());
    }

    /// A resume replays one RNG draw per checkpointed restart, and no
    /// session writes more restarts than `runs + 1`; a larger count is
    /// corrupt, and a huge one would spin the resume.
    #[test]
    fn checkpoint_parse_bounds_restarts_by_runs() {
        let cp = |restarts, runs| Checkpoint {
            seed: 1,
            restarts,
            runs,
            steps: 0,
            divergences: 0,
            session_complete: true,
            coverage: vec![],
            dedup_hits: 0,
            evicted: 0,
            peak: 0,
            next_seq: 0,
            seen: vec![],
            pool: vec![],
            items: vec![],
        };
        let parse = |c: Checkpoint| Checkpoint::parse(&c.render());
        assert!(parse(cp(2, 1)).is_ok());
        let over = parse(cp(5, 1)).unwrap_err();
        assert!(over.message.contains("exceeds `runs`"), "{over}");
        assert!(parse(cp(u64::MAX, u64::MAX)).is_ok());
        assert!(parse(cp(u64::MAX, u64::MAX - 2)).is_err());
    }

    /// A valid random checkpoint: unique item sequence numbers below
    /// `next_seq`, slot names from a newline-free alphabet, and a model
    /// pool that is empty, small, or full to [`MODEL_POOL`].
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
                let item = CheckpointItem {
                    slots,
                    stack,
                    bound,
                    score,
                    rng_seed,
                    key,
                    seq: 0,
                };
                (item, gap)
            });
        let header = (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), 0u64..3),
        );
        let model = || {
            vec((any::<u32>(), any::<i64>()), 0..4).prop_map(|pairs| {
                pairs
                    .into_iter()
                    .map(|(var, value)| (Var(var), value))
                    .collect::<Assignment>()
            })
        };
        let pool = prop_oneof![vec(model(), 0..4), vec(model(), MODEL_POOL)];
        (
            header,
            vec((0usize..50, any::<bool>()), 0..6),
            vec(any::<u64>(), 0..5),
            pool,
            vec(item, 0..4),
        )
            .prop_map(|(header, coverage, mut seen, pool, items)| {
                let ((seed, restarts, runs, steps), (divergences, complete, dedup_hits, evicted)) =
                    (header.0, header.1);
                // `parse` accepts at most `runs + 1` restarts.
                let restarts = match runs.checked_add(2) {
                    Some(bound) => restarts % bound,
                    None => restarts,
                };
                let (peak, slack) = header.2;
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
                    seed,
                    restarts,
                    runs,
                    steps,
                    divergences,
                    session_complete: complete,
                    coverage,
                    dedup_hits,
                    evicted,
                    peak,
                    next_seq: next_seq + slack,
                    seen,
                    pool,
                    items,
                }
            })
    }

    /// What `parse` guarantees about an accepted checkpoint: unique item
    /// sequence numbers below `next_seq`, so a restore keeps every item
    /// and the next pushed child collides with none of them, and a model
    /// pool that a query cache restores whole.
    fn assert_restorable(cp: &Checkpoint) {
        assert!(
            cp.restarts <= cp.runs.saturating_add(1),
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
        assert_eq!(f.items.len(), cp.items.len(), "restore dropped items");
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
            let parse_bytes = |bytes: &[u8]| Checkpoint::parse(&String::from_utf8_lossy(bytes));
            let text = cp.render();
            let parsed = Checkpoint::parse(&text);
            proptest::prop_assert_eq!(parsed.as_ref(), Ok(&cp));
            assert_restorable(&cp);
            let mut headed = format!("{CHECKPOINT_HEADER}\n").into_bytes();
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
            proptest::prop_assert_eq!(parse_bytes(&bytes[..last]), Ok(cp.clone()));
            for (pos, byte) in &edits {
                let mut mutated = bytes.to_vec();
                mutated[pos % bytes.len()] = *byte;
                if let Ok(got) = parse_bytes(&mutated) {
                    assert_restorable(&got);
                }
            }
        }
    }

    #[test]
    fn frontier_restore_matches_snapshot() {
        let mut f = Frontier::new(Some(8), true);
        f.push_root(item_tape(77), 77);
        assert!(f.note_candidate(10));
        let mut tape = item_tape(5);
        tape.apply_model(&std::collections::BTreeMap::from([(Var(0), 123)]));
        f.push_child(tape, vec![rec(true)], 1, 3, 5, 10);
        let popped = f.pop().expect("root pops first? no — scored: child");
        // Snapshot the remaining state, restore into a fresh frontier.
        let pool = vec![Assignment::from([(Var(0), 123)])];
        let cp = f.to_checkpoint(9, 1, 4, 100, 0, true, vec![(2, true)], pool.clone());
        assert_eq!(cp.pool, pool);
        let mut g = Frontier::new(Some(8), true);
        g.restore(&cp);
        assert_eq!(g.items.len(), f.items.len());
        assert_eq!(g.next_seq(), f.next_seq());
        assert!(!g.note_candidate(10), "seen-set survives the roundtrip");
        let (a, b) = (f.pop().unwrap(), g.pop().unwrap());
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.bound, b.bound);
        assert_eq!(a.tape.snapshot(), b.tape.snapshot());
        let _ = popped;
    }
}
