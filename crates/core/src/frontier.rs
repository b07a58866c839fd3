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
//! * **Checkpoint/resume** ([`crate::DartConfig::checkpoint`]): the
//!   queue and the seen set are written, with the rest of the session,
//!   to the checkpoint file after every expanded item, and
//!   `Frontier::restore` rebuilds them, so a killed session resumes
//!   exactly where its last completed work item left off.

use crate::checkpoint::Checkpoint;
use crate::report::SessionReport;
use crate::tape::InputTape;
use dart_solver::Constraint;
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

    /// The queued items, lowest score first, newest first among equals.
    pub(crate) fn items(&self) -> impl Iterator<Item = &FrontierItem> {
        self.items.values()
    }

    /// The fingerprints of every child derived and not since evicted.
    pub(crate) fn seen(&self) -> &BTreeSet<u64> {
        &self.seen
    }

    /// Copies the frontier's counters into `report`.
    pub(crate) fn count_into(&self, report: &mut SessionReport) {
        report.dedup_hits = self.dedup_hits;
        report.frontier_evicted = self.evicted;
        report.frontier_peak = self.peak;
    }

    /// Rebuilds this frontier from a checkpoint: its items, its seen set,
    /// its sequence cursor and, from the checkpoint's report, its
    /// counters. Each queued tape was parsed from its slots with its
    /// recorded, still unconsumed, RNG seed.
    pub(crate) fn restore(&mut self, cp: &Checkpoint) {
        let items = cp.items.iter().cloned();
        self.items = items.map(|it| ((it.score, Reverse(it.seq)), it)).collect();
        self.seen = cp.seen.iter().copied().collect();
        self.next_seq = cp.next_seq;
        self.dedup_hits = cp.report.dedup_hits;
        self.evicted = cp.report.frontier_evicted;
        self.peak = cp.report.frontier_peak;
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
///
/// This one-pass form is the definition; the engine computes the same
/// keys incrementally with [`ChildKeys`], and tests hold it to this.
#[cfg(test)]
pub(crate) fn child_key(constraints: &[Constraint], j: usize) -> u64 {
    use fmt::Write;
    let mut h = Fnv::default();
    for c in &constraints[..j] {
        let _ = write!(h, "{c};");
    }
    let _ = write!(h, "!{}", constraints[j].negated());
    h.0
}

/// FNV-1a as a [`fmt::Write`] sink, so constraints hash as they render.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a of `args` as they render.
pub(crate) fn fnv(args: fmt::Arguments<'_>) -> u64 {
    let mut h = Fnv::default();
    let _ = fmt::Write::write_fmt(&mut h, args);
    h.0
}

/// [`child_key`] for one expansion after another, rendering each prefix
/// constraint once: the FNV state after each rendered constraint is kept
/// across expansions and cut back, by [`ChildKeys::keep`], to the prefix
/// the next path shares with the previous one. The keys are `child_key`'s,
/// so checkpoints' `seen` sets and item keys do not change.
#[derive(Debug)]
pub(crate) struct ChildKeys {
    /// `states[k]` is the state after rendering the first `k` constraints
    /// of the current path; `states[0]` is FNV's initial state.
    states: Vec<Fnv>,
}

impl Default for ChildKeys {
    fn default() -> ChildKeys {
        ChildKeys {
            states: vec![Fnv::default()],
        }
    }
}

impl ChildKeys {
    /// Moves on to a path whose first `shared` constraints equal the
    /// previous path's: the states past them are dropped.
    pub(crate) fn keep(&mut self, shared: usize) {
        self.states.truncate(shared + 1);
    }

    /// `child_key(path, j)`, for the `path` of the last
    /// [`ChildKeys::keep`].
    pub(crate) fn key(&mut self, path: &[Constraint], j: usize) -> u64 {
        use fmt::Write;
        while self.states.len() <= j {
            let k = self.states.len() - 1;
            let mut h = self.states[k];
            let _ = write!(h, "{};", path[k]);
            self.states.push(h);
        }
        let mut h = self.states[j];
        let _ = write!(h, "!{}", path[j].negated());
        h.0
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Child keys kept across paths equal `child_key` rendered from
        /// scratch, for every `j`, over a sequence of paths that keep a
        /// prefix of the previous one, sometimes change a constraint
        /// inside it, and append a new suffix.
        #[test]
        fn rebased_child_keys_match_child_key(
            first in proptest::collection::vec((0u32..3, -3i64..=3, 0usize..6), 1..8),
            steps in proptest::collection::vec(
                (
                    0usize..9,
                    proptest::option::of((0usize..9, (0u32..3, -3i64..=3, 0usize..6))),
                    proptest::collection::vec((0u32..3, -3i64..=3, 0usize..6), 0..5),
                ),
                1..6,
            ),
        ) {
            const OPS: [RelOp; 6] = [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge];
            let c = |(x, k, op): (u32, i64, usize)| {
                Constraint::new(LinExpr::var(Var(x)).offset(k), OPS[op])
            };
            let mut paths = vec![first.into_iter().map(c).collect::<Vec<_>>()];
            for (keep, change, suffix) in steps {
                let mut path = paths[paths.len() - 1].clone();
                path.truncate(keep);
                if let Some((at, new)) = change {
                    if at < path.len() {
                        path[at] = c(new);
                    }
                }
                path.extend(suffix.into_iter().map(c));
                paths.push(path);
            }
            let mut keys = ChildKeys::default();
            let mut previous: &[Constraint] = &[];
            for path in paths.iter().filter(|p| !p.is_empty()) {
                let shared = previous.iter().zip(path).take_while(|(a, b)| a == b).count();
                keys.keep(shared);
                previous = path;
                // Deepest first, then the rest, as an expansion asks with
                // a bound, and again to hit the rendered states.
                let order = (0..path.len()).rev().chain(0..path.len());
                for j in order {
                    proptest::prop_assert_eq!(keys.key(path, j), child_key(path, j), "j={}", j);
                }
            }
        }
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }
}
