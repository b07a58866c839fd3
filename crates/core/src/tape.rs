//! The input vector `IM` — a replayable tape of input values.
//!
//! The paper's driver keeps "a record … kept in a file between executions"
//! mapping each input to its value (Fig. 2/3: `IM`). Inputs are *consumed in
//! chronological order* during a run: extern variables at run start, the
//! toplevel arguments of each depth iteration, pointer targets discovered by
//! `random_init`, and external-function return values as calls happen. The
//! `k`-th consumed input always corresponds to solver variable `Var(k)`, so
//! a solved model updates the tape in place (`IM + IM'`: untouched slots
//! keep their previous values).

use dart_solver::{Assignment, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// What kind of value a tape slot holds — drives replay interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// A 32-bit integer-like scalar (`int`, `char`).
    IntLike,
    /// A pointer: nonzero means "allocate a fresh object", zero means NULL.
    /// The paper's `random_init` flips a fair coin (Fig. 8).
    Pointer,
}

/// One recorded input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSlot {
    /// Interpretation of the value.
    pub kind: InputKind,
    /// The recorded value. For pointers this is the previous run's concrete
    /// block address (or 0), or a solver-chosen integer whose only meaning
    /// is zero/nonzero.
    pub value: i64,
    /// Human-readable origin, e.g. `arg 0 of ac_controller (iter 1)`.
    pub name: String,
}

/// The replayable input vector.
///
/// Cloning is cheap and used by the generational search to branch the
/// exploration frontier: each child gets its own copy of `IM` to mutate.
#[derive(Debug, Clone)]
pub struct InputTape {
    slots: Vec<InputSlot>,
    next: usize,
    rng: SmallRng,
}

impl InputTape {
    /// A fresh, empty tape; fresh values drawn from `seed`.
    pub fn new(seed: u64) -> InputTape {
        InputTape {
            slots: Vec::new(),
            next: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Builds a tape whose first slots are pre-recorded (a replay file or
    /// a bug's input vector); inputs consumed beyond them draw fresh
    /// randomness from `seed`.
    pub fn from_slots(slots: Vec<InputSlot>, seed: u64) -> InputTape {
        InputTape {
            slots,
            next: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Rewinds the consumption cursor for the next run (keeping values).
    pub fn rewind(&mut self) {
        self.next = 0;
    }

    /// Moves the consumption cursor to slot `cursor`, as if a run had
    /// consumed the slots before it: a run resumed after a prefix that
    /// consumed them reads on from there.
    pub(crate) fn seek(&mut self, cursor: usize) {
        self.next = cursor;
    }

    /// Discards all recorded values (fresh random restart).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.next = 0;
    }

    /// Consumes the next input: replays the recorded value if one exists,
    /// otherwise draws a fresh random value of `kind`. Returns the solver
    /// variable index and the value.
    pub fn take(&mut self, kind: InputKind, name: impl FnOnce() -> String) -> (Var, i64) {
        let idx = self.next;
        self.next += 1;
        if idx < self.slots.len() {
            // Replay. Kind may differ after a path divergence; reinterpret.
            let slot = &mut self.slots[idx];
            slot.kind = kind;
            return (Var(idx as u32), slot.value);
        }
        let value = match kind {
            // The paper draws random 32-bit words (§2.1's 269167349).
            InputKind::IntLike => self.rng.gen_range(i32::MIN as i64..=i32::MAX as i64),
            // Fig. 8: "if (fair coin toss == head) *m = NULL else malloc…".
            InputKind::Pointer => i64::from(self.rng.gen::<bool>()),
        };
        self.slots.push(InputSlot {
            kind,
            value,
            name: name(),
        });
        (Var(idx as u32), value)
    }

    /// Overwrites the value at an already-materialized slot. Used for
    /// pointers: the recorded value becomes the run's concrete address so
    /// solver hints see what the program saw.
    pub fn record_value(&mut self, var: Var, value: i64) {
        self.slots[var.index()].value = value;
    }

    /// Applies a solved model (`IM + IM'`): mentioned slots take the model's
    /// values, everything else is preserved.
    pub fn apply_model(&mut self, model: &Assignment) {
        for (&var, &value) in model {
            if var.index() < self.slots.len() {
                self.slots[var.index()].value = value;
            }
        }
    }

    /// Current value of a slot (solver hint), if materialized.
    pub fn value_of(&self, var: Var) -> Option<i64> {
        self.slots.get(var.index()).map(|s| s.value)
    }

    /// Number of materialized slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no inputs have been materialized.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of inputs consumed by the current run.
    pub fn consumed(&self) -> usize {
        self.next
    }

    /// A snapshot of the slots — the reproduction vector reported with bugs.
    pub fn snapshot(&self) -> Vec<InputSlot> {
        self.slots.clone()
    }
}

impl fmt::Display for InputTape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "input vector ({} slots):", self.slots.len())?;
        for (i, s) in self.slots.iter().enumerate() {
            writeln!(f, "  x{i} = {} ({:?}, {})", s.value, s.kind, s.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn fresh_values_are_recorded_and_replayed() {
        let mut t = InputTape::new(7);
        let (v0, a) = t.take(InputKind::IntLike, || "a".into());
        let (v1, b) = t.take(InputKind::IntLike, || "b".into());
        assert_eq!(v0, Var(0));
        assert_eq!(v1, Var(1));
        t.rewind();
        let (_, a2) = t.take(InputKind::IntLike, || "a".into());
        let (_, b2) = t.take(InputKind::IntLike, || "b".into());
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn seek_replays_from_the_cursor() {
        let mut t = InputTape::new(7);
        let values: Vec<i64> = (0..3)
            .map(|i| t.take(InputKind::IntLike, || format!("{i}")).1)
            .collect();
        t.seek(1);
        assert_eq!(t.consumed(), 1);
        let (var, value) = t.take(InputKind::IntLike, || "b".into());
        assert_eq!((var, value), (Var(1), values[1]));
    }

    #[test]
    fn model_application_preserves_untouched() {
        let mut t = InputTape::new(7);
        let (_, _a) = t.take(InputKind::IntLike, || "a".into());
        let (_, b) = t.take(InputKind::IntLike, || "b".into());
        let mut m: Assignment = BTreeMap::new();
        m.insert(Var(0), 10);
        t.apply_model(&m);
        assert_eq!(t.value_of(Var(0)), Some(10));
        assert_eq!(t.value_of(Var(1)), Some(b));
    }

    #[test]
    fn model_mentions_beyond_tape_ignored() {
        let mut t = InputTape::new(7);
        let _ = t.take(InputKind::IntLike, || "a".into());
        let mut m: Assignment = BTreeMap::new();
        m.insert(Var(9), 1);
        t.apply_model(&m); // must not panic
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pointer_inputs_flip_coins() {
        let mut t = InputTape::new(12345);
        let mut seen = [false, false];
        for i in 0..64 {
            let (_, v) = t.take(InputKind::Pointer, || format!("p{i}"));
            assert!(v == 0 || v == 1);
            seen[v as usize] = true;
        }
        assert!(seen[0] && seen[1], "both outcomes should occur in 64 flips");
    }

    #[test]
    fn record_value_updates_slot() {
        let mut t = InputTape::new(7);
        let (v, _) = t.take(InputKind::Pointer, || "p".into());
        t.record_value(v, 0xABCD);
        assert_eq!(t.value_of(v), Some(0xABCD));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut t = InputTape::new(7);
        let (_, first) = t.take(InputKind::IntLike, || "a".into());
        t.clear();
        assert!(t.is_empty());
        let (_, second) = t.take(InputKind::IntLike, || "a".into());
        // Same RNG stream continues, so the value differs in general; the
        // point is that the slot was re-materialized fresh.
        assert_eq!(t.len(), 1);
        let _ = (first, second);
    }

    #[test]
    fn determinism_with_same_seed() {
        let mut t1 = InputTape::new(42);
        let mut t2 = InputTape::new(42);
        for i in 0..16 {
            let a = t1.take(InputKind::IntLike, || format!("{i}")).1;
            let b = t2.take(InputKind::IntLike, || format!("{i}")).1;
            assert_eq!(a, b);
        }
    }
}
