//! The symbolic memory `S` and input registration.
//!
//! The paper (§2.3): "DART maintains a symbolic memory S that maps memory
//! addresses to expressions. Initially, S is a mapping that maps each m in
//! M0 to itself." Here "itself" is a fresh solver variable per input
//! address; all other entries are linear forms produced by assignments.
//!
//! Only non-constant forms are stored: a constant form is always equal to
//! the concrete memory's value, so dropping it loses nothing (and keeps `S`
//! small). Machine addresses are never reused within a run (the allocator
//! is monotonic), so stale entries cannot alias fresh blocks.

use dart_ram::{BuildAddrHasher, SymView, GLOBAL_BASE, STACK_BASE};
use dart_solver::{LinExpr, Var};
use std::collections::HashMap;

/// Slots per dense region: an address less than this far above
/// [`GLOBAL_BASE`] or [`STACK_BASE`] indexes a vector, anything further
/// goes to the map. The cap bounds each vector at 2 MiB whatever address
/// the public API is handed.
const DENSE_SLOTS: u64 = 1 << 16;

/// The symbolic store: machine address → linear form over inputs.
///
/// Forms are kept beside the machine's own cells, region by region: one
/// vector of slots for the globals (index `addr - GLOBAL_BASE`) and one
/// for the stack (index `addr - STACK_BASE`), each grown only when a form
/// is stored past its end, and a map with the machine's multiplicative
/// address hasher for the heap and every address outside those ranges.
/// A lookup on the globals or the stack is then an array index.
///
/// A 64-bit address bloom (`summary`) is the compiled tier's view of the
/// whole store: bit `addr mod 64` is set for every address ever inserted,
/// so a block whose footprint shares no bit with it touches nothing
/// tracked. It is a may-analysis (no false negatives; stale bits after
/// removals are harmless) and resets whenever the store drains; map
/// lookups also consult it before hashing.
#[derive(Debug, Clone, Default)]
pub struct SymMemory {
    /// The globals' slots, then the stack's.
    dense: [Vec<Option<LinExpr>>; 2],
    /// Forms at every other address.
    other: HashMap<i64, LinExpr, BuildAddrHasher>,
    /// Number of tracked addresses.
    len: usize,
    summary: u64,
    next_input: u32,
}

fn summary_bit(addr: i64) -> u64 {
    1u64 << (addr as u64 & 63)
}

/// The dense vector and slot that hold `addr`, or `None` for the map.
#[inline]
fn dense_slot(addr: i64) -> Option<(usize, usize)> {
    let global = addr.wrapping_sub(GLOBAL_BASE) as u64;
    if global < DENSE_SLOTS {
        return Some((0, global as usize));
    }
    let stack = addr.wrapping_sub(STACK_BASE) as u64;
    (stack < DENSE_SLOTS).then_some((1, stack as usize))
}

impl SymMemory {
    /// Creates an empty symbolic memory with no inputs.
    pub fn new() -> SymMemory {
        SymMemory::default()
    }

    /// Registers the cell at `addr` as a fresh program input and maps it to
    /// itself (a fresh solver variable). Returns the variable.
    pub fn bind_input(&mut self, addr: i64) -> Var {
        let v = Var(self.next_input);
        self.next_input += 1;
        self.insert(addr, LinExpr::var(v));
        v
    }

    /// Number of inputs registered so far.
    pub fn num_inputs(&self) -> u32 {
        self.next_input
    }

    /// Maps the cell at `addr` to an externally-numbered input variable.
    /// Used by drivers that own the input numbering (e.g. DART's input
    /// tape, where variable `k` is the `k`-th consumed input).
    pub fn bind(&mut self, addr: i64, var: Var) {
        self.insert(addr, LinExpr::var(var));
    }

    /// The symbolic value stored at `addr`, if any non-constant form is
    /// tracked there.
    #[inline]
    pub fn get(&self, addr: i64) -> Option<&LinExpr> {
        match dense_slot(addr) {
            Some((region, i)) => self.dense[region].get(i)?.as_ref(),
            None if self.summary & summary_bit(addr) == 0 => None,
            None => self.other.get(&addr),
        }
    }

    /// Whether `addr` is tracked — `get(addr).is_some()`. This is the
    /// compiled tier's per-load taint probe.
    #[inline]
    pub fn tracks(&self, addr: i64) -> bool {
        self.get(addr).is_some()
    }

    /// Stores a symbolic value at `addr`. Constant forms erase the entry
    /// (the concrete memory already has the value).
    pub fn set(&mut self, addr: i64, value: LinExpr) {
        if value.is_constant() {
            self.forget(addr);
        } else {
            self.insert(addr, value);
        }
    }

    /// Stores the non-constant `form` at `addr`.
    fn insert(&mut self, addr: i64, form: LinExpr) {
        self.summary |= summary_bit(addr);
        let old = match dense_slot(addr) {
            Some((region, i)) => {
                let slots = &mut self.dense[region];
                if i >= slots.len() {
                    slots.resize_with(i + 1, || None);
                }
                slots[i].replace(form)
            }
            None => self.other.insert(addr, form),
        };
        if old.is_none() {
            self.len += 1;
        }
    }

    /// Drops any symbolic tracking for `addr` (used when a cell receives a
    /// value the symbolic layer cannot represent, e.g. a fresh pointer).
    pub fn forget(&mut self, addr: i64) {
        let old = match dense_slot(addr) {
            Some((region, i)) => self.dense[region].get_mut(i).and_then(Option::take),
            None if self.summary & summary_bit(addr) == 0 => None,
            None => self.other.remove(&addr),
        };
        if old.is_some() {
            self.len -= 1;
            if self.len == 0 {
                self.summary = 0;
            }
        }
    }

    /// Number of addresses currently tracked symbolically.
    pub fn tracked(&self) -> usize {
        self.len
    }
}

/// The compiled tier's taint view of `S`: the per-load probe delegates to
/// [`SymMemory::tracks`], the whole-block footprint pass to the address
/// bloom. The bulk check ([`SymView::tracks_footprint`]) is the trait's
/// one-`AND` default — exposing `summary` here is what makes it work.
impl SymView for SymMemory {
    #[inline]
    fn tracks(&self, addr: i64) -> bool {
        SymMemory::tracks(self, addr)
    }

    #[inline]
    fn summary(&self) -> u64 {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_get_fresh_variables() {
        let mut s = SymMemory::new();
        let a = s.bind_input(100);
        let b = s.bind_input(200);
        assert_ne!(a, b);
        assert_eq!(s.num_inputs(), 2);
        assert_eq!(s.get(100), Some(&LinExpr::var(a)));
        assert_eq!(s.get(200), Some(&LinExpr::var(b)));
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut s = SymMemory::new();
        let x = s.bind_input(100);
        let form = LinExpr::var(x).scaled(3).offset(1);
        s.set(500, form.clone());
        assert_eq!(s.get(500), Some(&form));
        assert_eq!(s.tracked(), 2);
    }

    #[test]
    fn constant_stores_erase() {
        let mut s = SymMemory::new();
        let x = s.bind_input(100);
        s.set(500, LinExpr::var(x));
        s.set(500, LinExpr::constant_expr(7));
        assert_eq!(s.get(500), None);
        assert_eq!(s.tracked(), 1);
    }

    #[test]
    fn tracks_matches_get_under_churn() {
        // Exercise the summary bloom across aliasing bits (addresses 64
        // apart share a bit), removals and the drain-reset path.
        let mut s = SymMemory::new();
        let x = s.bind_input(100);
        assert!(s.tracks(100));
        assert!(!s.tracks(164), "bit-aliased address is not a member");
        s.set(164, LinExpr::var(x).offset(2));
        assert!(s.tracks(164));
        s.forget(100);
        assert!(!s.tracks(100), "stale summary bit must not report members");
        assert!(s.tracks(164));
        s.set(164, LinExpr::constant_expr(9));
        assert!(!s.tracks(164));
        assert_eq!(s.tracked(), 0);
        // After draining, re-binding still works (summary was reset).
        s.bind(200, x);
        assert!(s.tracks(200) && s.get(200).is_some());
    }

    #[test]
    fn bulk_footprint_check_matches_per_address_probes() {
        let mut s = SymMemory::new();
        let x = s.bind_input(100);
        s.set(300, LinExpr::var(x).offset(1));
        let bloom_of = |addrs: &[i64]| addrs.iter().fold(0u64, |b, &a| b | 1u64 << (a as u64 & 63));
        // Clean miss: footprint {40, 41} shares no bloom bit with {100, 300}.
        assert!(!s.tracks_footprint(bloom_of(&[40, 41]), 0, &[40, 41], &[]));
        // Bloom collision (164 aliases 100 mod 64) but no member: still a
        // miss after the precise pass.
        assert!(!s.tracks_footprint(bloom_of(&[164]), 0, &[], &[164]));
        // A tracked member is found whether it arrives as an absolute
        // address or as a frame-relative slot.
        assert!(s.tracks_footprint(bloom_of(&[100]), 0, &[], &[100]));
        assert!(s.tracks_footprint(bloom_of(&[300]), 280, &[20], &[]));
        // An empty store reports a clean miss for any footprint.
        let empty = SymMemory::new();
        assert!(!empty.tracks_footprint(u64::MAX, 0, &[0, 1, 2], &[100]));
    }

    /// Addresses far into a region, or outside every region, are kept in
    /// the map: no slot vector is sized by an address.
    #[test]
    fn extreme_addresses_allocate_no_slots() {
        let far = [
            GLOBAL_BASE + (1 << 31),
            STACK_BASE + (1 << 40),
            GLOBAL_BASE + DENSE_SLOTS as i64,
            STACK_BASE + DENSE_SLOTS as i64,
            GLOBAL_BASE - 1,
            STACK_BASE - 1,
            -1,
            i64::MIN,
            i64::MAX,
        ];
        let mut s = SymMemory::new();
        for (k, &addr) in far.iter().enumerate() {
            s.bind(addr, Var(k as u32));
        }
        assert!(s.dense.iter().all(|slots| slots.capacity() == 0));
        assert_eq!(s.tracked(), far.len());
        for (k, &addr) in far.iter().enumerate() {
            assert_eq!(s.get(addr), Some(&LinExpr::var(Var(k as u32))));
        }
        // The last slot below each cap is a vector slot.
        s.bind(GLOBAL_BASE + DENSE_SLOTS as i64 - 1, Var(0));
        s.bind(STACK_BASE + DENSE_SLOTS as i64 - 1, Var(1));
        assert!(s
            .dense
            .iter()
            .all(|slots| slots.len() == DENSE_SLOTS as usize));
        for &addr in &far {
            s.forget(addr);
        }
        assert_eq!(s.tracked(), 2);
        assert!(s.other.is_empty());
    }

    #[test]
    fn forget_drops_tracking() {
        let mut s = SymMemory::new();
        let x = s.bind_input(100);
        s.set(500, LinExpr::var(x));
        s.forget(500);
        assert_eq!(s.get(500), None);
        // Forgetting an input address also works (overwritten inputs).
        s.forget(100);
        assert_eq!(s.get(100), None);
    }
}
