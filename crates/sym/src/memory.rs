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

use dart_ram::{BuildAddrHasher, GLOBAL_BASE, STACK_BASE};
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
#[derive(Debug, Clone, Default)]
pub struct SymMemory {
    /// The globals' slots, then the stack's.
    dense: [Vec<Option<LinExpr>>; 2],
    /// Forms at every other address.
    other: HashMap<i64, LinExpr, BuildAddrHasher>,
    /// Number of tracked addresses.
    len: usize,
    next_input: u32,
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
            None => self.other.get(&addr),
        }
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
            None => self.other.remove(&addr),
        };
        if old.is_some() {
            self.len -= 1;
        }
    }

    /// Number of addresses currently tracked symbolically.
    pub fn tracked(&self) -> usize {
        self.len
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
