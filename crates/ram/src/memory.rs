//! The RAM machine's word-addressed memory with block-granular validity.
//!
//! The paper's machine (§2.2) maps addresses to words. We additionally track
//! which address ranges are *mapped* (globals, live stack frames, heap
//! blocks, stack `alloca` blocks) so that NULL dereferences, out-of-bounds
//! accesses and use-after-return become observable [`Fault`]s — these are
//! exactly the "crashes" the oSIP study (§4.3) counts.
//!
//! Design notes:
//! * **Word addressing.** Every scalar occupies one 64-bit word and `sizeof`
//!   counts words (see DESIGN.md). Address 0 is NULL and never mapped.
//! * **Regions.** Globals live at [`GLOBAL_BASE`], stack frames and `alloca`
//!   blocks grow from [`STACK_BASE`], heap blocks from [`HEAP_BASE`]. The
//!   gaps between regions are generous enough that blocks never collide.
//! * **Cells.** Globals and stack cells are dense vectors indexed from
//!   their region's base, heap cells a hash map; mapped-but-unwritten
//!   cells read as 0 (deterministic, like a zeroing allocator).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (fibonacci) hasher for word addresses. Cell lookups are
/// the machine's hottest operation — several per executed statement — and
/// SipHash's per-call cost dominates them; addresses are also not
/// attacker-controlled (the machine's allocator hands them out), so a
/// DoS-resistant hash buys nothing here. Sequential keys `k`, `k+1` land
/// `PHI` buckets apart, so loop-adjacent frame slots never cluster. The
/// symbolic store keys its heap entries the same way.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

/// Builds [`AddrHasher`]s for `HashMap`s keyed by word address.
pub type BuildAddrHasher = BuildHasherDefault<AddrHasher>;

const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(PHI);
        }
    }
    fn write_i64(&mut self, n: i64) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(PHI);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type AddrMap = HashMap<i64, i64, BuildAddrHasher>;

/// First global address.
pub const GLOBAL_BASE: i64 = 0x1000;
/// First stack address (frames and `alloca` blocks).
pub const STACK_BASE: i64 = 0x1_0000_0000;
/// First heap address.
pub const HEAP_BASE: i64 = 0x100_0000_0000;

/// A memory access or arithmetic fault — the RAM-machine analogue of a
/// crash (SIGSEGV / SIGFPE). DART reports these as bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Dereference of the NULL address (or an address inside the guard page
    /// right above it).
    NullDeref {
        /// The faulting address.
        addr: i64,
    },
    /// Access to an unmapped or freed address.
    OutOfBounds {
        /// The faulting address.
        addr: i64,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Too many nested calls (stack exhaustion via recursion).
    StackOverflow,
    /// Control transfer outside the program text.
    BadJump {
        /// The bad statement label.
        label: usize,
    },
    /// An episode entry call supplied more arguments than the callee's
    /// frame can hold (a harness-level bad call; in-program calls are
    /// rejected by [`crate::Program::validate`]).
    BadArity {
        /// Index of the callee function.
        func: u32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NullDeref { addr } => write!(f, "null dereference at address {addr}"),
            Fault::OutOfBounds { addr } => write!(f, "out-of-bounds access at address {addr}"),
            Fault::DivisionByZero => write!(f, "division by zero"),
            Fault::StackOverflow => write!(f, "call stack overflow"),
            Fault::BadJump { label } => write!(f, "jump to invalid label {label}"),
            Fault::BadArity { func } => {
                write!(f, "too many arguments in call to function #{func}")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// Where a mapped block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Program globals (always live).
    Global,
    /// A stack frame or `alloca` block.
    Stack,
    /// A heap (`malloc`) block.
    Heap,
}

#[derive(Debug, Clone)]
struct Block {
    len: i64,
    live: bool,
    region: Region,
}

/// The machine memory: sparse cells plus a block table for validity.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Global cells, dense: index `addr - GLOBAL_BASE`, sized at creation.
    global_cells: Vec<i64>,
    /// Stack-region cells (frames and `alloca` blocks), dense: index
    /// `addr - STACK_BASE`, grown on first store past the high-water mark.
    /// The stack allocator is monotone and bounded (budget × `max_steps`),
    /// so the vector's length tracks the region's high-water footprint —
    /// the same order as a sparse map's, with array-indexed access. Cell
    /// reads and writes are the machine's hottest operations.
    stack_cells: Vec<i64>,
    /// Heap cells stay sparse: heap addresses are unbounded above.
    heap_cells: AddrMap,
    blocks: BTreeMap<i64, Block>,
    /// One-entry cache of the last live block `check` resolved, as a
    /// `[start, end)` range (`(0, 0)` when empty). Loops hit the same
    /// frame block on almost every access, turning the per-access
    /// validity check into two compares. Invalidated whenever a block
    /// dies ([`Memory::pop_frame`]); allocation only adds blocks, so a
    /// cached live range can never go stale on that path.
    check_cache: Cell<(i64, i64)>,
    stack_top: i64,
    heap_top: i64,
    /// Remaining stack words available to `alloca` (models the bounded
    /// process stack of the paper's oSIP attack; `alloca` beyond this
    /// returns NULL instead of a block).
    stack_budget: i64,
    /// Cumulative words handed out by `alloc_heap`/`alloc_stack`/
    /// `push_frame` over this memory's lifetime. Never decremented: dead
    /// blocks keep their entries in the block table (use-after-return
    /// detection), so this meters the host memory the machine retains —
    /// the quantity a [`crate::ResourceBudget`] caps.
    words_allocated: u64,
}

/// Number of guard words above NULL that classify as a null dereference
/// rather than a generic out-of-bounds (mirrors a page-zero guard).
const NULL_GUARD: i64 = 0x1000;

impl Memory {
    /// Creates a memory with `global_words` mapped at [`GLOBAL_BASE`] and
    /// the given `alloca` budget in words.
    pub fn new(global_words: u32, stack_budget: i64) -> Memory {
        let mut blocks = BTreeMap::new();
        if global_words > 0 {
            blocks.insert(
                GLOBAL_BASE,
                Block {
                    len: global_words as i64,
                    live: true,
                    region: Region::Global,
                },
            );
        }
        Memory {
            global_cells: vec![0; global_words as usize],
            stack_cells: Vec::new(),
            heap_cells: AddrMap::default(),
            blocks,
            check_cache: Cell::new((0, 0)),
            stack_top: STACK_BASE,
            heap_top: HEAP_BASE,
            stack_budget,
            words_allocated: 0,
        }
    }

    /// Checks that `addr` falls inside a live block.
    fn check(&self, addr: i64) -> Result<(), Fault> {
        // Cached ranges always start at or above `GLOBAL_BASE`, so the
        // fast path can never swallow a null-guard hit.
        let (start, end) = self.check_cache.get();
        if addr >= start && addr < end {
            return Ok(());
        }
        // The globals block is live for the memory's whole lifetime, so
        // its range needs no block table, and a global access leaves the
        // cached (usually the current frame's) range in place.
        if (addr.wrapping_sub(GLOBAL_BASE) as u64) < self.global_cells.len() as u64 {
            return Ok(());
        }
        if (0..NULL_GUARD).contains(&addr) {
            return Err(Fault::NullDeref { addr });
        }
        match self.blocks.range(..=addr).next_back() {
            Some((&start, b)) if b.live && addr < start + b.len => {
                self.check_cache.set((start, start + b.len));
                Ok(())
            }
            _ => Err(Fault::OutOfBounds { addr }),
        }
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Faults on NULL, unmapped, or dead addresses. Mapped-but-unwritten
    /// cells read as 0.
    pub fn load(&self, addr: i64) -> Result<i64, Fault> {
        self.check(addr)?;
        // `check` proved `addr` lies in a live block of its region, so the
        // region split below is total; cells past a dense vector's length
        // are mapped-but-unwritten and read 0.
        Ok(if addr >= HEAP_BASE {
            self.heap_cells.get(&addr).copied().unwrap_or(0)
        } else if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            self.stack_cells.get(i).copied().unwrap_or(0)
        } else {
            self.global_cells[(addr - GLOBAL_BASE) as usize]
        })
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Same fault conditions as [`Memory::load`].
    pub fn store(&mut self, addr: i64, value: i64) -> Result<(), Fault> {
        self.check(addr)?;
        if addr >= HEAP_BASE {
            self.heap_cells.insert(addr, value);
        } else if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            if i >= self.stack_cells.len() {
                // Grow to the stack region's current high-water mark; the
                // allocator is monotone, so this is touched-once growth.
                self.stack_cells.resize(i + 1, 0);
            }
            self.stack_cells[i] = value;
        } else {
            self.global_cells[(addr - GLOBAL_BASE) as usize] = value;
        }
        Ok(())
    }

    /// Whether `addr` is currently mapped and live.
    pub fn is_mapped(&self, addr: i64) -> bool {
        self.check(addr).is_ok()
    }

    /// Allocates a heap block of `words` cells, returning its base address.
    /// Zero-word requests still return a fresh, unique (but empty) block.
    /// Negative sizes (a `size_t` wraparound in C terms) yield 0 (NULL) —
    /// allocation failure is a value, not a crash; the crash happens when
    /// the unchecked NULL is dereferenced, as in the paper's oSIP attack.
    pub fn alloc_heap(&mut self, words: i64) -> i64 {
        if words < 0 {
            return 0;
        }
        self.words_allocated += words as u64;
        let base = self.heap_top;
        self.blocks.insert(
            base,
            Block {
                len: words,
                live: true,
                region: Region::Heap,
            },
        );
        // Pad by one word so adjacent blocks never merge logically.
        self.heap_top += words + 1;
        base
    }

    /// Allocates a stack (`alloca`) block of `words` cells, returning its
    /// base address.
    ///
    /// Returns 0 (NULL) when the request is negative or exceeds the
    /// remaining stack budget — exactly the failure mode behind the paper's
    /// oSIP parser attack (§4.3: an unchecked `alloca` of a >2.5 MB message
    /// returns NULL and the parser crashes downstream).
    pub fn alloc_stack(&mut self, words: i64) -> i64 {
        if words < 0 || words > self.stack_budget {
            return 0;
        }
        self.words_allocated += words as u64;
        self.stack_budget -= words;
        let base = self.stack_top;
        self.blocks.insert(
            base,
            Block {
                len: words,
                live: true,
                region: Region::Stack,
            },
        );
        self.stack_top += words + 1;
        base
    }

    /// Pushes a stack frame of `words` cells and returns its base.
    ///
    /// # Errors
    ///
    /// [`Fault::StackOverflow`] when the frame exceeds the stack budget.
    pub fn push_frame(&mut self, words: u32) -> Result<i64, Fault> {
        let words = words as i64;
        if words > self.stack_budget {
            return Err(Fault::StackOverflow);
        }
        self.words_allocated += words as u64;
        self.stack_budget -= words;
        let base = self.stack_top;
        self.blocks.insert(
            base,
            Block {
                len: words,
                live: true,
                region: Region::Stack,
            },
        );
        self.stack_top += words + 1;
        Ok(base)
    }

    /// Marks the frame at `base` dead; later accesses fault
    /// (use-after-return detection). The budget is returned to the stack.
    pub fn pop_frame(&mut self, base: i64) {
        if let Some(b) = self.blocks.get_mut(&base) {
            debug_assert_eq!(b.region, Region::Stack);
            b.live = false;
            self.stack_budget += b.len;
            // The dead block may be the cached one; drop the cache rather
            // than compare (frame pops are rare next to loads).
            self.check_cache.set((0, 0));
        }
    }

    /// Remaining `alloca`/frame budget in words.
    pub fn stack_budget(&self) -> i64 {
        self.stack_budget
    }

    /// Cumulative words ever allocated (heap blocks, `alloca` blocks and
    /// stack frames). Popped frames do not subtract — their block-table
    /// entries are retained for use-after-return detection, so this is a
    /// monotone meter of the machine's memory footprint.
    pub fn words_allocated(&self) -> u64 {
        self.words_allocated
    }

    /// The length of the live block at exactly `base`, if any. Useful for
    /// diagnostics and the driver's input registration.
    pub fn block_len(&self, base: i64) -> Option<i64> {
        self.blocks.get(&base).filter(|b| b.live).map(|b| b.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(8, 1 << 20)
    }

    #[test]
    fn globals_are_mapped_and_zeroed() {
        let m = mem();
        assert_eq!(m.load(GLOBAL_BASE), Ok(0));
        assert_eq!(m.load(GLOBAL_BASE + 7), Ok(0));
        assert_eq!(
            m.load(GLOBAL_BASE + 8),
            Err(Fault::OutOfBounds {
                addr: GLOBAL_BASE + 8
            })
        );
    }

    #[test]
    fn store_then_load() {
        let mut m = mem();
        m.store(GLOBAL_BASE + 3, 99).unwrap();
        assert_eq!(m.load(GLOBAL_BASE + 3), Ok(99));
    }

    #[test]
    fn null_is_a_distinguished_fault() {
        let m = mem();
        assert_eq!(m.load(0), Err(Fault::NullDeref { addr: 0 }));
        assert_eq!(m.load(12), Err(Fault::NullDeref { addr: 12 }));
    }

    #[test]
    fn heap_allocation_bounds() {
        let mut m = mem();
        let p = m.alloc_heap(4);
        m.store(p, 1).unwrap();
        m.store(p + 3, 4).unwrap();
        assert_eq!(m.load(p + 4), Err(Fault::OutOfBounds { addr: p + 4 }));
        assert_eq!(m.block_len(p), Some(4));
    }

    #[test]
    fn distinct_heap_blocks_never_alias() {
        let mut m = mem();
        let p = m.alloc_heap(2);
        let q = m.alloc_heap(2);
        assert_ne!(p, q);
        // The word between blocks (padding) is unmapped.
        assert!(m.load(p + 2).is_err());
        m.store(q, 5).unwrap();
        assert_eq!(m.load(p), Ok(0));
    }

    #[test]
    fn zero_sized_heap_block() {
        let mut m = mem();
        let p = m.alloc_heap(0);
        assert_eq!(m.load(p), Err(Fault::OutOfBounds { addr: p }));
    }

    #[test]
    fn negative_alloc_yields_null() {
        let mut m = mem();
        assert_eq!(m.alloc_heap(-1), 0);
        assert_eq!(m.alloc_stack(-5), 0);
    }

    #[test]
    fn frames_push_pop_and_use_after_return() {
        let mut m = mem();
        let base = m.push_frame(3).unwrap();
        m.store(base + 2, 7).unwrap();
        assert_eq!(m.load(base + 2), Ok(7));
        m.pop_frame(base);
        assert_eq!(m.load(base + 2), Err(Fault::OutOfBounds { addr: base + 2 }));
    }

    #[test]
    fn frame_budget_restored_on_pop() {
        let mut m = Memory::new(0, 10);
        let base = m.push_frame(8).unwrap();
        assert_eq!(m.stack_budget(), 2);
        assert_eq!(m.push_frame(8), Err(Fault::StackOverflow));
        m.pop_frame(base);
        assert_eq!(m.stack_budget(), 10);
        assert!(m.push_frame(8).is_ok());
    }

    #[test]
    fn alloca_returns_null_on_budget_exhaustion() {
        let mut m = Memory::new(0, 100);
        assert_ne!(m.alloc_stack(64), 0);
        // 36 words left; a 64-word request fails *without* a fault.
        assert_eq!(m.alloc_stack(64), 0);
        // Small requests still succeed.
        assert_ne!(m.alloc_stack(36), 0);
    }

    #[test]
    fn words_allocated_is_a_monotone_meter() {
        let mut m = Memory::new(0, 100);
        assert_eq!(m.words_allocated(), 0);
        m.alloc_heap(5);
        assert_eq!(m.words_allocated(), 5);
        let base = m.push_frame(3).unwrap();
        assert_eq!(m.words_allocated(), 8);
        m.pop_frame(base);
        assert_eq!(m.words_allocated(), 8, "popping never refunds the meter");
        m.alloc_stack(4);
        assert_eq!(m.words_allocated(), 12);
        // Failed allocations charge nothing.
        m.alloc_heap(-1);
        m.alloc_stack(1_000_000);
        assert_eq!(m.words_allocated(), 12);
    }

    #[test]
    fn check_cache_does_not_mask_dead_frames() {
        // Warm the cache on a frame, kill the frame, and make sure the
        // next access faults instead of hitting the stale range.
        let mut m = mem();
        let base = m.push_frame(4).unwrap();
        assert_eq!(m.load(base + 1), Ok(0), "warms the cache");
        m.pop_frame(base);
        assert_eq!(m.load(base + 1), Err(Fault::OutOfBounds { addr: base + 1 }));
        // A fresh frame over new addresses re-warms correctly, and the
        // null guard still wins over any cached range.
        let base2 = m.push_frame(4).unwrap();
        assert_eq!(m.load(base2), Ok(0));
        assert_eq!(m.load(3), Err(Fault::NullDeref { addr: 3 }));
    }

    #[test]
    fn globals_range_is_checked_without_the_block_table() {
        let mut m = mem();
        let base = m.push_frame(2).unwrap();
        assert_eq!(m.load(base), Ok(0), "warms the cache on the frame");
        m.store(GLOBAL_BASE + 7, 5).unwrap();
        assert_eq!(
            m.check_cache.get(),
            (base, base + 2),
            "globals keep the frame cached"
        );
        // The range's edges and the addresses around it.
        for addr in [GLOBAL_BASE - 1, GLOBAL_BASE + 8, i64::MIN, i64::MAX, -1] {
            assert!(m.load(addr).is_err(), "{addr}");
        }
        assert_eq!(
            m.load(GLOBAL_BASE - 1),
            Err(Fault::NullDeref {
                addr: GLOBAL_BASE - 1
            })
        );
        assert_eq!(m.load(GLOBAL_BASE), Ok(0));
        assert_eq!(m.load(GLOBAL_BASE + 7), Ok(5));
        // No globals at all: the first global address is unmapped.
        let empty = Memory::new(0, 16);
        assert_eq!(
            empty.load(GLOBAL_BASE),
            Err(Fault::OutOfBounds { addr: GLOBAL_BASE })
        );
    }

    #[test]
    fn unwritten_heap_cells_read_zero() {
        let mut m = mem();
        let p = m.alloc_heap(2);
        assert_eq!(m.load(p + 1), Ok(0));
    }
}
