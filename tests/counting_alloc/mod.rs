//! A global allocator that counts every allocation and every byte
//! requested, for the tests that assert exact allocation counts. Each
//! of them is its own test binary (a binary has one
//! `#[global_allocator]`) with a single `#[test]`, so that nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use veros::sync::RelaxedCounter;

/// Counts every allocation and the bytes it requested (a growing `Vec`
/// counts one more block and its new size in full: `realloc` defaults
/// to `alloc` + copy).
struct Counting;

static BLOCKS: RelaxedCounter = RelaxedCounter::new(0);
static BYTES: RelaxedCounter = RelaxedCounter::new(0);

// SAFETY: defers to `System` unchanged; the counters are relaxed
// statistics that publish nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: a `GlobalAlloc` method — the caller upholds the trait's
    // contract for `layout`, which reaches `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1);
        BYTES.fetch_add(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: as for `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a closure allocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocated {
    /// Allocations made.
    pub blocks: u64,
    /// Bytes they requested.
    pub bytes: u64,
}

/// What was allocated while `f` ran.
pub fn allocated_by(f: impl FnOnce()) -> Allocated {
    let (blocks, bytes) = (BLOCKS.load(), BYTES.load());
    f();
    Allocated {
        blocks: BLOCKS.load() - blocks,
        bytes: BYTES.load() - bytes,
    }
}
