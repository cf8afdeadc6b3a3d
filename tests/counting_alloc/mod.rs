//! A global allocator that counts every allocation and every byte
//! requested, for the tests that assert exact allocation counts. Each
//! of them is its own test binary (a binary has one
//! `#[global_allocator]`) with a single `#[test]`.
//!
//! Counts are kept per thread, so [`allocated_by`] sees only what its
//! closure allocated on the calling thread: the test harness's own
//! threads (libtest's main thread records the running test, its timeout
//! and its result channel while the test thread runs) count into their
//! own cells and cannot land inside a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and the bytes it requested (a growing `Vec`
/// counts one more block and its new size in full: `realloc` defaults
/// to `alloc` + copy).
struct Counting;

thread_local! {
    // Const-initialised `Cell`s of `Copy` data: no lazy initialisation
    // and no destructor, so touching them from inside the allocator can
    // neither allocate nor observe a torn-down slot's drop.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's `(blocks, bytes)` so far.
fn counts() -> (u64, u64) {
    (BLOCKS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: defers to `System` unchanged; the counters are thread-local
// `Cell`s that never allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: a `GlobalAlloc` method — the caller upholds the trait's
    // contract for `layout`, which reaches `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone; those allocations are not counted.
        let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
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

/// What was allocated on this thread while `f` ran.
pub fn allocated_by(f: impl FnOnce()) -> Allocated {
    let (blocks, bytes) = counts();
    f();
    let (blocks_after, bytes_after) = counts();
    Allocated { blocks: blocks_after - blocks, bytes: bytes_after - bytes }
}
