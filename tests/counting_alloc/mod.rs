//! A global allocator that counts every byte requested, for the tests
//! that assert exact allocation counts. Each of them is its own test
//! binary (a binary has one `#[global_allocator]`) with a single
//! `#[test]`, so that nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every byte requested (a growing `Vec` counts its new size in
/// full: `realloc` defaults to `alloc` + copy).
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` unchanged; the counter is a relaxed
// statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: a `GlobalAlloc` method — the caller upholds the trait's
    // contract for `layout`, which reaches `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
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

/// Bytes requested while `f` ran.
pub fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}
