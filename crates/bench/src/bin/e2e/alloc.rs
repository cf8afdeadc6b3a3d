//! The bench-owned counting allocator.
//!
//! Wraps the system allocator and counts, **per thread**, every
//! allocation request (`alloc`, `alloc_zeroed`, `realloc`) and the
//! bytes it asked for, into the bucket the thread currently has
//! selected. Load is generated from one host thread, so the calling
//! thread's counters are exactly the workload's allocations; helper
//! threads (and, under `cargo test`, tests running in parallel) count
//! into their own thread-locals and cannot perturb them.
//!
//! Buckets are how allocations are attributed to the enclosing span in
//! a traced run: the stepper selects [`Bucket::NetStep`] around
//! `Network::step`, [`Bucket::NodePoll`] around each node poll, and so
//! on. An untraced run never switches buckets, so everything lands in
//! [`Bucket::Other`] and only the total is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Where the current thread's allocations are being attributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    /// Anything outside a traced span (harness, load generator).
    Other = 0,
    /// Inside `Network::step`.
    NetStep = 1,
    /// Inside `Coordinator::step`.
    CoordStep = 2,
    /// Inside a `FleetNode::poll`.
    NodePoll = 3,
    /// Inside a `FleetClient::poll`.
    ClientPoll = 4,
}

const BUCKETS: usize = 5;

/// `(requests, bytes)` counted so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocation requests (`alloc` + `alloc_zeroed` + `realloc`).
    pub allocs: u64,
    /// Bytes requested (the new size for a `realloc`).
    pub bytes: u64,
}

impl Counts {
    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: Counts) -> Counts {
        Counts {
            allocs: self.allocs + other.allocs,
            bytes: self.bytes + other.bytes,
        }
    }
}

thread_local! {
    // Const-initialised `Cell`s of `Copy` data: no lazy initialisation
    // and no destructor, so touching them from inside the allocator can
    // neither allocate nor observe a torn-down slot's drop.
    static CURRENT: Cell<Bucket> = const { Cell::new(Bucket::Other) };
    static COUNTS: [Cell<(u64, u64)>; BUCKETS] = const { [const { Cell::new((0, 0)) }; BUCKETS] };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = CURRENT.try_with(|cur| {
        let _ = COUNTS.try_with(|c| {
            let cell = &c[cur.get() as usize];
            let (n, b) = cell.get();
            cell.set((n + 1, b + bytes as u64));
        });
    });
}

/// Selects the bucket this thread's allocations go to; returns the
/// previous selection so spans can nest.
pub fn enter(bucket: Bucket) -> Bucket {
    CURRENT.with(|c| c.replace(bucket))
}

/// This thread's counts in one bucket.
pub fn bucket(bucket: Bucket) -> Counts {
    let (allocs, bytes) = COUNTS.with(|c| c[bucket as usize].get());
    Counts { allocs, bytes }
}

/// This thread's counts over all buckets.
pub fn total() -> Counts {
    COUNTS.with(|c| {
        c.iter().fold(Counts::default(), |acc, cell| {
            let (allocs, bytes) = cell.get();
            acc.plus(Counts { allocs, bytes })
        })
    })
}

/// The counting allocator; installed as `#[global_allocator]` by
/// `main.rs`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added behaviour is
// `note`, which touches const-initialised thread-local `Cell`s and
// therefore never allocates, never unwinds and never re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: a `GlobalAlloc` method — the caller upholds the trait's
    // contract for its arguments, which reach `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: a `GlobalAlloc` method — the caller upholds the trait's
    // contract for its arguments, which reach `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: a `GlobalAlloc` method — the caller upholds the trait's
    // contract for its arguments, which reach `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `System`, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: a `GlobalAlloc` method — the caller upholds the trait's
    // contract for its arguments, which reach `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation_pattern() {
        let before = total();
        let mut keep = Vec::new();
        for i in 0..10usize {
            keep.push(std::hint::black_box(vec![0u8; 100 + i]));
        }
        let mid = total().since(before);
        // Ten 100..110-byte vectors, plus whatever growing `keep` cost.
        assert!(mid.allocs >= 10, "{mid:?}");
        assert!(mid.bytes >= (100..110).sum::<usize>() as u64, "{mid:?}");
        // An exact pattern: one boxed array is one request of its size.
        let b0 = total();
        let boxed = std::hint::black_box(Box::new([0u8; 4096]));
        let d = total().since(b0);
        assert_eq!(
            d,
            Counts {
                allocs: 1,
                bytes: 4096
            }
        );
        drop(boxed);
        // Freeing is not counted.
        assert_eq!(
            total().since(b0),
            Counts {
                allocs: 1,
                bytes: 4096
            }
        );
    }

    #[test]
    fn buckets_attribute_to_the_selected_span() {
        let node0 = bucket(Bucket::NodePoll);
        let other0 = bucket(Bucket::Other);
        let prev = enter(Bucket::NodePoll);
        assert_eq!(prev, Bucket::Other);
        let v = std::hint::black_box(vec![1u8; 333]);
        assert_eq!(enter(prev), Bucket::NodePoll);
        drop(v);
        assert_eq!(
            bucket(Bucket::NodePoll).since(node0),
            Counts {
                allocs: 1,
                bytes: 333
            }
        );
        assert_eq!(bucket(Bucket::Other).since(other0), Counts::default());
    }

    #[test]
    fn other_threads_do_not_leak_into_this_one() {
        let before = total();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::hint::black_box(vec![0u8; 1 << 16]);
            });
        });
        // Spawning allocates on this thread, but the child's 64 KiB
        // vector is counted on the child.
        assert!(total().since(before).bytes < 1 << 16);
    }
}
