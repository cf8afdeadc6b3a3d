//! A publication as a type: [`Published`] is one `u64` word whose
//! every store releases and whose every load acquires.
//!
//! The shared log (its tail, each replica's local tail, each slot's
//! version), the SPSC ring's head and tail, and the kernel translation
//! cache's epoch each publish data through one word: a writer fills a
//! payload and then stores the word, and a reader that loads the new value may then read the
//! payload. That is sound only if the store is `Release` and the load
//! `Acquire`. Because the atomic is private and no method takes an
//! `Ordering`, a releasing store without an acquiring load cannot be
//! written: the pairing is a fact of the type, not a convention its
//! users must keep.
//!
//! On x86-64 an `Acquire` load and a `Release` store compile to plain
//! moves, so the type costs its readers and writers nothing.
//!
//! ```
//! let w = veros_sync::Published::new(1);
//! assert_eq!(w.fetch_add(2), 1);
//! while w.compare_exchange_weak(3, 5).is_err() {}
//! assert_eq!(w.load(), 5);
//! w.store(8);
//! assert_eq!(w.load(), 8);
//! ```
//!
//! Code outside this module cannot choose an ordering:
//!
//! ```compile_fail
//! let w = veros_sync::Published::new(0);
//! w.store(7, std::sync::atomic::Ordering::Relaxed);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// One `u64` word published with release stores and read with acquire
/// loads (see the module docs).
pub struct Published(AtomicU64);

impl Published {
    /// A word holding `v`.
    pub const fn new(v: u64) -> Self {
        Self(AtomicU64::new(v))
    }

    /// Reads the word. Everything written before the store that put
    /// this value there is visible after the call.
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Publishes `v`: a load that reads it sees every write made
    /// before this call.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Release);
    }

    /// Adds `v` and publishes the sum as [`store`](Self::store) does.
    /// Returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: u64) -> u64 {
        self.0.fetch_add(v, Ordering::Release)
    }

    /// Replaces `current` with `new` if the word holds `current`; may
    /// fail spuriously. On success the exchange both acquires the old
    /// value and publishes the new one; on failure it acquires the value
    /// it returns, as [`load`](Self::load) does.
    #[inline]
    pub fn compare_exchange_weak(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::UnsafeCell;

    /// A plain, non-atomic payload: only the edge through the
    /// `Published` word orders its write before its read, so under
    /// Miri a store or load without that edge is a reported data race.
    struct Payload(UnsafeCell<[u64; 4]>);

    // SAFETY: the test's two threads touch the cell only as the
    // publication allows: the writer before its store, the reader after
    // its load returned the stored value.
    unsafe impl Sync for Payload {}

    #[test]
    fn a_load_that_sees_the_store_sees_the_payload_behind_it() {
        // A reference, so the closures capture the `Sync` wrapper and
        // not its cell.
        let payload = &Payload(UnsafeCell::new([0; 4]));
        let flag = Published::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                // SAFETY: the reader does not touch the payload until
                // it loads the value stored below.
                unsafe { *payload.0.get() = [1, 2, 3, 4] };
                flag.store(1);
            });
            s.spawn(|| {
                while flag.load() == 0 {
                    std::hint::spin_loop();
                }
                // SAFETY: the load returned the writer's store, so its
                // payload write happened before this read, and the
                // writer writes nothing after it.
                assert_eq!(unsafe { *payload.0.get() }, [1, 2, 3, 4]);
            });
        });
    }
}
