//! A counter as a type: [`RelaxedCounter`] is one `u64` word whose
//! every access is `Relaxed`.
//!
//! Telemetry's counters, histogram cells and trace-ring head, the
//! history recorder's clock, and the bench and test bookkeeping each
//! keep a number that publishes nothing: no payload is read because of
//! the value a load returns. `Relaxed` is enough for that. A
//! `fetch_add` is still one read-modify-write, so no increment is lost,
//! and after a `join` every increment the joined thread made is
//! visible. A word that does publish a payload is a
//! [`crate::Published`] instead; no method here takes an `Ordering`, so
//! a counter cannot be made to publish by accident.
//!
//! ```
//! let c = veros_sync::RelaxedCounter::new(1);
//! assert_eq!(c.fetch_add(2), 1);
//! c.store(c.load() + 4);
//! assert_eq!(c.load(), 7);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// One `u64` word with relaxed loads, stores and increments (see the
/// module docs).
#[derive(Debug, Default)]
pub struct RelaxedCounter(AtomicU64);

impl RelaxedCounter {
    /// A word holding `v`. Const, so counters can be plain `static`s.
    pub const fn new(v: u64) -> Self {
        Self(AtomicU64::new(v))
    }

    /// Reads the word. Another thread's most recent writes may not be
    /// visible yet; a joined thread's are.
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the word with `v`.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `v` in one read-modify-write, so concurrent adds are never
    /// lost. Returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: u64) -> u64 {
        self.0.fetch_add(v, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_adds_are_never_lost() {
        // Exactness needs volume natively; under Miri the point is the
        // memory model, which a short run exercises just as well.
        #[cfg(miri)]
        const PER_THREAD: u64 = 500;
        #[cfg(not(miri))]
        const PER_THREAD: u64 = 50_000;
        const THREADS: u64 = 4;
        let c = RelaxedCounter::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.fetch_add(1);
                    }
                });
            }
        });
        assert_eq!(c.load(), THREADS * PER_THREAD);
    }
}
