//! The shared operation log.
//!
//! A bounded circular buffer of operations. Appenders reserve a
//! contiguous range of slots with one compare-exchange on the tail
//! (this is how flat combining "batches operations from multiple
//! threads and logs them atomically"), publish each slot with a
//! release-store of its version, and replicas consume entries in order,
//! each through its own [`Cursor`]. Garbage collection is implicit: a
//! slot is reusable once every replica's local tail has passed it. The
//! tail, the local tails and the versions are [`Published`] words over
//! `u64` logical positions, so every store of them releases and every
//! load acquires.
//!
//! Appending is `&self`: any number of threads may append at once.
//! Consuming is `&mut self` on the replica's one `Cursor`, which is not
//! `Clone`, so no two threads can consume for one replica:
//!
//! ```compile_fail
//! let (log, mut cursors) = veros_sync::log::Log::<u64>::new(4, 1);
//! let cursor = cursors.pop().unwrap();
//! let twin = cursor.clone();
//! ```
//!
//! ```compile_fail
//! let (log, mut cursors) = veros_sync::log::Log::<u64>::new(4, 1);
//! let cursor = &cursors[0];
//! cursor.exec(|_| {});
//! ```

use std::cell::UnsafeCell;
use std::sync::Arc;

use crate::{Backoff, CachePadded, Published};

struct Slot<T> {
    /// Logical-index-plus-one of the entry stored here; 0 = never
    /// written. A slot at ring position `p` holds logical index `i`
    /// (where `i % capacity == p`) iff `version == i + 1`.
    version: Published,
    value: UnsafeCell<Option<T>>,
}

/// The storage an appender and every cursor share.
struct Shared<T> {
    slots: Box<[Slot<T>]>,
    tail: CachePadded<Published>,
    /// Per-replica local tails: the next logical index each replica will
    /// consume. Only that replica's [`Cursor`] stores to its entry.
    ltails: Box<[CachePadded<Published>]>,
}

// SAFETY: A slot's value is written only by the appender that reserved
// its logical index with the compare-exchange on `tail`, and only after
// every replica's local tail passed the slot's previous occupant
// (checked in `try_append`); a cursor reads the value only after an
// acquire load observes the matching version, which the writer stored
// with release after its write, and the slot cannot be reused until
// that cursor's own local tail passes it. Writers move `T`s in from
// other threads (`T: Send`) and cursors of different replicas read the
// same entry at once (`T: Sync`).
unsafe impl<T: Send + Sync> Sync for Shared<T> {}

impl<T> Shared<T> {
    /// The slowest replica's local tail — everything below is reclaimable.
    #[expect(
        clippy::expect_used,
        reason = "`Log::new` rejects zero replicas, so `ltails` is never empty"
    )]
    fn head(&self) -> u64 {
        self.ltails
            .iter()
            .map(|t| t.load())
            .min()
            .expect("at least one replica")
    }
}

/// The appending side of the shared circular operation log.
pub struct Log<T> {
    shared: Arc<Shared<T>>,
}

/// One replica's consuming side of a [`Log`]: the only handle that
/// reads entries or advances that replica's local tail.
pub struct Cursor<T> {
    shared: Arc<Shared<T>>,
    replica: usize,
    /// Authoritative local tail (mirrored to `shared.ltails[replica]`).
    ltail: u64,
}

impl<T> Log<T> {
    /// Creates a log of `capacity` slots shared by `replicas` replicas,
    /// and the replicas' cursors, in replica order.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` or `replicas` is zero.
    pub fn new(capacity: usize, replicas: usize) -> (Self, Vec<Cursor<T>>) {
        assert!(capacity > 0 && replicas > 0);
        let shared = Arc::new(Shared {
            slots: (0..capacity)
                .map(|_| Slot {
                    version: Published::new(0),
                    value: UnsafeCell::new(None),
                })
                .collect(),
            tail: CachePadded::new(Published::new(0)),
            ltails: (0..replicas)
                .map(|_| CachePadded::new(Published::new(0)))
                .collect(),
        });
        let cursors = (0..replicas)
            .map(|replica| Cursor {
                shared: Arc::clone(&shared),
                replica,
                ltail: 0,
            })
            .collect();
        (Self { shared }, cursors)
    }

    /// The global tail (next logical index to be reserved).
    #[inline]
    pub fn tail(&self) -> u64 {
        self.shared.tail.load()
    }

    /// Replica `r`'s local tail.
    #[inline]
    pub fn ltail(&self, r: usize) -> u64 {
        self.shared.ltails[r].load()
    }

    /// Tries to reserve and publish `batch` as one contiguous range,
    /// draining the batch (entries are *moved* into the log — the hot
    /// path clones nothing).
    ///
    /// Returns `false` with the batch untouched when the ring lacks
    /// space (the caller must then help lagging replicas consume and
    /// retry).
    #[inline]
    pub fn try_append(&self, batch: &mut Vec<T>) -> bool {
        let shared = &*self.shared;
        let (n, cap) = (batch.len() as u64, shared.slots.len() as u64);
        if n == 0 {
            return true;
        }
        debug_assert!(n <= cap, "batch larger than the log");
        // Cache the head across CAS retries: `head()` scans every
        // replica's ltail, and ltails only advance, so a stale value is
        // conservative — it can only under-report free space, never
        // admit an overwrite.
        let mut head = shared.head();
        loop {
            let tail = shared.tail.load();
            if tail + n > head + cap {
                // Out of space against the cached head: refresh it once
                // before giving up, in case other replicas consumed.
                let fresh = shared.head();
                if tail + n > fresh + cap {
                    return false;
                }
                head = fresh;
            }
            // Reserve: CAS instead of fetch_add so we never reserve
            // beyond available space (a reservation cannot be undone).
            if shared.tail.compare_exchange_weak(tail, tail + n).is_err() {
                continue;
            }
            for (idx, entry) in (tail..).zip(batch.drain(..)) {
                let slot = &shared.slots[(idx % cap) as usize];
                // SAFETY: We hold the unique reservation for logical
                // index `idx`, and the space check above ensured every
                // replica consumed the slot's previous entry, so no
                // reader or writer accesses this cell concurrently.
                unsafe {
                    *slot.value.get() = Some(entry);
                }
                slot.version.store(idx + 1);
            }
            return true;
        }
    }
}

impl<T> Cursor<T> {
    /// Applies every published entry between this replica's local tail
    /// and the global tail, advancing the local tail.
    ///
    /// `apply` receives each entry in log order exactly once per replica.
    /// Returns the number of entries applied.
    #[inline]
    pub fn exec<F: FnMut(&T)>(&mut self, mut apply: F) -> usize {
        let shared = &*self.shared;
        let tail = shared.tail.load();
        let cap = shared.slots.len() as u64;
        let start = self.ltail;
        while self.ltail < tail {
            let cur = self.ltail;
            let slot = &shared.slots[(cur % cap) as usize];
            // Wait for the appender to publish this slot (it reserved
            // the range before `tail` moved past it).
            let mut backoff = Backoff::new();
            while slot.version.load() != cur + 1 {
                backoff.wait();
            }
            // SAFETY: The version matched, so the appender's release
            // store happened-before this read; the slot cannot be
            // overwritten until *our* ltail (still at `cur`) advances,
            // and this cursor is the only one for its replica.
            let entry = unsafe { (*slot.value.get()).as_ref() };
            #[expect(
                clippy::expect_used,
                reason = "the version protocol above guarantees the appender stored `Some` \
                          before publishing"
            )]
            apply(entry.expect("published slot"));
            self.ltail = cur + 1;
            shared.ltails[self.replica].store(self.ltail);
        }
        (self.ltail - start) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_exec_in_order() {
        let (log, mut cursors) = Log::new(8, 1);
        assert!(log.try_append(&mut vec![1, 2, 3]));
        let mut seen = Vec::new();
        let n = cursors[0].exec(|&e| seen.push(e));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![1, 2, 3]);
        // Second exec applies nothing.
        assert_eq!(cursors[0].exec(|_| panic!("no new entries")), 0);
    }

    #[test]
    fn every_replica_sees_every_entry_once() {
        let (log, mut cursors) = Log::new(8, 3);
        log.try_append(&mut vec![10, 20]);
        for (r, cursor) in cursors.iter_mut().enumerate() {
            let mut seen = Vec::new();
            cursor.exec(|&e| seen.push(e));
            assert_eq!(seen, vec![10, 20], "replica {r}");
            assert_eq!(log.ltail(r), 2);
        }
    }

    #[test]
    fn full_log_rejects_append_until_consumed() {
        let (log, mut cursors) = Log::new(4, 2);
        assert!(log.try_append(&mut vec![1, 2, 3, 4]));
        let mut batch = vec![5];
        assert!(!log.try_append(&mut batch), "ring is full");
        assert_eq!(batch.len(), 1, "failed append leaves the batch intact");
        cursors[0].exec(|_| {});
        assert!(!log.try_append(&mut batch), "replica 1 still lags");
        cursors[1].exec(|_| {});
        assert!(log.try_append(&mut batch));
        assert!(batch.is_empty(), "successful append drains the batch");
        let mut seen = Vec::new();
        cursors[0].exec(|&e| seen.push(e));
        assert_eq!(seen, vec![5]);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (log, mut cursors) = Log::new(4, 1);
        let mut expected = Vec::new();
        let mut seen = Vec::new();
        for round in 0..10u64 {
            let mut ops = vec![round * 2, round * 2 + 1];
            expected.extend(ops.iter().copied());
            assert!(log.try_append(&mut ops));
            cursors[0].exec(|&e| seen.push(e));
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn concurrent_appenders_never_lose_entries() {
        let (log, mut cursors) = Log::new(64, 1);
        let mut cursor = cursors.pop().expect("one replica");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let mut batch = vec![t * 1000 + i];
                        while !log.try_append(&mut batch) {
                            // Only the main thread drains; wait for it.
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Drain concurrently.
            let mut seen = Vec::new();
            while seen.len() < 2000 {
                cursor.exec(|&e| seen.push(e));
                std::thread::yield_now();
            }
            // Per-thread order is preserved and nothing is lost.
            for t in 0..4u64 {
                let ops: Vec<u64> = seen.iter().copied().filter(|o| o / 1000 == t).collect();
                assert_eq!(ops.len(), 500);
                assert!(ops.windows(2).all(|w| w[0] < w[1]), "thread {t} reordered");
            }
        });
    }
}
