//! The shared operation log.
//!
//! A bounded circular buffer of tagged write operations. Appenders
//! reserve a contiguous range of slots with one atomic `fetch_add` (this
//! is how flat combining "batches operations from multiple threads and
//! logs them atomically"), publish each slot with a release-store of its
//! version, and replicas consume entries in order, each tracking its own
//! local tail. Garbage collection is implicit: a slot is reusable once
//! every replica's local tail has passed it. The tail, the local tails
//! and the versions are [`Published`] words over `u64` logical
//! positions, so every store of them releases and every load acquires.

use std::cell::UnsafeCell;

use veros_telemetry::Published;

use crate::pad::CachePadded;

/// A log entry: the operation plus its origin, so the replica that
/// combined it can route the response to the issuing thread.
#[derive(Clone, Debug)]
pub struct LogEntry<T> {
    /// The operation.
    pub op: T,
    /// Replica that appended the entry.
    pub replica: usize,
    /// Registered thread index (within the replica) that issued it.
    pub thread: usize,
}

struct Slot<T> {
    /// Logical-index-plus-one of the entry stored here; 0 = never
    /// written. A slot at ring position `p` holds logical index `i`
    /// (where `i % capacity == p`) iff `version == i + 1`.
    version: Published,
    value: UnsafeCell<Option<LogEntry<T>>>,
}

// SAFETY: Slots are shared between appenders and consumers. The version
// protocol guarantees exclusive access during writes: a slot is written
// only by the thread that reserved its logical index via `fetch_add` on
// `tail`, and only after all replicas' local tails have passed the slot's
// previous occupant (checked in `append`); consumers read the value only
// after an acquire-load observes the matching version, which happens
// after the writer's release-store.
unsafe impl<T: Send> Sync for Slot<T> {}

/// The shared circular operation log.
pub struct Log<T> {
    slots: Vec<Slot<T>>,
    tail: CachePadded<Published>,
    /// Per-replica local tails: the next logical index each replica will
    /// consume.
    ltails: Vec<CachePadded<Published>>,
}

impl<T> Log<T> {
    /// Creates a log of `capacity` slots shared by `replicas` replicas.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` or `replicas` is zero.
    pub fn new(capacity: usize, replicas: usize) -> Self {
        assert!(capacity > 0 && replicas > 0);
        Self {
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
        }
    }

    /// Log capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of replicas sharing the log.
    pub fn replicas(&self) -> usize {
        self.ltails.len()
    }

    /// The global tail (next logical index to be reserved).
    pub fn tail(&self) -> u64 {
        self.tail.load()
    }

    /// Replica `r`'s local tail.
    pub fn ltail(&self, r: usize) -> u64 {
        self.ltails[r].load()
    }

    /// The slowest replica's local tail — everything below is reclaimable.
    pub fn head(&self) -> u64 {
        self.ltails
            .iter()
            .map(|t| t.load())
            .min()
            // lint: allow(panic-freedom) — `Log::new` rejects zero
            // replicas, so `ltails` is never empty.
            .expect("at least one replica")
    }

    /// Tries to reserve and publish `batch` as one contiguous range,
    /// draining the batch (entries are *moved* into the log — the hot
    /// path clones nothing).
    ///
    /// Returns `false` with the batch untouched when the ring lacks
    /// space (the caller must then help lagging replicas consume and
    /// retry — see [`crate::replicated::NodeReplicated`]).
    pub fn try_append(&self, batch: &mut Vec<LogEntry<T>>) -> bool {
        let (n, cap) = (batch.len() as u64, self.capacity() as u64);
        if n == 0 {
            return true;
        }
        debug_assert!(n <= cap, "batch larger than the log");
        // Cache the head across CAS retries: `head()` scans every
        // replica's ltail, and ltails only advance, so a stale value is
        // conservative — it can only under-report free space, never
        // admit an overwrite.
        let mut head = self.head();
        loop {
            let tail = self.tail.load();
            if tail + n > head + cap {
                // Out of space against the cached head: refresh it once
                // before giving up, in case other replicas consumed.
                let fresh = self.head();
                if tail + n > fresh + cap {
                    return false;
                }
                head = fresh;
            }
            // Reserve: CAS instead of fetch_add so we never reserve
            // beyond available space (a reservation cannot be undone).
            if self.tail.compare_exchange_weak(tail, tail + n).is_err() {
                continue;
            }
            for (idx, entry) in (tail..).zip(batch.drain(..)) {
                let slot = &self.slots[(idx % cap) as usize];
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

    /// Applies every published entry between replica `r`'s local tail and
    /// the global tail, advancing the local tail.
    ///
    /// `apply` receives each entry in log order exactly once per replica.
    /// Returns the number of entries applied.
    pub fn exec<F: FnMut(&LogEntry<T>)>(&self, r: usize, mut apply: F) -> usize {
        let mut cur = self.ltails[r].load();
        let tail = self.tail.load();
        let cap = self.capacity() as u64;
        let mut applied = 0;
        while cur < tail {
            let slot = &self.slots[(cur % cap) as usize];
            // Wait for the appender to publish this slot (it reserved
            // the range before `tail` moved past it).
            let mut backoff = crate::backoff::Backoff::new();
            while slot.version.load() != cur + 1 {
                backoff.wait();
            }
            // SAFETY: The version matched, so the appender's release
            // store happened-before this read; the slot cannot be
            // overwritten until *our* ltail (still at `cur`) advances.
            // lint: allow(panic-freedom) — the version protocol above
            // guarantees the appender stored `Some` before publishing.
            let entry = unsafe { (*slot.value.get()).as_ref().expect("published slot") };
            apply(entry);
            applied += 1;
            cur += 1;
            self.ltails[r].store(cur);
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(op: u64) -> LogEntry<u64> {
        LogEntry {
            op,
            replica: 0,
            thread: 0,
        }
    }

    #[test]
    fn append_then_exec_in_order() {
        let log = Log::new(8, 1);
        assert!(log.try_append(&mut vec![entry(1), entry(2), entry(3)]));
        let mut seen = Vec::new();
        let n = log.exec(0, |e| seen.push(e.op));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![1, 2, 3]);
        // Second exec applies nothing.
        assert_eq!(log.exec(0, |_| panic!("no new entries")), 0);
    }

    #[test]
    fn every_replica_sees_every_entry_once() {
        let log = Log::new(8, 3);
        log.try_append(&mut vec![entry(10), entry(20)]);
        for r in 0..3 {
            let mut seen = Vec::new();
            log.exec(r, |e| seen.push(e.op));
            assert_eq!(seen, vec![10, 20], "replica {r}");
        }
    }

    #[test]
    fn full_log_rejects_append_until_consumed() {
        let log = Log::new(4, 2);
        assert!(log.try_append(&mut vec![entry(1), entry(2), entry(3), entry(4)]));
        let mut batch = vec![entry(5)];
        assert!(!log.try_append(&mut batch), "ring is full");
        assert_eq!(batch.len(), 1, "failed append leaves the batch intact");
        log.exec(0, |_| {});
        assert!(!log.try_append(&mut batch), "replica 1 still lags");
        log.exec(1, |_| {});
        assert!(log.try_append(&mut batch));
        assert!(batch.is_empty(), "successful append drains the batch");
        let mut seen = Vec::new();
        log.exec(0, |e| seen.push(e.op));
        assert_eq!(seen, vec![5]);
    }

    #[test]
    fn wraparound_preserves_order() {
        let log = Log::new(4, 1);
        let mut expected = Vec::new();
        let mut seen = Vec::new();
        for round in 0..10u64 {
            let mut ops = vec![entry(round * 2), entry(round * 2 + 1)];
            expected.extend(ops.iter().map(|e| e.op));
            assert!(log.try_append(&mut ops));
            log.exec(0, |e| seen.push(e.op));
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn concurrent_appenders_never_lose_entries() {
        let log = Arc::new(Log::new(64, 1));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let mut batch = vec![LogEntry {
                        op: t * 1000 + i,
                        replica: 0,
                        thread: t as usize,
                    }];
                    while !log.try_append(&mut batch) {
                        // The single replica must drain; only this test
                        // thread 0 drains, so help by spinning.
                        std::thread::yield_now();
                    }
                }
            }));
        }
        // Drain concurrently.
        let mut seen = Vec::new();
        while seen.len() < 2000 {
            log.exec(0, |e| seen.push(e.op));
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        // Per-thread order is preserved and nothing is lost.
        for t in 0..4u64 {
            let ops: Vec<u64> = seen.iter().copied().filter(|o| o / 1000 == t).collect();
            assert_eq!(ops.len(), 500);
            assert!(ops.windows(2).all(|w| w[0] < w[1]), "thread {t} reordered");
        }
    }
}
