//! Lock-free single-producer/single-consumer rings with cached indices.
//!
//! A fixed-capacity power-of-two ring over monotonically increasing
//! `u64` positions. The uring submission and completion queues are
//! rings, and so is each NR flat-combining cell: an operation goes from
//! its thread to the combiner, and its response back, through a ring
//! that never holds more than one entry. Each side owns exactly one
//! position:
//!
//! * the [`Producer`] owns `tail` — it is the only writer, so the handle
//!   keeps its authoritative copy as a plain field and only the
//!   release-store publishes it;
//! * the [`Consumer`] owns `head` symmetrically.
//!
//! Neither handle is `Clone` and both move methods take `&mut self`, so
//! "single producer, single consumer" is a fact of the types.
//!
//! The opposite side's position is read through a *cached index*: the
//! producer remembers the last `head` it loaded and refreshes it (one
//! acquire load) only when the cache says the ring looks full, and the
//! consumer mirrors that for `tail`. In the steady state a push or pop
//! touches a single shared atomic — its own published position — which
//! is what makes the ring a plausible stand-in for a user/kernel
//! shared-memory mapping.
//!
//! The happens-before argument is the standard SPSC one: a slot is
//! written by the producer strictly before the release-store of the
//! tail that covers it, and the consumer reads the slot only after an
//! acquire-load observes that tail (and vice versa for reuse after the
//! head store). Both positions are [`Published`] words, whose stores
//! release and whose loads acquire, so no other ordering can be
//! written. Positions never wrap in practice (`u64` at one op per
//! nanosecond lasts five centuries), so full/empty tests are exact
//! subtractions, never ambiguous modular compares.
//!
//! ```compile_fail
//! let (_p, c) = veros_sync::spsc::ring::<u64>(2);
//! let c2 = c.clone();
//! ```

use std::cell::UnsafeCell;
use std::sync::Arc;

use crate::{CachePadded, Published};

/// The shared ring storage: published positions plus the slot array.
struct Shared<T> {
    /// Consumer position: slots below `head` have been consumed.
    head: CachePadded<Published>,
    /// Producer position: slots below `tail` have been published.
    tail: CachePadded<Published>,
    /// Power-of-two slot count.
    mask: u64,
    slots: Box<[UnsafeCell<Option<T>>]>,
}

// SAFETY: Slot accesses are mutually exclusive by the ring protocol:
// the (unique) producer writes slot `i = pos & mask` only while
// `pos - head < capacity` — i.e. after the consumer's release-store of
// a head past the slot's previous occupancy, observed via an acquire
// load — and the (unique) consumer reads it only after observing
// `tail > pos` the same way. Producer and consumer are single structs
// that are `!Clone`, so each role really is one thread at a time.
unsafe impl<T: Send> Sync for Shared<T> {}

/// Producer handle: the only writer of `tail`.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Authoritative producer position (mirrored to `shared.tail`).
    tail: u64,
    /// Last observed consumer position (refreshed on apparent fullness).
    cached_head: u64,
}

/// Consumer handle: the only writer of `head`.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Authoritative consumer position (mirrored to `shared.head`).
    head: u64,
    /// Last observed producer position (refreshed on apparent emptiness).
    cached_tail: u64,
}

/// A rejected push: the ring was full. Carries the value back so the
/// caller can retry or surface backpressure without cloning.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Creates a ring with at least `capacity` slots (rounded up to a
/// power of two, minimum 2) and returns the two role handles.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[UnsafeCell<Option<T>>]> =
        (0..cap).map(|_| UnsafeCell::new(None)).collect();
    let shared = Arc::new(Shared {
        head: CachePadded::new(Published::new(0)),
        tail: CachePadded::new(Published::new(0)),
        mask: cap as u64 - 1,
        slots,
    });
    (
        Producer { shared: Arc::clone(&shared), tail: 0, cached_head: 0 },
        Consumer { shared, head: 0, cached_tail: 0 },
    )
}

impl<T> Producer<T> {
    /// Number of slots in the ring.
    pub fn capacity(&self) -> u64 {
        self.shared.mask + 1
    }

    /// Publishes `v` into the next slot, or returns it in [`Full`] when
    /// the consumer has not freed one yet.
    pub fn push(&mut self, v: T) -> Result<(), Full<T>> {
        if self.tail - self.cached_head == self.capacity() {
            self.cached_head = self.shared.head.load();
            if self.tail - self.cached_head == self.capacity() {
                return Err(Full(v));
            }
        }
        let idx = (self.tail & self.shared.mask) as usize;
        // SAFETY: `tail - head < capacity` (checked above against a
        // head at least as old as the consumer's last release-store),
        // so the consumer has already taken this slot's previous value
        // and will not touch it again before our tail store below; we
        // are the unique producer.
        unsafe {
            *self.shared.slots[idx].get() = Some(v);
        }
        self.tail += 1;
        self.shared.tail.store(self.tail);
        Ok(())
    }

    /// Entries currently in the ring, as seen from the producer side.
    pub fn len(&self) -> u64 {
        self.tail - self.shared.head.load()
    }

    /// Whether the ring currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Number of slots in the ring.
    pub fn capacity(&self) -> u64 {
        self.shared.mask + 1
    }

    /// Takes the oldest published entry, if any.
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            self.cached_tail = self.shared.tail.load();
            if self.head == self.cached_tail {
                return None;
            }
        }
        let idx = (self.head & self.shared.mask) as usize;
        // SAFETY: `head < tail` (the acquire load above observed the
        // producer's release-store covering this slot), so the value is
        // fully written; we are the unique consumer and the producer
        // will not overwrite the slot until our head store below.
        let v = unsafe { (*self.shared.slots[idx].get()).take() };
        debug_assert!(v.is_some(), "published slot was empty");
        self.head += 1;
        self.shared.head.store(self.head);
        v
    }

    /// Entries currently in the ring, as seen from the consumer side.
    pub fn len(&self) -> u64 {
        self.shared.tail.load() - self.head
    }

    /// Whether the ring currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (p, _c) = ring::<u64>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = ring::<u64>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn push_pop_round_trip_with_wraparound() {
        let (mut p, mut c) = ring::<u64>(4);
        // Many times the capacity, so positions wrap the mask repeatedly.
        for round in 0..64u64 {
            for i in 0..4 {
                p.push(round * 4 + i).unwrap();
            }
            assert_eq!(p.push(999), Err(Full(999)), "round {round} should be full");
            for i in 0..4 {
                assert_eq!(c.pop(), Some(round * 4 + i));
            }
            assert_eq!(c.pop(), None, "round {round} should be empty");
        }
    }

    #[test]
    fn len_tracks_occupancy_from_both_sides() {
        let (mut p, mut c) = ring::<u8>(4);
        assert!(p.is_empty() && c.is_empty());
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c.len(), 2);
        c.pop().unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn full_returns_the_value_intact() {
        let (mut p, _c) = ring::<String>(2);
        p.push("a".into()).unwrap();
        p.push("b".into()).unwrap();
        let Full(v) = p.push("c".into()).unwrap_err();
        assert_eq!(v, "c");
    }

    #[test]
    fn cross_thread_stream_preserves_order_and_counts() {
        // Short under Miri: interpreted execution makes each push/pop
        // ~1000x slower and the protocol needs few laps to show a bug.
        #[cfg(miri)]
        const N: u64 = 400;
        #[cfg(not(miri))]
        const N: u64 = 20_000;
        let (mut p, mut c) = ring::<u64>(4);
        // yield_now, not spin_loop: on a single-core host a raw spin
        // burns its whole quantum before the other side can run.
        let consumer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match c.pop() {
                    Some(v) => {
                        assert_eq!(v, next, "out-of-order or duplicated item");
                        next += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            assert_eq!(c.pop(), None);
            next
        });
        let mut i = 0u64;
        while i < N {
            match p.push(i) {
                Ok(()) => i += 1,
                Err(Full(_)) => std::thread::yield_now(),
            }
        }
        assert_eq!(consumer.join().unwrap(), N);
    }
}
