//! Lock-free flat-combining context cells.
//!
//! Each registered thread owns one [`Context`]: an operation cell the
//! thread fills and the combiner drains, and a response cell filled the
//! other way around. Both are the same primitive, [`SeqCell`] — a
//! single-producer/single-consumer slot published with a seqlock-style
//! stamp (even = empty, odd = full) instead of a `Mutex<Option<_>>`.
//!
//! Why SPSC is enough: the operation cell's producer is the owning
//! thread (it never deposits a second op before consuming the response
//! to the first), and its consumer is *the* combiner — combiners are
//! serialized by the replica's write lock, so at most one runs at a
//! time and lock handoff orders their accesses. The response cell is
//! the mirror image. The full happens-before cycle is:
//!
//! 1. thread writes op payload, release-stores odd stamp;
//! 2. combiner acquire-loads odd stamp, takes the op, release-stores
//!    even;
//! 3. combiner writes response payload, release-stores odd stamp on the
//!    response cell;
//! 4. thread acquire-loads it, takes the response, release-stores even
//!    — and only after that may deposit its next op, so step 1 of the
//!    next round happens-after step 2 of this one.

use std::cell::UnsafeCell;

use veros_telemetry::Published;

use crate::dispatch::Dispatch;

/// A single-producer/single-consumer slot with a seqlock-style stamp:
/// even sequence = empty, odd = full. `publish` transitions even→odd,
/// `take` odd→even. The stamp is a [`Published`] word, so its every
/// store releases and its every load acquires.
pub(crate) struct SeqCell<T> {
    seq: Published,
    val: UnsafeCell<Option<T>>,
}

// SAFETY: The stamp protocol makes payload accesses mutually exclusive:
// the producer writes `val` only while the stamp is even and the
// consumer reads it only after acquire-loading an odd stamp (ordered
// after the producer's release-store). The roles themselves are
// single-threaded by construction — the op cell's producer is the one
// owning thread and its consumer the (write-lock-serialized) combiner,
// and symmetrically for the response cell — so no same-role race
// exists either.
unsafe impl<T: Send> Sync for SeqCell<T> {}

impl<T> Default for SeqCell<T> {
    fn default() -> Self {
        Self {
            seq: Published::new(0),
            val: UnsafeCell::new(None),
        }
    }
}

impl<T> SeqCell<T> {
    /// Publishes `v` into the (empty) cell.
    ///
    /// Caller contract: the calling thread is the cell's unique producer
    /// and the cell is empty — the protocol above guarantees both, and
    /// the debug assert checks the stamp actually is even.
    pub(crate) fn publish(&self, v: T) {
        let s = self.seq.load();
        debug_assert!(s.is_multiple_of(2), "publish into a full cell");
        // SAFETY: Stamp is even, so the (unique, serialized) consumer
        // will not touch `val` until the odd store below; we are the
        // unique producer, so no other writer exists.
        unsafe {
            *self.val.get() = Some(v);
        }
        self.seq.store(s + 1);
    }

    /// Takes the published value, if any.
    ///
    /// Caller contract: the calling thread is the cell's unique consumer
    /// (for op cells, the write-lock-holding combiner).
    pub(crate) fn take(&self) -> Option<T> {
        let s = self.seq.load();
        if s.is_multiple_of(2) {
            return None;
        }
        // SAFETY: The acquire load saw an odd stamp, so the producer's
        // payload write happened-before this read; the producer will
        // not write again until it observes our even store below.
        let v = unsafe { (*self.val.get()).take() };
        debug_assert!(v.is_some(), "odd stamp over an empty cell");
        self.seq.store(s + 1);
        v
    }

    /// Whether a value is currently published (a stamp probe; the value
    /// may be gone by the time the caller acts, which the protocol's
    /// single-consumer rule makes harmless). Production code drives the
    /// cells through `publish`/`take` alone; the probe exists for the
    /// protocol tests.
    #[cfg(test)]
    pub(crate) fn is_full(&self) -> bool {
        self.seq.load() % 2 == 1
    }
}

/// Per-thread flat-combining context: an operation cell the thread
/// fills and a response cell the combiner fills.
pub(crate) struct Context<D: Dispatch> {
    pub(crate) op: SeqCell<D::WriteOp>,
    pub(crate) resp: SeqCell<D::Response>,
}

// Manual impl: a derive would demand `D: Default`, which the cells do
// not need.
impl<D: Dispatch> Default for Context<D> {
    fn default() -> Self {
        Self {
            op: SeqCell::default(),
            resp: SeqCell::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_take_round_trip() {
        let c: SeqCell<u64> = SeqCell::default();
        assert!(!c.is_full());
        assert_eq!(c.take(), None);
        c.publish(7);
        assert!(c.is_full());
        assert_eq!(c.take(), Some(7));
        assert!(!c.is_full());
        assert_eq!(c.take(), None);
        // Reusable after a full cycle.
        c.publish(8);
        assert_eq!(c.take(), Some(8));
    }

    #[test]
    fn ping_pong_across_threads() {
        use std::sync::Arc;
        // Miri explores every interleaving orders of magnitude slower;
        // a short run still covers the stamp protocol's transitions.
        #[cfg(miri)]
        const ROUNDS: u64 = 200;
        #[cfg(not(miri))]
        const ROUNDS: u64 = 10_000;
        let op: Arc<SeqCell<u64>> = Arc::new(SeqCell::default());
        let resp: Arc<SeqCell<u64>> = Arc::new(SeqCell::default());
        let (op2, resp2) = (Arc::clone(&op), Arc::clone(&resp));
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..ROUNDS {
                loop {
                    if let Some(v) = op2.take() {
                        sum += v;
                        resp2.publish(sum);
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
            sum
        });
        let mut expect = 0u64;
        for i in 0..ROUNDS {
            op.publish(i);
            expect += i;
            loop {
                if let Some(r) = resp.take() {
                    assert_eq!(r, expect, "response for op {i}");
                    break;
                }
                std::hint::spin_loop();
            }
        }
        assert_eq!(consumer.join().unwrap(), expect);
    }
}
