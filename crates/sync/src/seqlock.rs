//! A seqlock as a type: [`SeqSlot`] keeps `N` words behind one stamp,
//! and its two methods are the only code that can touch them.
//!
//! The kernel's translation cache and telemetry's `TraceRing` both
//! publish a few words that a reader must see from one write, never
//! mixed from two. Each word is an `AtomicU64`, so no single read can
//! tear; the stamp only guards *consistency across the words*. Because
//! the fields are private, the bracketing — claim before the first
//! word store, publish after the last; load the stamp before the first
//! word load and re-check it after the last — is a fact of the type,
//! not a convention its users must keep.
//!
//! Stamp encoding: 0 = never written, odd = a write is in flight,
//! even and ≥ 2 = stable. Writers never block: [`SeqSlot::try_write`]
//! claims the slot with one compare-exchange and forfeits (changing
//! nothing) if another writer holds it or wins the race.
//!
//! Every access is `SeqCst`. With one total order over the stamp and
//! the words, a reader whose two stamp loads agree read every word
//! after that stamp's publish and before any later claim, so the words
//! all come from one write — no fences and no per-site ordering
//! argument. On x86-64 a `SeqCst` load is a plain load, so readers pay
//! nothing for it; only writers pay for the stores.
//!
//! Code outside this module cannot reach the words around the stamp:
//!
//! ```
//! let slot = veros_sync::SeqSlot::<2>::new();
//! assert!(slot.try_write([7, 8]));
//! assert_eq!(slot.read(), Some([7, 8]));
//! ```
//!
//! ```compile_fail
//! let slot = veros_sync::SeqSlot::<2>::new();
//! slot.words[0].store(7, std::sync::atomic::Ordering::SeqCst);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// `N` words published together under one seqlock stamp (see the
/// module docs for the protocol).
pub struct SeqSlot<const N: usize> {
    /// 0 = never written, odd = a write is in flight, even ≥ 2 = stable.
    seq: AtomicU64,
    words: [AtomicU64; N],
}

impl<const N: usize> SeqSlot<N> {
    /// A never-written slot: [`read`](Self::read) returns `None` until
    /// the first write completes.
    pub const fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; N],
        }
    }

    /// Publishes `words` as one unit. Returns `false`, having changed
    /// nothing, when another writer holds the slot or claims it first.
    pub fn try_write(&self, words: [u64; N]) -> bool {
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 != 0
            || self
                .seq
                .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            return false;
        }
        for (word, v) in self.words.iter().zip(words) {
            word.store(v, Ordering::SeqCst);
        }
        self.seq.store(s + 2, Ordering::SeqCst);
        true
    }

    /// The words of the last completed write, or `None` if the slot was
    /// never written or a write overlapped this read.
    pub fn read(&self) -> Option<[u64; N]> {
        let s = self.seq.load(Ordering::SeqCst);
        if s == 0 || s & 1 != 0 {
            return None;
        }
        let words = std::array::from_fn(|k| self.words[k].load(Ordering::SeqCst));
        (self.seq.load(Ordering::SeqCst) == s).then_some(words)
    }
}

impl<const N: usize> Default for SeqSlot<N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_written_reads_none_then_round_trips() {
        let slot = SeqSlot::<3>::new();
        assert_eq!(slot.read(), None);
        assert!(
            slot.try_write([0, 0, 0]),
            "an all-zero write is still a write"
        );
        assert_eq!(slot.read(), Some([0, 0, 0]));
        assert!(slot.try_write([1, 2, 3]));
        assert_eq!(slot.read(), Some([1, 2, 3]));
    }

    #[test]
    fn concurrent_readers_never_see_words_of_two_writes() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        // Each writer stores `[x; N]` with its own values of `x`, so a
        // read that mixed two writes has unequal words. Readers run
        // until the last writer is done, so every write overlaps reads.
        // Natively the slot is wide, so a reader's word loads last long
        // enough for a writer's stores to land among them: a read that
        // skips its stamp re-check fails here on most runs.
        #[cfg(miri)]
        const WRITES: u64 = 200;
        #[cfg(not(miri))]
        const WRITES: u64 = 20_000;
        #[cfg(miri)]
        const N: usize = 4;
        #[cfg(not(miri))]
        const N: usize = 64;
        const WRITERS: u64 = 2;
        let slot = SeqSlot::<N>::new();
        let start = Barrier::new(4);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        if let Some(w) = slot.read() {
                            assert!(w.iter().all(|&x| x == w[0]), "torn read {w:?}");
                            assert!((1..=WRITES * WRITERS).contains(&w[0]), "{w:?}");
                        }
                    }
                });
            }
            let writers: Vec<_> = (0..WRITERS)
                .map(|t| {
                    let (slot, start) = (&slot, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..WRITES {
                            slot.try_write([1 + i * WRITERS + t; N]);
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().expect("writer");
            }
            done.store(true, Ordering::SeqCst);
        });
        let last = slot.read().expect("writers finished, slot is stable");
        assert!(last.iter().all(|&x| x == last[0]));
    }
}
