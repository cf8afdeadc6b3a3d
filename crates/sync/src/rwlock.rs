//! The distributed readers-writer lock guarding each NR replica.
//!
//! NR "achieves read-concurrency with a readers-writer lock": readers
//! announce themselves in per-reader (cache-line padded) flags and check
//! a single writer flag, so concurrent readers never contend on a shared
//! cache line; the writer raises its flag and waits for every reader slot
//! to drain. This is the classic "big reader" lock NrOS uses per replica.
//!
//! Each reader flag belongs to one [`ReadHandle`], handed out once by
//! [`DistRwLock::new`]. A handle is not `Clone` and reading borrows it
//! mutably, so a flag is never raised by two threads, or twice by one:
//!
//! ```compile_fail
//! let (lock, mut handles) = veros_sync::rwlock::DistRwLock::new(1, 0u64);
//! let handle = &handles[0];
//! let _r = handle.read();
//! ```
//!
//! ```compile_fail
//! let (lock, mut handles) = veros_sync::rwlock::DistRwLock::new(1, 0u64);
//! let handle = &mut handles[0];
//! let a = handle.read();
//! let b = handle.read();
//! assert_eq!(*a, *b);
//! ```

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::{Backoff, CachePadded};

/// The flags and the data a lock and its read handles share.
struct Inner<T> {
    writer: CachePadded<AtomicBool>,
    readers: Box<[CachePadded<AtomicBool>]>,
    data: UnsafeCell<T>,
}

// SAFETY: The lock protocol guarantees exclusive access for writers and
// shared access for readers (the `mutual_exclusion_stress` test below):
// `&mut T` is only produced while `writer` is held and all reader flags
// were seen clear; `&T` only while the reader's flag is set and the
// writer flag was observed clear after setting it. Concurrent `&T`
// access requires `T: Sync`, and the writer path reaches `&mut T` from
// any thread, requiring `T: Send`.
unsafe impl<T: Send + Sync> Sync for Inner<T> {}

/// A distributed readers-writer lock over `T`: the writer side. Reads
/// go through the [`ReadHandle`]s [`new`](Self::new) returns.
pub struct DistRwLock<T> {
    inner: Arc<Inner<T>>,
}

/// One reader slot of a [`DistRwLock`], owned by the thread that reads
/// through it.
pub struct ReadHandle<T> {
    inner: Arc<Inner<T>>,
    slot: usize,
}

/// Shared-access guard returned by [`ReadHandle::read`].
pub struct ReadGuard<'a, T> {
    handle: &'a ReadHandle<T>,
}

/// Exclusive-access guard returned by [`DistRwLock::try_write`].
pub struct WriteGuard<'a, T> {
    inner: &'a Inner<T>,
}

impl<T> DistRwLock<T> {
    /// Creates a lock over `data` with `readers` reader slots (at least
    /// one), and one handle per slot.
    pub fn new(readers: usize, data: T) -> (Self, Vec<ReadHandle<T>>) {
        let inner = Arc::new(Inner {
            writer: CachePadded::new(AtomicBool::new(false)),
            readers: (0..readers.max(1))
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            data: UnsafeCell::new(data),
        });
        let handles = (0..inner.readers.len())
            .map(|slot| ReadHandle {
                inner: Arc::clone(&inner),
                slot,
            })
            .collect();
        (Self { inner }, handles)
    }

    /// Tries to acquire exclusive access without blocking: fails when
    /// another writer holds the lock *or* any reader is active (so a
    /// thread that holds a read guard can safely call this without
    /// deadlocking itself).
    #[inline]
    pub fn try_write(&self) -> Option<WriteGuard<'_, T>> {
        let inner = &*self.inner;
        // Failure ordering: no state is read on the failure path.
        if inner
            .writer
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // One pass over the reader flags; any active reader aborts the
        // attempt. New readers cannot slip in: they check the writer
        // flag (already set) after raising their own.
        for r in inner.readers.iter() {
            if r.load(Ordering::SeqCst) {
                inner.writer.store(false, Ordering::SeqCst);
                return None;
            }
        }
        Some(WriteGuard { inner })
    }
}

impl<T> ReadHandle<T> {
    /// Acquires shared access through this handle's reader slot,
    /// waiting out any writer.
    #[inline]
    pub fn read(&mut self) -> ReadGuard<'_, T> {
        let inner = &*self.inner;
        let me = &inner.readers[self.slot];
        loop {
            // Publish intent, then check the writer flag. SeqCst on both
            // sides forbids the store-load reordering that would let a
            // reader and the writer both believe they hold the lock.
            me.store(true, Ordering::SeqCst);
            if !inner.writer.load(Ordering::SeqCst) {
                return ReadGuard { handle: self };
            }
            // A writer is active or arriving: back off and retry.
            me.store(false, Ordering::SeqCst);
            let mut backoff = Backoff::new();
            // Spin-wait hint only: the SeqCst writer-flag check at the
            // top of the loop is what decides admission.
            while inner.writer.load(Ordering::Relaxed) {
                backoff.wait();
            }
        }
    }
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: The reader flag is raised and the writer flag was
        // observed clear afterwards; any later writer sees our flag and
        // backs off until it drops.
        unsafe { &*self.handle.inner.data.get() }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.handle.inner.readers[self.handle.slot].store(false, Ordering::SeqCst);
    }
}

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: Exclusive: the writer flag is held and all reader
        // flags were seen clear after raising it.
        unsafe { &*self.inner.data.get() }
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: See `deref`; `&mut self` makes this the only
        // reference the guard hands out.
        unsafe { &mut *self.inner.data.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.inner.writer.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_basics() {
        let (lock, mut handles) = DistRwLock::new(2, 5u64);
        {
            let [h0, h1] = &mut handles[..] else {
                panic!("two slots")
            };
            let (r0, r1) = (h0.read(), h1.read());
            assert_eq!(*r0 + *r1, 10);
            assert!(lock.try_write().is_none(), "readers block writers");
        }
        {
            let mut w = lock.try_write().expect("no reader");
            *w = 7;
            assert!(lock.try_write().is_none(), "a writer blocks writers");
        }
        assert_eq!(*handles[0].read(), 7);
        assert!(lock.try_write().is_some());
    }

    #[test]
    fn mutual_exclusion_stress() {
        // Writers increment a two-field counter non-atomically; readers
        // assert the fields always agree. Any lock bug tears them apart.
        struct Pair {
            a: u64,
            b: u64,
        }
        // Interpreted execution is ~1000x slower; a short run under Miri
        // still covers every flag transition.
        const ROUNDS: u64 = if cfg!(miri) { 200 } else { 2000 };
        let (lock, handles) = DistRwLock::new(4, Pair { a: 0, b: 0 });
        let writes: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(slot, mut handle)| {
                    let lock = &lock;
                    s.spawn(move || {
                        let mut writes = 0;
                        for i in 0..ROUNDS {
                            if i % 4 == slot as u64 % 4 && slot < 2 {
                                let Some(mut w) = lock.try_write() else {
                                    continue;
                                };
                                w.a += 1;
                                // Widen the race window.
                                std::hint::spin_loop();
                                w.b += 1;
                                writes += 1;
                            } else {
                                let r = handle.read();
                                assert_eq!(r.a, r.b, "torn read: lock is broken");
                            }
                        }
                        writes
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).sum()
        });
        let w = lock.try_write().expect("every thread is done");
        assert_eq!((w.a, w.b), (writes, writes));
    }
}
