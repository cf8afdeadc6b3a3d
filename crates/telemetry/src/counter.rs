//! Exact event counters: one [`veros_sync::RelaxedCounter`] each.
//!
//! [`Counter::add`] is a relaxed `fetch_add`, so no increment is
//! ever lost, however many threads write; [`Counter::get`] is a load.
//! `Relaxed` is enough because a counter publishes nothing: a reader
//! may see another thread's most recent increments late, never wrongly,
//! and after a `join` it sees them all.
//!
//! The read-modify-write costs a `lock xadd` per event, which is why
//! the two paths where that would show carry no counter bump: NR's
//! combiner adds into a plain `u64` inside its guarded value and
//! flushes once per 64 ops, and translation-cache hits are not counted
//! at all (only the cold, outlined miss path is).

#[cfg(feature = "telemetry")]
use veros_sync::RelaxedCounter;

/// An exact, monotonically increasing event count. Const-constructible,
/// so instrumented crates declare counters as plain `static`s.
pub struct Counter {
    #[cfg(feature = "telemetry")]
    total: RelaxedCounter,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self {
            #[cfg(feature = "telemetry")]
            total: RelaxedCounter::new(0),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "telemetry")]
        self.total.fetch_add(n);
        #[cfg(not(feature = "telemetry"))]
        let _ = n;
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total. Other threads' most recent increments may not be
    /// visible yet (`Relaxed`); everything a joined thread added is.
    pub fn get(&self) -> u64 {
        #[cfg(feature = "telemetry")]
        {
            self.total.load()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            0
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SOLO: Counter = Counter::new();

    #[test]
    fn add_and_get_are_exact_single_threaded() {
        let before = SOLO.get();
        SOLO.inc();
        SOLO.add(41);
        if crate::enabled() {
            assert_eq!(SOLO.get() - before, 42);
        } else {
            assert_eq!(SOLO.get(), 0);
        }
    }

    static STRESS: Counter = Counter::new();

    #[test]
    fn concurrent_increments_are_never_lost() {
        const THREADS: usize = 8;
        // Exactness needs volume natively; under Miri the point is the
        // memory model, which a short run exercises just as well.
        #[cfg(miri)]
        const PER_THREAD: u64 = 500;
        #[cfg(not(miri))]
        const PER_THREAD: u64 = 50_000;
        let before = STRESS.get();
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..PER_THREAD {
                        STRESS.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress worker");
        }
        // After join, every worker's stores happen-before this read.
        let delta = STRESS.get() - before;
        if crate::enabled() {
            assert_eq!(delta, THREADS as u64 * PER_THREAD);
        } else {
            assert_eq!(STRESS.get(), 0);
        }
    }

    #[test]
    fn counts_survive_thread_exit() {
        static SURVIVOR: Counter = Counter::new();
        let before = SURVIVOR.get();
        std::thread::spawn(|| SURVIVOR.add(7))
            .join()
            .expect("worker");
        if crate::enabled() {
            assert_eq!(SURVIVOR.get() - before, 7);
        }
    }

    #[test]
    fn hundreds_of_counters_never_share_a_total() {
        const N: usize = 300;
        static MANY: [Counter; N] = [const { Counter::new() }; N];
        for (i, c) in MANY.iter().enumerate() {
            for _ in 0..=i {
                c.inc();
            }
        }
        for (i, c) in MANY.iter().enumerate() {
            let want = if crate::enabled() { i as u64 + 1 } else { 0 };
            assert_eq!(c.get(), want, "counter {i}");
        }
    }
}
