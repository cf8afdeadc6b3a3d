//! Spin-then-yield backoff for waiting loops.
//!
//! On a many-core machine a short spin is the right way to wait for a
//! combiner; on an oversubscribed or single-core host (like CI
//! containers) pure spinning can burn whole scheduler quanta while the
//! lock holder is preempted. `Backoff` spins briefly, then yields to the
//! OS scheduler, so the algorithms behave well in both environments.

/// Exponential spin-then-yield waiter.
#[derive(Default)]
pub struct Backoff {
    step: u32,
}

/// Spin iterations before the first yield (2^SPIN_LIMIT).
const SPIN_LIMIT: u32 = 6;

impl Backoff {
    /// Creates a fresh backoff.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Waits one round: spins with exponentially increasing length, then
    /// switches to `yield_now` once the spin budget is exhausted.
    #[inline]
    pub fn wait(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_yield_without_panicking() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            b.wait();
        }
        assert!(b.step > SPIN_LIMIT);
    }
}
