//! Drepper's three-state futex mutex.
//!
//! The paper's §3 names this exact artifact: "we might expose futexes
//! from the kernel and then verify a userspace mutex implementation on
//! top", citing Drepper's *Futexes are tricky* \[14\]. The word in user
//! memory takes three values:
//!
//! * `0` — unlocked,
//! * `1` — locked, no waiters,
//! * `2` — locked, possibly contended.
//!
//! `lock` is a multi-quantum protocol (a blocked thread resumes by
//! retrying), so the entry point is [`UMutex::lock_attempt`], which the
//! caller loops on across scheduler quanta; `unlock` releases and wakes
//! one waiter only when the contended state was observed — the exact
//! optimization (skip the syscall in the uncontended case) that makes
//! the protocol tricky, and the reason the spec check in the tests
//! matters.

use veros_kernel::syscall::{SysError, Syscall};

use crate::runtime::Ctx;

/// Result of one lock attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockAttempt {
    /// The caller now holds the mutex.
    Acquired,
    /// The caller was enqueued on the futex and its thread is blocked;
    /// retry the attempt when stepped again (after a wake).
    BlockedNow,
    /// The word changed under us (EAGAIN); retry immediately or yield.
    Retry,
}

/// Per-acquisition protocol state a caller threads through its
/// [`UMutex::lock_attempt`] retries.
///
/// The distinction is the crux of Drepper's `mutex3`: a thread that has
/// *ever* advertised contention (or been woken from the futex) must
/// acquire with state 2, because it cannot know whether other sleepers
/// remain — acquiring with 1 would make the eventual unlock skip the
/// wake and strand them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LockState {
    /// First attempt: the fast uncontended path (0 → 1) is allowed.
    #[default]
    Fresh,
    /// The thread contended at least once: acquire only via 0 → 2.
    Waiting,
}

/// A user-space mutex over the `u32` at `word_va`.
#[derive(Clone, Copy, Debug)]
pub struct UMutex {
    /// Address of the mutex word in the process's memory (must be in a
    /// mapped, writable page, initialized to 0).
    pub word_va: u64,
}

impl UMutex {
    /// Creates a handle (the word itself must already be mapped and 0).
    pub fn at(word_va: u64) -> Self {
        Self { word_va }
    }

    /// One attempt of Drepper's `mutex3` lock protocol. The caller keeps
    /// `state` across retries and resets it after release (the returned
    /// `Acquired` resets it automatically).
    pub fn lock_attempt(
        &self,
        ctx: &mut Ctx<'_>,
        state: &mut LockState,
    ) -> Result<LockAttempt, SysError> {
        if *state == LockState::Fresh {
            // Fast path: 0 -> 1.
            let c = ctx.cas_u32(self.word_va, 0, 1)?;
            if c == 0 {
                return Ok(LockAttempt::Acquired);
            }
            *state = LockState::Waiting;
        }
        // Contended path: acquire only via 0 -> 2.
        let c = ctx.cas_u32(self.word_va, 0, 2)?;
        if c == 0 {
            *state = LockState::Fresh;
            return Ok(LockAttempt::Acquired);
        }
        if c == 1 {
            // Advertise contention so the holder's unlock wakes us.
            let c2 = ctx.cas_u32(self.word_va, 1, 2)?;
            if c2 == 0 {
                // Freed between our reads: retry the acquisition.
                return Ok(LockAttempt::Retry);
            }
        }
        // Sleep while the word is 2.
        match ctx.sys(Syscall::FutexWait {
            va: self.word_va,
            expected: 2,
        }) {
            Ok(_) => Ok(LockAttempt::BlockedNow),
            Err(SysError::WouldBlock) => Ok(LockAttempt::Retry),
            Err(e) => Err(e),
        }
    }

    /// Unlocks. Wakes one waiter only if the lock was contended.
    ///
    /// The woken thread re-runs [`lock_attempt`](Self::lock_attempt) and
    /// acquires with state 2 (it cannot know it was the last waiter),
    /// which is what keeps lost wakeups impossible.
    pub fn unlock(&self, ctx: &mut Ctx<'_>) -> Result<(), SysError> {
        let prev = ctx.read_u32(self.word_va)?;
        debug_assert!(prev != 0, "unlock of an unlocked mutex");
        ctx.write_u32(self.word_va, 0)?;
        if prev == 2 {
            ctx.sys(Syscall::FutexWake {
                va: self.word_va,
                count: 1,
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, Step};
    use std::cell::Cell;
    use std::rc::Rc;
    use veros_kernel::{Kernel, KernelConfig};

    /// N contender tasks each enter a critical section `rounds` times,
    /// incrementing a *non-atomic* two-field counter in user memory with
    /// a deliberate yield inside the critical section. Any mutual-
    /// exclusion failure tears the two fields apart.
    fn contention_test(cores: usize, contenders: usize, rounds: u32) {
        let kernel = Kernel::boot(KernelConfig {
            cores,
            ..Default::default()
        })
        .unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        rt.kernel.sched.timeslice = 1;
        // Layout: word 0x10_0000 = mutex, 0x10_0010/0x10_0018 = counter
        // halves.
        rt.kernel
            .syscall(
                (pid, tid),
                Syscall::Map {
                    va: 0x10_0000,
                    pages: 1,
                    writable: true,
                },
            )
            .unwrap();
        let violations = Rc::new(Cell::new(0));
        let remaining = Rc::new(Cell::new(contenders as u64));
        let final_total = Rc::new(Cell::new(0));

        // The init task just idles until the others finish.
        rt.attach(pid, tid, Box::new(move |_| Step::Done(0)));

        for _ in 0..contenders {
            let violations = Rc::clone(&violations);
            let remaining = Rc::clone(&remaining);
            let final_total = Rc::clone(&final_total);
            let mutex = UMutex::at(0x10_0000);
            let mut done_rounds = 0u32;
            let mut lock_state = LockState::Fresh;
            // Per-task protocol state: 0 = want lock, 1 = in CS (phase
            // A done, yield), 2 = finish CS and unlock.
            let mut phase = 0u8;
            rt.spawn_task(
                (pid, tid),
                None,
                Box::new(move |ctx| {
                    match phase {
                        0 => match mutex.lock_attempt(ctx, &mut lock_state).unwrap() {
                            LockAttempt::Acquired => {
                                // First half of the critical section.
                                let a = ctx.read_u64(0x10_0010).unwrap();
                                let b = ctx.read_u64(0x10_0018).unwrap();
                                if a != b {
                                    violations.set(violations.get() + 1);
                                }
                                ctx.write_u64(0x10_0010, a + 1).unwrap();
                                phase = 1;
                                Step::Yield // Yield *inside* the CS.
                            }
                            LockAttempt::BlockedNow | LockAttempt::Retry => Step::Yield,
                        },
                        1 => {
                            // Second half: the other field catches up.
                            let b = ctx.read_u64(0x10_0018).unwrap();
                            ctx.write_u64(0x10_0018, b + 1).unwrap();
                            mutex.unlock(ctx).unwrap();
                            done_rounds += 1;
                            if done_rounds == rounds {
                                // The last finisher snapshots the counter
                                // before the process's memory is freed.
                                remaining.set(remaining.get() - 1);
                                if remaining.get() == 0 {
                                    let total = ctx.read_u64(0x10_0010).unwrap();
                                    final_total.set(total);
                                }
                                Step::Done(0)
                            } else {
                                phase = 0;
                                Step::Yield
                            }
                        }
                        _ => unreachable!(),
                    }
                }),
            )
            .unwrap();
        }
        assert!(rt.run(200_000), "tasks wedged (lost wakeup?)");
        assert_eq!(violations.get(), 0, "mutual exclusion violated");
        // Both halves saw every increment.
        assert_eq!(
            final_total.get(),
            contenders as u64 * rounds as u64
        );
    }

    #[test]
    fn two_contenders_one_core() {
        contention_test(1, 2, 10);
    }

    #[test]
    fn four_contenders_two_cores() {
        contention_test(2, 4, 8);
    }

    #[test]
    fn eight_contenders_four_cores() {
        contention_test(4, 8, 5);
    }

    #[test]
    fn uncontended_lock_skips_the_wake_syscall() {
        let kernel = Kernel::boot(KernelConfig::default()).unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        rt.kernel
            .syscall(
                (pid, tid),
                Syscall::Map {
                    va: 0x10_0000,
                    pages: 1,
                    writable: true,
                },
            )
            .unwrap();
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                let m = UMutex::at(0x10_0000);
                let mut st = LockState::Fresh;
                assert_eq!(m.lock_attempt(ctx, &mut st).unwrap(), LockAttempt::Acquired);
                // Word is 1 (uncontended), not 2.
                assert_eq!(ctx.read_u32(0x10_0000).unwrap(), 1);
                m.unlock(ctx).unwrap();
                assert_eq!(ctx.read_u32(0x10_0000).unwrap(), 0);
                Step::Done(0)
            }),
        );
        assert!(rt.run(10));
    }
}
