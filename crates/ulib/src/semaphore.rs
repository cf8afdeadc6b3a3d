//! A counting futex semaphore.
//!
//! The word holds the available count. `post` increments and wakes one;
//! `wait_attempt` decrements if positive, otherwise sleeps until the
//! count moves. Multi-quantum like the mutex.

use veros_kernel::syscall::{SysError, Syscall};

use crate::runtime::Ctx;

/// Result of one semaphore wait attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SemAttempt {
    /// A unit was acquired.
    Acquired,
    /// The thread is parked on the futex; retry when stepped again.
    BlockedNow,
    /// The count changed concurrently; retry.
    Retry,
}

/// A semaphore over the `u32` count at `word_va`.
#[derive(Clone, Copy, Debug)]
pub struct USemaphore {
    /// Address of the count word (mapped, writable).
    pub word_va: u64,
}

impl USemaphore {
    /// Creates a handle. Initialize the count by writing the word.
    pub fn at(word_va: u64) -> Self {
        Self { word_va }
    }

    /// One wait (P) attempt.
    pub fn wait_attempt(&self, ctx: &mut Ctx<'_>) -> Result<SemAttempt, SysError> {
        let v = ctx.read_u32(self.word_va)?;
        if v > 0 {
            let c = ctx.cas_u32(self.word_va, v, v - 1)?;
            if c == v {
                return Ok(SemAttempt::Acquired);
            }
            return Ok(SemAttempt::Retry);
        }
        match ctx.sys(Syscall::FutexWait {
            va: self.word_va,
            expected: 0,
        }) {
            Ok(_) => Ok(SemAttempt::BlockedNow),
            Err(SysError::WouldBlock) => Ok(SemAttempt::Retry),
            Err(e) => Err(e),
        }
    }

    /// Post (V): increments and wakes one waiter.
    pub fn post(&self, ctx: &mut Ctx<'_>) -> Result<(), SysError> {
        let v = ctx.read_u32(self.word_va)?;
        ctx.write_u32(self.word_va, v + 1)?;
        ctx.sys(Syscall::FutexWake {
            va: self.word_va,
            count: 1,
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, Step};
    use std::cell::Cell;
    use std::rc::Rc;
    use veros_kernel::{Kernel, KernelConfig, Syscall as K};

    /// A semaphore initialized to `permits` gates `workers` tasks; at
    /// most `permits` may be "inside" simultaneously.
    #[test]
    fn bounded_concurrency() {
        let kernel = Kernel::boot(KernelConfig {
            cores: 2,
            ..Default::default()
        })
        .unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        rt.kernel.sched.timeslice = 1;
        rt.kernel
            .syscall(
                (pid, tid),
                K::Map {
                    va: 0x10_0000,
                    pages: 1,
                    writable: true,
                },
            )
            .unwrap();
        // Initialize the count to 2.
        rt.kernel
            .write_user(pid, 0x10_0000, &2u32.to_le_bytes())
            .unwrap();
        rt.attach(pid, tid, Box::new(|_| Step::Done(0)));

        let inside = Rc::new(Cell::new(0));
        let max_inside = Rc::new(Cell::new(0));
        for _ in 0..5 {
            let inside = Rc::clone(&inside);
            let max_inside = Rc::clone(&max_inside);
            let sem = USemaphore::at(0x10_0000);
            let mut phase = 0u8;
            let mut dwell = 0u8;
            rt.spawn_task(
                (pid, tid),
                None,
                Box::new(move |ctx| match phase {
                    0 => match sem.wait_attempt(ctx).unwrap() {
                        SemAttempt::Acquired => {
                            inside.set(inside.get() + 1);
                            max_inside.set(max_inside.get().max(inside.get()));
                            phase = 1;
                            Step::Yield
                        }
                        _ => Step::Yield,
                    },
                    1 => {
                        // Dwell inside for a few quanta.
                        dwell += 1;
                        if dwell >= 3 {
                            inside.set(inside.get() - 1);
                            sem.post(ctx).unwrap();
                            Step::Done(0)
                        } else {
                            Step::Yield
                        }
                    }
                    _ => unreachable!(),
                }),
            )
            .unwrap();
        }
        assert!(rt.run(50_000), "semaphore wedged");
        assert!(
            max_inside.get() <= 2,
            "more tasks inside than permits"
        );
    }

    #[test]
    fn post_wakes_a_blocked_waiter() {
        let kernel = Kernel::boot(KernelConfig::default()).unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        rt.kernel
            .syscall(
                (pid, tid),
                K::Map {
                    va: 0x10_0000,
                    pages: 1,
                    writable: true,
                },
            )
            .unwrap();
        // Count starts 0: waiter blocks; poster releases after a delay.
        let mut delay = 0;
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                delay += 1;
                if delay < 10 {
                    return Step::Yield;
                }
                USemaphore::at(0x10_0000).post(ctx).unwrap();
                Step::Done(0)
            }),
        );
        let mut acquired = false;
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(move |ctx| {
                if acquired {
                    return Step::Done(1);
                }
                match USemaphore::at(0x10_0000).wait_attempt(ctx).unwrap() {
                    SemAttempt::Acquired => {
                        acquired = true;
                        Step::Yield
                    }
                    _ => Step::Yield,
                }
            }),
        )
        .unwrap();
        assert!(rt.run(10_000));
    }
}
