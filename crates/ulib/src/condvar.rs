//! A futex condition variable.
//!
//! The classic sequence-counter design: `wait` snapshots the counter,
//! releases the mutex, and sleeps until the counter moves; `notify`
//! bumps the counter and wakes. As with the mutex, `wait` is a
//! multi-quantum protocol: the caller drives [`UCondvar::wait_step`]
//! with a small per-waiter [`WaitPhase`] until it reports the mutex
//! re-acquired.

use veros_kernel::syscall::{SysError, Syscall};

use crate::mutex::{LockAttempt, LockState, UMutex};
use crate::runtime::Ctx;

/// A condition variable over the `u32` sequence counter at `seq_va`.
#[derive(Clone, Copy, Debug)]
pub struct UCondvar {
    /// Address of the sequence word (mapped, writable, initialized 0).
    pub seq_va: u64,
}

/// Per-waiter protocol state for [`UCondvar::wait_step`].
#[derive(Clone, Debug, Default)]
pub enum WaitPhase {
    /// Not yet waiting: snapshot + release the mutex + sleep.
    #[default]
    Start,
    /// Slept (or sleep refused because the counter already moved);
    /// re-acquiring the mutex.
    Relock {
        /// Lock-protocol state for the re-acquisition.
        lock: LockState,
    },
}

/// Result of one wait step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitStep {
    /// Still parked or re-acquiring; step again when scheduled.
    Pending,
    /// Woken and mutex re-acquired: re-check the predicate.
    Reacquired,
}

impl UCondvar {
    /// Creates a handle.
    pub fn at(seq_va: u64) -> Self {
        Self { seq_va }
    }

    /// One step of the wait protocol. Call with the mutex held in
    /// `Start` phase; returns [`WaitStep::Reacquired`] once the caller
    /// holds the mutex again after a notification.
    pub fn wait_step(
        &self,
        ctx: &mut Ctx<'_>,
        mutex: &UMutex,
        phase: &mut WaitPhase,
    ) -> Result<WaitStep, SysError> {
        match phase {
            WaitPhase::Start => {
                let seq = ctx.read_u32(self.seq_va)?;
                mutex.unlock(ctx)?;
                *phase = WaitPhase::Relock {
                    lock: LockState::default(),
                };
                match ctx.sys(Syscall::FutexWait {
                    va: self.seq_va,
                    expected: seq,
                }) {
                    // Enqueued: we are blocked until a notify.
                    Ok(_) => Ok(WaitStep::Pending),
                    // Counter already moved: go straight to relock.
                    Err(SysError::WouldBlock) => Ok(WaitStep::Pending),
                    Err(e) => Err(e),
                }
            }
            WaitPhase::Relock { lock } => match mutex.lock_attempt(ctx, lock)? {
                LockAttempt::Acquired => {
                    *phase = WaitPhase::Start;
                    Ok(WaitStep::Reacquired)
                }
                LockAttempt::BlockedNow | LockAttempt::Retry => Ok(WaitStep::Pending),
            },
        }
    }

    /// Notifies up to `count` waiters (bump the counter, then wake).
    pub fn notify(&self, ctx: &mut Ctx<'_>, count: u32) -> Result<u64, SysError> {
        let seq = ctx.read_u32(self.seq_va)?;
        ctx.write_u32(self.seq_va, seq.wrapping_add(1))?;
        ctx.sys(Syscall::FutexWake {
            va: self.seq_va,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, Step};
    use std::cell::Cell;
    use std::rc::Rc;
    use veros_kernel::{Kernel, KernelConfig};

    /// A producer/consumer handshake: consumers wait on a condvar until
    /// the shared flag is set; the producer sets it and notifies. Every
    /// consumer must observe the flag exactly once, after the producer.
    #[test]
    fn consumers_wake_only_after_the_flag_is_set() {
        let kernel = Kernel::boot(KernelConfig {
            cores: 2,
            ..Default::default()
        })
        .unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        rt.kernel.sched.timeslice = 1;
        // Layout: mutex @ +0, condvar seq @ +4, flag @ +8.
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
        let premature = Rc::new(Cell::new(0));
        let woken_ok = Rc::new(Cell::new(0));

        const MUTEX: u64 = 0x10_0000;
        const SEQ: u64 = 0x10_0004;
        const FLAG: u64 = 0x10_0008;

        // Producer (attached to init): give consumers time to park,
        // then set the flag under the mutex and notify all.
        let mut delay = 0u32;
        let mut lock = LockState::default();
        let mut phase = 0u8;
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                if delay < 20 {
                    delay += 1;
                    return Step::Yield;
                }
                match phase {
                    0 => match UMutex::at(MUTEX).lock_attempt(ctx, &mut lock).unwrap() {
                        LockAttempt::Acquired => {
                            ctx.write_u32(FLAG, 1).unwrap();
                            UMutex::at(MUTEX).unlock(ctx).unwrap();
                            UCondvar::at(SEQ).notify(ctx, u32::MAX).unwrap();
                            phase = 1;
                            Step::Done(0)
                        }
                        _ => Step::Yield,
                    },
                    _ => Step::Done(0),
                }
            }),
        );

        for _ in 0..3 {
            let premature = Rc::clone(&premature);
            let woken_ok = Rc::clone(&woken_ok);
            let mut lock = LockState::default();
            let mut wait_phase = WaitPhase::default();
            // Consumer states: acquiring the lock for the first check,
            // holding it, or inside the wait protocol.
            let mut holding = false;
            let mut waiting = false;
            rt.spawn_task(
                (pid, tid),
                None,
                Box::new(move |ctx| {
                    let mutex = UMutex::at(MUTEX);
                    let cv = UCondvar::at(SEQ);
                    if waiting {
                        // Drive the wait protocol to completion.
                        match cv.wait_step(ctx, &mutex, &mut wait_phase).unwrap() {
                            WaitStep::Reacquired => {
                                waiting = false;
                                holding = true;
                            }
                            WaitStep::Pending => return Step::Yield,
                        }
                    }
                    if !holding {
                        match mutex.lock_attempt(ctx, &mut lock).unwrap() {
                            LockAttempt::Acquired => holding = true,
                            _ => return Step::Yield,
                        }
                    }
                    // Holding the mutex: check the predicate.
                    if ctx.read_u32(FLAG).unwrap() == 1 {
                        woken_ok.set(woken_ok.get() + 1);
                        mutex.unlock(ctx).unwrap();
                        return Step::Done(0);
                    }
                    // A consumer may only reach "predicate false while
                    // holding" before the producer ran — never after a
                    // completed wait round that the producer notified.
                    if ctx.read_u32(SEQ).unwrap() != 0 && !waiting {
                        premature.set(premature.get() + 1);
                    }
                    // Predicate false: start waiting (releases the
                    // mutex in the Start step).
                    waiting = true;
                    holding = false;
                    match cv.wait_step(ctx, &mutex, &mut wait_phase).unwrap() {
                        WaitStep::Reacquired => {
                            waiting = false;
                            holding = true;
                        }
                        WaitStep::Pending => {}
                    }
                    Step::Yield
                }),
            )
            .unwrap();
        }
        assert!(rt.run(100_000), "condvar handshake wedged");
        assert_eq!(premature.get(), 0);
        assert_eq!(woken_ok.get(), 3);
    }

    #[test]
    fn notify_without_waiters_is_harmless() {
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
                let cv = UCondvar::at(0x10_0004);
                assert_eq!(cv.notify(ctx, 1).unwrap(), 0);
                assert_eq!(ctx.read_u32(0x10_0004).unwrap(), 1, "seq bumped");
                Step::Done(0)
            }),
        );
        assert!(rt.run(10));
    }
}
