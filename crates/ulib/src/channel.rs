//! A bounded SPSC message channel in user memory.
//!
//! Layout at `base_va` (one page):
//!
//! ```text
//! +0   head u32   (consumer cursor, slot index)
//! +4   tail u32   (producer cursor, slot index)
//! +8   capacity u32
//! +12  slot_size u32
//! +16  slots... (capacity × slot_size; slot = len u32 + bytes)
//! ```
//!
//! Single-producer single-consumer, with futex parking on `head` (full)
//! and `tail` (empty). The invariant `tail - head <= capacity` and FIFO
//! delivery are checked by the tests.

use veros_kernel::syscall::{SysError, Syscall};

use crate::runtime::{ChainLink, Ctx};

/// Result of a channel operation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanAttempt {
    /// The message was sent / received.
    Done,
    /// The channel was full/empty and the thread parked; retry later.
    BlockedNow,
    /// State moved concurrently; retry.
    Retry,
}

/// An SPSC channel handle.
#[derive(Clone, Copy, Debug)]
pub struct UChannel {
    /// Base address of the channel region.
    pub base_va: u64,
}

impl UChannel {
    const HEAD: u64 = 0;
    const TAIL: u64 = 4;
    const CAP: u64 = 8;
    const SLOT_SIZE: u64 = 12;
    const SLOTS: u64 = 16;

    /// Creates a handle.
    pub fn at(base_va: u64) -> Self {
        Self { base_va }
    }

    /// Initializes the channel header (call once, before use).
    pub fn init(&self, ctx: &mut Ctx<'_>, capacity: u32, slot_size: u32) -> Result<(), SysError> {
        assert!(capacity.is_power_of_two(), "capacity must be a power of two");
        assert!(slot_size >= 8);
        ctx.write_u32(self.base_va + Self::HEAD, 0)?;
        ctx.write_u32(self.base_va + Self::TAIL, 0)?;
        ctx.write_u32(self.base_va + Self::CAP, capacity)?;
        ctx.write_u32(self.base_va + Self::SLOT_SIZE, slot_size)?;
        Ok(())
    }

    fn slot_va(&self, idx: u32, cap: u32, slot_size: u32) -> u64 {
        self.base_va + Self::SLOTS + ((idx & (cap - 1)) as u64) * slot_size as u64
    }

    /// One send attempt (producer side).
    pub fn send_attempt(&self, ctx: &mut Ctx<'_>, msg: &[u8]) -> Result<ChanAttempt, SysError> {
        let cap = ctx.read_u32(self.base_va + Self::CAP)?;
        let slot_size = ctx.read_u32(self.base_va + Self::SLOT_SIZE)?;
        assert!(msg.len() as u32 <= slot_size - 4, "message exceeds slot");
        let head = ctx.read_u32(self.base_va + Self::HEAD)?;
        let tail = ctx.read_u32(self.base_va + Self::TAIL)?;
        if tail.wrapping_sub(head) >= cap {
            // Full: park on head until the consumer moves it.
            return match ctx.sys(Syscall::FutexWait {
                va: self.base_va + Self::HEAD,
                expected: head,
            }) {
                Ok(_) => Ok(ChanAttempt::BlockedNow),
                Err(SysError::WouldBlock) => Ok(ChanAttempt::Retry),
                Err(e) => Err(e),
            };
        }
        let slot = self.slot_va(tail, cap, slot_size);
        ctx.write_u32(slot, msg.len() as u32)?;
        ctx.write_bytes(slot + 4, msg)?;
        ctx.write_u32(self.base_va + Self::TAIL, tail.wrapping_add(1))?;
        // Wake a consumer parked on tail.
        ctx.sys(Syscall::FutexWake {
            va: self.base_va + Self::TAIL,
            count: 1,
        })?;
        Ok(ChanAttempt::Done)
    }

    /// One receive attempt (consumer side). On success the message is in
    /// `out`.
    pub fn recv_attempt(
        &self,
        ctx: &mut Ctx<'_>,
        out: &mut Vec<u8>,
    ) -> Result<ChanAttempt, SysError> {
        let cap = ctx.read_u32(self.base_va + Self::CAP)?;
        let slot_size = ctx.read_u32(self.base_va + Self::SLOT_SIZE)?;
        let head = ctx.read_u32(self.base_va + Self::HEAD)?;
        let tail = ctx.read_u32(self.base_va + Self::TAIL)?;
        if head == tail {
            // Empty: park on tail until the producer moves it.
            return match ctx.sys(Syscall::FutexWait {
                va: self.base_va + Self::TAIL,
                expected: tail,
            }) {
                Ok(_) => Ok(ChanAttempt::BlockedNow),
                Err(SysError::WouldBlock) => Ok(ChanAttempt::Retry),
                Err(e) => Err(e),
            };
        }
        let slot = self.slot_va(head, cap, slot_size);
        let len = ctx.read_u32(slot)?;
        *out = ctx.read_bytes(slot + 4, len as u64)?;
        ctx.write_u32(self.base_va + Self::HEAD, head.wrapping_add(1))?;
        // Wake a producer parked on head.
        ctx.sys(Syscall::FutexWake {
            va: self.base_va + Self::HEAD,
            count: 1,
        })?;
        Ok(ChanAttempt::Done)
    }

    /// A pipeline stage's fused step: send `msg` on `self` and then
    /// attempt to receive from `rx`, combining the send-side wake with
    /// the receive-side wake or park into **one** chained submission
    /// (`FutexWake` LINK `FutexWake`/`FutexWait`) instead of two
    /// separate syscalls. Returns the outcome of each half; when the
    /// send side is full this parks on `self` exactly like
    /// [`UChannel::send_attempt`] and reports the receive half as
    /// [`ChanAttempt::Retry`] (it was not attempted).
    pub fn send_then_recv_attempt(
        &self,
        ctx: &mut Ctx<'_>,
        msg: &[u8],
        rx: &UChannel,
        out: &mut Vec<u8>,
    ) -> Result<(ChanAttempt, ChanAttempt), SysError> {
        // Send half, stopping short of the wake.
        let cap = ctx.read_u32(self.base_va + Self::CAP)?;
        let slot_size = ctx.read_u32(self.base_va + Self::SLOT_SIZE)?;
        assert!(msg.len() as u32 <= slot_size - 4, "message exceeds slot");
        let head = ctx.read_u32(self.base_va + Self::HEAD)?;
        let tail = ctx.read_u32(self.base_va + Self::TAIL)?;
        if tail.wrapping_sub(head) >= cap {
            // Full: park on head as the plain path would; nothing to
            // chain (the receive half is not attempted this step).
            return match ctx.sys(Syscall::FutexWait {
                va: self.base_va + Self::HEAD,
                expected: head,
            }) {
                Ok(_) => Ok((ChanAttempt::BlockedNow, ChanAttempt::Retry)),
                Err(SysError::WouldBlock) => Ok((ChanAttempt::Retry, ChanAttempt::Retry)),
                Err(e) => Err(e),
            };
        }
        let slot = self.slot_va(tail, cap, slot_size);
        ctx.write_u32(slot, msg.len() as u32)?;
        ctx.write_bytes(slot + 4, msg)?;
        ctx.write_u32(self.base_va + Self::TAIL, tail.wrapping_add(1))?;
        // Receive half, up to the wake-or-park decision.
        let rcap = ctx.read_u32(rx.base_va + Self::CAP)?;
        let rslot_size = ctx.read_u32(rx.base_va + Self::SLOT_SIZE)?;
        let rhead = ctx.read_u32(rx.base_va + Self::HEAD)?;
        let rtail = ctx.read_u32(rx.base_va + Self::TAIL)?;
        if rhead == rtail {
            // Empty: chain the send's consumer wake with the park on
            // `rx`'s tail. The wait is the chain tail, so it may
            // legally block; its surrogate return matches the plain
            // path's.
            let rs = ctx.sys_chain(&[
                ChainLink::plain(Syscall::FutexWake {
                    va: self.base_va + Self::TAIL,
                    count: 1,
                }),
                ChainLink::plain(Syscall::FutexWait {
                    va: rx.base_va + Self::TAIL,
                    expected: rtail,
                }),
            ]);
            rs[0]?;
            let recv = match rs[1] {
                Ok(_) => ChanAttempt::BlockedNow,
                Err(SysError::WouldBlock) => ChanAttempt::Retry,
                Err(e) => return Err(e),
            };
            return Ok((ChanAttempt::Done, recv));
        }
        // Both sides ready: take the message, then chain the two wakes.
        let rslot = rx.slot_va(rhead, rcap, rslot_size);
        let len = ctx.read_u32(rslot)?;
        *out = ctx.read_bytes(rslot + 4, len as u64)?;
        ctx.write_u32(rx.base_va + Self::HEAD, rhead.wrapping_add(1))?;
        let rs = ctx.sys_chain(&[
            ChainLink::plain(Syscall::FutexWake {
                va: self.base_va + Self::TAIL,
                count: 1,
            }),
            ChainLink::plain(Syscall::FutexWake {
                va: rx.base_va + Self::HEAD,
                count: 1,
            }),
        ]);
        rs[0]?;
        rs[1]?;
        Ok((ChanAttempt::Done, ChanAttempt::Done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, Step};
    use std::sync::{Arc, Mutex};
    use veros_kernel::{Kernel, KernelConfig, Syscall as K};

    #[test]
    fn fifo_delivery_through_a_tiny_buffer() {
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
                    pages: 2,
                    writable: true,
                },
            )
            .unwrap();

        const N: u32 = 40;
        let chan = UChannel::at(0x10_0000);
        let received = Arc::new(Mutex::new(Vec::new()));

        // Producer on the init thread: init channel, then stream N
        // messages through a 4-slot buffer (forcing full-buffer parks).
        let mut initialized = false;
        let mut next = 0u32;
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                if !initialized {
                    chan.init(ctx, 4, 16).unwrap();
                    initialized = true;
                    return Step::Yield;
                }
                if next == N {
                    return Step::Done(0);
                }
                match chan.send_attempt(ctx, &next.to_le_bytes()).unwrap() {
                    ChanAttempt::Done => {
                        next += 1;
                        Step::Yield
                    }
                    _ => Step::Yield,
                }
            }),
        );

        // Consumer: collect N messages. It may start before init; an
        // uninitialized header has cap 0, which recv treats as empty
        // (head==tail) and parks — the producer's first wake frees it.
        let rx = Arc::clone(&received);
        let mut got = 0u32;
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(move |ctx| {
                if got == N {
                    return Step::Done(0);
                }
                let mut buf = Vec::new();
                match chan.recv_attempt(ctx, &mut buf).unwrap() {
                    ChanAttempt::Done => {
                        rx.lock().unwrap().push(u32::from_le_bytes(
                            buf.try_into().expect("4 bytes"),
                        ));
                        got += 1;
                        Step::Yield
                    }
                    _ => Step::Yield,
                }
            }),
        )
        .unwrap();

        assert!(rt.run(100_000), "channel wedged");
        let got = received.lock().unwrap();
        assert_eq!(*got, (0..N).collect::<Vec<u32>>(), "FIFO order violated");
    }

    /// Ping-pong through the fused send+recv path: the pinger sends on
    /// A and parks for the pong on B in one chained submission; the
    /// ponger echoes with the plain attempts. Identical behaviour on
    /// the trap path and on the ring.
    fn scenario_chained_ping_pong(uring: bool) {
        let kernel = Kernel::boot(KernelConfig {
            cores: 2,
            ..Default::default()
        })
        .unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        if uring {
            rt.enable_uring(8);
        }
        rt.kernel.sched.timeslice = 1;
        rt.kernel
            .syscall(
                (pid, tid),
                K::Map { va: 0x10_0000, pages: 2, writable: true },
            )
            .unwrap();
        const N: u32 = 12;
        let a = UChannel::at(0x10_0000);
        let b = UChannel::at(0x10_1000);
        let pongs = Arc::new(Mutex::new(Vec::new()));

        let log = Arc::clone(&pongs);
        let mut initialized = false;
        let (mut sent, mut got) = (0u32, 0u32);
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                if !initialized {
                    a.init(ctx, 4, 16).unwrap();
                    b.init(ctx, 4, 16).unwrap();
                    initialized = true;
                    return Step::Yield;
                }
                if got == N {
                    return Step::Done(0);
                }
                let mut buf = Vec::new();
                if sent == got {
                    // Fused: publish the ping and park for the pong in
                    // one chained submission.
                    let (s, r) = a
                        .send_then_recv_attempt(ctx, &sent.to_le_bytes(), &b, &mut buf)
                        .unwrap();
                    if s == ChanAttempt::Done {
                        sent += 1;
                    }
                    if r == ChanAttempt::Done {
                        log.lock().unwrap().push(u32::from_le_bytes(
                            buf.try_into().expect("4 bytes"),
                        ));
                        got += 1;
                    }
                } else if b.recv_attempt(ctx, &mut buf).unwrap() == ChanAttempt::Done {
                    log.lock().unwrap().push(u32::from_le_bytes(
                        buf.try_into().expect("4 bytes"),
                    ));
                    got += 1;
                }
                Step::Yield
            }),
        );

        // The ponger: echo every ping from A back on B, then finish.
        let mut pending: Option<Vec<u8>> = None;
        let mut echoed = 0u32;
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(move |ctx| {
                if let Some(msg) = pending.clone() {
                    if b.send_attempt(ctx, &msg).unwrap() == ChanAttempt::Done {
                        pending = None;
                        echoed += 1;
                    }
                    return Step::Yield;
                }
                if echoed == N {
                    return Step::Done(0);
                }
                let mut buf = Vec::new();
                if a.recv_attempt(ctx, &mut buf).unwrap() == ChanAttempt::Done {
                    pending = Some(buf);
                }
                Step::Yield
            }),
        )
        .unwrap();

        assert!(rt.run(100_000), "ping-pong wedged");
        assert_eq!(
            *pongs.lock().unwrap(),
            (0..N).collect::<Vec<u32>>(),
            "pongs arrived in order"
        );
    }

    #[test]
    fn chained_ping_pong_sync() {
        scenario_chained_ping_pong(false);
    }

    #[test]
    fn chained_ping_pong_on_the_ring() {
        scenario_chained_ping_pong(true);
    }

    /// When both sides are ready the fused step chains two wakes and
    /// completes without parking.
    fn scenario_fused_both_ready(uring: bool) {
        let kernel = Kernel::boot(KernelConfig::default()).unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        if uring {
            rt.enable_uring(8);
        }
        rt.kernel
            .syscall(
                (pid, tid),
                K::Map { va: 0x10_0000, pages: 2, writable: true },
            )
            .unwrap();
        let a = UChannel::at(0x10_0000);
        let b = UChannel::at(0x10_1000);
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                a.init(ctx, 4, 16).unwrap();
                b.init(ctx, 4, 16).unwrap();
                // Pre-fill the receive side so both halves are ready.
                assert_eq!(b.send_attempt(ctx, b"pong").unwrap(), ChanAttempt::Done);
                let mut buf = Vec::new();
                let (s, r) = a
                    .send_then_recv_attempt(ctx, b"ping", &b, &mut buf)
                    .unwrap();
                assert_eq!((s, r), (ChanAttempt::Done, ChanAttempt::Done));
                assert_eq!(buf, b"pong");
                // The ping landed on A.
                let mut echo = Vec::new();
                assert_eq!(a.recv_attempt(ctx, &mut echo).unwrap(), ChanAttempt::Done);
                assert_eq!(echo, b"ping");
                Step::Done(0)
            }),
        );
        assert!(rt.run(100));
    }

    #[test]
    fn fused_both_ready_sync() {
        scenario_fused_both_ready(false);
    }

    #[test]
    fn fused_both_ready_on_the_ring() {
        scenario_fused_both_ready(true);
    }
}
