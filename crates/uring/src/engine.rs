//! The kernel-side ring engine: drain, dispatch, complete.
//!
//! [`Engine::submit_batch`] drains the submission queue and pushes each
//! entry through the kernel's typed dispatch
//! ([`Kernel::syscall_batched`] — identical semantics to the trap
//! path, with per-op bookkeeping hoisted to the ring's batch-level
//! instruments). Non-blocking operations complete inline, in submission
//! order. Operations that *block* their calling thread (futex wait,
//! wait on a running child) are dispatched on an engine-owned **worker
//! thread** and moved to the **pending table**, so one stuck entry
//! never head-of-line-blocks the ring; [`Engine::reap`] completes them
//! — possibly out of submission order — once their worker is woken.
//!
//! Workers are ordinary threads of the ring's owner process, created
//! lazily through the `ThreadSpawn` syscall and recycled through a free
//! list. That policy is deliberately deterministic (spawn on demand,
//! LIFO reuse, release in pending-scan order) because the synchronous
//! twin ([`crate::twin::SyncTwin`]) mirrors it thread for thread — the
//! differential VCs compare *entire* kernel views, thread ids included.
//!
//! Completion never loses an entry: if the completion queue is full the
//! CQE parks in an engine-side overflow backlog and is flushed, order
//! preserved, ahead of later completions.

use std::collections::VecDeque;

use veros_kernel::syscall::abi::{self, Regs};
use veros_kernel::syscall::marshal::Encoder;
use veros_kernel::syscall::{RingClass, SysError, SysRet, Syscall};
use veros_kernel::thread::ThreadState;
use veros_kernel::{Kernel, Pid, Tid};

use crate::entry::{Cqe, Sqe, SqeFlags, SubstSource};
use crate::metrics;
use crate::ring::KernelRing;

/// Longest accepted SQE chain. A writer that sets the link flag on more
/// consecutive entries is refused wholesale (every buffered link
/// completes `Err(Invalid)`, none dispatched) so a hostile producer
/// cannot grow the engine-side chain buffer without bound.
pub const MAX_CHAIN: usize = 16;

/// One not-yet-dispatched link of an in-flight chain. `poisoned`
/// carries a flags-word decode error: the link still occupies its chain
/// position (so earlier links dispatch normally) but fails without
/// dispatch when its turn comes.
struct ChainLink {
    user_data: u64,
    regs: Regs,
    flags: SqeFlags,
    poisoned: Option<SysError>,
}

/// How one chain link resolved (who posted its CQE, and what the chain
/// does next).
enum LinkRun {
    /// Dispatched, succeeded, CQE posted; the value feeds `prev`/`head`.
    Done(u64),
    /// Dispatched, failed, CQE posted; the suffix cancels.
    DispatchedErr,
    /// Never dispatched; the caller posts this error and the suffix
    /// cancels.
    Refused(SysError),
    /// Blocking tail moved to the pending table; CQE arrives via reap.
    Parked,
}

/// One dispatch the engine performed on behalf of an SQE, in the single
/// order the engine performed them — the linearization witness the VCs
/// replay. Blocking retries (a `Wait` redispatched after a wake) append
/// one record per dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The SQE's correlation token.
    pub user_data: u64,
    /// The dispatched syscall.
    pub call: Syscall,
    /// What the kernel returned for this dispatch.
    pub result: SysRet,
}

/// A blocked submission parked in the pending table.
struct Pending {
    user_data: u64,
    call: Syscall,
    worker: Tid,
}

/// The kernel-side ring driver. One engine per ring; the owner is the
/// process (and nominal thread) the ring belongs to.
pub struct Engine {
    ring: KernelRing,
    owner: (Pid, Tid),
    pending: VecDeque<Pending>,
    free_workers: Vec<Tid>,
    workers: Vec<Tid>,
    backlog: VecDeque<Cqe>,
    chain: Vec<ChainLink>,
    scratch: Encoder,
    log: Option<Vec<DispatchRecord>>,
}

impl Engine {
    /// Wraps the kernel side of a ring for `owner`.
    pub fn new(ring: KernelRing, owner: (Pid, Tid)) -> Self {
        Self {
            ring,
            owner,
            pending: VecDeque::new(),
            free_workers: Vec::new(),
            workers: Vec::new(),
            backlog: VecDeque::new(),
            chain: Vec::with_capacity(MAX_CHAIN),
            scratch: Encoder::new(),
            log: None,
        }
    }

    /// Enables the dispatch log (used by the linearization VCs).
    pub fn with_dispatch_log(mut self) -> Self {
        self.log = Some(Vec::new());
        self
    }

    /// The ring's owning `(pid, tid)`.
    pub fn owner(&self) -> (Pid, Tid) {
        self.owner
    }

    /// Entries currently parked in the pending table.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Links buffered in an incomplete chain (its tail SQE has not
    /// arrived yet).
    pub fn chain_buffered(&self) -> usize {
        self.chain.len()
    }

    /// Worker threads spawned so far (never reclaimed until
    /// [`Engine::shutdown`]).
    pub fn workers_spawned(&self) -> usize {
        self.workers.len()
    }

    /// Takes the accumulated dispatch log (empty unless
    /// [`Engine::with_dispatch_log`] was used).
    pub fn take_dispatch_log(&mut self) -> Vec<DispatchRecord> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// One poller pass: drain the submission queue, then reap woken
    /// blocked entries. Counts one `uring.poller.sweeps`. Returns true
    /// when the pass consumed or completed anything — a false return is
    /// the idle pass a drain loop stops on.
    pub fn pass(&mut self, k: &mut Kernel) -> bool {
        let consumed = self.submit_batch(k);
        let reaped = self.reap(k);
        metrics::POLLER_SWEEPS.inc();
        consumed > 0 || reaped > 0
    }

    /// Drains the submission queue, dispatching every entry. Returns
    /// the number of SQEs consumed.
    pub fn submit_batch(&mut self, k: &mut Kernel) -> usize {
        self.submit_batch_bounded(k, usize::MAX)
    }

    /// Drains at most `max` SQEs (a crash schedule's dispatch budget).
    /// Returns the number consumed.
    pub fn submit_batch_bounded(&mut self, k: &mut Kernel, max: usize) -> usize {
        self.flush_backlog();
        let mut drained = 0;
        while drained < max {
            let Some(bytes) = self.ring.sq.pop() else {
                break;
            };
            drained += 1;
            let Ok(sqe) = Sqe::decode(&bytes) else {
                // Unreachable through UserRing (slots are fixed-size
                // and written by the SQE codec), kept non-fatal so a
                // hostile shared-memory writer cannot wedge the drain.
                continue;
            };
            self.admit(k, sqe);
        }
        drained
    }

    /// Routes one decoded SQE: the flag-free singleton takes the PR-4
    /// fast path unchanged; anything flagged (or arriving while a chain
    /// is open) goes through the chain buffer.
    fn admit(&mut self, k: &mut Kernel, sqe: Sqe) {
        match sqe.sqe_flags() {
            Ok(flags) if self.chain.is_empty() && flags == SqeFlags::NONE => {
                match sqe.syscall() {
                    Ok(call) => self.dispatch(k, sqe.user_data, call),
                    Err(e) => self.post(Cqe { user_data: sqe.user_data, result: Err(e) }),
                }
            }
            Ok(flags) => {
                self.chain.push(ChainLink {
                    user_data: sqe.user_data,
                    regs: sqe.regs,
                    flags,
                    poisoned: None,
                });
                if !flags.link {
                    self.run_chain(k);
                } else if self.chain.len() >= MAX_CHAIN {
                    self.refuse_overlong_chain();
                }
            }
            // A malformed flags word cannot say whether it linked
            // onward, so it terminates the chain as a failing tail: the
            // buffered prefix dispatches normally, this link fails
            // without dispatch.
            Err(e) => {
                self.chain.push(ChainLink {
                    user_data: sqe.user_data,
                    regs: sqe.regs,
                    flags: SqeFlags::NONE,
                    poisoned: Some(e),
                });
                self.run_chain(k);
            }
        }
    }

    /// Executes a completed chain: links run in order, each may consume
    /// an earlier `Ok` value via its substitution descriptor, and the
    /// first failure cancels every later link without dispatching it
    /// (`Err(Cancelled)`). Blocking-capable ops are only legal as the
    /// chain tail — a mid-chain block would stall links that by
    /// construction cannot overtake it.
    fn run_chain(&mut self, k: &mut Kernel) {
        // Move the buffer out (run_link needs `&mut self`) but hand its
        // storage back afterwards: a chain per hot-path iteration must
        // not cost an allocator round trip.
        let mut links = std::mem::take(&mut self.chain);
        metrics::CHAINS_DISPATCHED.inc();
        let n = links.len();
        let mut prev: Option<u64> = None;
        let mut head: Option<u64> = None;
        let mut aborted_at: Option<usize> = None;
        let mut cancelled = 0usize;
        for (i, link) in links.iter().enumerate() {
            if aborted_at.is_some() {
                cancelled += 1;
                metrics::CHAIN_LINKS_CANCELLED.inc();
                self.post(Cqe {
                    user_data: link.user_data,
                    result: Err(SysError::Cancelled),
                });
                continue;
            }
            match self.run_link(k, link, prev, head, i + 1 == n) {
                LinkRun::Done(v) => {
                    prev = Some(v);
                    if head.is_none() {
                        head = Some(v);
                    }
                }
                // Dispatched and failed: its CQE carries the kernel's
                // error; the suffix gets cancelled.
                LinkRun::DispatchedErr => aborted_at = Some(i),
                // Never dispatched (poisoned flags, bad substitution,
                // bad opcode, mid-chain block): fails here, suffix
                // cancelled.
                LinkRun::Refused(e) => {
                    self.post(Cqe { user_data: link.user_data, result: Err(e) });
                    aborted_at = Some(i);
                }
                // Blocking tail parked; its CQE arrives through reap.
                LinkRun::Parked => {}
            }
        }
        if let Some(at) = aborted_at {
            metrics::CHAIN_ABORTS.inc();
            // Defensive atomicity self-check: every link after the
            // failing one — and only those — must have been cancelled.
            if cancelled != n - at - 1 {
                metrics::CHAIN_ATOMICITY_VIOLATIONS.inc();
            }
        } else if cancelled != 0 {
            metrics::CHAIN_ATOMICITY_VIOLATIONS.inc();
        }
        // An admit() during run_link cannot have rebuilt the buffer:
        // links only enter it from this drain loop. Reinstate the
        // (cleared) storage for the next chain.
        links.clear();
        self.chain = links;
    }

    /// Runs one chain link up to (and through) dispatch.
    fn run_link(
        &mut self,
        k: &mut Kernel,
        link: &ChainLink,
        prev: Option<u64>,
        head: Option<u64>,
        is_tail: bool,
    ) -> LinkRun {
        if let Some(e) = link.poisoned {
            return LinkRun::Refused(e);
        }
        let mut regs = link.regs;
        if let Some((src, reg)) = link.flags.subst {
            let value = match src {
                SubstSource::Prev => prev,
                SubstSource::Head => head,
            };
            // Substituting with no completed source value (a chain head
            // asking for Prev) is malformed, not a silent zero.
            let Some(v) = value else {
                return LinkRun::Refused(SysError::Invalid);
            };
            if let Err(e) = abi::substitute_reg(&mut regs, reg, v) {
                return LinkRun::Refused(e);
            }
        }
        // Substitution happens on the register image, so the patched
        // call passes through the same typed decode as a trap.
        let call = match abi::decode_regs(&regs) {
            Ok(call) => call,
            Err(e) => return LinkRun::Refused(e),
        };
        match call.ring_class() {
            RingClass::TrapOnly => LinkRun::Refused(SysError::Invalid),
            RingClass::Blocking => {
                if is_tail {
                    self.dispatch_blocking(k, link.user_data, call);
                    LinkRun::Parked
                } else {
                    LinkRun::Refused(SysError::Invalid)
                }
            }
            RingClass::Inline => {
                let result = k.syscall_batched(self.owner, call);
                self.record(link.user_data, call, result);
                self.post(Cqe { user_data: link.user_data, result });
                match result {
                    Ok(v) => LinkRun::Done(v),
                    Err(_) => LinkRun::DispatchedErr,
                }
            }
        }
    }

    /// Refuses a chain that exceeded [`MAX_CHAIN`] while still waiting
    /// for its tail: every buffered link completes `Err(Invalid)`,
    /// none dispatched.
    fn refuse_overlong_chain(&mut self) {
        metrics::CHAIN_ABORTS.inc();
        for link in std::mem::take(&mut self.chain) {
            self.post(Cqe { user_data: link.user_data, result: Err(SysError::Invalid) });
        }
    }

    /// Routes one decoded submission.
    fn dispatch(&mut self, k: &mut Kernel, user_data: u64, call: Syscall) {
        match call.ring_class() {
            RingClass::TrapOnly => {
                self.post(Cqe { user_data, result: Err(SysError::Invalid) });
            }
            RingClass::Blocking => {
                self.dispatch_blocking(k, user_data, call);
            }
            RingClass::Inline => {
                let result = k.syscall_batched(self.owner, call);
                self.record(user_data, call, result);
                self.post(Cqe { user_data, result });
            }
        }
    }

    /// Dispatches a blocking-capable operation on a worker thread and
    /// parks it in the pending table if it did block.
    fn dispatch_blocking(&mut self, k: &mut Kernel, user_data: u64, call: Syscall) {
        let worker = match self.acquire_worker(k) {
            Ok(w) => w,
            Err(e) => {
                self.post(Cqe { user_data, result: Err(e) });
                return;
            }
        };
        let result = k.syscall_batched((self.owner.0, worker), call);
        self.record(user_data, call, result);
        if worker_state(k, worker) == WorkerState::Blocked {
            metrics::OPS_PARKED.inc();
            self.pending.push_back(Pending { user_data, call, worker });
        } else {
            self.free_workers.push(worker);
            self.post(Cqe { user_data, result });
        }
    }

    /// Completes pending entries whose workers have been woken. Returns
    /// the number of CQEs posted. Entries whose wake turns out spurious
    /// (a `Wait` whose child is still running) re-park.
    pub fn reap(&mut self, k: &mut Kernel) -> usize {
        self.flush_backlog();
        let mut completed = 0;
        let in_table = self.pending.len();
        for _ in 0..in_table {
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            match worker_state(k, p.worker) {
                WorkerState::Blocked => self.pending.push_back(p),
                WorkerState::Gone => {
                    // The worker died under the entry (owner teardown
                    // raced the ring): complete, do not recycle.
                    completed += 1;
                    self.post(Cqe { user_data: p.user_data, result: Err(SysError::NoSuchProcess) });
                }
                WorkerState::Runnable => match p.call {
                    // A woken futex waiter's return value is the 0 the
                    // dispatch already produced; redispatching would
                    // re-block the worker.
                    Syscall::FutexWait { .. } => {
                        completed += 1;
                        self.free_workers.push(p.worker);
                        self.post(Cqe { user_data: p.user_data, result: Ok(0) });
                    }
                    // A woken waiter retries the reap, exactly like the
                    // synchronous restart protocol after a child exit.
                    Syscall::Wait { .. } => {
                        let result = k.syscall_batched((self.owner.0, p.worker), p.call);
                        self.record(p.user_data, p.call, result);
                        if worker_state(k, p.worker) == WorkerState::Blocked {
                            self.pending.push_back(p); // Spurious wake.
                        } else {
                            completed += 1;
                            self.free_workers.push(p.worker);
                            self.post(Cqe { user_data: p.user_data, result });
                        }
                    }
                    // Only the two blocking ops ever park (see
                    // `dispatch`); anything else is a table corruption
                    // surfaced as an explicit error, not a panic.
                    _ => {
                        completed += 1;
                        self.free_workers.push(p.worker);
                        self.post(Cqe { user_data: p.user_data, result: Err(SysError::Invalid) });
                    }
                },
            }
        }
        completed
    }

    /// Cancels whatever is still pending (CQE = `Err(Invalid)`) and
    /// exits every worker thread. Returns the number cancelled. Links
    /// of a chain whose tail never arrived are cancelled too — they
    /// were never dispatched.
    pub fn shutdown(&mut self, k: &mut Kernel) -> usize {
        let mut cancelled = 0;
        for link in std::mem::take(&mut self.chain) {
            cancelled += 1;
            self.post(Cqe { user_data: link.user_data, result: Err(SysError::Invalid) });
        }
        while let Some(p) = self.pending.pop_front() {
            cancelled += 1;
            self.post(Cqe { user_data: p.user_data, result: Err(SysError::Invalid) });
        }
        self.free_workers.clear();
        for w in self.workers.drain(..) {
            let _ = k.thread_exit(self.owner.0, w, 0);
        }
        cancelled
    }

    /// Pops a recycled worker or spawns a fresh one through the typed
    /// syscall path (so worker threads are ordinary, spec-visible
    /// threads of the owner process).
    fn acquire_worker(&mut self, k: &mut Kernel) -> Result<Tid, SysError> {
        if let Some(w) = self.free_workers.pop() {
            return Ok(w);
        }
        let tid = k.syscall_batched(self.owner, Syscall::ThreadSpawn { affinity_plus_one: 0 })?;
        let tid = Tid(tid);
        self.workers.push(tid);
        Ok(tid)
    }

    /// Appends to the dispatch log, when enabled.
    fn record(&mut self, user_data: u64, call: Syscall, result: SysRet) {
        if let Some(log) = &mut self.log {
            log.push(DispatchRecord { user_data, call, result });
        }
    }

    /// Posts a CQE, preserving order across CQ backpressure.
    fn post(&mut self, cqe: Cqe) {
        metrics::CQES_POSTED.inc();
        if !self.backlog.is_empty() {
            // Older overflowed entries must drain first.
            self.backlog.push_back(cqe);
            return;
        }
        let bytes = cqe.encode(&mut self.scratch);
        if self.ring.cq.push(bytes).is_err() {
            self.backlog.push_back(cqe);
        }
    }

    /// Moves overflowed CQEs into the queue as slots free up.
    fn flush_backlog(&mut self) {
        while let Some(cqe) = self.backlog.pop_front() {
            let bytes = cqe.encode(&mut self.scratch);
            if self.ring.cq.push(bytes).is_err() {
                self.backlog.push_front(cqe);
                break;
            }
        }
    }
}

/// How a pending entry's worker looks to the scheduler (tag only — the
/// engine never cares which core a runnable worker landed on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerState {
    Blocked,
    Runnable,
    Gone,
}

fn worker_state(k: &Kernel, tid: Tid) -> WorkerState {
    match k.sched.thread(tid).map(|t| t.state) {
        Some(ThreadState::Blocked(_)) => WorkerState::Blocked,
        Some(ThreadState::Ready) | Some(ThreadState::Running { .. }) => WorkerState::Runnable,
        Some(ThreadState::Exited) | None => WorkerState::Gone,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::SQE_BYTES;
    use crate::ring::pair;
    use veros_kernel::KernelConfig;

    fn boot() -> (Kernel, (Pid, Tid)) {
        let k = Kernel::boot(KernelConfig::default()).expect("boot");
        let owner = (k.init_pid, k.init_tid);
        (k, owner)
    }

    #[test]
    fn non_blocking_ops_complete_in_submission_order() {
        let (mut k, owner) = boot();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner).with_dispatch_log();
        for ud in 0..3 {
            user.submit(ud, &Syscall::ClockRead).unwrap();
        }
        assert_eq!(eng.submit_batch(&mut k), 3);
        let mut got = Vec::new();
        while let Some(cqe) = user.complete() {
            got.push(cqe);
        }
        assert_eq!(got.len(), 3);
        for (i, cqe) in got.iter().enumerate() {
            assert_eq!(cqe.user_data, i as u64, "FIFO completion order");
            assert!(cqe.result.is_ok());
        }
        let log = eng.take_dispatch_log();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.iter().map(|r| (r.user_data, r.result)).collect::<Vec<_>>(),
            got.iter().map(|c| (c.user_data, c.result)).collect::<Vec<_>>(),
            "dispatch log agrees with posted CQEs"
        );
    }

    #[test]
    fn bad_opcode_sqe_gets_a_badsyscall_cqe() {
        let (mut k, owner) = boot();
        let (mut user, kring) = pair(4);
        let mut eng = Engine::new(kring, owner);
        let mut scratch = Encoder::new();
        scratch.u64(77).u64(0); // token + empty flags word
        for r in [999u64, 0, 0, 0, 0, 0] {
            scratch.u64(r);
        }
        let mut raw = [0u8; SQE_BYTES];
        raw.copy_from_slice(scratch.as_slice());
        user.submit_raw(raw).unwrap();
        assert_eq!(eng.submit_batch(&mut k), 1);
        let cqe = user.complete().expect("rejection still completes");
        assert_eq!(cqe.user_data, 77);
        assert_eq!(cqe.result, Err(SysError::BadSyscall));
    }

    #[test]
    fn exit_is_refused_on_the_ring() {
        let (mut k, owner) = boot();
        let (mut user, kring) = pair(4);
        let mut eng = Engine::new(kring, owner);
        user.submit(1, &Syscall::Exit { code: 0 }).unwrap();
        eng.submit_batch(&mut k);
        assert_eq!(user.complete().unwrap().result, Err(SysError::Invalid));
        assert!(k.processes().get(owner.0).is_ok(), "owner still alive");
    }

    #[test]
    fn blocked_entry_does_not_head_of_line_block() {
        let (mut k, owner) = boot();
        k.syscall(owner, Syscall::Map { va: 0x50_0000, pages: 1, writable: true }).unwrap();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner);
        // Word at the va is 0, so expected=0 blocks the worker...
        user.submit(10, &Syscall::FutexWait { va: 0x50_0000, expected: 0 }).unwrap();
        // ...and the op behind it must still complete this batch.
        user.submit(11, &Syscall::ClockRead).unwrap();
        assert_eq!(eng.submit_batch(&mut k), 2);
        let cqe = user.complete().expect("ClockRead overtook the blocked wait");
        assert_eq!(cqe.user_data, 11);
        assert_eq!(user.complete(), None);
        assert_eq!(eng.pending_len(), 1);
        assert_eq!(eng.workers_spawned(), 1);

        // Not woken yet: reap completes nothing.
        assert_eq!(eng.reap(&mut k), 0);
        // Wake the futex; the parked entry completes with Ok(0).
        assert_eq!(k.syscall(owner, Syscall::FutexWake { va: 0x50_0000, count: 1 }), Ok(1));
        assert_eq!(eng.reap(&mut k), 1);
        let cqe = user.complete().expect("woken wait completed");
        assert_eq!(cqe.user_data, 10);
        assert_eq!(cqe.result, Ok(0));
        assert_eq!(eng.pending_len(), 0);
    }

    #[test]
    fn workers_are_recycled_lifo() {
        let (mut k, owner) = boot();
        k.syscall(owner, Syscall::Map { va: 0x50_0000, pages: 1, writable: true }).unwrap();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner);
        user.submit(1, &Syscall::FutexWait { va: 0x50_0000, expected: 0 }).unwrap();
        eng.submit_batch(&mut k);
        k.syscall(owner, Syscall::FutexWake { va: 0x50_0000, count: 1 }).unwrap();
        eng.reap(&mut k);
        assert_eq!(eng.workers_spawned(), 1);
        // A second blocking op reuses the freed worker, no new spawn.
        user.submit(2, &Syscall::FutexWait { va: 0x50_0000, expected: 0 }).unwrap();
        eng.submit_batch(&mut k);
        assert_eq!(eng.workers_spawned(), 1, "freed worker reused");
        k.syscall(owner, Syscall::FutexWake { va: 0x50_0000, count: 1 }).unwrap();
        eng.reap(&mut k);
        while user.complete().is_some() {}
    }

    #[test]
    fn shutdown_cancels_pending_and_exits_workers() {
        let (mut k, owner) = boot();
        k.syscall(owner, Syscall::Map { va: 0x50_0000, pages: 1, writable: true }).unwrap();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner);
        user.submit(5, &Syscall::FutexWait { va: 0x50_0000, expected: 0 }).unwrap();
        eng.submit_batch(&mut k);
        assert_eq!(eng.pending_len(), 1);
        assert_eq!(eng.shutdown(&mut k), 1);
        let cqe = user.complete().expect("cancelled entry still completes");
        assert_eq!(cqe.user_data, 5);
        assert_eq!(cqe.result, Err(SysError::Invalid));
        assert_eq!(eng.workers_spawned(), 0);
    }

    #[test]
    fn chained_open_read_close_forwards_the_fd() {
        let (mut k, owner) = boot();
        // Stage a path and a buffer in the owner's address space.
        k.syscall(owner, Syscall::Map { va: 0x40_0000, pages: 2, writable: true }).unwrap();
        k.write_user(owner.0, 0x40_0000, b"/f").unwrap();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner);
        // Create the file with some content first (unchained).
        let fd = k
            .syscall(owner, Syscall::Open { path_ptr: 0x40_0000, path_len: 2, create: true })
            .unwrap();
        k.syscall(owner, Syscall::Write { fd: fd as u32, buf_ptr: 0x40_0000, buf_len: 2 })
            .unwrap();
        k.syscall(owner, Syscall::Close { fd: fd as u32 }).unwrap();
        // open → read(fd := prev) → close(fd := head), one chain.
        let open = Syscall::Open { path_ptr: 0x40_0000, path_len: 2, create: false };
        let read = Syscall::Read { fd: 0, buf_ptr: 0x40_1000, buf_len: 2 };
        let close = Syscall::Close { fd: 0 };
        user.submit_flagged(1, &open, SqeFlags::NONE.linked()).unwrap();
        user.submit_flagged(2, &read, SqeFlags::NONE.linked().subst_prev(1)).unwrap();
        user.submit_flagged(3, &close, SqeFlags::NONE.subst_head(1)).unwrap();
        assert_eq!(eng.submit_batch(&mut k), 3);
        let open_cqe = user.complete().unwrap();
        assert_eq!(open_cqe.user_data, 1);
        let opened_fd = open_cqe.result.unwrap();
        assert_eq!(user.complete().unwrap().result, Ok(2), "read got the bytes");
        assert_eq!(user.complete().unwrap().result, Ok(0), "close succeeded");
        // The chained close really closed the chained open's fd.
        assert_eq!(
            k.syscall(owner, Syscall::Close { fd: opened_fd as u32 }),
            Err(SysError::BadFd),
            "fd was closed by the chain"
        );
        let buf = k.read_user(owner.0, 0x40_1000, 2).unwrap();
        assert_eq!(&buf, b"/f", "chained read filled the buffer");
    }

    #[test]
    fn mid_chain_failure_cancels_exactly_the_suffix() {
        let (mut k, owner) = boot();
        k.syscall(owner, Syscall::Map { va: 0x40_0000, pages: 1, writable: true }).unwrap();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner);
        // clock → read(bad fd) → clock → clock: link 1 fails, 2..3
        // cancel, link 0 stays completed.
        let bad_read = Syscall::Read { fd: 9999, buf_ptr: 0x40_0000, buf_len: 8 };
        user.submit_flagged(0, &Syscall::ClockRead, SqeFlags::NONE.linked()).unwrap();
        user.submit_flagged(1, &bad_read, SqeFlags::NONE.linked()).unwrap();
        user.submit_flagged(2, &Syscall::ClockRead, SqeFlags::NONE.linked()).unwrap();
        user.submit_flagged(3, &Syscall::ClockRead, SqeFlags::NONE).unwrap();
        assert_eq!(eng.submit_batch(&mut k), 4);
        assert!(user.complete().unwrap().result.is_ok(), "prefix completed");
        assert_eq!(user.complete().unwrap().result, Err(SysError::BadFd));
        assert_eq!(user.complete().unwrap().result, Err(SysError::Cancelled));
        assert_eq!(user.complete().unwrap().result, Err(SysError::Cancelled));
        assert_eq!(user.complete(), None, "exactly four completions");
    }

    #[test]
    fn chain_split_across_drains_stays_buffered_until_the_tail() {
        let (mut k, owner) = boot();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner);
        user.submit_flagged(0, &Syscall::ClockRead, SqeFlags::NONE.linked()).unwrap();
        assert_eq!(eng.submit_batch(&mut k), 1);
        assert_eq!(user.complete(), None, "headless chain does not complete early");
        assert_eq!(eng.chain_buffered(), 1);
        user.submit_flagged(1, &Syscall::ClockRead, SqeFlags::NONE).unwrap();
        assert_eq!(eng.submit_batch(&mut k), 1);
        assert_eq!(eng.chain_buffered(), 0);
        assert_eq!(user.complete().map(|c| c.user_data), Some(0));
        assert_eq!(user.complete().map(|c| c.user_data), Some(1));
    }

    #[test]
    fn substitution_without_a_source_value_fails_the_link() {
        let (mut k, owner) = boot();
        let (mut user, kring) = pair(4);
        let mut eng = Engine::new(kring, owner);
        // A chain head asking for Prev has nothing to consume.
        let close = Syscall::Close { fd: 0 };
        user.submit_flagged(7, &close, SqeFlags::NONE.subst_prev(1)).unwrap();
        eng.submit_batch(&mut k);
        assert_eq!(user.complete().unwrap().result, Err(SysError::Invalid));
    }

    #[test]
    fn mid_chain_blocking_op_is_refused_and_aborts_the_suffix() {
        let (mut k, owner) = boot();
        k.syscall(owner, Syscall::Map { va: 0x50_0000, pages: 1, writable: true }).unwrap();
        let (mut user, kring) = pair(8);
        let mut eng = Engine::new(kring, owner);
        let wait = Syscall::FutexWait { va: 0x50_0000, expected: 0 };
        user.submit_flagged(0, &wait, SqeFlags::NONE.linked()).unwrap();
        user.submit_flagged(1, &Syscall::ClockRead, SqeFlags::NONE).unwrap();
        eng.submit_batch(&mut k);
        assert_eq!(user.complete().unwrap().result, Err(SysError::Invalid));
        assert_eq!(user.complete().unwrap().result, Err(SysError::Cancelled));
        assert_eq!(eng.pending_len(), 0, "nothing parked");
        // At the tail the same op is legal and parks as usual.
        user.submit_flagged(2, &Syscall::ClockRead, SqeFlags::NONE.linked()).unwrap();
        user.submit_flagged(3, &wait, SqeFlags::NONE).unwrap();
        eng.submit_batch(&mut k);
        assert!(user.complete().unwrap().result.is_ok());
        assert_eq!(eng.pending_len(), 1, "blocking tail parked");
        k.syscall(owner, Syscall::FutexWake { va: 0x50_0000, count: 1 }).unwrap();
        eng.reap(&mut k);
        assert_eq!(user.complete().unwrap().result, Ok(0));
    }

    #[test]
    fn overlong_chain_is_refused_wholesale() {
        let (mut k, owner) = boot();
        let (mut user, kring) = pair(MAX_CHAIN + 4);
        let mut eng = Engine::new(kring, owner);
        for ud in 0..MAX_CHAIN as u64 {
            user.submit_flagged(ud, &Syscall::ClockRead, SqeFlags::NONE.linked()).unwrap();
        }
        eng.submit_batch(&mut k);
        let mut got = 0;
        while let Some(cqe) = user.complete() {
            assert_eq!(cqe.result, Err(SysError::Invalid));
            got += 1;
        }
        assert_eq!(got, MAX_CHAIN, "every buffered link refused, none dispatched");
        assert_eq!(eng.chain_buffered(), 0);
    }

    #[test]
    fn cq_backpressure_overflows_to_backlog_in_order() {
        let (mut k, owner) = boot();
        // CQ depth 2: three completions overflow by one.
        let (mut user, kring) = pair(2);
        let mut eng = Engine::new(kring, owner);
        user.submit(0, &Syscall::ClockRead).unwrap();
        user.submit(1, &Syscall::ClockRead).unwrap();
        eng.submit_batch(&mut k);
        user.submit(2, &Syscall::ClockRead).unwrap();
        eng.submit_batch(&mut k); // CQ full: token 2 parks in the backlog.
        assert_eq!(user.complete().map(|c| c.user_data), Some(0));
        assert_eq!(user.complete().map(|c| c.user_data), Some(1));
        assert_eq!(user.complete(), None, "overflowed CQE not yet flushed");
        eng.submit_batch(&mut k); // Any engine call flushes the backlog.
        assert_eq!(user.complete().map(|c| c.user_data), Some(2), "order preserved");
    }
}
