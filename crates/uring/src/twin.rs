//! The synchronous twin: the ring engine's reference execution.
//!
//! [`SyncTwin`] accepts the same sequence of `(user_data, syscall)`
//! submissions as an [`crate::engine::Engine`] but performs every
//! dispatch through the kernel's fully instrumented synchronous entry
//! point ([`Kernel::syscall`]) and collects completions in a plain
//! vector — no rings, no marshalling, no batching. It deliberately
//! mirrors the engine's *scheduling policy* bit for bit: blocking
//! operations go to lazily spawned worker threads (created with the
//! same `ThreadSpawn` syscall, recycled LIFO, scanned FIFO at pump
//! time, released in scan order), so a twin run allocates the same
//! thread ids in the same order as the engine run.
//!
//! That determinism is what makes the differential VCs sharp: after
//! feeding both executions the same submissions, `veros-core` compares
//! the *entire* kernel views — processes, threads, files, futexes, id
//! counters — not just the completion values. Any divergence in how
//! the ring path touches kernel state shows up as a view mismatch.

use std::collections::VecDeque;

use veros_kernel::syscall::abi::{self, Regs};
use veros_kernel::syscall::{RingClass, SysError, Syscall};
use veros_kernel::thread::ThreadState;
use veros_kernel::{Kernel, Pid, Tid};

use crate::engine::MAX_CHAIN;
use crate::entry::{Cqe, SqeFlags, SubstSource};

/// A blocked submission parked in the twin's pending table.
struct Pending {
    user_data: u64,
    call: Syscall,
    worker: Tid,
}

/// A buffered link of an incomplete chain (mirror of the engine's
/// chain buffer).
struct TwinLink {
    user_data: u64,
    regs: Regs,
    flags: SqeFlags,
    poisoned: Option<SysError>,
}

/// Synchronous reference execution of a ring submission sequence.
pub struct SyncTwin {
    owner: (Pid, Tid),
    pending: VecDeque<Pending>,
    free_workers: Vec<Tid>,
    workers: Vec<Tid>,
    chain: Vec<TwinLink>,
    done: Vec<Cqe>,
}

impl SyncTwin {
    /// A twin for the same owner as the engine under test.
    pub fn new(owner: (Pid, Tid)) -> Self {
        Self {
            owner,
            pending: VecDeque::new(),
            free_workers: Vec::new(),
            workers: Vec::new(),
            chain: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Entries currently parked (blocked) in the twin.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Worker threads spawned so far.
    pub fn workers_spawned(&self) -> usize {
        self.workers.len()
    }

    /// Completions accumulated so far, in completion order.
    pub fn completions(&self) -> &[Cqe] {
        &self.done
    }

    /// Dispatches one submission synchronously, mirroring
    /// [`crate::engine::Engine`]'s routing.
    pub fn submit(&mut self, k: &mut Kernel, user_data: u64, call: Syscall) {
        match call.ring_class() {
            RingClass::TrapOnly => {
                self.done.push(Cqe { user_data, result: Err(SysError::Invalid) });
            }
            RingClass::Blocking => {
                self.dispatch_blocking(k, user_data, call);
            }
            RingClass::Inline => {
                let result = k.syscall(self.owner, call);
                self.done.push(Cqe { user_data, result });
            }
        }
    }

    /// Accepts one register-image submission with a raw flags word —
    /// the twin's mirror of the engine's chain-aware admission. Entries
    /// with no flags (and no open chain) route through [`Self::submit`];
    /// everything else buffers until the chain tail arrives.
    pub fn submit_sqe(&mut self, k: &mut Kernel, user_data: u64, regs: Regs, raw_flags: u64) {
        match SqeFlags::decode(raw_flags) {
            Ok(flags) if self.chain.is_empty() && flags == SqeFlags::NONE => {
                match abi::decode_regs(&regs) {
                    Ok(call) => self.submit(k, user_data, call),
                    Err(e) => self.done.push(Cqe { user_data, result: Err(e) }),
                }
            }
            Ok(flags) => {
                self.chain.push(TwinLink { user_data, regs, flags, poisoned: None });
                if !flags.link {
                    self.run_chain(k);
                } else if self.chain.len() >= MAX_CHAIN {
                    for link in std::mem::take(&mut self.chain) {
                        self.done.push(Cqe {
                            user_data: link.user_data,
                            result: Err(SysError::Invalid),
                        });
                    }
                }
            }
            Err(e) => {
                self.chain.push(TwinLink {
                    user_data,
                    regs,
                    flags: SqeFlags::NONE,
                    poisoned: Some(e),
                });
                self.run_chain(k);
            }
        }
    }

    /// Links buffered in an incomplete chain.
    pub fn chain_buffered(&self) -> usize {
        self.chain.len()
    }

    /// Executes a completed chain, mirroring the engine's semantics:
    /// links run in order, substitution consumes earlier `Ok` values,
    /// the first failure cancels the suffix, blocking ops are legal
    /// only at the tail.
    fn run_chain(&mut self, k: &mut Kernel) {
        let links = std::mem::take(&mut self.chain);
        let n = links.len();
        let mut prev: Option<u64> = None;
        let mut head: Option<u64> = None;
        let mut aborted = false;
        for (i, link) in links.into_iter().enumerate() {
            let user_data = link.user_data;
            if aborted {
                self.done.push(Cqe { user_data, result: Err(SysError::Cancelled) });
                continue;
            }
            if let Some(e) = link.poisoned {
                self.done.push(Cqe { user_data, result: Err(e) });
                aborted = true;
                continue;
            }
            let mut regs = link.regs;
            if let Some((src, reg)) = link.flags.subst {
                let value = match src {
                    SubstSource::Prev => prev,
                    SubstSource::Head => head,
                };
                let Some(v) = value else {
                    self.done.push(Cqe { user_data, result: Err(SysError::Invalid) });
                    aborted = true;
                    continue;
                };
                if let Err(e) = abi::substitute_reg(&mut regs, reg, v) {
                    self.done.push(Cqe { user_data, result: Err(e) });
                    aborted = true;
                    continue;
                }
            }
            let call = match abi::decode_regs(&regs) {
                Ok(call) => call,
                Err(e) => {
                    self.done.push(Cqe { user_data, result: Err(e) });
                    aborted = true;
                    continue;
                }
            };
            match call.ring_class() {
                RingClass::TrapOnly => {
                    self.done.push(Cqe { user_data, result: Err(SysError::Invalid) });
                    aborted = true;
                }
                RingClass::Blocking => {
                    if i + 1 == n {
                        self.dispatch_blocking(k, user_data, call);
                    } else {
                        self.done.push(Cqe { user_data, result: Err(SysError::Invalid) });
                        aborted = true;
                    }
                }
                RingClass::Inline => {
                    let result = k.syscall(self.owner, call);
                    self.done.push(Cqe { user_data, result });
                    match result {
                        Ok(v) => {
                            prev = Some(v);
                            if head.is_none() {
                                head = Some(v);
                            }
                        }
                        Err(_) => aborted = true,
                    }
                }
            }
        }
    }

    /// Dispatches a blocking-capable op on a worker thread, parking it
    /// if it blocked (shared by the plain and chained paths).
    fn dispatch_blocking(&mut self, k: &mut Kernel, user_data: u64, call: Syscall) {
        let worker = match self.acquire_worker(k) {
            Ok(w) => w,
            Err(e) => {
                self.done.push(Cqe { user_data, result: Err(e) });
                return;
            }
        };
        let result = k.syscall((self.owner.0, worker), call);
        if is_blocked(k, worker) {
            self.pending.push_back(Pending { user_data, call, worker });
        } else {
            self.free_workers.push(worker);
            self.done.push(Cqe { user_data, result });
        }
    }

    /// Completes pending entries whose workers have been woken —
    /// the twin's analogue of [`crate::engine::Engine::reap`].
    /// Returns the number completed.
    pub fn pump(&mut self, k: &mut Kernel) -> usize {
        let mut completed = 0;
        let in_table = self.pending.len();
        for _ in 0..in_table {
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            match k.sched.thread(p.worker).map(|t| t.state) {
                Some(ThreadState::Blocked(_)) => self.pending.push_back(p),
                Some(ThreadState::Exited) | None => {
                    completed += 1;
                    self.done
                        .push(Cqe { user_data: p.user_data, result: Err(SysError::NoSuchProcess) });
                }
                Some(ThreadState::Ready) | Some(ThreadState::Running { .. }) => match p.call {
                    Syscall::FutexWait { .. } => {
                        completed += 1;
                        self.free_workers.push(p.worker);
                        self.done.push(Cqe { user_data: p.user_data, result: Ok(0) });
                    }
                    Syscall::Wait { .. } => {
                        let result = k.syscall((self.owner.0, p.worker), p.call);
                        if is_blocked(k, p.worker) {
                            self.pending.push_back(p); // Spurious wake.
                        } else {
                            completed += 1;
                            self.free_workers.push(p.worker);
                            self.done.push(Cqe { user_data: p.user_data, result });
                        }
                    }
                    _ => {
                        completed += 1;
                        self.free_workers.push(p.worker);
                        self.done
                            .push(Cqe { user_data: p.user_data, result: Err(SysError::Invalid) });
                    }
                },
            }
        }
        completed
    }

    /// Cancels remaining pending entries and exits every worker,
    /// mirroring [`crate::engine::Engine::shutdown`].
    pub fn shutdown(&mut self, k: &mut Kernel) -> usize {
        let mut cancelled = 0;
        for link in std::mem::take(&mut self.chain) {
            cancelled += 1;
            self.done.push(Cqe { user_data: link.user_data, result: Err(SysError::Invalid) });
        }
        while let Some(p) = self.pending.pop_front() {
            cancelled += 1;
            self.done.push(Cqe { user_data: p.user_data, result: Err(SysError::Invalid) });
        }
        self.free_workers.clear();
        for w in self.workers.drain(..) {
            let _ = k.thread_exit(self.owner.0, w, 0);
        }
        cancelled
    }

    fn acquire_worker(&mut self, k: &mut Kernel) -> Result<Tid, SysError> {
        if let Some(w) = self.free_workers.pop() {
            return Ok(w);
        }
        let tid = k.syscall(self.owner, Syscall::ThreadSpawn { affinity_plus_one: 0 })?;
        let tid = Tid(tid);
        self.workers.push(tid);
        Ok(tid)
    }
}

fn is_blocked(k: &Kernel, tid: Tid) -> bool {
    matches!(k.sched.thread(tid).map(|t| t.state), Some(ThreadState::Blocked(_)))
}
