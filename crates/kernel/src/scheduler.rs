//! Per-core round-robin scheduling.
//!
//! The abstract execution model of Section 3 says context switches appear
//! to processes "as just another interleaving of threads" — the scheduler
//! therefore only has to guarantee *sane* interleavings: every core runs
//! at most one thread, only ready threads run, blocked threads stay off
//! cores, and runnable threads are not starved (round-robin). Those four
//! properties are the scheduler's spec, checked by a state-machine VC in
//! `veros-core` and directly by the tests below.

use std::collections::{BTreeMap, VecDeque};

use crate::thread::{BlockReason, Thread, ThreadState, Tid};
use crate::process::Pid;

/// Scheduler errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The tid is not known to the scheduler.
    NoSuchThread,
    /// The thread is not in the state the operation requires.
    WrongState,
    /// Core index out of range.
    NoSuchCore,
}

/// A multi-core round-robin scheduler with optional affinity.
#[derive(Clone, Debug)]
pub struct Scheduler {
    cores: usize,
    /// Per-core run queues.
    queues: Vec<VecDeque<Tid>>,
    /// What each core currently runs.
    current: Vec<Option<Tid>>,
    /// All threads.
    threads: BTreeMap<Tid, Thread>,
    next_tid: u64,
    /// Next core for round-robin placement of unpinned threads.
    next_core: usize,
    /// Timeslice in ticks.
    pub timeslice: u64,
}

impl Scheduler {
    /// Creates a scheduler for `cores` cores.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0);
        Self {
            cores,
            queues: vec![VecDeque::new(); cores],
            current: vec![None; cores],
            threads: BTreeMap::new(),
            next_tid: 1,
            next_core: 0,
            timeslice: 10,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Creates a thread for `pid` and enqueues it.
    pub fn spawn_thread(&mut self, pid: Pid, affinity: Option<usize>) -> Result<Tid, SchedError> {
        if let Some(core) = affinity {
            if core >= self.cores {
                return Err(SchedError::NoSuchCore);
            }
        }
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        self.threads.insert(tid, Thread::new(tid, pid, affinity));
        self.enqueue(tid);
        Ok(tid)
    }

    fn placement(&mut self, tid: Tid) -> usize {
        match self.threads[&tid].affinity {
            Some(core) => core,
            None => {
                let core = self.next_core;
                self.next_core = (self.next_core + 1) % self.cores;
                core
            }
        }
    }

    fn enqueue(&mut self, tid: Tid) {
        let core = self.placement(tid);
        self.queues[core].push_back(tid);
    }

    /// Picks the next thread for `core`, descheduling (re-queueing) the
    /// current one. Returns the newly running thread, or `None` when the
    /// core idles.
    pub fn schedule(&mut self, core: usize) -> Result<Option<Tid>, SchedError> {
        if core >= self.cores {
            return Err(SchedError::NoSuchCore);
        }
        // Preempt: current thread (if still running) back to Ready.
        if let Some(cur) = self.current[core].take() {
            #[expect(
                clippy::expect_used,
                reason = "`current` only holds tids in `threads` (checked by `invariant()`); a \
                          miss is a scheduler bug that must not be papered over"
            )]
            let t = self.threads.get_mut(&cur).expect("current thread exists");
            if t.state == (ThreadState::Running { core }) {
                t.state = ThreadState::Ready;
                self.queues[core].push_back(cur);
            }
            // Blocked/exited threads were already moved off by block/exit.
        }
        // Pop until a ready thread is found (stale queue entries for
        // blocked/exited threads are skipped).
        while let Some(tid) = self.queues[core].pop_front() {
            #[expect(
                clippy::expect_used,
                reason = "queues only hold tids in `threads` (checked by `invariant()`)"
            )]
            let t = self.threads.get_mut(&tid).expect("queued thread exists");
            if t.state == ThreadState::Ready {
                t.state = ThreadState::Running { core };
                self.current[core] = Some(tid);
                return Ok(Some(tid));
            }
        }
        Ok(None)
    }

    /// The thread running on `core`.
    pub fn running_on(&self, core: usize) -> Option<Tid> {
        self.current.get(core).copied().flatten()
    }

    /// Blocks the thread currently running on `core`.
    pub fn block_current(&mut self, core: usize, reason: BlockReason) -> Result<Tid, SchedError> {
        let tid = self.current[core].ok_or(SchedError::NoSuchThread)?;
        #[expect(
            clippy::expect_used,
            reason = "`current` only holds tids in `threads` (checked by `invariant()`)"
        )]
        let t = self.threads.get_mut(&tid).expect("current thread exists");
        t.state = ThreadState::Blocked(reason);
        self.current[core] = None;
        Ok(tid)
    }

    /// Forces a thread into the blocked state wherever it is (used when
    /// a thread blocks itself inside a syscall in the cooperative model,
    /// where "running on a core" may be implicit).
    pub fn force_block(&mut self, tid: Tid, reason: BlockReason) {
        if let Some(t) = self.threads.get_mut(&tid) {
            if let ThreadState::Running { core } = t.state {
                self.current[core] = None;
            }
            if t.state != ThreadState::Exited {
                t.state = ThreadState::Blocked(reason);
            }
        }
    }

    /// Unblocks `tid` (e.g. a futex wake), making it ready again.
    pub fn unblock(&mut self, tid: Tid) -> Result<(), SchedError> {
        let t = self.threads.get_mut(&tid).ok_or(SchedError::NoSuchThread)?;
        match t.state {
            ThreadState::Blocked(_) => {
                t.state = ThreadState::Ready;
                self.enqueue(tid);
                Ok(())
            }
            _ => Err(SchedError::WrongState),
        }
    }

    /// Terminates `tid` wherever it is (running, ready, or blocked).
    pub fn exit_thread(&mut self, tid: Tid) -> Result<(), SchedError> {
        let t = self.threads.get_mut(&tid).ok_or(SchedError::NoSuchThread)?;
        if let ThreadState::Running { core } = t.state {
            self.current[core] = None;
        }
        t.state = ThreadState::Exited;
        Ok(())
    }

    /// Accounts one tick to the thread on `core`; returns true when its
    /// timeslice is spent and a reschedule is due.
    pub fn tick(&mut self, core: usize) -> Result<bool, SchedError> {
        let Some(tid) = self.current.get(core).copied().flatten() else {
            return Ok(true); // Idle core: always try to schedule.
        };
        #[expect(
            clippy::expect_used,
            reason = "`current` only holds tids in `threads` (checked by `invariant()`)"
        )]
        let t = self.threads.get_mut(&tid).expect("current thread exists");
        t.runtime += 1;
        Ok(t.runtime.is_multiple_of(self.timeslice))
    }

    /// The next tid that will be assigned.
    pub fn next_tid_hint(&self) -> u64 {
        self.next_tid
    }

    /// Read access to a thread.
    pub fn thread(&self, tid: Tid) -> Option<&Thread> {
        self.threads.get(&tid)
    }

    /// All threads blocked for `reason_matches`.
    pub fn blocked_threads(&self, mut reason_matches: impl FnMut(&BlockReason) -> bool) -> Vec<Tid> {
        self.threads
            .values()
            .filter(|t| match &t.state {
                ThreadState::Blocked(r) => reason_matches(r),
                _ => false,
            })
            .map(|t| t.tid)
            .collect()
    }

    /// Scheduler sanity invariant (the spec the VCs check): each core
    /// runs at most one thread, every running thread's core matches, and
    /// no blocked/exited thread occupies a core.
    pub fn invariant(&self) -> Result<(), String> {
        for (core, cur) in self.current.iter().enumerate() {
            if let Some(tid) = cur {
                let t = self.threads.get(tid).ok_or("current tid unknown")?;
                match t.state {
                    ThreadState::Running { core: c } if c == core => {}
                    other => {
                        return Err(format!(
                            "core {core} claims {tid:?} but its state is {other:?}"
                        ));
                    }
                }
            }
        }
        let mut running_cores: Vec<usize> = Vec::new();
        for t in self.threads.values() {
            if let ThreadState::Running { core } = t.state {
                if self.current[core] != Some(t.tid) {
                    return Err(format!("{:?} thinks it runs on core {core}", t.tid));
                }
                if running_cores.contains(&core) {
                    return Err(format!("two threads running on core {core}"));
                }
                running_cores.push(core);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(cores: usize, threads: usize) -> (Scheduler, Vec<Tid>) {
        let mut s = Scheduler::new(cores);
        let tids = (0..threads)
            .map(|_| s.spawn_thread(Pid(1), None).unwrap())
            .collect();
        (s, tids)
    }

    #[test]
    fn round_robin_rotates_all_ready_threads() {
        let (mut s, tids) = sched(1, 3);
        let mut seen = Vec::new();
        for _ in 0..6 {
            let t = s.schedule(0).unwrap().unwrap();
            seen.push(t);
            s.invariant().unwrap();
        }
        // Each thread runs twice in two full rotations.
        for tid in &tids {
            assert_eq!(seen.iter().filter(|t| *t == tid).count(), 2, "{tid:?} starved");
        }
    }

    #[test]
    fn affinity_pins_to_core() {
        let mut s = Scheduler::new(2);
        let pinned = s.spawn_thread(Pid(1), Some(1)).unwrap();
        assert_eq!(s.schedule(0).unwrap(), None, "core 0 must stay idle");
        assert_eq!(s.schedule(1).unwrap(), Some(pinned));
        s.invariant().unwrap();
    }

    #[test]
    fn invalid_affinity_rejected() {
        let mut s = Scheduler::new(2);
        assert_eq!(s.spawn_thread(Pid(1), Some(5)), Err(SchedError::NoSuchCore));
    }

    #[test]
    fn blocked_threads_do_not_run() {
        let (mut s, tids) = sched(1, 2);
        let first = s.schedule(0).unwrap().unwrap();
        s.block_current(0, BlockReason::Futex(0x1000)).unwrap();
        // Only the other thread runs now.
        for _ in 0..4 {
            let t = s.schedule(0).unwrap().unwrap();
            assert_ne!(t, first);
        }
        s.unblock(first).unwrap();
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(s.schedule(0).unwrap().unwrap());
        }
        assert!(seen.contains(&first), "unblocked thread must run again");
        let _ = tids;
    }

    #[test]
    fn unblock_requires_blocked_state() {
        let (mut s, tids) = sched(1, 1);
        assert_eq!(s.unblock(tids[0]), Err(SchedError::WrongState));
        assert_eq!(s.unblock(Tid(99)), Err(SchedError::NoSuchThread));
    }

    #[test]
    fn exited_threads_leave_the_core() {
        let (mut s, _tids) = sched(1, 2);
        let t = s.schedule(0).unwrap().unwrap();
        s.exit_thread(t).unwrap();
        assert_eq!(s.running_on(0), None);
        s.invariant().unwrap();
        // Exited thread never runs again.
        for _ in 0..4 {
            if let Some(next) = s.schedule(0).unwrap() {
                assert_ne!(next, t);
            }
        }
    }

    #[test]
    fn tick_reports_timeslice_expiry() {
        let (mut s, _t) = sched(1, 1);
        s.timeslice = 3;
        s.schedule(0).unwrap();
        assert!(!s.tick(0).unwrap());
        assert!(!s.tick(0).unwrap());
        assert!(s.tick(0).unwrap(), "third tick expires the slice");
    }

    #[test]
    fn two_cores_run_two_threads_simultaneously() {
        let (mut s, tids) = sched(2, 2);
        let a = s.schedule(0).unwrap().unwrap();
        let b = s.schedule(1).unwrap().unwrap();
        assert_ne!(a, b);
        assert!(tids.contains(&a) && tids.contains(&b));
        s.invariant().unwrap();
    }

    #[test]
    fn invariant_catches_corruption() {
        let (mut s, _tids) = sched(1, 1);
        let t = s.schedule(0).unwrap().unwrap();
        // Corrupt: mark the running thread blocked without clearing the
        // core.
        s.threads.get_mut(&t).unwrap().state = ThreadState::Blocked(BlockReason::Sleep(5));
        assert!(s.invariant().is_err());
    }
}
