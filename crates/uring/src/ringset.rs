//! Per-thread ring sets and the SQPOLL-style poller sweep.
//!
//! One [`Engine`] serves one ring; a [`RingSet`] owns one engine per
//! owner thread and drains them all from a single kernel-side poller
//! loop, the modelled analogue of io_uring's `SQPOLL` thread. A sweep
//! visits **every** ring exactly once, round-robin from a cursor that
//! rotates one position per sweep, and drains at most `burst` SQEs per
//! ring before moving on.
//!
//! That pair of rules is the fairness argument (DESIGN.md §13): because
//! every sweep visits every ring and dispatches up to `burst` of its
//! entries regardless of any other ring's backlog, an SQE that is `b`
//! entries deep in its ring completes within `ceil(b / burst)` sweeps —
//! with `b` bounded by the ring depth, no entry waits more than
//! `ceil(depth / burst)` sweeps while other rings make progress. A
//! truncated drain is counted (`uring.poller.fairness_deferrals`), not
//! hidden: the deferral counter growing means the budget is engaging,
//! and the `poller_fairness_bound` VCs check the completion-sweep bound
//! itself.
//!
//! The rotating cursor removes the remaining asymmetry: with a fixed
//! visit order, ring 0 would always dispatch its burst before ring 1 in
//! the same sweep; rotation distributes that first-mover advantage
//! evenly across rings.

use veros_kernel::Kernel;

use crate::engine::Engine;
use crate::metrics;

/// What one poller sweep did, summed over every ring it visited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// SQEs consumed (dispatched or chain-buffered) across all rings.
    pub dispatched: usize,
    /// Pending-table completions posted across all rings.
    pub reaped: usize,
    /// Rings that contributed at least one SQE this sweep.
    pub active_rings: usize,
    /// Rings whose drain was cut off by the burst budget (they keep
    /// their backlog until the next sweep).
    pub deferred_rings: usize,
}

impl SweepStats {
    /// Nothing submitted, completed, or deferred — the set is idle.
    pub fn idle(&self) -> bool {
        self.dispatched == 0 && self.reaped == 0 && self.deferred_rings == 0
    }
}

/// A set of per-thread rings drained by one poller.
pub struct RingSet {
    engines: Vec<Engine>,
    cursor: usize,
    burst: usize,
    sweeps: u64,
}

impl RingSet {
    /// An empty set with a per-ring, per-sweep budget of `burst` SQEs
    /// (0 is clamped to 1 — a zero budget would starve every ring).
    pub fn new(burst: usize) -> Self {
        Self {
            engines: Vec::new(),
            cursor: 0,
            burst: burst.max(1),
            sweeps: 0,
        }
    }

    /// Adds a ring's engine; returns its stable index in the set.
    pub fn add(&mut self, engine: Engine) -> usize {
        self.engines.push(engine);
        self.engines.len() - 1
    }

    /// Number of rings in the set.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True when the set has no rings.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The per-ring burst budget.
    pub fn burst(&self) -> usize {
        self.burst
    }

    /// Sweeps performed so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Entries parked in pending tables plus links buffered in
    /// incomplete chains, summed over the set — the "work may still
    /// arrive" signal a drain loop polls before stopping.
    pub fn outstanding(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.pending_len() + e.chain_buffered())
            .sum()
    }

    /// One poller pass: visit every ring round-robin from the rotating
    /// cursor, drain up to `burst` SQEs and reap completions on each.
    pub fn sweep(&mut self, k: &mut Kernel) -> SweepStats {
        let n = self.engines.len();
        let mut stats = SweepStats::default();
        for offset in 0..n {
            let i = (self.cursor + offset) % n;
            // lint: allow(panic-freedom) — i < n by construction of the
            // modulus; indexing cannot fail.
            let eng = &mut self.engines[i];
            let (consumed, more) = eng.submit_batch_bounded(k, self.burst);
            stats.reaped += eng.reap(k);
            stats.dispatched += consumed;
            if consumed > 0 {
                stats.active_rings += 1;
            }
            if more {
                stats.deferred_rings += 1;
                metrics::FAIRNESS_DEFERRALS.inc();
            }
        }
        if n > 0 {
            self.cursor = (self.cursor + 1) % n;
        }
        self.sweeps += 1;
        metrics::POLLER_SWEEPS.inc();
        metrics::RINGS_PER_PASS.record(stats.active_rings as u64);
        stats
    }

    /// Shuts every engine down (cancel pending, exit workers). Returns
    /// the total number of entries cancelled.
    pub fn shutdown_all(&mut self, k: &mut Kernel) -> usize {
        self.engines.iter_mut().map(|e| e.shutdown(k)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{pair, UserRing};
    use veros_kernel::syscall::Syscall;
    use veros_kernel::{KernelConfig, Pid, Tid};

    fn boot() -> (Kernel, (Pid, Tid)) {
        // lint: allow(panic-freedom) — test setup.
        let k = Kernel::boot(KernelConfig::default()).expect("boot");
        let owner = (k.init_pid, k.init_tid);
        (k, owner)
    }

    fn set_with_rings(
        k: &Kernel,
        owner: (Pid, Tid),
        rings: usize,
        depth: usize,
        burst: usize,
    ) -> (Vec<UserRing>, RingSet) {
        let _ = k;
        let mut users = Vec::new();
        let mut set = RingSet::new(burst);
        for _ in 0..rings {
            let (user, kring) = pair(depth);
            users.push(user);
            set.add(Engine::new(kring, owner));
        }
        (users, set)
    }

    #[test]
    fn sweep_visits_every_ring() {
        let (mut k, owner) = boot();
        let (mut users, mut set) = set_with_rings(&k, owner, 3, 8, 4);
        for (i, user) in users.iter_mut().enumerate() {
            user.submit(i as u64, &Syscall::ClockRead).unwrap();
        }
        let stats = set.sweep(&mut k);
        assert_eq!(stats.dispatched, 3);
        assert_eq!(stats.active_rings, 3);
        assert_eq!(stats.deferred_rings, 0);
        for user in &mut users {
            assert!(user.complete().is_some(), "every ring completed");
        }
    }

    #[test]
    fn burst_budget_defers_the_flooded_ring_without_starving_others() {
        let (mut k, owner) = boot();
        let (mut users, mut set) = set_with_rings(&k, owner, 2, 8, 2);
        // Ring 0 floods; ring 1 trickles one op.
        for ud in 0..8 {
            users[0].submit(ud, &Syscall::ClockRead).unwrap();
        }
        users[1].submit(100, &Syscall::ClockRead).unwrap();
        let stats = set.sweep(&mut k);
        // Budget 2 from the flooded ring + the trickle op.
        assert_eq!(stats.dispatched, 3);
        assert_eq!(stats.deferred_rings, 1, "flooded ring deferred");
        assert_eq!(
            users[1].complete().map(|c| c.user_data),
            Some(100),
            "trickle ring completed in the same sweep the flood arrived"
        );
        // The flood finishes within ceil(8/2) = 4 sweeps total.
        for _ in 0..3 {
            set.sweep(&mut k);
        }
        let mut flood_done = 0;
        while users[0].complete().is_some() {
            flood_done += 1;
        }
        assert_eq!(flood_done, 8);
        assert!(set.sweep(&mut k).idle());
    }

    #[test]
    fn cursor_rotates_the_first_visit() {
        let (mut k, owner) = boot();
        let (mut users, mut set) = set_with_rings(&k, owner, 2, 4, 4);
        // Both rings race to map the same fresh VA each sweep: the ring
        // visited first wins (`Ok`), the other sees `AlreadyMapped`.
        // The winner must alternate as the cursor rotates.
        let mut winners = Vec::new();
        for sweep in 0..2u64 {
            let va = 0x60_0000 + sweep * 0x1_0000;
            for (i, user) in users.iter_mut().enumerate() {
                user.submit(
                    sweep * 10 + i as u64,
                    &Syscall::Map { va, pages: 1, writable: false },
                )
                .unwrap();
            }
            set.sweep(&mut k);
            let outcomes: Vec<bool> = users
                .iter_mut()
                .map(|u| u.complete().expect("completed").result.is_ok())
                .collect();
            assert_eq!(
                outcomes.iter().filter(|ok| **ok).count(),
                1,
                "exactly one ring wins the race"
            );
            winners.push(outcomes[0]);
        }
        assert_ne!(winners[0], winners[1], "visit order rotated between sweeps");
    }

    #[test]
    fn shutdown_all_cancels_every_ring() {
        let (mut k, owner) = boot();
        k.syscall(owner, Syscall::Map { va: 0x50_0000, pages: 1, writable: true }).unwrap();
        let (mut users, mut set) = set_with_rings(&k, owner, 2, 4, 4);
        for user in users.iter_mut() {
            user.submit(1, &Syscall::FutexWait { va: 0x50_0000, expected: 0 }).unwrap();
        }
        set.sweep(&mut k);
        assert_eq!(set.outstanding(), 2);
        assert_eq!(set.shutdown_all(&mut k), 2);
        assert_eq!(set.outstanding(), 0);
    }
}
