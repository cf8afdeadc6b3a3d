//! The top-level `NodeReplicated<D>` API.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::dispatch::Dispatch;
use crate::log::Log;
use crate::replica::{Guarded, Replica};

/// A registered thread's handle: which replica it belongs to and which
/// context slot it owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadToken {
    /// Replica index.
    pub replica: usize,
    /// Context slot within the replica.
    pub thread: usize,
}

/// A sequential data structure replicated across NUMA nodes with a
/// shared operation log — the concurrency mechanism the whole kernel is
/// built on.
///
/// # Examples
///
/// ```
/// use veros_nr::{Dispatch, NodeReplicated};
///
/// #[derive(Clone, Default)]
/// struct Counter(u64);
///
/// impl Dispatch for Counter {
///     type ReadOp = ();
///     type WriteOp = u64;
///     type Response = u64;
///     fn dispatch(&self, _: ()) -> u64 { self.0 }
///     fn dispatch_mut(&mut self, n: &u64) -> u64 { self.0 += n; self.0 }
/// }
///
/// let nr = NodeReplicated::new(2, 4, 32, Counter::default);
/// let t = nr.register(0).unwrap();
/// nr.execute_mut(5, t);
/// assert_eq!(nr.execute((), t), 5);
/// ```
pub struct NodeReplicated<D: Dispatch> {
    log: Log<D::WriteOp>,
    replicas: Vec<Replica<D>>,
    registered: Vec<AtomicUsize>,
}

impl<D: Dispatch> NodeReplicated<D> {
    /// Creates `replicas` replicas, each admitting `threads_per_replica`
    /// threads, sharing a log of `log_capacity` entries. `factory` builds
    /// each replica's initial (identical) state.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` or `threads_per_replica` is zero, or when
    /// `threads_per_replica` exceeds `log_capacity`: a combiner appends
    /// up to one op per thread of its replica as one batch, and a batch
    /// larger than the log could never be appended.
    pub fn new(
        replicas: usize,
        threads_per_replica: usize,
        log_capacity: usize,
        factory: impl Fn() -> D,
    ) -> Self {
        assert!(replicas > 0 && threads_per_replica > 0);
        assert!(
            threads_per_replica <= log_capacity,
            "a combiner batch of {threads_per_replica} ops cannot fit a log of {log_capacity}"
        );
        Self {
            log: Log::new(log_capacity, replicas),
            replicas: (0..replicas)
                .map(|id| Replica::new(id, threads_per_replica, factory()))
                .collect(),
            registered: (0..replicas).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Registers the calling thread on `replica`, granting it a context
    /// slot. Returns `None` when the replica is fully subscribed.
    ///
    /// Claims are a CAS loop rather than a blind `fetch_add`: an
    /// unconditional increment on a full replica would burn a slot
    /// forever, so repeated attempts against a full replica could leak
    /// capacity that a later deregistration scheme can never recover.
    pub fn register(&self, replica: usize) -> Option<ThreadToken> {
        let max = self.replicas[replica].max_threads();
        // lint: allow(atomics-ordering) — slot allocation only needs
        // atomicity for uniqueness of the claimed index; no other
        // memory is published through this counter (each context cell
        // carries its own acquire/release protocol).
        let mut slot = self.registered[replica].load(Ordering::Relaxed);
        loop {
            if slot >= max {
                return None;
            }
            let claim = self.registered[replica].compare_exchange_weak(
                slot,
                slot + 1,
                // lint: allow(atomics-ordering) — same argument: the CAS
                // claims an index, nothing else is ordered by it.
                Ordering::Relaxed,
                // lint: allow(atomics-ordering) — failure path re-reads
                // the counter only to retry the claim.
                Ordering::Relaxed,
            );
            match claim {
                Ok(_) => {
                    return Some(ThreadToken {
                        replica,
                        thread: slot,
                    })
                }
                Err(current) => slot = current,
            }
        }
    }

    /// Executes a mutating operation with linearizable semantics.
    ///
    /// The calling thread parks its operation in its context slot; the
    /// current combiner (possibly this thread) batches all pending
    /// operations of the replica, appends them to the log atomically, and
    /// applies the log. The response is routed back through the context.
    pub fn execute_mut(&self, op: D::WriteOp, tkn: ThreadToken) -> D::Response {
        let replica = &self.replicas[tkn.replica];
        debug_assert!(tkn.thread < replica.max_threads());
        let ctx = &replica.contexts[tkn.thread];
        // Sole producer of this op cell (the token is this thread's) and
        // the cell is empty (we consumed the previous response before
        // returning from the last call) — `publish`'s contract holds.
        ctx.op.publish(op);
        let mut backoff = crate::backoff::Backoff::new();
        loop {
            if let Some(resp) = ctx.resp.take() {
                return resp;
            }
            if let Some(mut guard) = replica.data.try_write() {
                self.combine(tkn.replica, &mut guard);
                drop(guard);
                if let Some(resp) = ctx.resp.take() {
                    return resp;
                }
                // Our op was collected by an earlier combiner whose apply
                // pass had already passed our entry's position — loop and
                // wait for that combiner to deposit the response.
            }
            backoff.wait();
        }
    }

    /// Executes a read-only operation with linearizable semantics: the
    /// replica is brought up to date with the log tail observed at
    /// invocation, then read under the distributed read lock.
    pub fn execute(&self, op: D::ReadOp, tkn: ThreadToken) -> D::Response {
        let replica = &self.replicas[tkn.replica];
        let t_tail = self.log.tail();
        let mut backoff = crate::backoff::Backoff::new();
        loop {
            if self.log.ltail(tkn.replica) >= t_tail {
                let guard = replica.data.read(tkn.thread);
                // ltail only advances, so the state we read contains at
                // least everything up to `t_tail`; mutations require the
                // write lock, which our read guard excludes.
                return guard.data.dispatch(op);
            }
            if let Some(mut guard) = replica.data.try_write() {
                replica.apply_log(&self.log, &mut guard.data);
            } else {
                backoff.wait();
            }
        }
    }

    /// Brings the caller's replica up to date with the log (useful before
    /// dropping or inspecting state in tests).
    pub fn sync(&self, tkn: ThreadToken) {
        let replica = &self.replicas[tkn.replica];
        let mut backoff = crate::backoff::Backoff::new();
        loop {
            if self.log.ltail(tkn.replica) >= self.log.tail() {
                return;
            }
            if let Some(mut guard) = replica.data.try_write() {
                replica.apply_log(&self.log, &mut guard.data);
                return;
            }
            backoff.wait();
        }
    }

    /// The combiner: collect, append (helping lagging replicas when the
    /// log is full), apply. Ops move from context cells into the batch
    /// and from the batch into the log — no clones anywhere on the path.
    fn combine(&self, replica_idx: usize, state: &mut Guarded<D>) {
        let replica = &self.replicas[replica_idx];
        let mut batch = Vec::with_capacity(replica.max_threads());
        replica.collect(&mut batch);
        let collected = batch.len() as u64;
        if !batch.is_empty() {
            while !self.log.try_append(&mut batch) {
                // The ring is full: consume on our own replica first,
                // then help lagging remote replicas drain.
                replica.apply_log(&self.log, &mut state.data);
                self.help_lagging(replica_idx);
            }
        }
        // Instrumented after the append so the accumulator's L1 traffic
        // overlaps the append's store-buffer drain; the lag closure is
        // only evaluated on a flush, pre-apply (the interesting lag).
        crate::metrics::combine_pass(&mut state.pending_appends, collected, || {
            self.log.tail().saturating_sub(self.log.ltail(replica_idx))
        });
        replica.apply_log(&self.log, &mut state.data);
    }

    /// Advances lagging replicas that nobody else is advancing, so a full
    /// log cannot wedge the appender (replicas with no active threads
    /// would otherwise never consume).
    fn help_lagging(&self, skip: usize) {
        let tail = self.log.tail();
        for (i, other) in self.replicas.iter().enumerate() {
            if i == skip || self.log.ltail(i) >= tail {
                continue;
            }
            if let Some(mut guard) = other.data.try_write() {
                other.apply_log(&self.log, &mut guard.data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::test_structs::{Counter, CounterRead, CounterWrite, KvMap, KvRead, KvWrite};
    use std::sync::Arc;

    #[test]
    fn single_thread_read_write() {
        let nr = NodeReplicated::new(1, 1, 16, Counter::default);
        let t = nr.register(0).unwrap();
        assert_eq!(nr.execute_mut(CounterWrite::Add(3), t), 3);
        assert_eq!(nr.execute_mut(CounterWrite::Add(4), t), 7);
        assert_eq!(nr.execute(CounterRead::Get, t), 7);
    }

    #[test]
    fn registration_respects_capacity() {
        let nr = NodeReplicated::new(2, 2, 16, Counter::default);
        assert!(nr.register(0).is_some());
        assert!(nr.register(0).is_some());
        assert!(nr.register(0).is_none());
        assert!(nr.register(1).is_some());
    }

    #[test]
    #[should_panic(expected = "cannot fit a log")]
    fn a_log_smaller_than_a_batch_is_rejected() {
        NodeReplicated::new(1, 5, 4, Counter::default);
    }

    #[test]
    fn replicas_converge() {
        let nr = NodeReplicated::new(3, 1, 16, Counter::default);
        let t0 = nr.register(0).unwrap();
        let t1 = nr.register(1).unwrap();
        let t2 = nr.register(2).unwrap();
        nr.execute_mut(CounterWrite::Add(10), t0);
        nr.execute_mut(CounterWrite::Add(5), t1);
        // Reads on every replica observe both writes.
        assert_eq!(nr.execute(CounterRead::Get, t0), 15);
        assert_eq!(nr.execute(CounterRead::Get, t1), 15);
        assert_eq!(nr.execute(CounterRead::Get, t2), 15);
    }

    #[test]
    fn log_wraparound_under_load() {
        // Log much smaller than the number of operations.
        let nr = NodeReplicated::new(2, 1, 8, Counter::default);
        let t0 = nr.register(0).unwrap();
        let t1 = nr.register(1).unwrap();
        for _ in 0..100 {
            nr.execute_mut(CounterWrite::Add(1), t0);
        }
        assert_eq!(nr.execute(CounterRead::Get, t1), 100);
    }

    #[test]
    fn concurrent_writers_then_read() {
        let nr = Arc::new(NodeReplicated::new(2, 5, 64, Counter::default));
        let mut handles = Vec::new();
        for i in 0..8usize {
            let nr = Arc::clone(&nr);
            handles.push(std::thread::spawn(move || {
                let t = nr.register(i % 2).expect("slot");
                for _ in 0..500 {
                    nr.execute_mut(CounterWrite::Add(1), t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = nr.register(0).expect("spare slot");
        assert_eq!(nr.execute(CounterRead::Get, t), 4000);
        let t1 = nr.register(1).expect("spare slot");
        assert_eq!(nr.execute(CounterRead::Get, t1), 4000);
    }

    #[test]
    fn reads_are_fresh_across_replicas() {
        // A write on replica 0 must be visible to an immediately
        // following read on replica 1 (linearizable, not eventually
        // consistent).
        let nr = NodeReplicated::new(2, 1, 32, KvMap::default);
        let t0 = nr.register(0).unwrap();
        let t1 = nr.register(1).unwrap();
        for k in 0..50u64 {
            nr.execute_mut(KvWrite::Put(k, k * 10), t0);
            assert_eq!(nr.execute(KvRead::Get(k), t1), Some(k * 10));
        }
        assert_eq!(nr.execute(KvRead::Len, t1), Some(50));
        nr.execute_mut(KvWrite::Del(7), t1);
        assert_eq!(nr.execute(KvRead::Get(7), t0), None);
    }

    #[test]
    fn mixed_read_write_stress() {
        let nr = Arc::new(NodeReplicated::new(2, 3, 32, KvMap::default));
        let mut handles = Vec::new();
        for i in 0..6usize {
            let nr = Arc::clone(&nr);
            handles.push(std::thread::spawn(move || {
                let t = nr.register(i % 2).expect("slot");
                for j in 0..300u64 {
                    if j % 3 == 0 {
                        nr.execute_mut(KvWrite::Put(i as u64 * 1000 + j, j), t);
                    } else {
                        // Own writes must always be visible.
                        let k = i as u64 * 1000 + (j - j % 3);
                        assert_eq!(nr.execute(KvRead::Get(k), t), Some(j - j % 3));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
