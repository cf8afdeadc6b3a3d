//! The top-level `NodeReplicated<D>` API.
//!
//! Each replica is a copy of the data structure behind a distributed
//! readers-writer lock whose write side doubles as the flat-combining
//! combiner lock, exactly as in NR: whoever holds it collects the
//! pending operations of every thread registered on the replica,
//! appends them to the shared log as one batch, and applies the log to
//! the local copy.
//!
//! A thread hands its operation to the combiner, and the combiner hands
//! the response back, through two single-producer/single-consumer rings
//! per registered thread that never hold more than one entry. The
//! thread's halves and its reader slot are its [`ThreadToken`]; the
//! combiner's halves and the replica's log cursor are inside the value
//! the lock guards, so only the write-lock holder can name them. Every
//! handoff is therefore single-producer, single-consumer by type: a
//! token is not `Clone`, and every call takes it by `&mut`.
//!
//! ```compile_fail
//! # use veros_nr::{Dispatch, NodeReplicated};
//! # #[derive(Clone, Default)]
//! # struct Counter(u64);
//! # impl Dispatch for Counter {
//! #     type ReadOp = ();
//! #     type WriteOp = u64;
//! #     type Response = u64;
//! #     fn dispatch(&self, _: ()) -> u64 { self.0 }
//! #     fn dispatch_mut(&mut self, n: &u64) -> u64 { self.0 += n; self.0 }
//! # }
//! let nr = NodeReplicated::new(1, 1, 8, Counter::default);
//! let t = nr.register(0).unwrap();
//! let copy = t.clone();
//! ```
//!
//! ```compile_fail
//! # use veros_nr::{Dispatch, NodeReplicated};
//! # #[derive(Clone, Default)]
//! # struct Counter(u64);
//! # impl Dispatch for Counter {
//! #     type ReadOp = ();
//! #     type WriteOp = u64;
//! #     type Response = u64;
//! #     fn dispatch(&self, _: ()) -> u64 { self.0 }
//! #     fn dispatch_mut(&mut self, n: &u64) -> u64 { self.0 += n; self.0 }
//! # }
//! let nr = NodeReplicated::new(1, 1, 8, Counter::default);
//! let t = nr.register(0).unwrap();
//! let shared = &t;
//! nr.execute_mut(5, shared);
//! ```

use std::sync::{Mutex, PoisonError};

use veros_sync::log::{Cursor, Log};
use veros_sync::rwlock::{DistRwLock, ReadHandle};
use veros_sync::spsc::{self, Consumer, Producer};
use veros_sync::Backoff;

use crate::dispatch::Dispatch;

/// A log entry: the operation plus its origin, so the replica that
/// combined it can route the response to the issuing thread.
struct LogEntry<Op> {
    op: Op,
    replica: usize,
    /// Registered thread index (within the replica) that issued it.
    thread: usize,
}

/// What a replica's lock guards: the data copy, the combiner's halves
/// of every registered thread's rings, the replica's log cursor, and the
/// combiner's telemetry accumulator. Only a write-guard holder can name
/// the rings, the cursor or the accumulator, so the compiler, not a
/// checker, keeps them combiner-exclusive.
struct Guarded<D: Dispatch> {
    id: usize,
    data: D,
    /// Each thread's operation ring, consumed by the combiner.
    ops: Vec<Consumer<D::WriteOp>>,
    /// Each thread's response ring, produced by the combiner.
    resps: Vec<Producer<D::Response>>,
    cursor: Cursor<LogEntry<D::WriteOp>>,
    /// Operations appended but not yet flushed to the process-global
    /// counter (see `metrics::combine_pass`). Present (and zero) even
    /// with telemetry off so the layout does not depend on the feature.
    pending_appends: u64,
}

impl<D: Dispatch> Guarded<D> {
    /// Collects every pending operation into a batch of tagged entries.
    fn collect(&mut self, batch: &mut Vec<LogEntry<D::WriteOp>>) {
        for (thread, ops) in self.ops.iter_mut().enumerate() {
            if let Some(op) = ops.pop() {
                batch.push(LogEntry {
                    op,
                    replica: self.id,
                    thread,
                });
            }
        }
    }

    /// Applies all outstanding log entries to the data copy, routing
    /// responses for locally issued entries into their threads' rings
    /// in the same pass — each op is dispatched by reference straight
    /// off the log, with no clone.
    fn apply_log(&mut self) {
        let Self {
            id,
            data,
            resps,
            cursor,
            ..
        } = self;
        cursor.exec(|entry| {
            let resp = data.dispatch_mut(&entry.op);
            if entry.replica == *id {
                // The issuing thread took its previous response before
                // depositing this op, so its ring has room.
                let routed = resps[entry.thread].push(resp);
                debug_assert!(routed.is_ok(), "response ring full");
            }
        });
    }
}

/// A registered thread's handle: its replica, its halves of the
/// operation and response rings, and its reader slot. Not `Clone`: the
/// rings and the slot are one thread's. A token serves only the
/// `NodeReplicated` that issued it.
pub struct ThreadToken<D: Dispatch> {
    replica: usize,
    ops: Producer<D::WriteOp>,
    resps: Consumer<D::Response>,
    reader: ReadHandle<Guarded<D>>,
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
/// let mut t = nr.register(0).unwrap();
/// nr.execute_mut(5, &mut t);
/// assert_eq!(nr.execute((), &mut t), 5);
/// ```
pub struct NodeReplicated<D: Dispatch> {
    log: Log<LogEntry<D::WriteOp>>,
    replicas: Vec<DistRwLock<Guarded<D>>>,
    /// Each replica's not-yet-registered tokens, lowest slot last.
    unclaimed: Vec<Mutex<Vec<ThreadToken<D>>>>,
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
        let (log, cursors) = Log::new(log_capacity, replicas);
        let (replicas, unclaimed) = cursors
            .into_iter()
            .enumerate()
            .map(|(id, cursor)| {
                let mut guarded = Guarded {
                    id,
                    data: factory(),
                    ops: Vec::with_capacity(threads_per_replica),
                    resps: Vec::with_capacity(threads_per_replica),
                    cursor,
                    pending_appends: 0,
                };
                let mut halves = Vec::with_capacity(threads_per_replica);
                for _ in 0..threads_per_replica {
                    let (op_tx, op_rx) = spsc::ring(1);
                    let (resp_tx, resp_rx) = spsc::ring(1);
                    guarded.ops.push(op_rx);
                    guarded.resps.push(resp_tx);
                    halves.push((op_tx, resp_rx));
                }
                let (lock, readers) = DistRwLock::new(threads_per_replica, guarded);
                let tokens = halves
                    .into_iter()
                    .zip(readers)
                    .map(|((ops, resps), reader)| ThreadToken {
                        replica: id,
                        ops,
                        resps,
                        reader,
                    })
                    .rev()
                    .collect();
                (lock, Mutex::new(tokens))
            })
            .unzip();
        Self {
            log,
            replicas,
            unclaimed,
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Registers the calling thread on `replica`, handing it the token of
    /// the lowest free slot. Returns `None` when the replica is fully
    /// subscribed.
    pub fn register(&self, replica: usize) -> Option<ThreadToken<D>> {
        // Popping cannot panic, so the mutex is never poisoned by it.
        self.unclaimed[replica]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
    }

    /// Executes a mutating operation with linearizable semantics.
    ///
    /// The calling thread parks its operation in its ring; the current
    /// combiner (possibly this thread) batches all pending operations of
    /// the replica, appends them to the log atomically, and applies the
    /// log. The response comes back through the thread's response ring.
    pub fn execute_mut(&self, op: D::WriteOp, tkn: &mut ThreadToken<D>) -> D::Response {
        let lock = &self.replicas[tkn.replica];
        // The last call took its response before returning, and the
        // combiner takes an op before answering it: the ring is empty.
        let parked = tkn.ops.push(op);
        debug_assert!(parked.is_ok(), "operation ring full");
        let mut backoff = Backoff::new();
        loop {
            if let Some(resp) = tkn.resps.pop() {
                return resp;
            }
            if let Some(mut guard) = lock.try_write() {
                self.combine(&mut guard);
                drop(guard);
                if let Some(resp) = tkn.resps.pop() {
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
    pub fn execute(&self, op: D::ReadOp, tkn: &mut ThreadToken<D>) -> D::Response {
        let lock = &self.replicas[tkn.replica];
        let t_tail = self.log.tail();
        let mut backoff = Backoff::new();
        loop {
            if self.log.ltail(tkn.replica) >= t_tail {
                let guard = tkn.reader.read();
                // ltail only advances, so the state we read contains at
                // least everything up to `t_tail`; mutations require the
                // write lock, which our read guard excludes.
                return guard.data.dispatch(op);
            }
            if let Some(mut guard) = lock.try_write() {
                guard.apply_log();
            } else {
                backoff.wait();
            }
        }
    }

    /// The combiner: collect, append (helping lagging replicas when the
    /// log is full), apply. Ops move from the rings into the batch and
    /// from the batch into the log — no clones anywhere on the path.
    fn combine(&self, state: &mut Guarded<D>) {
        let mut batch = Vec::with_capacity(state.ops.len());
        state.collect(&mut batch);
        let collected = batch.len() as u64;
        if !batch.is_empty() {
            while !self.log.try_append(&mut batch) {
                // The ring is full: consume on our own replica first,
                // then help lagging remote replicas drain.
                state.apply_log();
                self.help_lagging(state.id);
            }
        }
        // Instrumented after the append so the accumulator's L1 traffic
        // overlaps the append's store-buffer drain; the lag closure is
        // only evaluated on a flush, pre-apply (the interesting lag).
        crate::metrics::combine_pass(&mut state.pending_appends, collected, || {
            self.log.tail().saturating_sub(self.log.ltail(state.id))
        });
        state.apply_log();
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
            if let Some(mut guard) = other.try_write() {
                guard.apply_log();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::test_structs::{
        Counter, CounterRead, CounterWrite, KvMap, KvRead, KvWrite,
    };
    use std::sync::Arc;

    #[test]
    fn single_thread_read_write() {
        let nr = NodeReplicated::new(1, 1, 16, Counter::default);
        let mut t = nr.register(0).unwrap();
        assert_eq!(nr.execute_mut(CounterWrite::Add(3), &mut t), 3);
        assert_eq!(nr.execute_mut(CounterWrite::Add(4), &mut t), 7);
        assert_eq!(nr.execute(CounterRead::Get, &mut t), 7);
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
        let mut t0 = nr.register(0).unwrap();
        let mut t1 = nr.register(1).unwrap();
        let mut t2 = nr.register(2).unwrap();
        nr.execute_mut(CounterWrite::Add(10), &mut t0);
        nr.execute_mut(CounterWrite::Add(5), &mut t1);
        // Reads on every replica observe both writes.
        assert_eq!(nr.execute(CounterRead::Get, &mut t0), 15);
        assert_eq!(nr.execute(CounterRead::Get, &mut t1), 15);
        assert_eq!(nr.execute(CounterRead::Get, &mut t2), 15);
    }

    #[test]
    fn log_wraparound_under_load() {
        // Log much smaller than the number of operations.
        let nr = NodeReplicated::new(2, 1, 8, Counter::default);
        let mut t0 = nr.register(0).unwrap();
        let mut t1 = nr.register(1).unwrap();
        for _ in 0..100 {
            nr.execute_mut(CounterWrite::Add(1), &mut t0);
        }
        assert_eq!(nr.execute(CounterRead::Get, &mut t1), 100);
    }

    #[test]
    fn concurrent_writers_then_read() {
        // Short under Miri, whose interpreted execution is ~1000x slower.
        const OPS: u64 = if cfg!(miri) { 20 } else { 500 };
        let nr = Arc::new(NodeReplicated::new(2, 5, 64, Counter::default));
        let mut handles = Vec::new();
        for i in 0..8usize {
            let nr = Arc::clone(&nr);
            handles.push(std::thread::spawn(move || {
                let mut t = nr.register(i % 2).expect("slot");
                for _ in 0..OPS {
                    nr.execute_mut(CounterWrite::Add(1), &mut t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut t = nr.register(0).expect("spare slot");
        assert_eq!(nr.execute(CounterRead::Get, &mut t), 8 * OPS);
        let mut t1 = nr.register(1).expect("spare slot");
        assert_eq!(nr.execute(CounterRead::Get, &mut t1), 8 * OPS);
    }

    #[test]
    fn reads_are_fresh_across_replicas() {
        // A write on replica 0 must be visible to an immediately
        // following read on replica 1 (linearizable, not eventually
        // consistent).
        let nr = NodeReplicated::new(2, 1, 32, KvMap::default);
        let mut t0 = nr.register(0).unwrap();
        let mut t1 = nr.register(1).unwrap();
        for k in 0..50u64 {
            nr.execute_mut(KvWrite::Put(k, k * 10), &mut t0);
            assert_eq!(nr.execute(KvRead::Get(k), &mut t1), Some(k * 10));
        }
        assert_eq!(nr.execute(KvRead::Len, &mut t1), Some(50));
        nr.execute_mut(KvWrite::Del(7), &mut t1);
        assert_eq!(nr.execute(KvRead::Get(7), &mut t0), None);
    }

    #[test]
    fn mixed_read_write_stress() {
        const OPS: u64 = if cfg!(miri) { 30 } else { 300 };
        let nr = Arc::new(NodeReplicated::new(2, 3, 32, KvMap::default));
        let mut handles = Vec::new();
        for i in 0..6usize {
            let nr = Arc::clone(&nr);
            handles.push(std::thread::spawn(move || {
                let mut t = nr.register(i % 2).expect("slot");
                for j in 0..OPS {
                    if j % 3 == 0 {
                        nr.execute_mut(KvWrite::Put(i as u64 * 1000 + j, j), &mut t);
                    } else {
                        // Own writes must always be visible.
                        let k = i as u64 * 1000 + (j - j % 3);
                        assert_eq!(nr.execute(KvRead::Get(k), &mut t), Some(j - j % 3));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
