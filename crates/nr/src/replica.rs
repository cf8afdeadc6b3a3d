//! A single NR replica: data copy, flat-combining contexts, apply loop.

use crate::context::Context;
use crate::dispatch::Dispatch;
use crate::log::{Log, LogEntry};
use crate::pad::CachePadded;
use crate::rwlock::DistRwLock;

/// What a replica's [`DistRwLock`] guards: the data copy and the
/// combiner's telemetry accumulator. Only a write-guard holder can name
/// the accumulator, so the compiler, not a checker, keeps it
/// combiner-exclusive.
pub(crate) struct Guarded<D> {
    pub(crate) data: D,
    /// Operations appended but not yet flushed to the process-global
    /// counter (see `metrics::combine_pass`). Present (and zero) even
    /// with telemetry off so the layout does not depend on the feature.
    pub(crate) pending_appends: u64,
}

/// One replica of the data structure.
///
/// The replica's data sits behind a [`DistRwLock`]; the write side doubles
/// as the flat-combining combiner lock, exactly as in NR: whoever holds
/// it collects the pending operations of all threads registered on this
/// replica, appends them to the shared log as one batch, and applies the
/// log to the local copy.
///
/// Contexts are lock-free `SeqCell` pairs —
/// the issuing thread and the combiner exchange op and response through
/// sequence-stamped SPSC cells, so the per-operation cost is two
/// release-stores and two acquire-loads instead of four `Mutex`
/// round-trips. Each context is cache-padded: a thread spinning on its
/// response stamp shares no line with its neighbours.
pub struct Replica<D: Dispatch> {
    pub(crate) id: usize,
    pub(crate) data: DistRwLock<Guarded<D>>,
    pub(crate) contexts: Vec<CachePadded<Context<D>>>,
}

impl<D: Dispatch> Replica<D> {
    /// Creates replica `id` with `threads` context slots.
    pub fn new(id: usize, threads: usize, data: D) -> Self {
        Self {
            id,
            data: DistRwLock::new(
                threads,
                Guarded {
                    data,
                    pending_appends: 0,
                },
            ),
            contexts: (0..threads)
                .map(|_| CachePadded::new(Context::default()))
                .collect(),
        }
    }

    /// Maximum number of threads registerable on this replica.
    pub fn max_threads(&self) -> usize {
        self.contexts.len()
    }

    /// Collects every pending operation into a batch of tagged entries.
    ///
    /// Caller contract: the caller holds this replica's write lock (it
    /// is *the* combiner), which is what makes it the unique consumer of
    /// every op cell.
    pub(crate) fn collect(&self, batch: &mut Vec<LogEntry<D::WriteOp>>) {
        for (t, ctx) in self.contexts.iter().enumerate() {
            if let Some(op) = ctx.op.take() {
                batch.push(LogEntry {
                    op,
                    replica: self.id,
                    thread: t,
                });
            }
        }
    }

    /// Applies all outstanding log entries to `data` (the caller holds
    /// this replica's write lock), routing responses for locally issued
    /// entries into their threads' contexts in the same pass — each op
    /// is dispatched by reference straight off the log, with no clone
    /// and no per-slot lock.
    pub(crate) fn apply_log(&self, log: &Log<D::WriteOp>, data: &mut D) -> usize {
        log.exec(self.id, |entry| {
            let resp = data.dispatch_mut(&entry.op);
            if entry.replica == self.id {
                self.contexts[entry.thread].resp.publish(resp);
            }
        })
    }
}
