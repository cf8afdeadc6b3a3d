//! Concurrent history recording.
//!
//! To check linearizability of node replication (Section 4.3) we record
//! *histories*: per-thread invocation and response events with a global
//! order. The recorder is lock-free on the fast path (a per-thread vector
//! indexed by a pre-registered thread id, with a global sequence counter)
//! so that recording perturbs the concurrent execution as little as
//! possible.

use std::sync::Mutex;

use veros_sync::RelaxedCounter;

/// The two kinds of events in a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind<Op, Ret> {
    /// An operation was invoked.
    Invoke(Op),
    /// The most recent invocation on this thread returned.
    Response(Ret),
}

/// One event: which thread, at which global timestamp, did what.
#[derive(Clone, Debug)]
pub struct Event<Op, Ret> {
    /// Registered thread index.
    pub thread: usize,
    /// Globally unique, monotonically assigned timestamp.
    pub timestamp: u64,
    /// Invocation or response payload.
    pub kind: EventKind<Op, Ret>,
}

/// A complete history: events sorted by timestamp.
#[derive(Clone, Debug, Default)]
pub struct History<Op, Ret> {
    /// All events, sorted by `timestamp`.
    pub events: Vec<Event<Op, Ret>>,
}

impl<Op: Clone, Ret: Clone> History<Op, Ret> {
    /// Splits the history into per-thread matched (invoke, response)
    /// pairs plus any pending (unmatched) invocations.
    ///
    /// Returns `(completed, pending)` where `completed[i]` is
    /// `(thread, invoke_ts, response_ts, op, ret)`.
    #[allow(clippy::type_complexity)]
    pub fn complete_ops(&self) -> (Vec<(usize, u64, u64, Op, Ret)>, Vec<(usize, u64, Op)>) {
        let mut open: std::collections::HashMap<usize, (u64, Op)> = Default::default();
        let mut done = Vec::new();
        for e in &self.events {
            match &e.kind {
                EventKind::Invoke(op) => {
                    let prev = open.insert(e.thread, (e.timestamp, op.clone()));
                    assert!(
                        prev.is_none(),
                        "thread {} invoked twice without responding",
                        e.thread
                    );
                }
                EventKind::Response(ret) => {
                    let (ts, op) = open
                        .remove(&e.thread)
                        .unwrap_or_else(|| panic!("response without invoke on thread {}", e.thread));
                    done.push((e.thread, ts, e.timestamp, op, ret.clone()));
                }
            }
        }
        let pending = open
            .into_iter()
            .map(|(t, (ts, op))| (t, ts, op))
            .collect();
        (done, pending)
    }
}

/// A thread-safe recorder producing a [`History`].
///
/// Threads call [`invoke`](Recorder::invoke) before an operation and
/// [`response`](Recorder::response) after; a global atomic counter orders
/// the events. Using a mutex-protected vector keeps the implementation
/// simple; the timestamp is taken *inside* the critical section so the
/// recorded order is exactly the order in which events entered the log.
pub struct Recorder<Op, Ret> {
    seq: RelaxedCounter,
    events: Mutex<Vec<Event<Op, Ret>>>,
}

impl<Op: Clone, Ret: Clone> Default for Recorder<Op, Ret> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Op: Clone, Ret: Clone> Recorder<Op, Ret> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self {
            seq: RelaxedCounter::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Records an invocation by `thread`.
    pub fn invoke(&self, thread: usize, op: Op) {
        self.push(thread, EventKind::Invoke(op));
    }

    /// Records a response by `thread`.
    pub fn response(&self, thread: usize, ret: Ret) {
        self.push(thread, EventKind::Response(ret));
    }

    fn push(&self, thread: usize, kind: EventKind<Op, Ret>) {
        let mut guard = self.events.lock().unwrap();
        let timestamp = self.seq.fetch_add(1);
        guard.push(Event {
            thread,
            timestamp,
            kind,
        });
    }

    /// Consumes the recorder, returning the ordered history.
    pub fn finish(self) -> History<Op, Ret> {
        let mut events = self.events.into_inner().unwrap();
        events.sort_by_key(|e| e.timestamp);
        History { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_in_order() {
        let r = Recorder::new();
        r.invoke(0, "a");
        r.response(0, 1u32);
        r.invoke(1, "b");
        r.response(1, 2);
        let h = r.finish();
        assert_eq!(h.events.len(), 4);
        let (done, pending) = h.complete_ops();
        assert!(pending.is_empty());
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].3, "a");
        assert_eq!(done[0].4, 1);
    }

    #[test]
    fn pending_invocations_are_reported() {
        let r = Recorder::new();
        r.invoke(0, "a");
        r.invoke(1, "b");
        r.response(1, 7u32);
        let h = r.finish();
        let (done, pending) = h.complete_ops();
        assert_eq!(done.len(), 1);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, 0);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    r.invoke(t, i);
                    r.response(t, i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let h = Arc::try_unwrap(r).ok().unwrap().finish();
        // Timestamps strictly increasing.
        for w in h.events.windows(2) {
            assert!(w[0].timestamp < w[1].timestamp);
        }
        let (done, pending) = h.complete_ops();
        assert_eq!(done.len(), 400);
        assert!(pending.is_empty());
    }
}
