//! A fixed-capacity lock-free ring of timestamped events.
//!
//! A [`TraceRing`] answers "what happened recently": writers take an
//! index with one `fetch_add` on the head (a
//! [`veros_sync::RelaxedCounter`]) and publish `[index, ts_ns, code,
//! value]` into that index's slot, a [`veros_sync::SeqSlot`]. Readers ([`TraceRing::events`]) walk the last
//! [`CAPACITY`] slots and keep a slot only when it reads stable and
//! still holds the index they expect — a slot mid-overwrite by a
//! lapping writer is skipped, never misreported. If two writers a full
//! ring-lap apart collide on one slot, the one that finds it claimed
//! forfeits its event instead of interleaving words. Nothing blocks and
//! nothing allocates on the write path.
//!
//! Slot accesses are `SeqCst` (the slot type's own choice): rings
//! record control-path events (syscall entries, replication acks —
//! microsecond-scale paths), so tens of nanoseconds per event buy an
//! ordering argument that needs no subtlety. The data-path instruments
//! ([`crate::Counter`], [`crate::Histogram`]) are where the cost model
//! gets aggressive.
//!
//! Event payloads are two `u64`s: a `code` (an index into a legend the
//! instrumented crate registers alongside the ring — e.g. the
//! `Syscall` variant) and a free `value`. Timestamps are nanoseconds
//! since the first telemetry event of the process, so cross-crate
//! orderings within a snapshot are comparable.

#[cfg(feature = "telemetry")]
use std::sync::OnceLock;
#[cfg(feature = "telemetry")]
use std::time::Instant;

#[cfg(feature = "telemetry")]
use veros_sync::{RelaxedCounter, SeqSlot};

/// Number of slots a ring retains (events beyond it are overwritten
/// oldest-first).
pub const CAPACITY: usize = 256;

/// Nanoseconds since the process's first telemetry timestamp request.
#[cfg(feature = "telemetry")]
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One decoded event from a [`TraceRing`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global position of this event in the ring's history (0-based).
    pub seq: u64,
    /// Nanoseconds since the process telemetry epoch.
    pub ts_ns: u64,
    /// Event code (index into the registered legend).
    pub code: u64,
    /// Free event payload.
    pub value: u64,
}

/// The ring (see the module docs for the protocol).
/// Const-constructible, so instrumented crates declare rings as plain
/// `static`s.
pub struct TraceRing {
    #[cfg(feature = "telemetry")]
    head: RelaxedCounter,
    #[cfg(feature = "telemetry")]
    slots: [SeqSlot<4>; CAPACITY],
}

impl TraceRing {
    /// Creates an empty ring.
    pub const fn new() -> Self {
        Self {
            #[cfg(feature = "telemetry")]
            head: RelaxedCounter::new(0),
            #[cfg(feature = "telemetry")]
            slots: [const { SeqSlot::new() }; CAPACITY],
        }
    }

    /// Records one event. Lock-free and allocation-free. In the rare
    /// writer-writer collision (two writers a full ring-lap apart on
    /// one slot) the later claimant's event is dropped, never torn.
    #[inline]
    pub fn record(&self, code: u64, value: u64) {
        #[cfg(feature = "telemetry")]
        {
            let i = self.head.fetch_add(1);
            // A lost claim (another writer holds the slot) forfeits.
            let slot = &self.slots[(i % CAPACITY as u64) as usize];
            slot.try_write([i, now_ns(), code, value]);
        }
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = (code, value);
        }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        #[cfg(feature = "telemetry")]
        {
            self.head.load()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            0
        }
    }

    /// The retained events, oldest first. Slots being overwritten
    /// concurrently (stamp unstable across the word reads) are skipped
    /// rather than misreported, so under active writing the result can
    /// have gaps.
    pub fn events(&self) -> Vec<TraceEvent> {
        #[cfg(feature = "telemetry")]
        {
            let head = self.head.load();
            let start = head.saturating_sub(CAPACITY as u64);
            let mut out = Vec::new();
            for i in start..head {
                // Never written, lapped, or mid-write: skip.
                if let Some([seq, ts_ns, code, value]) =
                    self.slots[(i % CAPACITY as u64) as usize].read()
                {
                    if seq == i {
                        out.push(TraceEvent { seq, ts_ns, code, value });
                    }
                }
            }
            out
        }
        #[cfg(not(feature = "telemetry"))]
        {
            Vec::new()
        }
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let ring = TraceRing::new();
        for i in 0..10u64 {
            ring.record(i, i * 100);
        }
        let events = ring.events();
        if !crate::enabled() {
            assert!(events.is_empty());
            return;
        }
        assert_eq!(events.len(), 10);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.code, i as u64);
            assert_eq!(ev.value, i as u64 * 100);
        }
        // Timestamps are monotone within one writer thread.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn wraparound_keeps_the_newest_capacity_events() {
        if !crate::enabled() {
            return;
        }
        let ring = TraceRing::new();
        let total = CAPACITY as u64 * 3 + 17;
        for i in 0..total {
            ring.record(i, 0);
        }
        assert_eq!(ring.recorded(), total);
        let events = ring.events();
        assert_eq!(events.len(), CAPACITY);
        // Exactly the last CAPACITY events, oldest first.
        assert_eq!(events.first().map(|e| e.code), Some(total - CAPACITY as u64));
        assert_eq!(events.last().map(|e| e.code), Some(total - 1));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        if !crate::enabled() {
            return;
        }
        static RING: TraceRing = TraceRing::new();
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    #[cfg(miri)]
                    const EVENTS: u64 = 200;
                    #[cfg(not(miri))]
                    const EVENTS: u64 = 2_000;
                    for i in 0..EVENTS {
                        // code and value carry the same tag so a torn
                        // read is detectable.
                        RING.record(t * 1_000_000 + i, t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        // Read while writers are lapping the ring.
        for _ in 0..50 {
            for ev in RING.events() {
                assert_eq!(ev.code, ev.value, "torn event surfaced");
            }
        }
        for w in writers {
            w.join().expect("writer");
        }
        let events = RING.events();
        assert!(!events.is_empty());
        for ev in events {
            assert_eq!(ev.code, ev.value);
        }
    }
}
