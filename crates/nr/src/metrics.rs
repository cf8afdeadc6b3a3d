//! Telemetry instruments for the node-replication hot path.
//!
//! Everything here is a process-global instrument backed by
//! `veros-telemetry`; with the `telemetry` feature disabled all of them
//! compile to no-ops and `export` registers nothing that can observe
//! anything. The combiner is the only NR code that touches these, and
//! its per-pass cost is one add to an accumulator inside the value the
//! replica's lock guards: the shared counter and histogram are only
//! touched once [`FLUSH_OPS`] operations have piled up, in an outlined
//! cold flush — see `DESIGN.md` §10 for the overhead argument.

use veros_telemetry::{Counter, Histogram, Registry};

/// Operations appended to the shared log (batch sizes summed). Flushed
/// from a per-replica accumulator once [`FLUSH_OPS`] operations have
/// piled up, so at snapshot time up to `FLUSH_OPS - 1` appends per
/// replica may not be reported yet; everything flushed is a true lower
/// bound.
pub static LOG_APPENDS: Counter = Counter::new();

/// Replay lag observed by combiners: log tail minus the combining
/// replica's local tail (entries the replica still has to apply),
/// sampled once per [`FLUSH_OPS`]-operation flush to keep the
/// combiner's instrumentation cost bounded.
pub static REPLAY_LAG: Histogram = Histogram::new();

/// Operations a replica accumulates before its combiner flushes the
/// shared instruments.
pub const FLUSH_OPS: u64 = 64;

/// Records one combiner pass that collected `collected` operations,
/// accumulating into the replica's `pending` slot.
///
/// `pending` lives inside the value the replica's lock guards, so only
/// the combiner can borrow it and the fast path is a plain add —
/// measured cheaper than a thread-local slot, which cost ~4ns/op on
/// the single-thread sweep (DESIGN.md §10). Once [`FLUSH_OPS`]
/// operations have piled up, the accumulated count lands in
/// [`LOG_APPENDS`] and the replay-lag histogram gets one sample; `lag`
/// is only evaluated then, so callers can defer the (shared, possibly
/// contended) tail loads behind the closure. A no-op without the
/// `telemetry` feature.
#[inline]
pub fn combine_pass(pending: &mut u64, collected: u64, lag: impl FnOnce() -> u64) {
    #[cfg(feature = "telemetry")]
    {
        *pending += collected;
        if *pending >= FLUSH_OPS {
            flush_combine(std::mem::take(pending), lag());
        }
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (pending, collected, &lag);
    }
}

/// The once-per-threshold flush, outlined and marked cold so the
/// shared-instrument code never sits inside (and never bloats) the
/// combiner's inlined fast path.
#[cfg(feature = "telemetry")]
#[cold]
#[inline(never)]
fn flush_combine(pending: u64, lag: u64) {
    LOG_APPENDS.add(pending);
    REPLAY_LAG.record(lag);
}

/// Registers every NR instrument with `reg` under the `nr.` prefix.
pub fn export(reg: &mut Registry) {
    reg.counter("nr.log.appends", "ops", &LOG_APPENDS);
    reg.histogram("nr.replica.replay_lag", "log entries", &REPLAY_LAG);
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn combine_pass_flushes_at_the_op_threshold() {
        let mut pending = 0u64;
        let before = LOG_APPENDS.get();
        let mut lag_evals = 0u32;
        for _ in 0..(2 * FLUSH_OPS) {
            combine_pass(&mut pending, 1, || {
                lag_evals += 1;
                0
            });
        }
        // 128 single-op passes: the accumulator hits the threshold
        // exactly twice and ends drained. `>=` on the counter because
        // tests on other threads may be driving real combiners into the
        // same process-global instrument.
        assert!(LOG_APPENDS.get() - before >= 2 * FLUSH_OPS);
        assert_eq!(lag_evals, 2);
        assert_eq!(pending, 0);
    }
}
