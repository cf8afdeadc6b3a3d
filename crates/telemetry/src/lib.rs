//! Observability substrate for the veros stack.
//!
//! Three instruments, one registry:
//!
//! * [`Counter`] — an exact, monotonically increasing event count.
//!   Increments go to a per-thread cell (no `lock`-prefixed
//!   instructions, no lost updates), reads sum every thread's cell.
//! * [`Histogram`] — a log2-bucketed value distribution with
//!   `count`/`sum`/`max` and quantile estimates (p50/p95/p99). Updates
//!   are plain relaxed load/store pairs: statistically faithful, not
//!   exact under contention — by design, so recording stays off the
//!   coherence fabric.
//! * [`TraceRing`] — a fixed-capacity lock-free ring of timestamped
//!   `(code, value)` events for "what happened recently" forensics.
//!
//! A [`Registry`] collects references to the instruments each crate
//! exports (every instrumented crate has a `metrics` module with a
//! `pub fn export(&mut Registry)`) and renders one [`Snapshot`] as the
//! JSON report document, which the reporting binary mirrors into
//! `results/`. The [`alerts`] module evaluates threshold rules over
//! those snapshots — the health-check half of the report pipeline.
//!
//! # The no-overhead contract
//!
//! Everything here is behind the `telemetry` cargo feature (default
//! on). With the feature off, every instrument is a zero-sized type and
//! every recording method an empty `#[inline]` function, so call sites
//! in the kernel/NR hot paths compile to nothing — the same erasure
//! argument the refinement theorem makes for ghost state (DESIGN.md
//! §10). [`enabled`] reports which world this build is.

#![warn(missing_docs)]

pub mod alerts;
pub mod counter;
pub mod histogram;
pub mod registry;
pub mod trace;

pub use alerts::{default_rules, evaluate, Alert, Rule};
pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot, Timer};
pub use registry::{Registry, Snapshot};
pub use trace::{TraceEvent, TraceRing};

/// True when this build carries live instruments (the `telemetry`
/// feature); false when every instrument is a no-op.
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Cheap per-thread sampling tick: true once every `2^period_log2`
/// calls *on this thread*. Used to bound instrumentation cost on paths
/// hot enough that even a histogram record per operation is measurable
/// (the NR combiner); always false when telemetry is disabled.
#[inline]
pub fn sample(period_log2: u32) -> bool {
    #[cfg(feature = "telemetry")]
    {
        use std::cell::Cell;
        thread_local! {
            static TICK: Cell<u64> = const { Cell::new(0) };
        }
        TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v & ((1u64 << period_log2) - 1) == 0
        })
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = period_log2;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(enabled(), cfg!(feature = "telemetry"));
    }

    #[test]
    fn sample_fires_at_the_declared_period() {
        if !enabled() {
            assert!(!sample(0));
            return;
        }
        // Period 2^0 = every call.
        assert!(sample(0));
        assert!(sample(0));
        // Period 4: exactly one quarter of a long run fires.
        let fired = (0..4000).filter(|_| sample(2)).count();
        assert_eq!(fired, 1000);
    }
}
