//! Observability substrate for the veros stack.
//!
//! Three instruments, one registry:
//!
//! * [`Counter`] — an exact, monotonically increasing event count:
//!   one `veros_sync::RelaxedCounter`, bumped by a `fetch_add`, so no
//!   update is ever lost.
//! * [`Histogram`] — a log2-bucketed value distribution with
//!   `count`/`sum`/`max` and quantile estimates (p50/p95/p99). Updates
//!   are plain relaxed load/store pairs: statistically faithful, not
//!   exact under contention — by design, so recording stays off the
//!   coherence fabric.
//! * [`TraceRing`] — a fixed-capacity lock-free ring of timestamped
//!   `(code, value)` events for "what happened recently" forensics.
//!
//! Every atomic under these instruments is a `veros-sync` type: the
//! counters and the trace ring's head are `RelaxedCounter`s, and each
//! trace slot is a `SeqSlot`. This crate names no atomic and no
//! `unsafe` of its own.
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
#![forbid(unsafe_code)]

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(enabled(), cfg!(feature = "telemetry"));
    }
}
