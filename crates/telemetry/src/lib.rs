//! Observability substrate for the veros stack.
//!
//! Three instruments, one registry:
//!
//! * [`Counter`] — an exact, monotonically increasing event count:
//!   one `AtomicU64`, bumped by a relaxed `fetch_add`, so no update is
//!   ever lost.
//! * [`Histogram`] — a log2-bucketed value distribution with
//!   `count`/`sum`/`max` and quantile estimates (p50/p95/p99). Updates
//!   are plain relaxed load/store pairs: statistically faithful, not
//!   exact under contention — by design, so recording stays off the
//!   coherence fabric.
//! * [`TraceRing`] — a fixed-capacity lock-free ring of timestamped
//!   `(code, value)` events for "what happened recently" forensics.
//!
//! Both [`TraceRing`] and the kernel's translation cache publish their
//! slots through [`SeqSlot`], a seqlock whose fields only its own
//! methods reach. NR's log and context cells, the uring rings and the
//! translation cache's epoch publish through [`Published`], a `u64`
//! word whose stores release and whose loads acquire, with no way to
//! pick another ordering. Neither is an instrument, so both stay live
//! with the feature off.
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
pub mod publish;
pub mod registry;
pub mod seqlock;
pub mod trace;

pub use alerts::{default_rules, evaluate, Alert, Rule};
pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot, Timer};
pub use publish::Published;
pub use registry::{Registry, Snapshot};
pub use seqlock::SeqSlot;
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
