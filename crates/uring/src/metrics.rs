//! Telemetry instruments for the ring subsystem.
//!
//! The ring's cost model inverts the kernel's synchronous entry: there,
//! every dispatch pays per-op bookkeeping (a latency timer and a trace
//! record); here, a drain reads no clock and records no distribution —
//! the modelled analogue of io_uring amortizing the mode-switch cost.
//! Every instrument is an exact counter that an alert rule, an `e2e`
//! ledger cell or the coherence VC reads.
//!
//! [`export`] registers everything under the `uring.` prefix; names and
//! units are catalogued in `OBSERVABILITY.md`. With the `telemetry`
//! feature off every instrument compiles to a no-op and the VC
//! `uring::telemetry_counters_coherent` asserts they all read zero.

use veros_telemetry::{Counter, Registry};

/// SQEs pushed into a submission queue (user side).
pub static SQES_SUBMITTED: Counter = Counter::new();

/// Pushes rejected because the submission queue was full — the ring's
/// backpressure signal.
pub static SQ_FULL_REJECTIONS: Counter = Counter::new();

/// CQEs handed to the completion queue (including entries that had to
/// take the overflow backlog first).
pub static CQES_POSTED: Counter = Counter::new();

/// Submissions that blocked in dispatch and moved to the pending table
/// (futex waits, waits on running children).
pub static OPS_PARKED: Counter = Counter::new();

/// SQE chains executed (a chain of N links counts once).
pub static CHAINS_DISPATCHED: Counter = Counter::new();

/// Chains that hit an error mid-way and cancelled their suffix.
pub static CHAIN_ABORTS: Counter = Counter::new();

/// Individual links completed with `Cancelled` because an earlier link
/// of their chain failed.
pub static CHAIN_LINKS_CANCELLED: Counter = Counter::new();

/// Defensive self-check: chains whose completion accounting violated
/// abort-exactly-the-suffix. Alert-gated at zero; a nonzero reading is
/// an engine bug, not a workload property.
pub static CHAIN_ATOMICITY_VIOLATIONS: Counter = Counter::new();

/// Engine passes ([`crate::Engine::pass`]: one submit drain plus one
/// reap of the pending table).
pub static POLLER_SWEEPS: Counter = Counter::new();

/// Registers every ring instrument under the `uring.` prefix.
pub fn export(reg: &mut Registry) {
    reg.counter("uring.sqe.submitted", "entries", &SQES_SUBMITTED);
    reg.counter("uring.sq.full_rejections", "entries", &SQ_FULL_REJECTIONS);
    reg.counter("uring.cqe.posted", "entries", &CQES_POSTED);
    reg.counter("uring.pending.parked", "entries", &OPS_PARKED);
    reg.counter("uring.chain.dispatched", "chains", &CHAINS_DISPATCHED);
    reg.counter("uring.chain.aborts", "chains", &CHAIN_ABORTS);
    reg.counter("uring.chain.links_cancelled", "entries", &CHAIN_LINKS_CANCELLED);
    reg.counter(
        "uring.chain.atomicity_violations",
        "chains",
        &CHAIN_ATOMICITY_VIOLATIONS,
    );
    reg.counter("uring.poller.sweeps", "sweeps", &POLLER_SWEEPS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_registers_the_full_uring_catalogue() {
        let mut reg = Registry::new();
        export(&mut reg);
        let names = reg.metric_names();
        assert_eq!(reg.metric_count(), 9);
        assert!(names.iter().all(|n| n.starts_with("uring.")));
        assert!(names.contains(&"uring.sq.full_rejections"));
        assert!(names.contains(&"uring.poller.sweeps"));
        assert!(names.contains(&"uring.chain.atomicity_violations"));
    }
}
