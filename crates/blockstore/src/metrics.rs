//! Telemetry instruments for the block store.
//!
//! All instruments are process-global `veros-telemetry` statics that
//! compile to no-ops with the `telemetry` feature off. The storage
//! engine's operations are µs-scale (journal commits with flush
//! barriers), so the latency timers here are unconditional. [`export`]
//! registers everything under the `blockstore.` prefix; see
//! `OBSERVABILITY.md`.

use veros_telemetry::{Counter, Histogram, Registry};

/// `put` latency (checksum verify + journal transaction + commit), ns.
pub static PUT_LATENCY: Histogram = Histogram::new();

/// `get` latency (file read + checksum verify), ns.
pub static GET_LATENCY: Histogram = Histogram::new();

/// `delete` latency (journal transaction + commit), ns.
pub static DELETE_LATENCY: Histogram = Histogram::new();

/// Checksum failures: client-supplied mismatches rejected by `put` plus
/// stored-block corruption detected by `get`.
pub static CHECKSUM_FAILURES: Counter = Counter::new();

/// Registers every block-store instrument with `reg` under the
/// `blockstore.` prefix.
pub fn export(reg: &mut Registry) {
    reg.histogram("blockstore.put.latency", "ns", &PUT_LATENCY);
    reg.histogram("blockstore.get.latency", "ns", &GET_LATENCY);
    reg.histogram("blockstore.delete.latency", "ns", &DELETE_LATENCY);
    reg.counter(
        "blockstore.checksum_failures",
        "failures",
        &CHECKSUM_FAILURES,
    );
}
