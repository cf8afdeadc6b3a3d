//! Telemetry instruments for the network stack.
//!
//! All instruments are process-global `veros-telemetry` statics that
//! compile to no-ops with the `telemetry` feature off. They complement
//! (rather than replace) the per-instance counters the tests assert on
//! — `RdtDemux::retransmissions` and `Network::wire_stats` stay
//! instance-exact; these aggregate across every demux and simulated
//! wire in the process. [`export`] registers everything under the
//! `net.` prefix; see `OBSERVABILITY.md`.

use veros_telemetry::{Counter, Registry};

/// Data messages retransmitted by go-back-N timeouts.
pub static RETRANSMITS: Counter = Counter::new();

/// Sends that left messages queued because the go-back-N window was
/// full (one per `send`/pump that ends with a non-empty backlog).
pub static WINDOW_STALLS: Counter = Counter::new();

/// Frames dropped by the simulated wire (fault injection, undecodable,
/// or unroutable).
pub static DROPS: Counter = Counter::new();

/// Frames delivered by the simulated wire.
pub static DELIVERED: Counter = Counter::new();

/// Registers every network instrument with `reg` under the `net.`
/// prefix.
pub fn export(reg: &mut Registry) {
    reg.counter("net.rdt.retransmits", "messages", &RETRANSMITS);
    reg.counter("net.rdt.window_stalls", "stalls", &WINDOW_STALLS);
    reg.counter("net.sim.drops", "frames", &DROPS);
    reg.counter("net.sim.delivered", "frames", &DELIVERED);
}
