//! Telemetry instruments for the kernel's hot paths.
//!
//! Two groups, both backed by `veros-telemetry` (no-ops with the
//! `telemetry` feature off):
//!
//! * **Translation cache** — a miss counter on the [`crate::vspace`]
//!   resolve path and an epoch-invalidation counter bumped by every
//!   unmap. The hit path is deliberately *not* instrumented: a cache
//!   hit costs ~5ns and even one atomic counter add is measurable there
//!   (DESIGN.md §10 records the measurement that forced this). Misses
//!   already pay for a multi-level table walk, so the bump is noise.
//! * **Syscalls** — a per-variant latency histogram plus a trace ring
//!   recording the most recent dispatches (code = variant index, value =
//!   1 for Ok / 0 for Err).
//!
//! [`export`] registers everything under the `kernel.` prefix; names and
//! units are catalogued in `OBSERVABILITY.md`.

use crate::syscall::Syscall;
use veros_telemetry::{Counter, Histogram, Registry, TraceRing};

/// Translation-cache misses (resolve fell through to the table walk).
/// Hits are uncounted by design — see the module docs.
pub static TLB_MISSES: Counter = Counter::new();

/// Bumps [`TLB_MISSES`]. Outlined and cold with telemetry on so the
/// counter machinery never bloats `resolve`'s body (which would push
/// the uninstrumented hit path out of its tight code layout); inlined
/// to nothing with telemetry off.
#[cfg_attr(feature = "telemetry", cold, inline(never))]
#[cfg_attr(not(feature = "telemetry"), inline(always))]
pub fn tlb_miss() {
    TLB_MISSES.inc();
}

/// Epoch bumps: every unmap invalidates the whole translation cache.
pub static TLB_EPOCH_INVALIDATIONS: Counter = Counter::new();

/// Per-variant syscall latency, in nanoseconds, indexed by
/// [`Syscall::index`].
pub static SYSCALL_LATENCY: [Histogram; Syscall::COUNT] =
    [const { Histogram::new() }; Syscall::COUNT];

/// The most recent syscall dispatches: code = [`Syscall::index`],
/// value = 1 for `Ok`, 0 for `Err`. The legend is [`Syscall::NAMES`].
pub static SYSCALL_TRACE: TraceRing = TraceRing::new();

/// Registers every kernel instrument with `reg` under the `kernel.`
/// prefix. Syscall latency histograms are registered per variant
/// (`kernel.syscall.latency.<name>`).
pub fn export(reg: &mut Registry) {
    reg.counter("kernel.tlb.misses", "lookups", &TLB_MISSES);
    reg.counter(
        "kernel.tlb.epoch_invalidations",
        "invalidations",
        &TLB_EPOCH_INVALIDATIONS,
    );
    for (name, hist) in Syscall::NAMES.iter().zip(SYSCALL_LATENCY.iter()) {
        let name: &'static str = format!("kernel.syscall.latency.{name}").leak();
        reg.histogram(name, "ns", hist);
    }
    reg.trace("kernel.syscall.trace", &SYSCALL_TRACE, &Syscall::NAMES);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_registers_tlb_and_syscall_metrics() {
        let mut reg = Registry::new();
        export(&mut reg);
        // 2 tlb metrics + one latency histogram per syscall (trace excluded).
        assert_eq!(reg.metric_count(), 2 + Syscall::COUNT);
        assert!(reg.metric_names().contains(&"kernel.tlb.misses"));
        assert!(reg.metric_names().contains(&"kernel.syscall.latency.futex_wait"));
    }
}
