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

/// Number of [`Syscall`] variants (and latency histograms).
pub const SYSCALL_VARIANTS: usize = 16;

/// Per-variant syscall latency, in nanoseconds, indexed by
/// [`syscall_index`].
pub static SYSCALL_LATENCY: [Histogram; SYSCALL_VARIANTS] =
    [const { Histogram::new() }; SYSCALL_VARIANTS];

/// The most recent syscall dispatches: code = [`syscall_index`],
/// value = 1 for `Ok`, 0 for `Err`.
pub static SYSCALL_TRACE: TraceRing = TraceRing::new();

/// Metric-name and trace-legend labels, indexed by [`syscall_index`].
pub static SYSCALL_NAMES: [&str; SYSCALL_VARIANTS] = [
    "spawn",
    "exit",
    "wait",
    "map",
    "unmap",
    "open",
    "read",
    "write",
    "seek",
    "close",
    "unlink",
    "futex_wait",
    "futex_wake",
    "thread_spawn",
    "yield",
    "clock_read",
];

/// Maps a syscall to its stable instrument index (the order of
/// [`SYSCALL_NAMES`]).
pub fn syscall_index(call: &Syscall) -> usize {
    match call {
        Syscall::Spawn => 0,
        Syscall::Exit { .. } => 1,
        Syscall::Wait { .. } => 2,
        Syscall::Map { .. } => 3,
        Syscall::Unmap { .. } => 4,
        Syscall::Open { .. } => 5,
        Syscall::Read { .. } => 6,
        Syscall::Write { .. } => 7,
        Syscall::Seek { .. } => 8,
        Syscall::Close { .. } => 9,
        Syscall::Unlink { .. } => 10,
        Syscall::FutexWait { .. } => 11,
        Syscall::FutexWake { .. } => 12,
        Syscall::ThreadSpawn { .. } => 13,
        Syscall::Yield => 14,
        Syscall::ClockRead => 15,
    }
}

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
    for (name, hist) in SYSCALL_NAMES.iter().zip(SYSCALL_LATENCY.iter()) {
        let name: &'static str = format!("kernel.syscall.latency.{name}").leak();
        reg.histogram(name, "ns", hist);
    }
    reg.trace("kernel.syscall.trace", &SYSCALL_TRACE, &SYSCALL_NAMES);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_index_covers_every_variant_distinctly() {
        let calls = [
            Syscall::Spawn,
            Syscall::Exit { code: 0 },
            Syscall::Wait { pid: 1 },
            Syscall::Map { va: 0, pages: 1, writable: true },
            Syscall::Unmap { va: 0, pages: 1 },
            Syscall::Open { path_ptr: 0, path_len: 0, create: false },
            Syscall::Read { fd: 0, buf_ptr: 0, buf_len: 0 },
            Syscall::Write { fd: 0, buf_ptr: 0, buf_len: 0 },
            Syscall::Seek { fd: 0, offset: 0 },
            Syscall::Close { fd: 0 },
            Syscall::Unlink { path_ptr: 0, path_len: 0 },
            Syscall::FutexWait { va: 0, expected: 0 },
            Syscall::FutexWake { va: 0, count: 0 },
            Syscall::ThreadSpawn { affinity_plus_one: 0 },
            Syscall::Yield,
            Syscall::ClockRead,
        ];
        let mut seen = [false; SYSCALL_VARIANTS];
        for call in &calls {
            let i = syscall_index(call);
            assert!(!seen[i], "index {i} assigned twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "every index covered");
        assert_eq!(SYSCALL_NAMES.len(), calls.len());
    }

    #[test]
    fn export_registers_tlb_and_syscall_metrics() {
        let mut reg = Registry::new();
        export(&mut reg);
        // 2 tlb metrics + 16 latency histograms (trace excluded).
        assert_eq!(reg.metric_count(), 2 + SYSCALL_VARIANTS);
        assert!(reg.metric_names().contains(&"kernel.tlb.misses"));
        assert!(reg.metric_names().contains(&"kernel.syscall.latency.futex_wait"));
    }
}
