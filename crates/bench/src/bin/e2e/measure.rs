//! The measurement protocol every workload shares: what one repetition
//! yields, the telemetry-delta snapshot taken around its measured
//! phase, the determinism self-check across repetitions, and the
//! repeat-until-enough loop.
//!
//! A *repetition* builds a fresh world from `(workload, seed)`,
//! preloads it, runs the fixed schedule, and verifies it. One warm-up
//! repetition is discarded (it pays for lazy thread-local and telemetry
//! cell initialisation), then whole repetitions run until at least
//! [`MIN_REPS`] are done and the requested seconds have been measured.
//! Host-time metrics are medians over repetitions; tick metrics and
//! counts come from a deterministic world and must be identical in
//! every repetition — [`check_identical`] fails the run, naming the
//! metric, if they are not.

use std::time::Instant;

use crate::alloc::{Bucket, Counts};
use crate::stats;
use crate::trace::Tracer;

/// Fewest measured repetitions a run reports on.
pub const MIN_REPS: usize = 3;

macro_rules! telemetry_snapshot {
    ($($(#[$doc:meta])* $field:ident = $read:expr;)*) => {
        /// The telemetry counters the bench reads, all at once. The
        /// instruments are the program's own exported statics; the
        /// bench only ever looks at the difference between two
        /// snapshots taken on the load-generating thread.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Tele {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Tele {
            /// Reads every counter now.
            pub fn read() -> Self {
                Self { $($field: $read,)* }
            }

            /// Counts accrued since `earlier`.
            pub fn since(self, earlier: Self) -> Self {
                Self { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// Field-wise sum (a repetition made of several cells).
            pub fn plus(self, other: Self) -> Self {
                Self { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

telemetry_snapshot! {
    /// `cluster.ops.retried`.
    retried = veros_cluster::metrics::OPS_RETRIED.get();
    /// `cluster.dedup.hits`.
    dedup_hits = veros_cluster::metrics::DEDUP_HITS.get();
    /// `cluster.shard.syncs`.
    shard_syncs = veros_cluster::metrics::SHARD_SYNCS.get();
    /// Sum of the `cluster.nodeNN.served` bank: requests nodes handled.
    node_served = veros_cluster::metrics::NODE_SERVED.iter().map(|c| c.get()).sum();
    /// `net.rdt.retransmits`.
    retransmits = veros_net::metrics::RETRANSMITS.get();
    /// `net.rdt.window_stalls`.
    window_stalls = veros_net::metrics::WINDOW_STALLS.get();
    /// `net.sim.drops`.
    drops = veros_net::metrics::DROPS.get();
    /// `net.sim.delivered`.
    delivered = veros_net::metrics::DELIVERED.get();
    /// `blockstore.put.latency` count.
    store_puts = veros_blockstore::metrics::PUT_LATENCY.count();
    /// `blockstore.put.latency` sum, ns.
    store_put_ns = veros_blockstore::metrics::PUT_LATENCY.sum();
    /// `blockstore.get.latency` count.
    store_gets = veros_blockstore::metrics::GET_LATENCY.count();
    /// `blockstore.get.latency` sum, ns.
    store_get_ns = veros_blockstore::metrics::GET_LATENCY.sum();
    /// `blockstore.delete.latency` count.
    store_deletes = veros_blockstore::metrics::DELETE_LATENCY.count();
    /// `blockstore.delete.latency` sum, ns.
    store_delete_ns = veros_blockstore::metrics::DELETE_LATENCY.sum();
    /// `fs.journal.commits`.
    commits = veros_fs::metrics::JOURNAL_COMMITS.get();
    /// `fs.journal.wal_bytes`.
    wal_bytes = veros_fs::metrics::WAL_BYTES.get();
    /// Trap-path syscalls: sum of `kernel.syscall.latency.*` counts.
    trap_syscalls = veros_kernel::metrics::SYSCALL_LATENCY.iter().map(|h| h.count()).sum();
    /// `kernel.tlb.misses`.
    tlb_misses = veros_kernel::metrics::TLB_MISSES.get();
    /// `uring.sqes.submitted`.
    sqes = veros_uring::metrics::SQES_SUBMITTED.get();
    /// `uring.cqes.posted`.
    cqes = veros_uring::metrics::CQES_POSTED.get();
    /// `uring.chains.dispatched`.
    chains = veros_uring::metrics::CHAINS_DISPATCHED.get();
    /// `uring.poller.sweeps`.
    sweeps = veros_uring::metrics::POLLER_SWEEPS.get();
    /// `nr.log.appends`.
    nr_appends = veros_nr::metrics::LOG_APPENDS.get();
}

/// The spans allocations are attributed to in a traced fleet
/// repetition: `(allocator bucket, requests-per-op metric,
/// bytes-per-op metric)`.
pub const SPAN_ALLOC_CELLS: [(Bucket, &str, &str); 3] = [
    (
        Bucket::ClientPoll,
        "alloc.client_poll_allocs_per_op",
        "alloc.client_poll_bytes_per_op",
    ),
    (
        Bucket::NodePoll,
        "alloc.node_poll_allocs_per_op",
        "alloc.node_poll_bytes_per_op",
    ),
    (
        Bucket::NetStep,
        "alloc.net_step_allocs_per_op",
        "alloc.net_step_bytes_per_op",
    ),
];

/// What `fleet_failover` adds: each the worst of the repetition's cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fault {
    /// p99 latency (ticks) over ops issued in the 1000 ticks after the
    /// kill.
    pub p99_ticks: u64,
    /// Ops slower than the latency limit or failed, per million ops.
    pub stalled_ppm: u64,
    /// Ticks from the kill until every shard the victim served is a
    /// ready full-width chain again.
    pub recovery_ticks: u64,
}

/// The outcome of one verified repetition.
#[derive(Default)]
pub struct Rep {
    /// World build + preload + schedule, seconds.
    pub setup_s: f64,
    /// Host wall time of the measured phase, ns.
    pub host_ns: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were unanswered at the drain budget, or
    /// hit `NoSpace`.
    pub failed: u64,
    /// Simulation ticks stepped in the measured phase (0 for
    /// `kernel_fileio`).
    pub ticks: u64,
    /// User bytes written by successful puts.
    pub user_bytes: u64,
    /// Allocation requests in the measured phase.
    pub allocs: Counts,
    /// Telemetry deltas over the measured phase.
    pub tele: Tele,
    /// Get latencies, simulated ticks from scheduled arrival.
    pub get_ticks: Vec<u64>,
    /// Put latencies, simulated ticks from scheduled arrival.
    pub put_ticks: Vec<u64>,
    /// `fleet_failover` only.
    pub fault: Option<Fault>,
    /// `kernel_fileio` only: host ns of each individually timed op,
    /// tagged with its span kind.
    pub op_ns: Vec<(crate::trace::Kind, u32)>,
    /// The simulated disks' `(sector writes, flush barriers)` during
    /// the measured phase (traced repetitions only: reading a disk's
    /// counters consumes the store above it).
    pub disk: Option<(u64, u64)>,
    /// The spans, when the repetition was traced.
    pub tracer: Option<Tracer>,
    /// Traced fleet repetitions: `(client polls, polls of a non-idle
    /// client, max due-but-unissued ops queued)`.
    pub client_polls: (u64, u64, u64),
    /// Coordinator epochs advanced during the repetition.
    pub view_epochs: u64,
    /// p99 of the `cluster.replication.lag` samples the repetition
    /// recorded (a log2 bucket bound), ticks.
    pub replication_lag_p99: u64,
    /// Traced fleet repetitions: allocation requests inside the spans
    /// of [`SPAN_ALLOC_CELLS`], in that order.
    pub span_allocs: [Counts; 3],
}

impl Rep {
    /// Operations that completed successfully.
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Host µs per successfully completed op.
    pub fn host_us_per_op(&self) -> f64 {
        stats::share(self.host_ns as f64 / 1e3, self.ok_ops() as f64)
    }

    /// The values that must not differ between repetitions of one seed
    /// (nor between a traced and an untraced repetition), by name.
    pub fn exact(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("attempted", self.attempted),
            ("failed_share", self.failed),
            ("cluster.ticks_per_op", self.ticks),
            ("allocs_per_op", self.allocs.allocs),
            ("alloc_bytes_per_op", self.allocs.bytes),
            ("wal_bytes_per_user_byte", self.tele.wal_bytes),
            ("user bytes written", self.user_bytes),
            ("fs.commits_per_op", self.tele.commits),
            ("get_p50_ticks", stats::percentile(&self.get_ticks, 50)),
            ("get_p99_ticks", stats::percentile(&self.get_ticks, 99)),
            ("put_p50_ticks", stats::percentile(&self.put_ticks, 50)),
            ("put_p99_ticks", stats::percentile(&self.put_ticks, 99)),
            ("cluster.view_epochs", self.view_epochs),
        ];
        if let Some(f) = self.fault {
            out.push(("fault_p99_ticks", f.p99_ticks));
            out.push(("fault_stalled_share", f.stalled_ppm));
            out.push(("recovery_ticks", f.recovery_ticks));
        }
        out
    }
}

/// The determinism self-check: `b` must reproduce `a`'s exact values.
/// Telemetry-derived counts are compared only when the build carries
/// live instruments. The error names the first metric that differs.
pub fn check_identical(what: &str, a: &Rep, b: &Rep) -> Result<(), String> {
    for ((name, x), (_, y)) in a.exact().into_iter().zip(b.exact()) {
        if x != y {
            return Err(format!(
                "determinism self-check failed ({what}): `{name}` read {x} in one repetition and {y} in another"
            ));
        }
    }
    Ok(())
}

/// Runs `rep` once as a discarded warm-up, then repeatedly until at
/// least [`MIN_REPS`] repetitions are done and `seconds` of measured
/// phase have accumulated (or the whole loop has used 2.5× that in wall
/// time, so slow set-up cannot run a run past its slot). Every
/// repetition must reproduce the first one's exact values.
pub fn repeat(
    seconds: f64,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    rep()?;
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < MIN_REPS
        || (measured < seconds && started.elapsed().as_secs_f64() < 2.5 * seconds)
    {
        let r = rep()?;
        if let Some(first) = reps.first() {
            check_identical("between repetitions", first, &r)?;
        }
        measured += r.host_ns as f64 / 1e9;
        reps.push(r);
    }
    Ok(reps)
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(failed: u64, gets: &[u64]) -> Rep {
        Rep {
            attempted: 10,
            failed,
            get_ticks: gets.to_vec(),
            host_ns: 4_000_000,
            ..Rep::default()
        }
    }

    #[test]
    fn identical_repetitions_pass_and_a_difference_is_named() {
        assert!(check_identical("t", &rep(0, &[1, 2, 3]), &rep(0, &[3, 2, 1])).is_ok());
        let e = check_identical("t", &rep(0, &[1, 2, 3]), &rep(0, &[1, 9, 3])).unwrap_err();
        assert!(
            e.contains("`get_p50_ticks` read 2 in one repetition and 3 in another"),
            "{e}"
        );
        let e = check_identical("t", &rep(0, &[]), &rep(1, &[])).unwrap_err();
        assert!(e.contains("failed_share"), "{e}");
    }

    #[test]
    fn repeat_discards_the_warm_up_and_stops_on_time() {
        let mut calls = 0;
        let reps = repeat(0.01, || {
            calls += 1;
            Ok(rep(0, &[2]))
        })
        .expect("runs");
        // 4 ms of measured phase per repetition: three reach 10 ms.
        assert_eq!(reps.len(), MIN_REPS);
        assert_eq!(calls, MIN_REPS + 1, "one warm-up is discarded");
        let mut n = 0;
        let err = repeat(0.01, || {
            n += 1;
            Ok(rep(u64::from(n > 2), &[2]))
        });
        assert!(err.is_err(), "a repetition that differs fails the run");
    }

    #[test]
    fn per_op_cost_counts_only_successful_ops() {
        let r = rep(2, &[]);
        assert_eq!(r.ok_ops(), 8);
        assert!((r.host_us_per_op() - 500.0).abs() < 1e-9);
        assert!(peak_rss_mib() >= 0.0);
    }

    #[test]
    fn telemetry_deltas_subtract_fieldwise() {
        let a = Tele {
            retried: 5,
            wal_bytes: 100,
            ..Tele::default()
        };
        let b = Tele {
            retried: 7,
            wal_bytes: 612,
            ..Tele::default()
        };
        let d = b.since(a);
        assert_eq!((d.retried, d.wal_bytes, d.drops), (2, 512, 0));
        assert_eq!(d.plus(d).wal_bytes, 1024);
    }
}
