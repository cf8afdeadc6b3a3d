//! The `uring_hotpath` workload: per-op syscall latency through the
//! synchronous trap path vs. the asynchronous submission ring at
//! increasing batch sizes, emitted as `BENCH_uring.json`.
//!
//! The measured claim mirrors io_uring's: per-syscall entry overhead
//! (here, the per-call telemetry timer and trace record of
//! [`veros_kernel::Kernel::syscall`]) is paid once per *batch* on the
//! ring path, so per-op cost should fall below the trap path once a
//! batch carries more than a handful of operations. The workload is
//! `ClockRead` — the cheapest syscall, so the entry overhead is the
//! largest possible fraction of the measured cost and the comparison is
//! the most demanding one for the ring (any fixed ring overhead shows
//! up undiluted).
//!
//! The JSON mirror doubles as the CI regression baseline, with the same
//! scanner/gate discipline as `BENCH_nr.json`: latency cells are keyed
//! by stable names and a cell regresses when it exceeds the committed
//! value by more than the tolerance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use veros_kernel::syscall::{abi, Syscall};
use veros_kernel::{Kernel, KernelConfig};
use veros_uring::{pair, Engine, RingSet, SqFull, SqeFlags, SubstSource, UserRing};

use crate::baseline;

/// Batch sizes every run measures. Names derived from these must stay
/// stable: the committed baseline keys on them.
pub const BATCH_POINTS: [usize; 3] = [1, 8, 64];

/// Ring counts the multi-ring sweep measures (at [`MRING_THREADS`]
/// producer threads each).
pub const MRING_RINGS: [usize; 3] = [1, 2, 4];

/// Producer threads in the multi-ring sweep. Fixed so the cell names
/// (and the committed baseline) stay comparable across ring counts:
/// the only variable is how many rings the same producers share.
pub const MRING_THREADS: usize = 4;

/// Minimum host cores for the 4-ring scaling gate to be enforced
/// (below this the producers time-share one core and the ratio
/// measures the scheduler, not the data plane). Same discipline as
/// `speedup_gate_min_cores` in `BENCH_audit.json`.
pub const SCALING_GATE_MIN_CORES: usize = 4;

/// The enforced 4-ring scaling floor, in milli-ratio (2500 = 2.5x):
/// aggregate throughput at 4 rings vs. 1 ring, batch 8.
pub const SCALING_MIN_MILLI: u64 = 2500;

/// One latency cell of the comparison.
#[derive(Clone, Debug)]
pub struct LatCell {
    /// Cell name (stable across runs; the baseline comparison keys on it).
    pub name: String,
    /// Mean cost per completed operation, nanoseconds.
    pub ns_per_op: f64,
}

/// Measures mean per-op cost (ns) of `ops` `ClockRead` calls through the
/// synchronous trap path, per-call instrumentation included — this is
/// exactly what a process pays today for every syscall.
#[inline(never)]
pub fn sync_ns_per_op(ops: u64) -> f64 {
    let mut k = Kernel::boot(KernelConfig::default()).expect("boot");
    let caller = (k.init_pid, k.init_tid);
    let t0 = Instant::now();
    for _ in 0..ops {
        std::hint::black_box(k.syscall(caller, Syscall::ClockRead).expect("clock_read"));
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Measures mean per-op cost (ns) of `ops` `ClockRead` calls submitted
/// through the ring in batches of `batch`: fill the SQ, one
/// `submit_batch` kernel entry, drain the CQ. Completion results are
/// consumed (and checked) so the ring's decode side is part of the
/// measured cost, not just its submit side.
#[inline(never)]
pub fn ring_ns_per_op(ops: u64, batch: usize) -> f64 {
    let mut k = Kernel::boot(KernelConfig::default()).expect("boot");
    let owner = (k.init_pid, k.init_tid);
    let (mut user, kring) = pair(batch.next_power_of_two().max(2));
    let mut engine = Engine::new(kring, owner);
    let rounds = ops / batch as u64;
    let t0 = Instant::now();
    for round in 0..rounds {
        for i in 0..batch as u64 {
            user.submit(round * batch as u64 + i, &Syscall::ClockRead)
                .expect("sq sized to batch");
        }
        engine.submit_batch(&mut k);
        for _ in 0..batch {
            let cqe = user.complete().expect("clock_read completes in-batch");
            std::hint::black_box(cqe.result.expect("clock_read succeeds"));
        }
    }
    t0.elapsed().as_nanos() as f64 / (rounds * batch as u64) as f64
}

/// One multi-ring trial: aggregate per-op cost plus the per-batch
/// round-trip samples the p99 cell is cut from.
pub struct MringTrial {
    /// Wall time divided by completed ops — the *aggregate* cost, so
    /// lower means more throughput across all producers together.
    pub ns_per_op: f64,
    /// Per-op round-trip estimates, one sample per producer batch
    /// (submit-first to drain-last, divided by the batch size).
    pub batch_rtt_ns: Vec<f64>,
}

/// Drives [`MRING_THREADS`] producer threads over `rings` SQ/CQ pairs
/// (thread `t` uses ring `t % rings`, so `rings == 1` contends one ring
/// and `rings == MRING_THREADS` gives every producer its own) while the
/// main thread runs the SQPOLL-style [`RingSet`] poller. This is the
/// deployment shape of the multi-ring data plane: producers never enter
/// the kernel, they only touch shared-memory rings.
///
/// Completion accounting is by *count*, not token: with a shared ring a
/// producer may drain a neighbour's CQE, but every producer drains
/// exactly as many completions as it submitted, so the totals conserve
/// and nobody waits forever.
#[inline(never)]
pub fn mring_trial(ops: u64, rings: usize, batch: usize) -> MringTrial {
    let mut k = Kernel::boot(KernelConfig::default()).expect("boot");
    let owner = (k.init_pid, k.init_tid);
    let depth = (batch * 2).next_power_of_two().max(8);
    // Full-depth burst: the sweep cost being measured is the poller's
    // per-ring overhead, not an artificial fairness squeeze.
    let mut set = RingSet::new(depth);
    let mut shared: Vec<Arc<Mutex<UserRing>>> = Vec::new();
    for _ in 0..rings {
        let (user, kring) = pair(depth);
        shared.push(Arc::new(Mutex::new(user)));
        set.add(Engine::new(kring, owner));
    }
    let submitted = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..MRING_THREADS)
        .map(|t| {
            let ring = Arc::clone(&shared[t % rings]);
            let submitted = Arc::clone(&submitted);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                loop {
                    let start = submitted.fetch_add(batch as u64, Ordering::Relaxed);
                    if start >= ops {
                        break;
                    }
                    let n = (batch as u64).min(ops - start);
                    let bt0 = Instant::now();
                    let (mut sent, mut got) = (0u64, 0u64);
                    while got < n {
                        let mut guard = ring.lock().expect("ring mutex");
                        while sent < n {
                            match guard.submit(start + sent, &Syscall::ClockRead) {
                                Ok(()) => sent += 1,
                                Err(SqFull) => break,
                            }
                        }
                        while got < n {
                            match guard.complete() {
                                Some(cqe) => {
                                    std::hint::black_box(
                                        cqe.result.expect("clock_read succeeds"),
                                    );
                                    got += 1;
                                }
                                None => break,
                            }
                        }
                        drop(guard);
                        if got < n {
                            std::thread::yield_now();
                        }
                    }
                    completed.fetch_add(n, Ordering::Relaxed);
                    samples.push(bt0.elapsed().as_nanos() as f64 / n as f64);
                }
                samples
            })
        })
        .collect();
    while completed.load(Ordering::Relaxed) < ops {
        if set.sweep(&mut k).idle() {
            std::thread::yield_now();
        }
    }
    let mut batch_rtt_ns = Vec::new();
    for w in workers {
        batch_rtt_ns.extend(w.join().expect("producer thread"));
    }
    let ns_per_op = t0.elapsed().as_nanos() as f64 / ops as f64;
    MringTrial { ns_per_op, batch_rtt_ns }
}

/// The p99 of a sample set (NaN when empty).
pub fn p99_ns(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let idx = ((sorted.len() as f64 * 0.99).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Per-sequence cost (ns) of `iters` dependent open→read→close
/// sequences through the SQPOLL-style poller, either as one 3-link
/// chain of flagged SQEs — the fd flows kernel-side through register
/// substitution — or as three dependent plain submissions (the
/// producer cannot build the read SQE before the open's CQE hands the
/// fd back).
///
/// The producer and the poller are different threads, the deployment
/// shape of the multi-ring data plane, so every dependent submission
/// costs a full producer→poller→producer round trip. The chain crosses
/// once per sequence where the unchained variant crosses three times;
/// the saving is structural (round trips, not instrumentation
/// overhead), so the chained-beats-unchained gate runs in both
/// telemetry modes.
#[inline(never)]
pub fn chain_orc_ns_per_op(iters: u64, chained: bool) -> f64 {
    const PATH_VA: u64 = 0x61_0000;
    const BUF_VA: u64 = 0x62_0000;
    const PATH: &[u8] = b"/bench_chain";
    const FILE_LEN: u64 = 64;

    let mut k = Kernel::boot(KernelConfig::default()).expect("boot");
    let owner = (k.init_pid, k.init_tid);
    for va in [PATH_VA, BUF_VA] {
        k.syscall(owner, Syscall::Map { va, pages: 1, writable: true })
            .expect("map bench page");
    }
    k.write_user(owner.0, PATH_VA, PATH).expect("stage path");
    k.write_user(owner.0, BUF_VA, &[7u8; FILE_LEN as usize])
        .expect("stage content");
    let fd = k
        .syscall(
            owner,
            Syscall::Open { path_ptr: PATH_VA, path_len: PATH.len() as u64, create: true },
        )
        .expect("create bench file") as u32;
    k.syscall(owner, Syscall::Write { fd, buf_ptr: BUF_VA, buf_len: FILE_LEN })
        .expect("fill bench file");
    k.syscall(owner, Syscall::Close { fd }).expect("close staging fd");

    let mut set = RingSet::new(8);
    let (mut user, kring) = pair(8);
    set.add(Engine::new(kring, owner));

    let open = Syscall::Open { path_ptr: PATH_VA, path_len: PATH.len() as u64, create: false };
    let read = Syscall::Read { fd: 0, buf_ptr: BUF_VA, buf_len: FILE_LEN };
    let close = Syscall::Close { fd: 0 };
    let done = Arc::new(AtomicU64::new(0));
    let done_flag = Arc::clone(&done);
    let producer = std::thread::spawn(move || {
        let wait_cqe = |user: &mut UserRing| loop {
            match user.complete() {
                Some(cqe) => break cqe,
                None => std::thread::yield_now(),
            }
        };
        let t0 = Instant::now();
        for i in 0..iters {
            let ud = i * 3;
            if chained {
                user.submit_flagged(ud, &open, SqeFlags { link: true, subst: None })
                    .expect("chain fits the reserved sq");
                user.submit_flagged(
                    ud + 1,
                    &read,
                    SqeFlags { link: true, subst: Some((SubstSource::Prev, abi::FD_REG)) },
                )
                .expect("chain fits the reserved sq");
                user.submit_flagged(
                    ud + 2,
                    &close,
                    SqeFlags { link: false, subst: Some((SubstSource::Head, abi::FD_REG)) },
                )
                .expect("chain fits the reserved sq");
                for _ in 0..3 {
                    std::hint::black_box(
                        wait_cqe(&mut user).result.expect("chained link ok"),
                    );
                }
            } else {
                user.submit(ud, &open).expect("sq drained last iteration");
                let fd = wait_cqe(&mut user).result.expect("open ok") as u32;
                user.submit(ud + 1, &Syscall::Read { fd, buf_ptr: BUF_VA, buf_len: FILE_LEN })
                    .expect("sq drained last iteration");
                std::hint::black_box(wait_cqe(&mut user).result.expect("read ok"));
                user.submit(ud + 2, &Syscall::Close { fd })
                    .expect("sq drained last iteration");
                wait_cqe(&mut user).result.expect("close ok");
            }
        }
        done_flag.store(1, Ordering::Release);
        t0.elapsed().as_nanos() as f64
    });
    while done.load(Ordering::Acquire) == 0 {
        if set.sweep(&mut k).idle() {
            std::thread::yield_now();
        }
    }
    let total = producer.join().expect("producer thread");
    total / iters as f64
}

/// A full `uring_hotpath` run.
#[derive(Clone, Debug)]
pub struct UringReport {
    /// True when run with `--quick` sizing.
    pub quick: bool,
    /// Cores on the measuring host — decides whether the multi-ring
    /// scaling gate is enforced or recorded-and-skipped.
    pub host_cores: usize,
    /// Latency cells: the sync reference, the single-ring batch sweep,
    /// the multi-ring sweep (aggregate + p99), and the chain pair.
    pub cells: Vec<LatCell>,
}

impl UringReport {
    /// Runs the full comparison. Quick mode shrinks op counts, not the
    /// cell list, so baselines generated in either mode share names.
    /// Every cell is best-of-3 (min latency), the same discipline as
    /// the NR hot-path sweep.
    pub fn measure(quick: bool) -> Self {
        let ops: u64 = if quick { 60_000 } else { 400_000 };
        const TRIALS: usize = 3;
        let mut cells = Vec::new();
        let sync_ns = (0..TRIALS)
            .map(|_| sync_ns_per_op(ops))
            .fold(f64::INFINITY, f64::min);
        eprintln!("  sync trap path: {sync_ns:.1} ns/op");
        cells.push(LatCell {
            name: "sync/per_op".into(),
            ns_per_op: sync_ns,
        });
        for batch in BATCH_POINTS {
            let ns = (0..TRIALS)
                .map(|_| ring_ns_per_op(ops, batch))
                .fold(f64::INFINITY, f64::min);
            eprintln!("  ring batch={batch}: {ns:.1} ns/op");
            cells.push(LatCell {
                name: format!("ring/batch{batch}"),
                ns_per_op: ns,
            });
        }
        // Multi-ring sweep: 2 trials (threaded cells are slower per
        // trial), best aggregate kept per cell; the p99 cell is cut
        // from the batch-8 point, where the round-trip samples are
        // neither dominated by per-op locking (batch 1) nor by queue
        // residency (batch 64).
        let mops: u64 = if quick { 40_000 } else { 200_000 };
        for rings in MRING_RINGS {
            let mut p99 = f64::NAN;
            for batch in BATCH_POINTS {
                let mut best = f64::INFINITY;
                let mut best_p99 = f64::NAN;
                for _ in 0..2 {
                    let trial = mring_trial(mops, rings, batch);
                    if trial.ns_per_op < best {
                        best = trial.ns_per_op;
                        best_p99 = p99_ns(&trial.batch_rtt_ns);
                    }
                }
                eprintln!("  mring rings={rings} batch={batch}: {best:.1} ns/op aggregate");
                cells.push(LatCell {
                    name: format!("mring/rings{rings}/batch{batch}"),
                    ns_per_op: best,
                });
                if batch == 8 {
                    p99 = best_p99;
                }
            }
            eprintln!("  mring rings={rings} p99 (batch 8 rtt): {p99:.1} ns/op");
            cells.push(LatCell {
                name: format!("mring/rings{rings}/p99_batch8"),
                ns_per_op: p99,
            });
        }
        // Chained vs. unchained open→read→close. Cross-thread round
        // trips dominate each sequence, so far fewer iterations carry
        // the same signal as the single-thread cells.
        let iters: u64 = if quick { 4_000 } else { 20_000 };
        for (name, chained) in [("chain/orc_chained", true), ("chain/orc_unchained", false)] {
            let ns = (0..TRIALS)
                .map(|_| chain_orc_ns_per_op(iters, chained))
                .fold(f64::INFINITY, f64::min);
            eprintln!("  {name}: {ns:.1} ns/seq");
            cells.push(LatCell { name: name.into(), ns_per_op: ns });
        }
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self { quick, host_cores, cells }
    }

    /// The sync reference cell.
    pub fn sync_ns(&self) -> f64 {
        self.cells
            .iter()
            .find(|c| c.name == "sync/per_op")
            .map(|c| c.ns_per_op)
            .unwrap_or(f64::NAN)
    }

    /// The ring cell for a given batch size, if measured.
    pub fn ring_ns(&self, batch: usize) -> Option<f64> {
        let name = format!("ring/batch{batch}");
        self.cells
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.ns_per_op)
    }

    /// The multi-ring aggregate cell for a ring count and batch size.
    pub fn mring_ns(&self, rings: usize, batch: usize) -> Option<f64> {
        let name = format!("mring/rings{rings}/batch{batch}");
        self.cells
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.ns_per_op)
    }

    /// A chain cell (`chain/orc_chained` or `chain/orc_unchained`).
    pub fn chain_ns(&self, name: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.ns_per_op)
    }

    /// The 4-ring scaling ratio at batch 8, in milli (2500 = the 1-ring
    /// aggregate costs 2.5x the 4-ring aggregate per op). `None` until
    /// both cells exist.
    pub fn scaling_milli(&self) -> Option<u64> {
        let one = self.mring_ns(1, 8)?;
        let four = self.mring_ns(4, 8)?;
        if !(one.is_finite() && four.is_finite()) || four <= 0.0 {
            return None;
        }
        Some((one / four * 1000.0) as u64)
    }

    /// Renders the report as the `BENCH_uring.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"uring_hotpath\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        out.push_str(&format!("  \"mring_threads\": {MRING_THREADS},\n"));
        out.push_str(&format!("  \"scaling_min_milli\": {SCALING_MIN_MILLI},\n"));
        out.push_str(&format!(
            "  \"scaling_gate_min_cores\": {SCALING_GATE_MIN_CORES},\n"
        ));
        if let Some(milli) = self.scaling_milli() {
            out.push_str(&format!("  \"scaling_rings4_milli\": {milli},\n"));
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"ns_per_op\": {:.1} }}{}\n",
                c.name, c.ns_per_op, comma
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Compares a fresh report against a committed baseline: every cell
/// present in both must stay under `1 + tolerance` times the baseline
/// latency (lower is better here, so the gate is inverted relative to
/// the NR throughput gate), and a baseline with no gated cell is itself
/// a failure. Returns the list of regressions (empty = pass).
///
/// p99 cells are recorded but never gated: a tail sample on a
/// time-shared host spikes 10x whenever the poller thread is
/// descheduled mid-batch, so a 35% tolerance on them measures CI
/// machine load, not the data plane. Chain cells are likewise recorded
/// but not baseline-gated — their absolute value is dominated by the
/// host scheduler's cross-thread round-trip latency, which varies far
/// more between machines than the data plane does; the chain gate in
/// `uring_hotpath` checks the chained/unchained *ratio* instead, which
/// that latency cancels out of.
pub fn regressions_against(
    current: &UringReport,
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let baseline: Vec<(String, f64)> = baseline::cells(baseline_json, "ns_per_op")
        .into_iter()
        .filter(|(name, _)| !(name.contains("/p99") || name.starts_with("chain/")))
        .collect();
    if baseline.is_empty() {
        return vec![baseline::missing("ns_per_op")];
    }
    let mut out = Vec::new();
    for (name, base_ns) in &baseline {
        let Some(cur) = current.cells.iter().find(|c| &c.name == name) else {
            out.push(format!("cell {name} missing from current run"));
            continue;
        };
        let ceiling = base_ns * (1.0 + tolerance);
        if cur.ns_per_op > ceiling {
            out.push(format!(
                "{name}: {:.1} ns/op > {:.1} ({}% above baseline {:.1})",
                cur.ns_per_op,
                ceiling,
                ((cur.ns_per_op / base_ns - 1.0) * 100.0).round(),
                base_ns
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_produce_finite_latencies() {
        let sync = sync_ns_per_op(200);
        assert!(sync > 0.0 && sync.is_finite());
        for batch in [1, 8] {
            let ring = ring_ns_per_op(200, batch);
            assert!(ring > 0.0 && ring.is_finite(), "batch={batch}");
        }
    }

    #[test]
    fn multi_ring_trial_completes_every_op_once() {
        for rings in [1usize, 3] {
            let trial = mring_trial(600, rings, 8);
            assert!(
                trial.ns_per_op > 0.0 && trial.ns_per_op.is_finite(),
                "rings={rings}"
            );
            // One sample per producer batch: ceil-ish of 600/8 across
            // the racing fetch_adds, never more than ops/batch + threads.
            assert!(!trial.batch_rtt_ns.is_empty());
            assert!(trial.batch_rtt_ns.len() as u64 <= 600 / 8 + MRING_THREADS as u64);
            assert!(trial.batch_rtt_ns.iter().all(|s| *s > 0.0 && s.is_finite()));
        }
    }

    #[test]
    fn p99_picks_the_tail_sample() {
        let mut samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((p99_ns(&samples) - 99.0).abs() < f64::EPSILON);
        samples.truncate(3);
        assert!((p99_ns(&samples) - 3.0).abs() < f64::EPSILON);
        assert!(p99_ns(&[]).is_nan());
    }

    // Profiling harness for the chain gate margin (not part of the
    // suite): `cargo test -p veros-bench --release --lib -- --ignored
    // chain_margin --nocapture`.
    #[test]
    #[ignore]
    fn chain_margin_profile() {
        for round in 0..3 {
            let c = chain_orc_ns_per_op(8_000, true);
            let u = chain_orc_ns_per_op(8_000, false);
            eprintln!("round {round}: chained {c:.1} unchained {u:.1} ns/seq");
        }
    }

    #[test]
    fn chain_cells_measure_both_variants() {
        for chained in [true, false] {
            let ns = chain_orc_ns_per_op(50, chained);
            assert!(ns > 0.0 && ns.is_finite(), "chained={chained}");
        }
    }

    #[test]
    fn json_round_trips_through_the_scanner() {
        let report = UringReport {
            quick: true,
            host_cores: 4,
            cells: vec![
                LatCell {
                    name: "sync/per_op".into(),
                    ns_per_op: 120.5,
                },
                LatCell {
                    name: "ring/batch8".into(),
                    ns_per_op: 80.25,
                },
                LatCell {
                    name: "mring/rings1/batch8".into(),
                    ns_per_op: 500.0,
                },
                LatCell {
                    name: "mring/rings4/batch8".into(),
                    ns_per_op: 200.0,
                },
            ],
        };
        let json = report.to_json();
        let parsed = baseline::cells(&json, "ns_per_op");
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].0, "sync/per_op");
        assert!((parsed[0].1 - 120.5).abs() < 0.1);
        assert!((report.sync_ns() - 120.5).abs() < f64::EPSILON);
        assert_eq!(report.ring_ns(8), Some(80.25));
        assert_eq!(report.ring_ns(64), None);
        assert_eq!(report.mring_ns(1, 8), Some(500.0));
        assert_eq!(report.scaling_milli(), Some(2500));
        // The gate parameters ride along in the document (the scanner
        // skips them: no "name" field on those lines).
        assert!(json.contains("\"host_cores\": 4"));
        assert!(json.contains("\"scaling_rings4_milli\": 2500"));
        assert!(json.contains("\"scaling_gate_min_cores\": 4"));
    }

    #[test]
    fn regression_gate_is_inverted_for_latency() {
        let mut report = UringReport {
            quick: true,
            host_cores: 1,
            cells: vec![LatCell {
                name: "ring/batch8".into(),
                ns_per_op: 110.0,
            }],
        };
        let baseline = "{ \"name\": \"ring/batch8\", \"ns_per_op\": 100.0 }";
        // 10% up with 35% tolerance: fine.
        assert!(regressions_against(&report, baseline, 0.35).is_empty());
        // 50% up: regression.
        report.cells[0].ns_per_op = 150.0;
        assert_eq!(regressions_against(&report, baseline, 0.35).len(), 1);
        // Unknown baseline cells are reported, not ignored.
        let stale = "{ \"name\": \"gone\", \"ns_per_op\": 5.0 }";
        assert_eq!(regressions_against(&report, stale, 0.35).len(), 1);
        // p99 and chain cells are recorded, never gated — even absent
        // ones (their absolute values track the host scheduler).
        let ungated = format!(
            "{baseline}\n{{ \"name\": \"mring/rings1/p99_batch8\", \"ns_per_op\": 1.0 }}\n\
             {{ \"name\": \"chain/orc_chained\", \"ns_per_op\": 1.0 }}"
        );
        report.cells[0].ns_per_op = 110.0;
        assert!(regressions_against(&report, &ungated, 0.35).is_empty());
        // A baseline with nothing to gate fails instead of passing
        // vacuously: empty, or with the value key renamed.
        assert_eq!(regressions_against(&report, "", 0.35).len(), 1);
        let rekeyed = baseline.replace("ns_per_op", "ns");
        let v = regressions_against(&report, &rekeyed, 0.35);
        assert!(v.len() == 1 && v[0].contains("ns_per_op"), "{v:?}");
    }
}
