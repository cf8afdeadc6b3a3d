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
//! The JSON mirror doubles as the CI regression baseline, through the
//! same gate engine as `BENCH_nr.json`: latency cells are keyed by
//! stable names and a gated cell regresses when it exceeds the committed
//! value by more than [`TOLERANCE`].

use std::sync::Arc;
use std::time::Instant;

use veros_kernel::syscall::{abi, Syscall};
use veros_kernel::{Kernel, KernelConfig};
use veros_sync::Published;
use veros_uring::{pair, Engine, SqeFlags, SubstSource, UserRing};

use crate::baseline::{Better, Current, Gate};

/// How far above its baseline a gated latency cell may rise: the cells
/// are wall-clock times on a shared CI runner, so the band is wide.
pub const TOLERANCE: f64 = 0.35;

/// Batch sizes every run measures. Names derived from these must stay
/// stable: the committed baseline keys on them.
pub const BATCH_POINTS: [usize; 3] = [1, 8, 64];

/// One latency cell of the comparison.
#[derive(Clone, Debug)]
pub struct LatCell {
    /// Cell name (stable across runs; the baseline comparison keys on it).
    pub name: String,
    /// Mean cost per completed operation, nanoseconds.
    pub ns_per_op: f64,
    /// Held to the committed baseline. Chain cells are recorded only:
    /// a chain sequence is cross-thread round trips, so its absolute
    /// value tracks the host scheduler far more than the data plane.
    /// The chain gate in `uring_hotpath` checks the chained/unchained
    /// *ratio* instead, which that latency cancels out of.
    pub gated: bool,
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

/// Per-sequence cost (ns) of `iters` dependent open→read→close
/// sequences through an SQPOLL-style poller thread, either as one 3-link
/// chain of flagged SQEs — the fd flows kernel-side through register
/// substitution — or as three dependent plain submissions (the
/// producer cannot build the read SQE before the open's CQE hands the
/// fd back).
///
/// The producer and the poller are different threads — one producer,
/// one poller driving [`Engine::pass`], one ring — so every dependent
/// submission costs a full producer→poller→producer round trip. The
/// chain crosses once per sequence where the unchained variant crosses
/// three times; the saving is structural (round trips, not
/// instrumentation overhead), so the chained-beats-unchained gate runs
/// in both telemetry modes.
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

    let (mut user, kring) = pair(8);
    let mut engine = Engine::new(kring, owner);

    let open = Syscall::Open { path_ptr: PATH_VA, path_len: PATH.len() as u64, create: false };
    let read = Syscall::Read { fd: 0, buf_ptr: BUF_VA, buf_len: FILE_LEN };
    let close = Syscall::Close { fd: 0 };
    let done = Arc::new(Published::new(0));
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
        done_flag.store(1);
        t0.elapsed().as_nanos() as f64
    });
    while done.load() == 0 {
        if !engine.pass(&mut k) {
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
    /// Latency cells: the sync reference, the ring batch sweep, and the
    /// chain pair.
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
            gated: true,
        });
        for batch in BATCH_POINTS {
            let ns = (0..TRIALS)
                .map(|_| ring_ns_per_op(ops, batch))
                .fold(f64::INFINITY, f64::min);
            eprintln!("  ring batch={batch}: {ns:.1} ns/op");
            cells.push(LatCell {
                name: format!("ring/batch{batch}"),
                ns_per_op: ns,
                gated: true,
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
            cells.push(LatCell { name: name.into(), ns_per_op: ns, gated: false });
        }
        Self { quick, cells }
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

    /// A chain cell (`chain/orc_chained` or `chain/orc_unchained`).
    pub fn chain_ns(&self, name: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.ns_per_op)
    }

    /// Renders the report as the `BENCH_uring.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"uring_hotpath\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
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

    /// What the baseline gates: every latency cell marked `gated`, as a
    /// ceiling.
    pub fn gate(&self) -> Gate {
        Gate {
            key: "ns_per_op",
            better: Better::Lower,
            tolerance: TOLERANCE,
            current: Current::Cells(
                self.cells
                    .iter()
                    .map(|c| (c.name.clone(), c.gated.then_some(c.ns_per_op)))
                    .collect(),
            ),
        }
    }
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
            cells: vec![
                LatCell { name: "sync/per_op".into(), ns_per_op: 120.5, gated: true },
                LatCell { name: "ring/batch8".into(), ns_per_op: 80.25, gated: true },
                LatCell { name: "chain/orc_chained".into(), ns_per_op: 900.0, gated: false },
            ],
        };
        let json = report.to_json();
        let parsed = crate::baseline::cells(&json, "ns_per_op");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].0, "sync/per_op");
        assert!((parsed[0].1 - 120.5).abs() < 0.1);
        assert!((report.sync_ns() - 120.5).abs() < f64::EPSILON);
        assert_eq!(report.ring_ns(8), Some(80.25));
        assert_eq!(report.ring_ns(64), None);
        assert_eq!(report.chain_ns("chain/orc_chained"), Some(900.0));
        assert!(json.contains("\"quick\": true"));
    }
}
