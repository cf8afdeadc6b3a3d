//! The uring hot-path comparison: per-op `ClockRead` latency through
//! the synchronous trap path vs. the submission ring at batch sizes
//! 1/8/64, the multi-ring poller sweep at 1/2/4 rings, and the chained
//! vs. unchained open→read→close pair, emitted as `BENCH_uring.json`
//! through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin uring_hotpath [--quick]`
//!
//! Four gates decide the exit status:
//!
//! * **Amortization** (telemetry builds only): the batched ring must be
//!   no slower than the trap path at batch sizes 8 and 64 — the whole
//!   point of the ring is amortizing per-call entry overhead across a
//!   batch, and with telemetry compiled out there is no per-call
//!   overhead left to amortize, so the claim is only meaningful (and
//!   only checked) when the instrumentation is in the build.
//! * **Scaling** (hosts with ≥ 4 cores only): the 4-ring aggregate at
//!   batch 8 must be ≥ 2.5x the single-ring aggregate. Below the core
//!   floor the producers time-share and the ratio measures the
//!   scheduler, so the gate is loudly skipped and the measured ratio is
//!   recorded in the JSON instead (`scaling_rings4_milli`).
//! * **Chaining** (both telemetry modes): the 3-link chained
//!   open→read→close must beat the unchained 3-submission sequence.
//!   The saving is structural (one poller round instead of three), not
//!   entry-overhead amortization, so it must hold everywhere.
//! * **Baseline** (telemetry builds only): any gated latency cell more
//!   than `uring::TOLERANCE` (35%) *above* its value in the committed
//!   `BENCH_uring.json` fails the run — inverted relative to the NR
//!   throughput gate because lower is better here. p99 and chain cells
//!   are recorded, never gated. The committed cells were measured with
//!   telemetry, and erasing it does not make every cell faster (the
//!   single-ring poller cells measured slower with it erased), so a
//!   telemetry-off run skips this gate loudly.

use veros_bench::baseline;
use veros_bench::uring::{UringReport, SCALING_GATE_MIN_CORES, SCALING_MIN_MILLI};

fn main() {
    let quick = veros_bench::args::from_env(&["--quick"]).quick;

    eprintln!(
        "uring_hotpath: {} run...",
        if quick { "quick" } else { "full" }
    );
    let report = UringReport::measure(quick);
    let json = report.to_json();
    print!("{json}");

    let mut ok = report
        .cells
        .iter()
        .all(|c| c.ns_per_op.is_finite() && c.ns_per_op > 0.0);

    if veros_telemetry::enabled() {
        let sync = report.sync_ns();
        for batch in [8usize, 64] {
            let ring = report.ring_ns(batch).unwrap_or(f64::INFINITY);
            if ring <= sync {
                eprintln!("amortization check batch={batch}: {ring:.1} <= sync {sync:.1} ns/op");
            } else {
                eprintln!(
                    "amortization check batch={batch} FAILED: {ring:.1} > sync {sync:.1} ns/op"
                );
                ok = false;
            }
        }
    } else {
        eprintln!("telemetry compiled out: skipping amortization check");
    }

    match report.scaling_milli() {
        Some(milli) if report.host_cores >= SCALING_GATE_MIN_CORES => {
            if milli >= SCALING_MIN_MILLI {
                eprintln!(
                    "scaling check: 4-ring aggregate {:.2}x single-ring >= {:.2}x",
                    milli as f64 / 1000.0,
                    SCALING_MIN_MILLI as f64 / 1000.0
                );
            } else {
                eprintln!(
                    "scaling check FAILED: 4-ring aggregate {:.2}x single-ring < {:.2}x",
                    milli as f64 / 1000.0,
                    SCALING_MIN_MILLI as f64 / 1000.0
                );
                ok = false;
            }
        }
        Some(milli) => {
            eprintln!(
                "scaling check SKIPPED: host has {} core(s) < {SCALING_GATE_MIN_CORES} — \
                 the producers time-share one core, so the ratio measures the scheduler, \
                 not the data plane; measured ratio {:.2}x recorded in BENCH_uring.json",
                report.host_cores,
                milli as f64 / 1000.0
            );
        }
        None => {
            eprintln!("scaling check FAILED: multi-ring cells missing from the run");
            ok = false;
        }
    }

    // Both telemetry modes: the chain saves poller rounds, not
    // instrumentation overhead.
    let chained = report.chain_ns("chain/orc_chained").unwrap_or(f64::INFINITY);
    let unchained = report.chain_ns("chain/orc_unchained").unwrap_or(0.0);
    if chained <= unchained {
        eprintln!("chain check: chained {chained:.1} <= unchained {unchained:.1} ns/seq");
    } else {
        eprintln!(
            "chain check FAILED: chained {chained:.1} > unchained {unchained:.1} ns/seq"
        );
        ok = false;
    }

    if veros_telemetry::enabled() {
        ok &= baseline::gate("BENCH_uring.json", &[report.gate()]);
    } else {
        eprintln!(
            "telemetry compiled out: skipping baseline check \
             (BENCH_uring.json was measured with telemetry)"
        );
    }

    veros_bench::out::finish("BENCH_uring.json", &json, ok);
}
