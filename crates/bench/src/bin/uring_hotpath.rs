//! The uring hot-path comparison: per-op `ClockRead` latency through
//! the synchronous trap path vs. the submission ring at batch sizes
//! 1/8/64, the multi-ring poller sweep at 1/2/4 rings, and the chained
//! vs. unchained open→read→close pair, emitted as `BENCH_uring.json`
//! through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin uring_hotpath [--quick]
//!   [--baseline <path>] [--tolerance <frac>]`
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
//!   recorded in the JSON instead (`scaling_rings4_milli`) — the same
//!   discipline as `speedup_gate_min_cores` in `BENCH_audit.json`.
//! * **Chaining** (both telemetry modes): the 3-link chained
//!   open→read→close must beat the unchained 3-submission sequence.
//!   The saving is structural (one poller round instead of three), not
//!   entry-overhead amortization, so it must hold everywhere.
//! * **Baseline** (with `--baseline`): any latency cell more than
//!   `--tolerance` (default 0.35) *above* its committed value fails the
//!   run — inverted relative to the NR throughput gate because lower is
//!   better here. p99 cells are recorded, never gated.

use veros_bench::baseline::flag_value;
use veros_bench::uring::{
    regressions_against, UringReport, SCALING_GATE_MIN_CORES, SCALING_MIN_MILLI,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let baseline_path = flag_value(&args, "--baseline");
    let tolerance: f64 = flag_value(&args, "--tolerance")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.35);

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

    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(baseline) => {
                let regressions = regressions_against(&report, &baseline, tolerance);
                if regressions.is_empty() {
                    eprintln!(
                        "baseline check vs {path}: all cells within {:.0}%",
                        tolerance * 100.0
                    );
                } else {
                    eprintln!("baseline check vs {path} FAILED:");
                    for r in &regressions {
                        eprintln!("  regression: {r}");
                    }
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                ok = false;
            }
        }
    }

    veros_bench::out::finish("BENCH_uring.json", &json, ok);
}
