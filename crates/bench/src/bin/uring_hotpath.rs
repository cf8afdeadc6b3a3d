//! The uring hot-path comparison: per-op `ClockRead` latency through
//! the synchronous trap path vs. the submission ring at batch sizes
//! 1/8/64, and the chained vs. unchained open→read→close pair, emitted
//! as `BENCH_uring.json` through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin uring_hotpath [--quick]`
//!
//! Three gates decide the exit status:
//!
//! * **Amortization** (telemetry builds only): the batched ring must be
//!   no slower than the trap path at batch sizes 8 and 64 — the whole
//!   point of the ring is amortizing per-call entry overhead across a
//!   batch, and with telemetry compiled out there is no per-call
//!   overhead left to amortize, so the claim is only meaningful (and
//!   only checked) when the instrumentation is in the build.
//! * **Chaining** (both telemetry modes): the 3-link chained
//!   open→read→close must beat the unchained 3-submission sequence.
//!   The saving is structural (one poller round instead of three), not
//!   entry-overhead amortization, so it must hold everywhere.
//! * **Baseline** (both telemetry modes): any gated latency cell more
//!   than `uring::TOLERANCE` (35%) *above* its value in the committed
//!   `BENCH_uring.json` fails the run — inverted relative to the NR
//!   throughput gate because lower is better here. Chain cells are
//!   recorded, never gated. The committed cells were measured with
//!   telemetry; erasing it leaves no gated cell slower.

use veros_bench::baseline;
use veros_bench::uring::UringReport;

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

    ok &= baseline::gate("BENCH_uring.json", &[report.gate()]);

    veros_bench::out::finish("BENCH_uring.json", &json, ok);
}
