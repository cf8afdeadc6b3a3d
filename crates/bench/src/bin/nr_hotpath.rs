//! The NR hot-path sweep: contended `execute_mut` throughput across
//! threads×replicas and resolve hot/cold latency, emitted as
//! `BENCH_nr.json` through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin nr_hotpath [--quick]
//!   [--baseline <path>]`
//!
//! With `--baseline`, the run is additionally compared against a
//! committed `BENCH_nr.json`: any throughput cell more than
//! `hotpath::TOLERANCE` (18%) below its baseline value fails the run
//! with a nonzero exit, which is how CI gates regressions.

use veros_bench::baseline::{self, flag_value};
use veros_bench::hotpath::HotpathReport;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    eprintln!(
        "nr_hotpath: {} run...",
        if quick { "quick" } else { "full" }
    );
    let report = HotpathReport::measure(quick);
    let json = report.to_json();
    print!("{json}");

    let mut ok = report
        .cells
        .iter()
        .all(|c| c.ops_per_sec.is_finite() && c.ops_per_sec > 0.0)
        && report.resolve_hot_ns > 0.0
        && report.resolve_cold_ns > 0.0
        && report.range_batched_ns > 0.0
        && report.range_per_page_ns > 0.0;

    if let Some(path) = flag_value(&args, "--baseline") {
        ok &= baseline::gate(&path, &[report.gate()]);
    }

    veros_bench::out::finish("BENCH_nr.json", &json, ok);
}
