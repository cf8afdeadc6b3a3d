//! The NR hot-path sweep: contended `execute_mut` throughput across
//! threads×replicas and resolve hot/cold latency, emitted as
//! `BENCH_nr.json` through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin nr_hotpath [--quick]`
//!
//! Every run is compared against the committed `BENCH_nr.json` at the
//! workspace root: any throughput cell more than `hotpath::TOLERANCE`
//! (18%) below its baseline value, or a missing baseline, fails the run
//! with exit 1, which is how CI gates regressions.

use veros_bench::baseline;
use veros_bench::hotpath::HotpathReport;

fn main() {
    let quick = veros_bench::args::from_env(&["--quick"]).quick;

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

    ok &= baseline::gate("BENCH_nr.json", &[report.gate()]);

    veros_bench::out::finish("BENCH_nr.json", &json, ok);
}
