//! The NR hot-path sweep: contended `execute_mut` throughput across
//! threads×replicas and resolve hot/cold latency, emitted as
//! `BENCH_nr.json` through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin nr_hotpath [--quick]
//!   [--baseline <path>] [--tolerance <frac>]`
//!
//! With `--baseline`, the run is additionally compared against a
//! committed `BENCH_nr.json`: any throughput cell more than
//! `--tolerance` (default 0.25) below its baseline value fails the run
//! with a nonzero exit, which is how CI gates regressions.

use veros_bench::baseline::flag_value;
use veros_bench::hotpath::{regressions_against, HotpathReport};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let baseline_path = flag_value(&args, "--baseline");
    let tolerance: f64 = flag_value(&args, "--tolerance")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

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

    veros_bench::out::finish("BENCH_nr.json", &json, ok);
}
