//! The sharded-fleet capacity benchmark: an open-loop YCSB-style
//! workload (1000 simulated client hosts, zipfian keys, burst windows,
//! 80/20 read/write mix) over 8 chain-replicated storage nodes, plus a
//! timed chain-tail failover, emitted as `BENCH_blockstore.json`
//! through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin blockstore_hotpath
//!   [--quick] [--baseline <path>] [--tolerance <frac>]`
//!
//! Everything is measured in deterministic simulation ticks — the same
//! profile produces identical numbers on any host — so unlike the
//! wall-clock benches the default tolerance is tight (0.10) and a trip
//! means the *code* changed the world, not that CI was busy.
//!
//! Three gates decide the exit status:
//!
//! * **Drain**: every scheduled operation completes within the budget —
//!   an open-loop schedule the fleet cannot drain is an overload
//!   collapse, not a slow run.
//! * **Failover**: after the hot key's read-serving chain tail is
//!   fail-stopped, the next read returns the acknowledged payload
//!   within `max_failover_ticks`.
//! * **Baseline** (with `--baseline`, same profile only): throughput
//!   may not fall more than `--tolerance` below the committed value,
//!   p99 may not rise more than `--tolerance` above it. A baseline
//!   recorded under the other profile is a loud skip — tick-exact
//!   comparison needs identical schedules; one that lacks its profile
//!   or a gated key fails the run.

use veros_bench::baseline::flag_value;
use veros_bench::blockstore::{measure, other_profile, regressions_against};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let baseline_path = flag_value(&args, "--baseline");
    let tolerance: f64 = flag_value(&args, "--tolerance")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10);

    eprintln!(
        "blockstore_hotpath: {} run ({} clients, 8 nodes)...",
        if quick { "quick" } else { "full" },
        1000
    );
    let report = measure(quick);
    let json = report.to_json();
    print!("{json}");

    let mut ok = true;
    if report.drained {
        eprintln!(
            "drain check: {}/{} ops completed in {} ticks ({} retries)",
            report.stats.completed, report.ops, report.stats.ticks, report.stats.retries
        );
    } else {
        eprintln!(
            "drain check FAILED: {}/{} ops completed — the fleet cannot absorb the schedule",
            report.stats.completed, report.ops
        );
        ok = false;
    }

    if report.failover_read_ok && report.failover_ticks <= veros_bench::blockstore::MAX_FAILOVER_TICKS
    {
        eprintln!(
            "failover check: acked read served {} ticks after the tail kill",
            report.failover_ticks
        );
    } else {
        eprintln!(
            "failover check FAILED: read_ok={} after {} ticks (ceiling {})",
            report.failover_read_ok,
            report.failover_ticks,
            veros_bench::blockstore::MAX_FAILOVER_TICKS
        );
        ok = false;
    }

    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(baseline) => {
                if other_profile(&report, &baseline) {
                    eprintln!(
                        "baseline check SKIPPED: {path} was recorded under the other profile — \
                         tick-exact gating needs identical schedules"
                    );
                } else {
                    let regressions = regressions_against(&report, &baseline, tolerance);
                    if regressions.is_empty() {
                        eprintln!(
                            "baseline check vs {path}: within {:.0}%",
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
            }
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                ok = false;
            }
        }
    }

    veros_bench::out::finish("BENCH_blockstore.json", &json, ok);
}
