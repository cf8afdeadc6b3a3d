//! The sharded-fleet capacity benchmark: an open-loop YCSB-style
//! workload (1000 simulated client hosts, zipfian keys, burst windows,
//! 80/20 read/write mix) over 8 chain-replicated storage nodes, plus a
//! timed chain-tail failover, emitted as `BENCH_blockstore.json`
//! through the results mirror.
//!
//! Usage:
//!   `cargo run --release -p veros-bench --bin blockstore_hotpath`
//!
//! Everything is measured in deterministic simulation ticks — a run
//! produces identical numbers on any host — so unlike the wall-clock
//! benches the tolerance is tight (`blockstore::TOLERANCE`, 10%) and a
//! trip means the *code* changed the world, not that CI was busy.
//!
//! Three gates decide the exit status:
//!
//! * **Drain**: every scheduled operation completes within the budget —
//!   an open-loop schedule the fleet cannot drain is an overload
//!   collapse, not a slow run.
//! * **Failover**: after the hot key's read-serving chain tail is
//!   fail-stopped, the next read returns the acknowledged payload
//!   within `max_failover_ticks`.
//! * **Baseline** (every run, against the committed
//!   `BENCH_blockstore.json`): throughput may not fall more than the
//!   tolerance below the committed value, p99 may not rise more than the
//!   tolerance above it; a missing baseline, or one that lacks a gated
//!   key, fails the run.

use veros_bench::baseline;
use veros_bench::blockstore::measure;

fn main() {
    veros_bench::args::from_env(&[]);

    eprintln!("blockstore_hotpath: 1000 clients, 8 nodes...");
    let report = measure();
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

    ok &= baseline::gate("BENCH_blockstore.json", &report.gates());

    veros_bench::out::finish("BENCH_blockstore.json", &json, ok);
}
