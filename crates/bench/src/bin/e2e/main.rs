//! `e2e` — the repository's benchmark: host cost, simulated latency and
//! a per-layer ledger over three fleet workloads and one syscall
//! workload, from one command. `README.md` beside this file is the
//! manual (metric catalogue, interaction table, sizing facts).
//!
//! Three ways to call it:
//!
//! * `e2e [--workload W] [--seed S] [--seconds N] [--trace] [--out FILE]`
//!   — the report: re-executes itself once per workload and mode (so
//!   telemetry statics, the counting allocator and peak RSS are per
//!   workload), prints every metric by name with its unit, and mirrors
//!   the numbers to `results/e2e/e2e.json`.
//! * `e2e --workload W --seed S --seconds N --trace 0|1` — one run in
//!   this process, as the benchmark driver calls it: the last line of
//!   standard output is the result object. `--trace 0` measures the
//!   end-to-end metrics over repeated untraced repetitions; `--trace 1`
//!   runs one untraced and one traced repetition plus the probes and
//!   reports the per-layer metrics.
//! * `e2e --compare A.json B.json` — the relative difference of every
//!   end-to-end metric, one row per workload; fails when any exceeds
//!   its bound.
//!
//! A repetition that computes a wrong answer prints no metrics and the
//! command exits non-zero.

mod alloc;
mod catalogue;
mod fleet;
mod json;
mod kernel_io;
mod measure;
mod probes;
mod report;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use catalogue::{Group, DEFAULT_SEED, METRICS, RUN_SECONDS, WORKLOADS};
use measure::Rep;
use trace::Kind;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Telemetry statics are process-global, so tests that run a world take
/// this lock: their telemetry deltas must not interleave.
#[cfg(test)]
pub fn world_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Metric values by name.
type Values = BTreeMap<&'static str, f64>;

/// What one in-process run yields.
pub struct RunResult {
    /// Operations attempted over every measured repetition.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics this mode reports, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// A workload's geometry.
enum Workload {
    Fleet(fleet::FleetSpec),
    Kernel(kernel_io::KernelSpec),
}

impl Workload {
    fn named(name: &str) -> Option<Workload> {
        match name {
            "kernel_fileio" => Some(Workload::Kernel(kernel_io::spec())),
            _ => fleet::spec(name).map(Workload::Fleet),
        }
    }

    fn run_rep(&self, seed: u64, traced: bool) -> Result<Rep, String> {
        match self {
            Workload::Fleet(spec) => fleet::run_rep(spec, seed, traced),
            Workload::Kernel(spec) => kernel_io::run_rep(*spec, seed, traced),
        }
    }
}

/// `--trace 0`: repeated untraced repetitions, end-to-end metrics.
fn run_untraced(
    name: &str,
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let reps = measure::repeat(seconds, || workload.run_rep(seed, false))?;
    let first = &reps[0];
    let ops = first.ok_ops() as f64;
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let host: Vec<f64> = reps.iter().map(Rep::host_us_per_op).collect();
    for (label, samples) in [("setup_s", &setup), ("host_us_per_op", &host)] {
        let [q1, q2, q3] = stats::quartiles(samples);
        eprintln!(
            "e2e: {name}: {label} quartiles {q1:.4} / {q2:.4} / {q3:.4} over n={} repetitions (spread {:.2}%)",
            samples.len(),
            100.0 * stats::spread(samples)
        );
    }
    let mut v = Values::new();
    v.insert("setup_s", stats::median(&setup));
    v.insert("host_us_per_op", stats::median(&host));
    v.insert(
        "allocs_per_op",
        stats::share(first.allocs.allocs as f64, ops),
    );
    v.insert(
        "alloc_bytes_per_op",
        stats::share(first.allocs.bytes as f64, ops),
    );
    v.insert(
        "wal_bytes_per_user_byte",
        stats::share(first.tele.wal_bytes as f64, first.user_bytes as f64),
    );
    v.insert("peak_rss_mib", measure::peak_rss_mib());
    Ok(RunResult {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: select(name, &v, |g| g == Group::Contract)?,
    })
}

/// `--trace 1`: one untraced and one traced repetition (which must
/// agree exactly), the single-node baseline, and the probes.
fn run_traced(name: &str, workload: &Workload, seed: u64) -> Result<RunResult, String> {
    workload.run_rep(seed, false)?; // Warm-up, discarded.
    let plain = workload.run_rep(seed, false)?;
    let mut traced = workload.run_rep(seed, true)?;
    measure::check_identical("traced vs untraced", &plain, &traced)?;
    let tracer = traced
        .tracer
        .take()
        .ok_or("the traced repetition kept no spans")?;
    let ops = traced.ok_ops() as f64;
    let per_op = |x: u64| stats::share(x as f64, ops);
    let per_kop = |x: u64| 1e3 * stats::share(x as f64, ops);
    let span_us_per_op = |kinds: &[Kind]| {
        let ns: u64 = kinds.iter().map(|k| tracer.total(*k).0).sum();
        stats::share(ns as f64 / 1e3, ops)
    };
    let t = traced.tele;
    let mut v = Values::new();

    // End-to-end metrics that are workload-specific or may be zero,
    // from the untraced repetition.
    v.insert(
        "failed_share",
        stats::share(plain.failed as f64, plain.attempted as f64),
    );
    let (gets, puts) = (&plain.get_ticks, &plain.put_ticks);
    v.insert("get_p50_ticks", stats::percentile(gets, 50) as f64);
    v.insert("get_p99_ticks", stats::percentile(gets, 99) as f64);
    v.insert("put_p50_ticks", stats::percentile(puts, 50) as f64);
    v.insert("put_p99_ticks", stats::percentile(puts, 99) as f64);
    if let Some(f) = plain.fault {
        v.insert("fault_p99_ticks", f.p99_ticks as f64);
        v.insert("fault_stalled_share", f.stalled_ppm as f64 / 1e6);
        v.insert("recovery_ticks", f.recovery_ticks as f64);
    }

    // Layers every workload crosses.
    v.insert("fs.commits_per_op", per_op(t.commits));
    v.insert("fs.wal_bytes_per_op", per_op(t.wal_bytes));
    let (disk_writes, disk_flushes) = traced
        .disk
        .ok_or("the traced repetition read no disk counters")?;
    v.insert("hw.disk_writes_per_op", per_op(disk_writes));
    v.insert("hw.disk_flushes_per_op", per_op(disk_flushes));
    v.insert(
        "trace.overhead_share",
        stats::share(traced.host_us_per_op(), plain.host_us_per_op()) - 1.0,
    );

    match workload {
        Workload::Fleet(spec) => {
            let node_poll_us = span_us_per_op(&[Kind::NodePoll]);
            v.insert(
                "cluster.client_poll_us_per_op",
                span_us_per_op(&[Kind::ClientPoll, Kind::ClientPollIdle]),
            );
            v.insert("cluster.node_poll_us_per_op", node_poll_us);
            v.insert(
                "cluster.coord_step_us_per_op",
                span_us_per_op(&[Kind::CoordStep]),
            );
            v.insert("net.sim_step_us_per_op", span_us_per_op(&[Kind::NetStep]));
            v.insert("cluster.ticks_per_op", per_op(traced.ticks));
            let (polls, useful, backlog) = traced.client_polls;
            v.insert(
                "cluster.client_polls_useful_share",
                stats::share(useful as f64, polls as f64),
            );
            v.insert("cluster.client_backlog_max", backlog as f64);
            v.insert("cluster.retries_per_kop", per_kop(t.retried));
            v.insert("cluster.dedup_hits_per_kop", per_kop(t.dedup_hits));
            v.insert(
                "cluster.replication_lag_p99_ticks",
                traced.replication_lag_p99 as f64,
            );
            v.insert("cluster.shard_syncs", t.shard_syncs as f64);
            v.insert("cluster.view_epochs", traced.view_epochs as f64);
            v.insert("net.frames_per_op", per_op(t.delivered));
            v.insert("net.drops_per_kop", per_kop(t.drops));
            v.insert("net.retransmits_per_kop", per_kop(t.retransmits));
            v.insert("net.window_stalls_per_kop", per_kop(t.window_stalls));
            v.insert("blockstore.store_puts_per_op", per_op(t.store_puts));
            v.insert(
                "blockstore.store_put_us_mean",
                stats::share(t.store_put_ns as f64 / 1e3, t.store_puts as f64),
            );
            v.insert(
                "blockstore.store_get_us_mean",
                stats::share(t.store_get_ns as f64 / 1e3, t.store_gets as f64),
            );
            let store_us = per_op(t.store_put_ns + t.store_get_ns + t.store_delete_ns) / 1e3;
            v.insert(
                "blockstore.store_busy_share",
                stats::share(store_us, node_poll_us),
            );
            for ((_, allocs, bytes), counts) in measure::SPAN_ALLOC_CELLS
                .into_iter()
                .zip(traced.span_allocs)
            {
                v.insert(allocs, per_op(counts.allocs));
                v.insert(bytes, per_op(counts.bytes));
            }
            // The same schedule on one node, replication 1.
            let r1 = fleet::run_rep(&spec.single_node(), seed, false)?;
            v.insert("cluster.r1_host_us_per_op", r1.host_us_per_op());
            v.insert(
                "cluster.r1_put_p50_ticks",
                stats::percentile(&r1.put_ticks, 50) as f64,
            );
            v.extend(probes::fleet(spec));
            // The ledger: node-side counts x probe unit costs, against
            // the measured node-poll time (see README, "Ledger").
            let cell = |name: &str| v.get(name).copied().unwrap_or(0.0);
            let model_ns = per_op(t.store_puts + t.store_deletes)
                * cell("blockstore.store_put_ns_at_pop")
                + per_op(t.store_gets) * cell("blockstore.store_get_ns_at_pop")
                + per_op(t.node_served)
                    * (cell("blockstore.wire_decode_ns") + cell("blockstore.wire_encode_ns"))
                + per_op(t.delivered) * cell("net.frame_codec_ns") / 2.0;
            v.insert(
                "ledger.node_closure",
                stats::share(model_ns / 1e3, node_poll_us),
            );
        }
        Workload::Kernel(spec) => {
            // The tail of individually timed ops is the noisiest number
            // here (it sits in the allocator-heavy tail of the puts),
            // so it is the median of five repetitions' p99s.
            let p99_us = |r: &Rep| {
                let ns: Vec<u32> = r.op_ns.iter().map(|(_, ns)| *ns).collect();
                f64::from(stats::percentile(&ns, 99)) / 1e3
            };
            let mut p99s = vec![p99_us(&plain)];
            for _ in 0..4 {
                p99s.push(p99_us(&workload.run_rep(seed, false)?));
            }
            v.insert("op_p99_us", stats::median(&p99s));
            eprintln!(
                "e2e: {name}: op_p99_us is the median of {} repetitions' p99 ({} timed ops each): {p99s:?}",
                p99s.len(),
                plain.op_ns.len()
            );
            for (kind, metric) in [
                (Kind::Put, "ulib.put_us_mean"),
                (Kind::GetChain, "ulib.get_chain_us_mean"),
                (Kind::MapUnmap, "ulib.map_unmap_us_mean"),
            ] {
                let (ns, calls) = tracer.total(kind);
                v.insert(metric, stats::share(ns as f64 / 1e3, calls as f64));
            }
            v.insert("kernel.syscalls_per_op", per_op(t.trap_syscalls + t.cqes));
            v.insert("kernel.tlb_misses_per_op", per_op(t.tlb_misses));
            v.insert("uring.sqes_per_op", per_op(t.sqes));
            v.insert("uring.chains_per_op", per_op(t.chains));
            v.insert("uring.sweeps_per_op", per_op(t.sweeps));
            v.insert("nr.log_appends_per_op", per_op(t.nr_appends));
            v.extend(probes::kernel());
            v.extend(probes::storage(spec.value_bytes, spec.files));
        }
    }

    let path = format!("e2e/{name}.trace.json");
    std::fs::create_dir_all(veros_bench::out::results_dir().join("e2e"))
        .and_then(|()| veros_bench::out::write_result(&path, &tracer.to_json(name, seed)))
        .map(|p| {
            eprintln!(
                "e2e: {name}: {} spans written to {}",
                tracer.spans().len(),
                p.display()
            )
        })
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(RunResult {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: select(name, &v, |g| g != Group::Contract)?,
    })
}

/// The catalogue rows of the wanted groups, with their values: a metric
/// defined on this workload must have been measured; one that is not
/// reads 0 (the workload does not cross that layer).
fn select(
    workload: &str,
    values: &Values,
    want: impl Fn(Group) -> bool,
) -> Result<Vec<(&'static str, f64)>, String> {
    if let Some(stray) = values.keys().find(|k| catalogue::def(k).is_none()) {
        return Err(format!(
            "`{stray}` was measured but is not in the catalogue"
        ));
    }
    METRICS
        .iter()
        .filter(|d| want(d.group))
        .map(|d| match values.get(d.name) {
            Some(x) if x.is_finite() => Ok((d.name, *x)),
            Some(x) => Err(format!("`{}` is not a number ({x})", d.name)),
            None if d.scope.covers(workload) => {
                Err(format!("`{}` was not measured on {workload}", d.name))
            }
            None => Ok((d.name, 0.0)),
        })
        .collect()
}

/// Runs one workload in this process.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let workload = Workload::named(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    if traced {
        run_traced(name, &workload, seed)
    } else {
        run_untraced(name, &workload, seed, seconds)
    }
}

/// Command-line options.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `Some(Some(x))` for `--trace 0|1`, `Some(None)` for a bare
    /// `--trace`.
    trace: Option<Option<bool>>,
    out: Option<String>,
    compare: Option<(String, String)>,
    /// Print `BENCHMARK.json` / the README's catalogue table, as
    /// rendered from `catalogue::METRICS`.
    benchmark_json: bool,
    catalogue: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--out" => a.out = Some(value("a file")?),
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--benchmark-json" => a.benchmark_json = true,
            "--catalogue" => a.catalogue = true,
            "--trace" => {
                a.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                });
                if a.trace != Some(None) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let outcome = if args.benchmark_json || args.catalogue {
        print!(
            "{}",
            if args.catalogue {
                catalogue::markdown()
            } else {
                catalogue::benchmark_json()
            }
        );
        Ok(())
    } else if let Some((a, b)) = &args.compare {
        report::compare_files(a, b)
    } else if let (Some(name), Some(Some(traced))) = (&args.workload, args.trace) {
        run_workload(name, seed, seconds, traced)
            .map(|r| println!("{}", report::result_line(name, &r)))
    } else {
        report::full(
            args.workload.as_deref(),
            seed,
            seconds,
            args.trace.is_some(),
            args.out.as_deref(),
        )
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_and_the_report_command_lines_both_parse() {
        let a = args(&[
            "--workload",
            "fleet_failover",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("fleet_failover"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(3), Some(10.0), Some(Some(true)))
        );
        assert_eq!(
            args(&["--trace", "0"]).expect("parses").trace,
            Some(Some(false))
        );
        let a = args(&["--trace", "--out", "x.json"]).expect("bare --trace");
        assert_eq!((a.trace, a.out.as_deref()), (Some(None), Some("x.json")));
        assert_eq!(args(&[]).expect("no arguments"), Args::default());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        let a = args(&["--compare", "a", "b"]).expect("parses");
        assert_eq!(a.compare, Some(("a".into(), "b".into())));
    }

    #[test]
    fn select_fills_layers_a_workload_does_not_cross_and_rejects_gaps() {
        let mut v = Values::new();
        for d in METRICS.iter().filter(|d| d.group == Group::Contract) {
            v.insert(d.name, 1.5);
        }
        let got = select("kernel_fileio", &v, |g| g == Group::Contract).expect("complete");
        assert_eq!(got.len(), 6);
        // Per-layer on kernel_fileio: fleet-only cells read 0, a missing
        // kernel cell is an error, and a stray name is an error.
        let err = select("kernel_fileio", &v, |g| g == Group::Layer).expect_err("gaps");
        assert!(err.contains("was not measured"), "{err}");
        v.insert("not.a.metric", 1.0);
        assert!(select("kernel_fileio", &v, |g| g == Group::Contract).is_err());
        assert!(run_workload("nope", 1, 1.0, false).is_err());
    }

    #[test]
    fn a_tiny_untraced_and_traced_run_report_every_metric_of_their_mode() {
        let _world = world_lock();
        let w = Workload::Fleet(fleet::tests::tiny("fleet_failover"));
        let r = run_untraced("fleet_failover", &w, 11, 0.05).expect("untraced");
        assert_eq!(r.failed, 0);
        assert_eq!(
            r.metrics.len(),
            METRICS
                .iter()
                .filter(|d| d.group == Group::Contract)
                .count()
        );
        assert!(r.metrics.iter().all(
            |(n, x)| *x > 0.0 || !veros_telemetry::enabled() && *n == "wal_bytes_per_user_byte"
        ));
        std::env::set_var(
            "VEROS_RESULTS_DIR",
            std::env::temp_dir().join(format!("veros-e2e-{}", std::process::id())),
        );
        let w = Workload::Kernel(kernel_io::tests::tiny());
        let r = run_traced("kernel_fileio", &w, 11).expect("traced");
        assert_eq!(r.metrics.len(), METRICS.len() - 6);
        let get = |n: &str| {
            r.metrics
                .iter()
                .find(|(m, _)| *m == n)
                .map(|(_, x)| *x)
                .expect(n)
        };
        assert_eq!(
            get("cluster.node_poll_us_per_op"),
            0.0,
            "kernel_fileio does not cross cluster"
        );
        assert!(get("op_p99_us") > 0.0 && get("ulib.get_chain_us_mean") > 0.0);
        let dir = veros_bench::out::results_dir();
        let spans =
            std::fs::read_to_string(dir.join("e2e/kernel_fileio.trace.json")).expect("span file");
        assert!(json::parse(&spans)
            .is_ok_and(|j| j.get("spans").is_some_and(|s| s.items().len() == 200)));
        let _ = std::fs::remove_dir_all(dir);
        std::env::remove_var("VEROS_RESULTS_DIR");
    }
}
