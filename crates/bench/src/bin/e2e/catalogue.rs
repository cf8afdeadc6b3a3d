//! The metric and workload catalogue: every name the bench prints, with
//! its unit, direction, regression bound, the workloads it is defined
//! on, and (per-layer metrics) the end-to-end metric it should move.
//!
//! This table is the single source of truth. `BENCHMARK.json` at the
//! repository root is rendered from it (`e2e --benchmark-json`) and a
//! test fails when the committed file and the table disagree; the
//! README's metric catalogue lists the same rows.
//!
//! `BENCHMARK.json`'s schema has one flat `end_to_end` list that must be
//! defined, and never zero, on **every** workload. Six of the fifteen
//! end-to-end metrics satisfy that ([`Group::Contract`]); the other nine
//! are defined on some workloads only or are zero when nothing fails
//! ([`Group::EndToEnd`]). Those nine are measured on untraced
//! repetitions like the rest, are gated by `e2e --compare`, and are
//! listed in `BENCHMARK.json` under `per_layer` (which carries no bound
//! and tolerates a zero).

/// Which workloads a metric is defined on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// All four workloads.
    All,
    /// The three `fleet_*` workloads.
    Fleets,
    /// `fleet_failover` only.
    Failover,
    /// `kernel_fileio` only.
    Kernel,
}

impl Scope {
    /// Whether `workload` is in scope.
    pub fn covers(self, workload: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Fleets => workload.starts_with("fleet_"),
            Scope::Failover => workload == "fleet_failover",
            Scope::Kernel => workload == "kernel_fileio",
        }
    }
}

/// Which part of the report a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// End-to-end, defined and non-zero on every workload: printed by
    /// `--trace 0` and listed under `end_to_end` in `BENCHMARK.json`.
    Contract,
    /// End-to-end, but workload-specific or legitimately zero: printed
    /// by `--trace 1` from that run's untraced repetition.
    EndToEnd,
    /// A single layer's metric, from the traced repetition, telemetry
    /// deltas or an isolated probe.
    Layer,
}

/// One catalogue row.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// The metric's name, exactly as printed.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression (the `bound` `BENCHMARK.json`
    /// carries). Per-layer metrics are never gated.
    pub bound: f64,
    /// Deterministic for one seed: `--compare`, which compares two
    /// reports of the *same* seed, fails on any worsening at all. The
    /// driver compares medians over *different* seeds, across which an
    /// exact count still varies with the schedule — hence `bound`.
    pub exact: bool,
    /// Report section.
    pub group: Group,
    /// Workloads it is defined on (it reads 0 elsewhere).
    pub scope: Scope,
    /// Where the number comes from and which end-to-end metric it
    /// should move — the README's interaction table in one line.
    pub note: &'static str,
}

/// An end-to-end metric; `bound` 0 marks it exact.
const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    group: Group,
    scope: Scope,
    note: &'static str,
) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound,
        exact: bound == 0.0,
        group,
        scope,
        note,
    }
}

/// An end-to-end count that is exact for one seed but varies across
/// seeds by up to `bound`.
const fn e2e_count(name: &'static str, unit: &'static str, bound: f64, note: &'static str) -> Def {
    Def {
        exact: true,
        ..e2e(name, unit, bound, Group::Contract, Scope::All, note)
    }
}

const fn layer(name: &'static str, unit: &'static str, scope: Scope, note: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
        exact: false,
        group: Group::Layer,
        scope,
        note,
    }
}

const fn layer_up(name: &'static str, unit: &'static str, scope: Scope, note: &'static str) -> Def {
    Def {
        higher_is_better: true,
        ..layer(name, unit, scope, note)
    }
}

use Group::{Contract, EndToEnd};
use Scope::{All, Failover, Fleets, Kernel};

/// Every metric, in print order.
pub const METRICS: &[Def] = &[
    // ---- end to end, every workload --------------------------------
    e2e("setup_s", "s", 0.25, Contract, All, "world build + preload + schedule; median over repetitions"),
    e2e("host_us_per_op", "us", 0.20, Contract, All, "host wall time of the measured phase / ops completed ok; median over repetitions"),
    e2e_count("allocs_per_op", "count", 0.12, "allocation requests in the measured phase / ops"),
    e2e_count("alloc_bytes_per_op", "bytes", 0.12, "bytes requested from the allocator in the measured phase / ops"),
    e2e_count("wal_bytes_per_user_byte", "bytes/byte", 0.03, "fs.journal.wal_bytes delta / user bytes written"),
    e2e("peak_rss_mib", "MiB", 0.15, Contract, All, "VmHWM of the workload's process"),
    // ---- end to end, workload-specific or legitimately zero --------
    e2e("failed_share", "share", 0.0, EndToEnd, All, "ops failed, unanswered at the drain budget, or NoSpace / ops attempted; exact"),
    e2e("get_p50_ticks", "ticks", 0.0, EndToEnd, Fleets, "simulated ticks from scheduled arrival, gets; exact"),
    e2e("get_p99_ticks", "ticks", 0.0, EndToEnd, Fleets, "simulated ticks from scheduled arrival, gets; exact"),
    e2e("put_p50_ticks", "ticks", 0.0, EndToEnd, Fleets, "simulated ticks from scheduled arrival, puts; exact"),
    e2e("put_p99_ticks", "ticks", 0.0, EndToEnd, Fleets, "simulated ticks from scheduled arrival, puts; exact"),
    e2e("fault_p99_ticks", "ticks", 0.0, EndToEnd, Failover, "p99 over ops issued in the 1000 ticks after the kill; worst cell; exact"),
    e2e("fault_stalled_share", "share", 0.0, EndToEnd, Failover, "share of all ops slower than the 50-tick limit, failures included; worst cell; exact"),
    e2e("recovery_ticks", "ticks", 0.0, EndToEnd, Failover, "kill -> every shard the victim served is a ready full-width chain again; worst cell; exact"),
    e2e("op_p99_us", "us", 0.25, EndToEnd, Kernel, "host us per individually timed op; median of five untraced repetitions' p99 (100 000 ops each); the noisiest metric on a shared 2-core host, hence the widest bound"),
    // ---- cluster ----------------------------------------------------
    layer("cluster.client_poll_us_per_op", "us", Fleets, "S: FleetClient::poll spans / ops -> host_us_per_op on fleet_read_mostly"),
    layer("cluster.node_poll_us_per_op", "us", Fleets, "S: FleetNode::poll spans / ops -> host_us_per_op on fleet_write_heavy"),
    layer("cluster.coord_step_us_per_op", "us", Fleets, "S: Coordinator::step spans / ops -> host_us_per_op"),
    layer("cluster.ticks_per_op", "ticks", Fleets, "S: ticks stepped / ops; fixed by the arrival rate -> host_us_per_op (idle ticks cost host time)"),
    layer_up("cluster.client_polls_useful_share", "share", Fleets, "S: polls of a non-idle client / all client polls -> host_us_per_op on fleet_read_mostly"),
    layer("cluster.client_backlog_max", "count", Fleets, "S: most due-but-unissued ops queued at clients in any tick (how far the open loop fell behind) -> *_p99_ticks"),
    layer("cluster.retries_per_kop", "1/kop", Fleets, "T: cluster.ops.retried delta -> get/put_p99_ticks, fault_*; 0 on fleet_write_heavy"),
    layer("cluster.dedup_hits_per_kop", "1/kop", Fleets, "T: cluster.dedup.hits delta -> fault_* (retries that exactly-once absorbed)"),
    layer("cluster.replication_lag_p99_ticks", "ticks", Fleets, "T: cluster.replication.lag histogram delta (log2 bucket bound) -> put_p99_ticks, recovery_ticks"),
    layer("cluster.shard_syncs", "count", Fleets, "T: cluster.shard.syncs delta -> recovery_ticks; 0 without a kill"),
    layer("cluster.view_epochs", "count", Fleets, "T: coordinator epochs advanced -> recovery_ticks; 0 without a kill"),
    layer("cluster.idle_tick_us", "us", Fleets, "P: Fleet::step with nothing outstanding, at the workload's client count -> host_us_per_op on fleet_read_mostly"),
    layer("cluster.route_ns", "ns", Fleets, "P: ShardMap::chain_for_key -> client and node poll cells"),
    layer("cluster.r1_host_us_per_op", "us", Fleets, "P: same schedule on 1 node, replication 1; fleet minus this is what chain hops cost -> host_us_per_op"),
    layer("cluster.r1_put_p50_ticks", "ticks", Fleets, "P: same schedule on 1 node, replication 1 -> put_p50_ticks"),
    // ---- net --------------------------------------------------------
    layer("net.sim_step_us_per_op", "us", Fleets, "S: Network::step spans / ops -> host_us_per_op on fleet_read_mostly"),
    layer("net.frames_per_op", "count", Fleets, "T: net.sim.delivered delta / ops -> net.sim_step_us_per_op"),
    layer("net.drops_per_kop", "1/kop", Fleets, "T: net.sim.drops delta -> *_p99_ticks; 0 on fleet_write_heavy"),
    layer("net.retransmits_per_kop", "1/kop", Fleets, "T: net.rdt.retransmits delta -> *_p99_ticks; 0 on fleet_write_heavy"),
    layer("net.window_stalls_per_kop", "1/kop", Fleets, "T: net.rdt.window_stalls delta -> put_p99_ticks"),
    layer("net.frame_codec_ns", "ns", Fleets, "P: Eth+IP+UDP encode+decode of one wire message -> net.sim_step_us_per_op, poll cells"),
    layer("net.rdt_msg_ns", "ns", Fleets, "P: send -> deliver -> ack of one message over a 2-host reliable Network -> poll cells"),
    // ---- blockstore -------------------------------------------------
    layer("blockstore.store_puts_per_op", "count", Fleets, "T: blockstore.put.latency count delta / ops (replication fan-out) -> node_poll_us_per_op"),
    layer("blockstore.store_put_us_mean", "us", Fleets, "T: blockstore.put.latency sum/count delta -> host_us_per_op on fleet_write_heavy, setup_s everywhere"),
    layer("blockstore.store_get_us_mean", "us", Fleets, "T: blockstore.get.latency sum/count delta -> host_us_per_op on fleet_read_mostly"),
    layer("blockstore.store_busy_share", "share", Fleets, "T/S: sum of store put/get/delete latency / node-poll time -> node_poll_us_per_op"),
    layer("blockstore.wire_encode_ns", "ns", Fleets, "P: Request::encode of a put at the workload's value size -> client poll cell"),
    layer("blockstore.wire_decode_ns", "ns", Fleets, "P: Request::decode of the same message -> node poll cell"),
    layer("blockstore.checksum_ns_per_kib", "ns/KiB", Fleets, "P: block_checksum -> store put/get cells"),
    layer("blockstore.store_put_ns_pop16", "ns", Fleets, "P: BlockStore::put at the workload's value size, 16 keys stored"),
    layer("blockstore.store_put_ns_at_pop", "ns", Fleets, "P: the same at the workload's per-node population -> store_put_us_mean"),
    layer("blockstore.store_get_ns_at_pop", "ns", Fleets, "P: BlockStore::get at the per-node population -> store_get_us_mean"),
    layer("blockstore.store_put_pop_scaling", "ratio", Fleets, "P: at_pop / pop16; cost that grows with stored data -> host_us_per_op on fleet_write_heavy, setup_s"),
    layer("blockstore.store_put_ns_4k", "ns", Fleets, "P: BlockStore::put of 4 KiB at 16 keys (no fleet round carries it: MAX_FRAME)"),
    layer("blockstore.store_put_ns_64k", "ns", Fleets, "P: BlockStore::put of 64 KiB at 16 keys (store probe only)"),
    // ---- fs ---------------------------------------------------------
    layer("fs.commits_per_op", "count", All, "T: fs.journal.commits delta / ops -> wal_bytes_per_user_byte, host_us_per_op"),
    layer("fs.wal_bytes_per_op", "bytes", All, "T: fs.journal.wal_bytes delta / ops -> wal_bytes_per_user_byte"),
    layer("fs.apply_commit_ns_pop16", "ns", All, "P: JournaledFs::apply(WriteAt)+commit with 16 files"),
    layer("fs.apply_commit_ns_at_pop", "ns", All, "P: the same at the workload's file population (apply clones the MemFs) -> store_put_*, host_us_per_op, op_p99_us"),
    layer("fs.memfs_write_ns", "ns", All, "P: MemFs::write_at of one value -> fs.apply_commit_*"),
    // ---- hw ---------------------------------------------------------
    layer("hw.disk_writes_per_op", "count", All, "T: SimDisk::stats sector writes in the measured phase / ops -> wal_bytes_per_user_byte"),
    layer("hw.disk_flushes_per_op", "count", All, "T: SimDisk::stats flush barriers in the measured phase / ops -> host_us_per_op"),
    layer("hw.disk_write_flush_ns_per_sector", "ns", All, "P: SimDisk write x8 + flush, per sector -> fs.apply_commit_*"),
    // ---- alloc ------------------------------------------------------
    layer("alloc.client_poll_allocs_per_op", "count", Fleets, "A: allocation requests inside client-poll spans / ops -> allocs_per_op"),
    layer("alloc.node_poll_allocs_per_op", "count", Fleets, "A: inside node-poll spans -> allocs_per_op"),
    layer("alloc.net_step_allocs_per_op", "count", Fleets, "A: inside Network::step spans -> allocs_per_op"),
    layer("alloc.client_poll_bytes_per_op", "bytes", Fleets, "A: bytes requested inside client-poll spans / ops -> alloc_bytes_per_op"),
    layer("alloc.node_poll_bytes_per_op", "bytes", Fleets, "A: inside node-poll spans -> alloc_bytes_per_op"),
    layer("alloc.net_step_bytes_per_op", "bytes", Fleets, "A: inside Network::step spans -> alloc_bytes_per_op"),
    // ---- ulib / uring / kernel / nr / pagetable ---------------------
    layer("ulib.put_us_mean", "us", Kernel, "S: UFile::open+write+close of 1 KiB -> host_us_per_op, op_p99_us on kernel_fileio"),
    layer("ulib.get_chain_us_mean", "us", Kernel, "S: chained UFile::open_read_close -> host_us_per_op on kernel_fileio"),
    layer("ulib.map_unmap_us_mean", "us", Kernel, "S: Map 8 pages, touch, Unmap -> op_p99_us on kernel_fileio"),
    layer("kernel.syscalls_per_op", "count", Kernel, "T: trap-path syscalls (kernel.syscall.latency.* counts) + ring-dispatched SQEs (uring.cqes.posted) / ops"),
    layer("kernel.tlb_misses_per_op", "count", Kernel, "T: kernel.tlb.misses delta / ops -> ulib.map_unmap_us_mean"),
    layer("uring.sqes_per_op", "count", Kernel, "T: uring.sqes.submitted delta / ops"),
    layer("uring.chains_per_op", "count", Kernel, "T: uring.chains.dispatched delta / ops"),
    layer("uring.sweeps_per_op", "count", Kernel, "T: uring.poller.sweeps delta / ops -> host_us_per_op on kernel_fileio"),
    layer("nr.log_appends_per_op", "count", Kernel, "T: nr.log.appends delta / ops; 0 today: Kernel::syscall does not go through NodeReplicated"),
    layer("kernel.syscall_trap_ns", "ns", Kernel, "P: synchronous ClockRead through Kernel::syscall"),
    layer("uring.ring_batch8_ns_per_op", "ns", Kernel, "P: ClockRead through the ring in batches of 8"),
    layer("uring.chain_orc_ns", "ns", Kernel, "P: one chained open->read->close submission"),
    layer("nr.execute_mut_ns", "ns", Kernel, "P: NodeReplicated::execute_mut, 1 thread x 1 replica"),
    layer("kernel.resolve_hot_ns", "ns", Kernel, "P: VSpace resolve over a cache-sized working set"),
    layer("kernel.resolve_cold_ns", "ns", Kernel, "P: VSpace resolve over a sweep larger than the cache"),
    layer("pagetable.map_range_ns_per_page", "ns", Kernel, "P: batched MapRange+UnmapRange per page-op on the verified page table"),
    // ---- ledger / trace ---------------------------------------------
    layer_up("ledger.node_closure", "share", Fleets, "sum(count per op x probe unit cost) over node-side cells / cluster.node_poll_us_per_op; reported, not gated"),
    layer("trace.overhead_share", "share", All, "traced / untraced host_us_per_op - 1"),
];

/// One workload: its name and the one-sentence reason it exists.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen (one line, <= 200 characters).
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fleet_read_mostly",
        why: "1000 mostly idle clients, zipf 80/18/2 mix, lossy wire: the tick stepper, net::sim and client polls do the work; the store does little",
    },
    Workload {
        name: "fleet_write_heavy",
        why: "16 clients, 90% puts of 1 KiB over 1024 keys, reliable wire: blockstore -> fs::journal -> hw::disk do the work; the stepper almost none",
    },
    Workload {
        name: "fleet_failover",
        why: "kill the head or the tail of the hot key's chain while arrivals continue: the only workload where view change, suspicion, retry/dedup and shard sync run",
    },
    Workload {
        name: "kernel_fileio",
        why: "one process on ulib over uring over the kernel: the syscall-contract path (marshal, page table, TLB, fs) does all the work; cluster and net none",
    },
];

/// Seconds one measured run lasts (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The default seed (`--seed`).
pub const DEFAULT_SEED: u64 = 11;

/// Looks a metric up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    METRICS.iter().find(|d| d.name == name)
}

/// Renders `BENCHMARK.json` in the driver's schema.
pub fn benchmark_json() -> String {
    use crate::json::escape;
    let better = |d: &Def| {
        if d.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/e2e\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = METRICS
        .iter()
        .filter(|d| d.group == Group::Contract)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d),
                d.bound
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    let rows: Vec<String> = METRICS
        .iter()
        .filter(|d| d.group != Group::Contract)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d)
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    out
}

/// The metric catalogue as the markdown table the README carries.
pub fn markdown() -> String {
    let mut out = String::from("| metric | unit | better | bound | workloads | source -> what it should move |\n|---|---|---|---|---|---|\n");
    for d in METRICS {
        let bound = match (d.group, d.exact) {
            (Group::Layer, _) => "-".to_string(),
            (_, true) if d.bound == 0.0 => "exact".to_string(),
            (_, true) => format!("exact ({:.0} % across seeds)", 100.0 * d.bound),
            (_, false) => format!("{:.0} %", 100.0 * d.bound),
        };
        let scope = match d.scope {
            Scope::All => "all",
            Scope::Fleets => "fleet_*",
            Scope::Failover => "fleet_failover",
            Scope::Kernel => "kernel_fileio",
        };
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        out.push_str(&format!(
            "| `{}` | {} | {better} | {bound} | {scope} | {} |\n",
            d.name, d.unit, d.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_benchmark_schema_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in METRICS {
            assert!(name_ok(d.name, 64), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                d.name
            );
            assert!((0.0..=0.25).contains(&d.bound), "bound of {}", d.name);
            if d.group == Group::Contract {
                assert_eq!(d.scope, Scope::All, "{} must be defined everywhere", d.name);
                assert!(d.bound > 0.0);
            }
            assert!(
                d.bound > 0.0 || d.exact || d.group == Group::Layer,
                "{} is ungated",
                d.name
            );
        }
        let contract = METRICS
            .iter()
            .filter(|d| d.group == Group::Contract)
            .count();
        let rest = METRICS.len() - contract;
        assert!((1..=16).contains(&contract) && (1..=128).contains(&rest));
        let setup = def("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(
            METRICS.iter().all(|d| d.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(name_ok(w.name, 64) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn the_readme_carries_the_catalogue_table() {
        let readme = include_str!("README.md");
        for row in markdown().lines() {
            assert!(
                readme.contains(row),
                "README.md lacks the catalogue row (regenerate with `e2e --catalogue`):\n{row}"
            );
        }
        for w in WORKLOADS {
            assert!(
                readme.contains(w.name),
                "README.md does not mention {}",
                w.name
            );
        }
    }

    #[test]
    fn scopes_cover_the_right_workloads() {
        assert!(Scope::All.covers("kernel_fileio") && Scope::All.covers("fleet_failover"));
        assert!(
            Scope::Fleets.covers("fleet_write_heavy") && !Scope::Fleets.covers("kernel_fileio")
        );
        assert!(
            Scope::Failover.covers("fleet_failover")
                && !Scope::Failover.covers("fleet_read_mostly")
        );
        assert!(Scope::Kernel.covers("kernel_fileio") && !Scope::Kernel.covers("fleet_failover"));
    }

    #[test]
    fn rendered_benchmark_json_is_well_formed_and_committed() {
        let rendered = benchmark_json();
        let v = json::parse(&rendered).expect("rendered BENCHMARK.json parses");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            v.get("workloads").map(|w| w.items().len()),
            Some(WORKLOADS.len())
        );
        for m in v.get("end_to_end").expect("end_to_end").items() {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
        for c in v.get("command").expect("command").items() {
            let c = c.str().expect("string");
            assert!(!c.starts_with('/') && !c.contains(".."), "{c}");
        }
        assert!(rendered.len() < 64 * 1024);
        // The committed file, when this source tree has one above it,
        // must be exactly what the table renders.
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let committed = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                break Some(candidate);
            }
            if !dir.pop() {
                break None;
            }
        };
        if let Some(path) = committed {
            let on_disk = std::fs::read_to_string(&path).expect("readable");
            assert_eq!(
                json::parse(&on_disk).ok(),
                Some(v.clone()),
                "{} is stale: regenerate with `e2e --benchmark-json`",
                path.display()
            );
        }
        assert!(matches!(v, Json::Obj(_)));
    }
}
