//! The `blockstore_hotpath` workload: an open-loop YCSB-style load —
//! a thousand simulated client hosts, zipfian keys, burst windows, a
//! read-heavy mix — driven through the sharded chain-replicated fleet
//! (`veros-cluster`), emitted as `BENCH_blockstore.json`.
//!
//! Unlike the wall-clock benches (`BENCH_nr.json`, `BENCH_uring.json`),
//! every number here is measured in **simulation ticks** of a
//! deterministic world: the same `(config, seed)` produces the same
//! arrival schedule, the same wire faults, and therefore the same
//! latencies on any host. The committed baseline can be gated tightly —
//! a regression is a code change, never CI machine load.
//!
//! The run has two phases:
//!
//! 1. **Capacity** — the full arrival schedule is preloaded into the
//!    client queues (each client issues its ops at their scheduled
//!    ticks; backlog queues open-loop, so queueing delay is charged to
//!    latency) and the world steps until every operation completes.
//!    Throughput, p50/p99/max latency, and retry counts come from here.
//! 2. **Failover** — the hottest key is written, the tail of its chain
//!    (the replica serving reads) is fail-stopped, and a timed read
//!    measures ticks from the kill until the answer arrives via the
//!    promoted chain — with the acknowledged payload intact.

use veros_cluster::workload::{self, WorkloadConfig, WorkloadStats};
use veros_cluster::{Fleet, FleetConfig, Op, OpResult};
use veros_net::sim::FaultPlan;
use veros_blockstore::Response;

use crate::baseline::{field_bool, field_num, missing};

/// Ceiling on the measured failover time, in ticks. Failover is local
/// suspicion (`OP_TIMEOUT` + backoff) plus the coordinator's death
/// deadline plus a shard sync; observed runs complete in ~150-300
/// ticks, so tripling past this ceiling means promotion wedged.
pub const MAX_FAILOVER_TICKS: u64 = 1000;

/// Step budget after the last scheduled arrival before the run is
/// declared wedged.
const DRAIN_BUDGET: u64 = 200_000;

/// Fleet geometry for the bench: both profiles keep the headline shape
/// (1000 clients over 8 nodes, 3-way chains); quick only shrinks the
/// schedule.
pub fn fleet_config(quick: bool) -> FleetConfig {
    let _ = quick;
    FleetConfig {
        nodes: 8,
        replication: 3,
        shards: 64,
        vnodes: 16,
        clients: 1000,
        // A lightly lossy wire: the capacity number includes real
        // retransmission work, not a perfect-network fiction.
        plan: FaultPlan { loss: (1, 100), duplicate: (1, 200), reorder: false },
        seed: 11,
        sectors: 1 << 12,
    }
}

/// Workload shape for the bench profile.
pub fn workload_config(quick: bool, clients: u16) -> WorkloadConfig {
    WorkloadConfig {
        client_hosts: clients,
        keyspace: if quick { 128 } else { 512 },
        ops: if quick { 800 } else { 4000 },
        ..WorkloadConfig::default()
    }
}

/// One full measurement.
#[derive(Clone, Debug)]
pub struct BlockstoreReport {
    /// Quick profile (smaller schedule, same fleet shape).
    pub quick: bool,
    /// Storage nodes in the fleet.
    pub nodes: u16,
    /// Simulated client hosts.
    pub clients: u16,
    /// Chain replication factor.
    pub replication: usize,
    /// Operations scheduled.
    pub ops: usize,
    /// Capacity-phase score.
    pub stats: WorkloadStats,
    /// Every scheduled operation completed within the drain budget.
    pub drained: bool,
    /// Ticks from the chain-tail kill to the first answered read.
    pub failover_ticks: u64,
    /// The post-failover read returned the acknowledged payload.
    pub failover_read_ok: bool,
}

/// Runs both phases for the standard bench geometry.
pub fn measure(quick: bool) -> BlockstoreReport {
    let cfg = fleet_config(quick);
    let wcfg = workload_config(quick, cfg.clients);
    measure_with(quick, cfg, &wcfg)
}

/// Runs both phases over an explicit geometry (tests use tiny ones).
pub fn measure_with(quick: bool, cfg: FleetConfig, wcfg: &WorkloadConfig) -> BlockstoreReport {
    let mut f = Fleet::new(cfg);
    let sched = workload::schedule(wcfg);
    let total = sched.len();
    let last_arrival = sched.last().map_or(0, |a| a.tick);
    for a in sched {
        f.clients[a.client].submit(a.tick, a.op);
    }
    let mut drained = false;
    while f.now() < last_arrival + DRAIN_BUDGET {
        f.step();
        if f.clients.iter().map(|c| c.results.len()).sum::<usize>() == total {
            drained = true;
            break;
        }
    }
    let ticks = f.now();
    let results: Vec<OpResult> = f.clients.iter().flat_map(|c| c.results.iter().cloned()).collect();
    let stats = workload::stats(&results, ticks);

    // Failover phase: seed the hottest key, kill the replica serving
    // its reads, and time the next read end to end.
    const PROBE_BUDGET: u64 = 30_000;
    let hot = "ycsb-0".to_string();
    let payload = vec![0xfa; 128];
    let seeded = f
        .run_op(0, Op::Put { key: hot.clone(), data: payload.clone() }, PROBE_BUDGET)
        .is_some_and(|r| r.ok);
    let chain = f.chain_for_key(&hot);
    let tail = chain.last().copied().unwrap_or(0);
    let killed_at = f.now();
    f.kill_node(tail);
    let read = f.run_op(0, Op::Get { key: hot.clone() }, PROBE_BUDGET);
    let failover_ticks = f.now() - killed_at;
    let failover_read_ok = seeded
        && read.is_some_and(|r| {
            matches!(&r.resp, Response::GetOk { .. }) && r.read.as_deref() == Some(&payload[..])
        });

    BlockstoreReport {
        quick,
        nodes: cfg.nodes,
        clients: cfg.clients,
        replication: cfg.replication,
        ops: total,
        stats,
        drained,
        failover_ticks,
        failover_read_ok,
    }
}

impl BlockstoreReport {
    /// The JSON mirror / committed baseline format. Line-per-field, so
    /// the scanner-style parser below (same discipline as
    /// `BENCH_uring.json`) can read it back.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\n  \"bench\": \"blockstore\",\n  \"quick\": {},\n  \"telemetry\": {},\n  \
             \"nodes\": {},\n  \"clients\": {},\n  \"replication\": {},\n  \"ops\": {},\n  \
             \"completed\": {},\n  \"failed\": {},\n  \"retries\": {},\n  \
             \"p50_ticks\": {},\n  \"p99_ticks\": {},\n  \"max_ticks\": {},\n  \
             \"throughput_milli\": {},\n  \"run_ticks\": {},\n  \
             \"failover_ticks\": {},\n  \"max_failover_ticks\": {}\n}}\n",
            self.quick,
            veros_telemetry::enabled(),
            self.nodes,
            self.clients,
            self.replication,
            self.ops,
            s.completed,
            s.failed,
            s.retries,
            s.p50,
            s.p99,
            s.max,
            s.throughput_milli,
            s.ticks,
            self.failover_ticks,
            MAX_FAILOVER_TICKS,
        )
    }
}

/// True when the baseline says it was recorded under the other profile
/// — tick-for-tick comparison is only meaningful between identical
/// schedules, so the gate skips loudly. A baseline that does not say
/// either way is not skipped: [`regressions_against`] fails it.
pub fn other_profile(current: &BlockstoreReport, baseline_json: &str) -> bool {
    field_bool(baseline_json, "quick") == Some(!current.quick)
}

/// Compares a fresh report against the committed baseline. The world
/// is deterministic in ticks, so the tolerance guards only intentional
/// workload/config drift, not host noise: throughput may not fall more
/// than `tolerance` below the committed value, p99 may not rise more
/// than `tolerance` above it, and the failover sample is held to the
/// committed `max_failover_ticks` ceiling. A baseline lacking `quick`
/// or any of those three keys is itself a violation. Returns the
/// violations (empty = pass).
pub fn regressions_against(
    current: &BlockstoreReport,
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    if field_bool(baseline_json, "quick").is_none() {
        out.push(missing("quick"));
    }
    match field_num(baseline_json, "throughput_milli") {
        Some(base) => {
            let floor = (base * (1.0 - tolerance)) as u64;
            if current.stats.throughput_milli < floor {
                out.push(format!(
                    "throughput {} ops/1000t < floor {floor} (baseline {base})",
                    current.stats.throughput_milli
                ));
            }
        }
        None => out.push(missing("throughput_milli")),
    }
    match field_num(baseline_json, "p99_ticks") {
        Some(base) => {
            let ceiling = (base * (1.0 + tolerance)) as u64;
            if current.stats.p99 > ceiling {
                out.push(format!(
                    "p99 {} ticks > ceiling {ceiling} (baseline {base})",
                    current.stats.p99
                ));
            }
        }
        None => out.push(missing("p99_ticks")),
    }
    match field_num(baseline_json, "max_failover_ticks") {
        Some(ceiling) => {
            if current.failover_ticks > ceiling as u64 {
                out.push(format!(
                    "failover {} ticks > committed ceiling {ceiling}",
                    current.failover_ticks
                ));
            }
        }
        None => out.push(missing("max_failover_ticks")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BlockstoreReport {
        let cfg = FleetConfig {
            nodes: 4,
            replication: 3,
            shards: 16,
            vnodes: 8,
            clients: 40,
            plan: FaultPlan::reliable(),
            seed: 3,
            sectors: 1 << 10,
        };
        let wcfg = WorkloadConfig {
            client_hosts: 40,
            keyspace: 32,
            ops: 120,
            mean_gap: 1,
            ..WorkloadConfig::default()
        };
        measure_with(true, cfg, &wcfg)
    }

    #[test]
    fn tiny_fleet_drains_and_fails_over() {
        let r = tiny();
        assert!(r.drained, "scheduled ops must all complete");
        assert_eq!(r.stats.completed, 120);
        assert!(r.failover_read_ok, "acked hot key must survive the tail kill");
        assert!(r.failover_ticks <= MAX_FAILOVER_TICKS, "{}", r.failover_ticks);
        assert!(r.stats.throughput_milli > 0);
    }

    #[test]
    fn json_roundtrips_through_the_scanner() {
        let r = tiny();
        let json = r.to_json();
        assert_eq!(field_num(&json, "completed"), Some(r.stats.completed as f64));
        assert_eq!(field_num(&json, "p99_ticks"), Some(r.stats.p99 as f64));
        assert_eq!(field_num(&json, "max_failover_ticks"), Some(MAX_FAILOVER_TICKS as f64));
        assert_eq!(field_bool(&json, "quick"), Some(true));
        assert!(!other_profile(&r, &json));
    }

    #[test]
    fn gate_trips_on_regressions_only() {
        let r = tiny();
        let json = r.to_json();
        // Identical run against its own mirror: clean.
        assert!(regressions_against(&r, &json, 0.10).is_empty());
        // A slower world trips both latency-side gates.
        let mut slow = r.clone();
        slow.stats.throughput_milli /= 4;
        slow.stats.p99 = slow.stats.p99 * 4 + 1000;
        slow.failover_ticks = MAX_FAILOVER_TICKS + 1;
        let v = regressions_against(&slow, &json, 0.10);
        assert_eq!(v.len(), 3, "{v:?}");
        // Profile mismatch is detectable before gating.
        let full = BlockstoreReport { quick: false, ..r.clone() };
        assert!(other_profile(&full, &json));
        // A baseline missing what the gate reads fails instead of
        // passing vacuously: empty (never "the other profile"), or with
        // a gated key renamed.
        assert!(!other_profile(&r, ""));
        assert_eq!(regressions_against(&r, "", 0.10).len(), 4);
        let rekeyed = json.replace("p99_ticks", "p99");
        let v = regressions_against(&r, &rekeyed, 0.10);
        assert!(v.len() == 1 && v[0].contains("p99_ticks"), "{v:?}");
    }
}
