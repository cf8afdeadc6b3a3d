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

use crate::baseline::{Better, Current, Gate};

/// Ceiling on the measured failover time, in ticks. Failover is local
/// suspicion (`OP_TIMEOUT` + backoff) plus the coordinator's death
/// deadline plus a shard sync; observed runs complete in ~150-300
/// ticks, so tripling past this ceiling means promotion wedged.
pub const MAX_FAILOVER_TICKS: u64 = 1000;

/// How far throughput may fall below, and p99 rise above, the committed
/// baseline. The world is deterministic in ticks, so this guards only
/// intentional workload or config drift, never host noise.
pub const TOLERANCE: f64 = 0.10;

/// Step budget after the last scheduled arrival before the run is
/// declared wedged.
const DRAIN_BUDGET: u64 = 200_000;

/// One full measurement.
#[derive(Clone, Debug)]
pub struct BlockstoreReport {
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

/// Runs both phases for the bench geometry: 1000 clients over 8 nodes,
/// 3-way chains, 4000 ops over 512 keys.
pub fn measure() -> BlockstoreReport {
    let cfg = FleetConfig {
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
    };
    let wcfg = WorkloadConfig {
        client_hosts: cfg.clients,
        keyspace: 512,
        ops: 4000,
        ..WorkloadConfig::default()
    };
    measure_with(cfg, &wcfg)
}

/// Runs both phases over an explicit geometry (tests use tiny ones).
pub fn measure_with(cfg: FleetConfig, wcfg: &WorkloadConfig) -> BlockstoreReport {
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
            "{{\n  \"bench\": \"blockstore\",\n  \"telemetry\": {},\n  \
             \"nodes\": {},\n  \"clients\": {},\n  \"replication\": {},\n  \"ops\": {},\n  \
             \"completed\": {},\n  \"failed\": {},\n  \"retries\": {},\n  \
             \"p50_ticks\": {},\n  \"p99_ticks\": {},\n  \"max_ticks\": {},\n  \
             \"throughput_milli\": {},\n  \"run_ticks\": {},\n  \
             \"failover_ticks\": {},\n  \"max_failover_ticks\": {}\n}}\n",
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

    /// What the baseline gates: throughput as a floor, p99 as a ceiling.
    /// Failover is held to [`MAX_FAILOVER_TICKS`] by the binary itself.
    pub fn gates(&self) -> [Gate; 2] {
        [
            Gate {
                key: "throughput_milli",
                better: Better::Higher,
                tolerance: TOLERANCE,
                current: Current::Field(self.stats.throughput_milli as f64),
            },
            Gate {
                key: "p99_ticks",
                better: Better::Lower,
                tolerance: TOLERANCE,
                current: Current::Field(self.stats.p99 as f64),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::field_num;

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
        measure_with(cfg, &wcfg)
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
    }
}
