//! Telemetry instruments for the fleet.
//!
//! All instruments are process-global `veros-telemetry` statics that
//! compile to no-ops with the `telemetry` feature off. On top of the
//! aggregate counters/histograms, the fleet exports a **per-node**
//! metric view — a fixed bank of 16 counters indexed by `node % 16` —
//! so a hot node shows up in the report without per-entity dynamic
//! instruments. [`export`] registers everything under the `cluster.`
//! prefix; see `OBSERVABILITY.md`.

use veros_telemetry::{Counter, Histogram, Registry};

/// Client operations acknowledged end to end (all replicas applied).
pub static OPS_COMPLETED: Counter = Counter::new();

/// Client operations re-issued after a timeout or a `Retry` response.
pub static OPS_RETRIED: Counter = Counter::new();

/// Retried writes answered from a node's dedup cache instead of being
/// re-applied — each tick is a double-apply that exactly-once prevented.
pub static DEDUP_HITS: Counter = Counter::new();

/// Chain replication lag: ticks from a head forwarding a write until
/// the downstream ack releases the client response.
pub static REPLICATION_LAG: Histogram = Histogram::new();

/// Failover time: ticks from a node death until the next client
/// operation routed around it completes.
pub static FAILOVER_TIME: Histogram = Histogram::new();

/// Shard synchronizations completed by newly promoted chain members.
pub static SHARD_SYNCS: Counter = Counter::new();

/// Membership epochs published: ticked wherever a coordinator bumps
/// its view's epoch (once per detected death). With one fleet in the
/// process it reads the coordinator's current epoch.
pub static VIEW_EPOCH: Counter = Counter::new();

/// Width of the per-node metric bank.
pub const BANK: usize = 16;

/// Per-node view: operations served by node `i % BANK`.
pub static NODE_SERVED: [Counter; BANK] = [const { Counter::new() }; BANK];

/// Records an operation served by `node` into the per-node bank.
#[inline]
pub fn node_served(node: u16) {
    NODE_SERVED[node as usize % BANK].inc();
}

/// Registers every fleet instrument with `reg` under the `cluster.`
/// prefix.
pub fn export(reg: &mut Registry) {
    reg.counter("cluster.ops.completed", "ops", &OPS_COMPLETED);
    reg.counter("cluster.ops.retried", "ops", &OPS_RETRIED);
    reg.counter("cluster.dedup.hits", "ops", &DEDUP_HITS);
    reg.histogram("cluster.replication.lag", "ticks", &REPLICATION_LAG);
    reg.histogram("cluster.failover.time", "ticks", &FAILOVER_TIME);
    reg.counter("cluster.shard.syncs", "syncs", &SHARD_SYNCS);
    reg.counter("cluster.view.epoch", "epoch", &VIEW_EPOCH);
    for (i, served) in NODE_SERVED.iter().enumerate() {
        let name: &'static str = format!("cluster.node{i:02}.served").leak();
        reg.counter(name, "ops", served);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_registers_aggregate_and_banked_views() {
        let mut reg = Registry::new();
        export(&mut reg);
        let names = reg.metric_names();
        assert_eq!(names.len(), 7 + BANK);
        assert!(names.contains(&"cluster.ops.completed"));
        assert!(names.contains(&"cluster.view.epoch"));
        assert!(names.contains(&"cluster.node00.served"));
        assert!(names.contains(&"cluster.node15.served"));
    }

    #[test]
    fn banks_fold_entities_modulo_width() {
        let before = NODE_SERVED[1].get();
        node_served(1);
        node_served(17); // Same bank slot as node 1.
        if veros_telemetry::enabled() {
            assert_eq!(NODE_SERVED[1].get() - before, 2);
        } else {
            assert_eq!(NODE_SERVED[1].get(), 0);
        }
    }
}
