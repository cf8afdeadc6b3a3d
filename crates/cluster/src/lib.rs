//! A sharded, replicated block-store fleet on the verified stack.
//!
//! The paper's argument is that a verified OS foundation pays off in
//! the *applications* built on it. `veros-blockstore` supplies the
//! node-local storage engine and the wire protocol; this crate is
//! everything that crosses the network, in the shape such a storage
//! node actually ships in — an N-node fleet behind consistent hashing —
//! with every layer on the same deterministic, fault-injected simulated
//! stack:
//!
//! * [`shard`] — the shard map: consistent hashing with virtual nodes,
//!   fixed shard count, and `M`-way replication chains; pure functions,
//!   so clients and nodes route identically with no metadata service.
//! * [`view`] — deterministic membership: heartbeats to a coordinator,
//!   epoch-numbered views pushed to nodes, failover promotion driven
//!   entirely by the simulation clock.
//! * [`node`] — the fleet storage node: chain replication (ack ⇒ every
//!   replica applied), exactly-once write dedup across failover, and
//!   shard pulls to regain chain width after a death.
//! * [`client`] — shard-aware clients: writes to chain heads, reads to
//!   chain tails, local death suspicion, open-loop op queues.
//! * [`fleet`] — the harness wiring all of it over the fault-injecting
//!   [`veros_net::sim::Network`]; [`fleet::Fleet::pair`] is the
//!   smallest replicated deployment (two nodes, one 2-way chain).
//! * [`workload`] — an open-loop YCSB-style generator (zipfian keys,
//!   bursts, read/write mix, ≥1000 simulated client hosts) and the
//!   stats scored into `BENCH_blockstore.json`.
//!
//! The end-to-end contract mirrored in `INVARIANTS.md`: **an
//! acknowledged write survives the loss of any single chain member**,
//! and retried writes apply exactly once even when the retry lands on a
//! promoted head. `veros-core`'s `invariant::cluster_durability` family
//! sweeps those claims under multi-node fault schedules.
//!
//! # Telemetry
//!
//! With the `telemetry` feature (default) the fleet maintains the
//! instruments in [`metrics`] — op/retry counters, replication-lag and
//! failover-time histograms, a view-epoch counter, and banked per-node
//! counters — registered under the `cluster.` prefix; see
//! `OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

pub mod client;
pub mod fleet;
pub mod metrics;
pub mod node;
pub mod shard;
pub mod view;
pub mod workload;

pub use client::{FleetClient, Op, OpResult};
pub use fleet::{Fleet, FleetConfig};
pub use node::FleetNode;
pub use shard::ShardMap;
pub use view::{Coordinator, View};
pub use workload::{schedule, stats, WorkloadConfig, WorkloadStats};
