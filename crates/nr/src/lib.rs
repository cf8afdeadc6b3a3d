//! Node replication — NrOS's concurrency backbone, reproduced.
//!
//! "NR replicates sequential code and its data structures on each NUMA
//! node and maintains consistency through an operation log. It achieves
//! read-concurrency with a readers-writer lock and write-concurrency
//! through flat combining, which batches operations from multiple threads
//! and logs them atomically" (Section 4.1).
//!
//! The pieces, mirroring the open-source `node-replication` crate the
//! paper builds on:
//!
//! * [`Dispatch`] — the sequential data structure interface: read
//!   operations against `&self`, write operations against `&mut self`.
//! * [`NodeReplicated`] — the top-level API: register threads, then
//!   `execute` (read) / `execute_mut` (write) with linearizable
//!   semantics, through the registered thread's [`ThreadToken`].
//!
//! The concurrent parts underneath — the shared circular operation log
//! with per-replica cursors, the distributed readers-writer lock
//! guarding each replica, and the rings that carry each thread's
//! operation to the combiner and its response back — are `veros-sync`
//! types, so this crate holds no `unsafe` and no atomic of its own.
//!
//! The correctness claim — a sequential structure replicated with NR
//! remains linearizable — is what IronSync proved and what this
//! workspace checks dynamically with the Wing–Gong checker in
//! `veros-spec` (see this crate's `tests` and `veros-core`'s
//! linearizability VCs).
//!
//! # Telemetry
//!
//! With the `telemetry` cargo feature (on by default) the combiner
//! maintains the instruments in [`metrics`] — a log-append counter and a
//! sampled replay-lag histogram. Reporting binaries call
//! [`metrics::export`] to register them under the `nr.` prefix; see
//! `OBSERVABILITY.md` for names, units, and the snapshot schema. Disabling the feature compiles every instrument to a no-op.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

mod dispatch;
pub mod metrics;
mod replicated;

pub use dispatch::Dispatch;
pub use replicated::{NodeReplicated, ThreadToken};
