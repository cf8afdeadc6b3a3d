//! The motivating application: a data-storage node of a distributed
//! block store.
//!
//! "As an example of the kind of application we are interested in
//! verifying, consider the data-storage node in a distributed block
//! store like GFS or S3. In fact, Amazon even describes their use of
//! lightweight formal methods to verify such a storage node" (§1,
//! citing \[8\]). This crate is the node-local half of that
//! application, built on the verified stack:
//!
//! * [`wire`] — the protocol clients and nodes speak, marshalled with
//!   the same round-trip discipline as the syscall ABI.
//! * [`store`] — the local storage engine: checksummed blocks persisted
//!   through the journaled filesystem (crash safety inherited from the
//!   journal's spec).
//!
//! Everything that crosses the network — the node loop, chain
//! replication, failover, the client library and the simulation
//! harness — lives in `veros-cluster`; a replicated pair is its
//! `Fleet::pair`.
//!
//! The spec is an abstract `key → bytes` map; the integration tests and
//! `veros-bench --bin audit` check agreement with that map, checksum
//! integrity end to end, and crash recovery of acknowledged writes.
//!
//! # Telemetry
//!
//! With the `telemetry` cargo feature (on by default) the storage
//! engine maintains the instruments in [`metrics`] — put/get/delete
//! latency histograms and a checksum-failure counter. Reporting
//! binaries call [`metrics::export`] to register them under the
//! `blockstore.` prefix; see `OBSERVABILITY.md`. Disabling the feature
//! compiles every instrument to a no-op.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod store;
pub mod wire;

pub use store::BlockStore;
pub use wire::{Request, Response};
