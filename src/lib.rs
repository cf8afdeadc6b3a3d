//! `veros` — facade crate re-exporting the whole workspace.
//!
//! See the README for the project overview and DESIGN.md for the
//! paper-to-crate mapping.

#![forbid(unsafe_code)]

pub use veros_blockstore as blockstore;
pub use veros_cluster as cluster;
pub use veros_core as core;
pub use veros_fs as fs;
pub use veros_hw as hw;
pub use veros_kernel as kernel;
pub use veros_net as net;
pub use veros_nr as nr;
pub use veros_pagetable as pagetable;
pub use veros_spec as spec;
pub use veros_sync as sync;
pub use veros_telemetry as telemetry;
pub use veros_ulib as ulib;
pub use veros_uring as uring;
