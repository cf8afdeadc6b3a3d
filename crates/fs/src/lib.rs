//! The filesystem service (the paper's §1 component list: "a filesystem
//! (persistence, sharing)").
//!
//! Layers:
//!
//! * [`path`] — normalized absolute paths.
//! * [`inode`] — the inode table: files and directories.
//! * [`memfs`] — the in-memory filesystem over the inode table.
//! * [mod@file] — open-file handles with offsets; `read`/`write` implement
//!   the paper's `read_spec` semantics literally.
//! * [`journal`] — persistence: a write-ahead operation journal on the
//!   simulated disk, one self-checksummed record per transaction;
//!   recovery replays exactly the records that reached the disk whole
//!   (crash-safety).
//! * [`spec`] — the abstract filesystem spec (map path → bytes, fd
//!   states) including a literal transcription of the paper's
//!   `read_spec`, plus differential checking.
//!
//! # Telemetry
//!
//! With the `telemetry` cargo feature (on by default) the journal layer
//! maintains the instruments in [`metrics`] — commit, replay, and
//! WAL-byte counters. Reporting binaries call [`metrics::export`] to
//! register them under the `fs.` prefix; see `OBSERVABILITY.md`.
//! Disabling the feature compiles every instrument to a no-op.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

pub mod file;
pub mod inode;
pub mod journal;
pub mod memfs;
pub mod metrics;
pub mod path;
pub mod spec;

pub use file::{OpenFiles, ReadResult};
pub use inode::{Ino, InodeKind};
pub use journal::{FsOp, JournaledFs};
pub use memfs::{FsError, MemFs};
pub use path::{Path, PathBuf};
