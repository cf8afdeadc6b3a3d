//! An NrOS-style kernel model: the OS services of the paper's Section 1.
//!
//! "The NrOS kernel provides the following main services: memory and
//! device management, processes, scheduling, and a file system" (§4.1).
//! This crate models those services executably on top of the `veros-hw`
//! hardware model, with the verified page table from `veros-pagetable`
//! managing every address space and node replication from `veros-nr`
//! scaling the replicated state:
//!
//! * [`frame_alloc`] — physical memory management: one buddy allocator
//!   over the kernel's managed physical range, with a double-free bitmap.
//! * [`vspace`] — address spaces over the verified page table, including
//!   the NR-replicated variant ([`vspace::VSpaceDispatch`]) used by the
//!   Figure 1b/1c benchmarks.
//! * [`tlb`] — the lock-free software translation cache fronting each
//!   address space's resolve path, with epoch-based invalidation.
//! * [`process`] — process management: spawn, exit, wait, kill.
//! * [`thread`] — kernel threads and their lifecycle.
//! * [`scheduler`] — per-core round-robin run queues with affinity.
//! * [`futex`] — the kernel blocking primitive user-space mutexes build
//!   on (the paper's example of a narrow kernel API under a verified
//!   userspace library).
//! * [`syscall`] — the syscall surface: number-based ABI, marshalling
//!   (with the §3 round-trip obligation), and dispatch.
//! * [`kernel`] — the composed kernel object exposing the whole
//!   interface the `veros-core` `Sys` contract abstracts.
//!
//! # Telemetry
//!
//! With the `telemetry` cargo feature (on by default) the resolve path
//! and the syscall dispatcher maintain the instruments in [`metrics`] —
//! translation-cache miss/invalidation counters, per-variant syscall
//! latency histograms, and a syscall trace ring. Reporting binaries
//! call [`metrics::export`] to register them under the `kernel.`
//! prefix; see `OBSERVABILITY.md`.
//! Disabling the feature compiles every instrument to a no-op.

#![forbid(unsafe_code)]

pub mod frame_alloc;
pub mod futex;
pub mod kernel;
pub mod metrics;
pub mod process;
pub mod scheduler;
pub mod syscall;
pub mod thread;
pub mod tlb;
pub mod vspace;

pub use frame_alloc::BuddyAllocator;
pub use kernel::{Kernel, KernelConfig, KernelError};
pub use process::{Pid, ProcessState};
pub use scheduler::Scheduler;
pub use syscall::{SysRet, Syscall};
pub use thread::{Tid, ThreadState};
pub use vspace::VSpace;
