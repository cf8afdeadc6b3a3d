//! The client application contract — the paper's primary contribution.
//!
//! Section 3 proposes defining OS correctness "based on the behavior of
//! applications running on top": a high-level spec with two parts, the
//! *execution model* (virtualized memory and CPU, threads interleaving)
//! and the *system calls* (state-machine transitions over the abstract
//! state each process perceives). This crate is that contract,
//! executable:
//!
//! * [`sys_spec`] — the abstract system state ([`sys_spec::SysState`]:
//!   processes with virtual memory, fd tables, threads; the shared
//!   filesystem) and the transition function for every syscall,
//!   value-level (buffers are sequences, not pointers).
//! * [mod@view] — the abstraction function from a live [`veros_kernel::
//!   Kernel`] to [`sys_spec::SysState`]. Memory is abstracted through
//!   the **MMU's interpretation of the page tables** — the process-
//!   centric spec the paper argues for.
//! * [`sys`] — the `Sys` handle of §3: typed operations whose `ensures`
//!   clauses (the spec transitions) are checked against the before/after
//!   views on every call.
//! * [`obligations`] — the three §3 proof obligations, executable:
//!   marshalling round-trips, the mapping obligation, and data-race
//!   freedom over syscall buffers.
//! * [`theorem`] — the §4.4 refinement theorem check: every observable
//!   behaviour (syscall return values, memory read results) of the
//!   kernel-on-hardware matches the abstract model, over randomized
//!   multi-process workloads.
//! * [`uring`] — differential verification of the asynchronous
//!   submission/completion rings: a ring-driven kernel against a
//!   synchronous twin, compared on every completion and on the final
//!   abstract state.
//! * [`invariants`] — the end-to-end safety invariants of
//!   `INVARIANTS.md`, each swept under enumerated fault schedules
//!   (crash points, wire faults, torn writes) rather than single seeds,
//!   with per-family ablations proving the sweeps are not vacuous.
//! * [`vcs`] — the verification-condition population for the whole OS
//!   contract (scheduler sanity, NR linearizability, FS crash safety,
//!   network transport spec, uring linearization, the fault-schedule
//!   invariant families, and the above), complementing the page table's
//!   220 VCs.

#![forbid(unsafe_code)]

pub mod invariants;
pub mod metrics;
pub mod obligations;
pub mod sys;
pub mod sys_spec;
pub mod theorem;
pub mod uring;
pub mod vcs;
pub mod view;

pub use sys::Sys;
pub use sys_spec::{AbsOp, AbsRet, ProcSpec, SysState};
pub use view::view;
