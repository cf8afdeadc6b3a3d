//! Hardware model for the `veros` stack.
//!
//! The paper's prototype verifies page table code against a *hardware
//! spec*: "a description of how the MMU translates memory addresses by
//! interpreting the page table bits in memory, i.e., walking the page
//! table, or using cached translations from the TLB" (Section 5). That
//! spec is itself a model — this crate implements it executably:
//!
//! * [`addr`] — physical/virtual address newtypes and page geometry.
//! * [`physmem`] — simulated physical memory with frame-granular
//!   allocation tracking.
//! * [`paging`] — bit-accurate x86-64 page-table entry layout.
//! * [`walker`] — the MMU's 4-level page-walk interpretation function.
//! * [`tlb`] — a translation-lookaside-buffer model with explicit
//!   invalidation, so stale-translation semantics are checkable.
//! * [`machine`] — a single-core machine tying memory accesses to
//!   translation (the environment the page table prototype runs in).
//! * [`disk`] — a block device with a volatile write cache and crash
//!   injection, the substrate for the journaled filesystem.
//! * [`nic`] — a network interface with frame queues, the substrate for
//!   the network stack.
//! * [`clock`] — a virtual clock driving timer interrupts and the
//!   scheduler.

#![forbid(unsafe_code)]

pub mod addr;
pub mod clock;
pub mod disk;
pub mod machine;
pub mod nic;
pub mod paging;
pub mod physmem;
pub mod tlb;
pub mod walker;

pub use addr::{PAddr, VAddr, PAGE_1G, PAGE_2M, PAGE_4K};
pub use clock::VirtualClock;
pub use disk::{DiskError, SimDisk, SECTOR_SIZE};
pub use machine::{AccessKind, Machine, MemFault};
pub use nic::SimNic;
pub use paging::{PtEntry, PtFlags};
pub use physmem::{FrameSource, PhysMem, StackFrameSource};
pub use tlb::{Tlb, TlbEntry};
pub use walker::{interpret_page_table, walk, Mapping, WalkError};
