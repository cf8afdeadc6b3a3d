//! The paper's page table prototype (Section 5), reproduced.
//!
//! Structure mirrors the paper's Figure 2 exactly:
//!
//! 1. **High-level specification** ([`high_spec`]): "a mathematical map
//!    from virtual addresses to page table entries storing the physical
//!    address and permission bits", with `map`/`unmap`/`resolve`
//!    transitions.
//! 2. **Prefix Tree Map** ([`prefix_tree`]): the intermediate layer of
//!    the refinement — a 4-level prefix tree of mathematical maps whose
//!    flattening is the high-level map.
//! 3. **Page table implementation + hardware specification**
//!    ([`impl_verified`] running on [`veros_hw`]): executable Rust that
//!    reads and writes page-table bits in simulated physical memory.
//!
//! Refinement is checked in [`refine`] (bounded differential refinement
//! against op sequences) and [`interp`] (the MMU's interpretation of the
//! in-memory bits equals the abstract view — "the lion's share of the
//! proof effort"). [`invariants`] checks structural well-formedness of
//! the in-memory tree. [`vcs`] assembles the full verification-condition
//! population behind Figure 1a.
//!
//! [`impl_unverified`] is the baseline for Figures 1b/1c: the NrOS-style
//! direct implementation with identical semantics and no ghost state.

#![forbid(unsafe_code)]

pub mod high_spec;
pub mod impl_unverified;
pub mod impl_verified;
pub mod interp;
pub mod invariants;
pub mod ops;
pub mod prefix_tree;
pub mod refine;
pub mod vcs;

pub use high_spec::{AbsMapping, HighSpec};
pub use impl_unverified::UnverifiedPageTable;
pub use impl_verified::VerifiedPageTable;
pub use ops::{MapFlags, MapRequest, PageSize, PtError, PtOp, ResolveAnswer};
pub use prefix_tree::PrefixTree;

/// The common interface of both page-table implementations, so the
/// kernel's address space and the benchmarks can swap them.
pub trait PageTableOps {
    /// Maps `req.size` bytes at `req.va` to `req.pa`.
    fn map_frame(
        &mut self,
        mem: &mut veros_hw::PhysMem,
        alloc: &mut dyn veros_hw::FrameSource,
        req: MapRequest,
    ) -> Result<(), PtError>;

    /// Unmaps the mapping whose base is exactly `va`, returning it.
    fn unmap_frame(
        &mut self,
        mem: &mut veros_hw::PhysMem,
        alloc: &mut dyn veros_hw::FrameSource,
        va: veros_hw::VAddr,
    ) -> Result<AbsMapping, PtError>;

    /// Maps `pages` consecutive pages of `req.size`, starting at
    /// (`req.va`, `req.pa`), as one all-or-nothing operation.
    ///
    /// Semantically this *is* the loop below: page `i` is mapped exactly
    /// as `map_frame` would map `(va + i·size, pa + i·size)`, and on the
    /// first failure every page this call already mapped is unmapped
    /// again before the failing page's error is returned. The default
    /// body is that specification; implementations override it with an
    /// amortized version (one descent per level-1 table instead of one
    /// per page) that must stay observationally identical — the range
    /// verification conditions check exactly that.
    fn map_range(
        &mut self,
        mem: &mut veros_hw::PhysMem,
        alloc: &mut dyn veros_hw::FrameSource,
        req: MapRequest,
        pages: u64,
    ) -> Result<(), PtError> {
        let step = req.size.bytes();
        if range_overflows(req.va.0, step, pages) {
            return Err(PtError::NonCanonical);
        }
        if range_overflows(req.pa.0, step, pages) {
            return Err(PtError::PhysOutOfRange);
        }
        for i in 0..pages {
            let page = MapRequest {
                va: veros_hw::VAddr(req.va.0 + i * step),
                pa: veros_hw::PAddr(req.pa.0 + i * step),
                ..req
            };
            if let Err(e) = self.map_frame(mem, alloc, page) {
                for j in (0..i).rev() {
                    let va = veros_hw::VAddr(req.va.0 + j * step);
                    let rolled = self.unmap_frame(mem, alloc, va);
                    debug_assert!(rolled.is_ok(), "map_range rollback failed at page {j}");
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Unmaps `pages` consecutive 4 KiB page slots starting at `va`, as
    /// one all-or-nothing operation: slot `i` is unmapped exactly as
    /// `unmap_frame(va + i·4K)` would be, and on the first failure every
    /// mapping already removed is re-installed before the error is
    /// returned. On success, entry `i` of the result is the mapping that
    /// was based at `va + i·4K` (all removed mappings are 4 KiB except
    /// possibly the last: a larger mapping removed mid-range empties the
    /// following slots, which then fail with `NotMapped`).
    fn unmap_range(
        &mut self,
        mem: &mut veros_hw::PhysMem,
        alloc: &mut dyn veros_hw::FrameSource,
        va: veros_hw::VAddr,
        pages: u64,
    ) -> Result<Vec<AbsMapping>, PtError> {
        if range_overflows(va.0, veros_hw::PAGE_4K, pages) {
            return Err(PtError::NonCanonical);
        }
        let mut removed: Vec<AbsMapping> = Vec::new();
        for i in 0..pages {
            let page_va = veros_hw::VAddr(va.0 + i * veros_hw::PAGE_4K);
            match self.unmap_frame(mem, alloc, page_va) {
                Ok(m) => removed.push(m),
                Err(e) => {
                    for (j, m) in removed.iter().enumerate().rev() {
                        let back = MapRequest {
                            va: veros_hw::VAddr(va.0 + j as u64 * veros_hw::PAGE_4K),
                            pa: veros_hw::PAddr(m.pa),
                            size: m.size,
                            flags: m.flags,
                        };
                        let rolled = self.map_frame(mem, alloc, back);
                        debug_assert!(rolled.is_ok(), "unmap_range rollback failed at slot {j}");
                    }
                    return Err(e);
                }
            }
        }
        Ok(removed)
    }

    /// Resolves an arbitrary virtual address to its physical translation.
    fn resolve(
        &self,
        mem: &veros_hw::PhysMem,
        va: veros_hw::VAddr,
    ) -> Result<ResolveAnswer, PtError>;

    /// The page-table root (CR3 value).
    fn root(&self) -> veros_hw::PAddr;
}

/// True when `base + pages * step` (the end of a range operation)
/// overflows. The range-op defaults and the amortized overrides both
/// reject such ranges up-front so they agree on every input.
pub(crate) fn range_overflows(base: u64, step: u64, pages: u64) -> bool {
    step.checked_mul(pages)
        .and_then(|span| base.checked_add(span))
        .is_none()
}
