//! Address spaces over the verified page table.
//!
//! [`VSpace`] is the kernel's per-process view: page table plus frame
//! accounting, with operations that allocate backing frames and map
//! them. [`VSpaceDispatch`] wraps a complete per-replica memory system
//! (physical memory + allocator + page table) as a `veros-nr`
//! [`Dispatch`], exactly how NrOS replicates its address-space state per
//! NUMA node — this is the structure the Figure 1b/1c benchmarks drive.

use crate::tlb::TranslationCache;
use veros_hw::{FrameSource, PAddr, PhysMem, VAddr, PAGE_4K};
use veros_nr::Dispatch;
use veros_pagetable::{
    MapFlags, MapRequest, PageSize, PageTableOps, PtError, ResolveAnswer, UnverifiedPageTable,
    VerifiedPageTable,
};

/// Which page-table implementation backs an address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtKind {
    /// The layered implementation with ghost state available.
    Verified,
    /// The NrOS-style baseline.
    Unverified,
}

enum Table {
    Verified(VerifiedPageTable),
    Unverified(UnverifiedPageTable),
}

impl Table {
    fn as_ops(&mut self) -> &mut dyn PageTableOps {
        match self {
            Table::Verified(t) => t,
            Table::Unverified(t) => t,
        }
    }

    fn as_ops_ref(&self) -> &dyn PageTableOps {
        match self {
            Table::Verified(t) => t,
            Table::Unverified(t) => t,
        }
    }
}

/// A process address space.
pub struct VSpace {
    table: Table,
    /// Frames allocated as mapping backings (so exit can free them).
    owned_frames: Vec<(PAddr, PageSize)>,
    mapped_bytes: u64,
    /// Software translation cache fronting [`resolve`](Self::resolve).
    /// Maps never invalidate it (overlapping maps are rejected, so an
    /// existing translation can't change); every unmap bumps its epoch.
    cache: TranslationCache,
}

impl VSpace {
    /// Creates an empty address space.
    pub fn new(
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        kind: PtKind,
    ) -> Result<Self, PtError> {
        let table = match kind {
            PtKind::Verified => Table::Verified(VerifiedPageTable::new(mem, alloc, false)?),
            PtKind::Unverified => Table::Unverified(UnverifiedPageTable::new(mem, alloc)?),
        };
        Ok(Self {
            table,
            owned_frames: Vec::new(),
            mapped_bytes: 0,
            cache: TranslationCache::new(),
        })
    }

    /// The page-table root.
    pub fn root(&self) -> PAddr {
        self.table.as_ops_ref().root()
    }

    /// Total bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// Allocates a zeroed backing frame and maps it at `va`.
    ///
    /// This is the syscall-level `vspace_map` operation: the caller names
    /// only the virtual placement; physical placement is the kernel's.
    pub fn map_new(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        va: VAddr,
        flags: MapFlags,
    ) -> Result<PAddr, PtError> {
        let frame = alloc.alloc_frame().ok_or(PtError::OutOfMemory)?;
        mem.zero_frame(frame);
        let req = MapRequest {
            va,
            pa: frame,
            size: PageSize::Size4K,
            flags,
        };
        match self.table.as_ops().map_frame(mem, alloc, req) {
            Ok(()) => {
                self.owned_frames.push((frame, PageSize::Size4K));
                self.mapped_bytes += PAGE_4K;
                Ok(frame)
            }
            Err(e) => {
                alloc.free_frame(frame);
                Err(e)
            }
        }
    }

    /// Unmaps the mapping based at `va`; owned backing frames go back to
    /// the allocator.
    pub fn unmap(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        va: VAddr,
    ) -> Result<(), PtError> {
        let mapping = self.table.as_ops().unmap_frame(mem, alloc, va)?;
        self.cache.invalidate_all();
        crate::metrics::TLB_EPOCH_INVALIDATIONS.inc();
        self.mapped_bytes -= mapping.size.bytes();
        let pa = PAddr(mapping.pa);
        if let Some(pos) = self
            .owned_frames
            .iter()
            .position(|(f, s)| *f == pa && *s == mapping.size)
        {
            self.owned_frames.swap_remove(pos);
            alloc.free_frame(pa);
        }
        Ok(())
    }

    /// Allocates `pages` physically contiguous zeroed frames and maps
    /// them as one range starting at `va`, returning the physical base.
    /// All-or-nothing: on any failure no frame stays allocated and no
    /// page stays mapped.
    pub fn map_range_new(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        va: VAddr,
        pages: u64,
        flags: MapFlags,
    ) -> Result<PAddr, PtError> {
        let base = alloc
            .alloc_contiguous(pages as usize)
            .ok_or(PtError::OutOfMemory)?;
        for i in 0..pages {
            mem.zero_frame(PAddr(base.0 + i * PAGE_4K));
        }
        let req = MapRequest {
            va,
            pa: base,
            size: PageSize::Size4K,
            flags,
        };
        match self.table.as_ops().map_range(mem, alloc, req, pages) {
            Ok(()) => {
                for i in 0..pages {
                    self.owned_frames
                        .push((PAddr(base.0 + i * PAGE_4K), PageSize::Size4K));
                }
                self.mapped_bytes += pages * PAGE_4K;
                Ok(base)
            }
            Err(e) => {
                for i in 0..pages {
                    alloc.free_frame(PAddr(base.0 + i * PAGE_4K));
                }
                Err(e)
            }
        }
    }

    /// Unmaps `pages` consecutive 4 KiB page slots starting at `va` as
    /// one all-or-nothing operation, returning the bytes unmapped.
    /// Owned backing frames go back to the allocator.
    pub fn unmap_range(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        va: VAddr,
        pages: u64,
    ) -> Result<u64, PtError> {
        let removed = self.table.as_ops().unmap_range(mem, alloc, va, pages)?;
        self.cache.invalidate_all();
        crate::metrics::TLB_EPOCH_INVALIDATIONS.inc();
        let mut bytes = 0u64;
        for mapping in &removed {
            bytes += mapping.size.bytes();
            let pa = PAddr(mapping.pa);
            if let Some(pos) = self
                .owned_frames
                .iter()
                .position(|(f, s)| *f == pa && *s == mapping.size)
            {
                self.owned_frames.swap_remove(pos);
                alloc.free_frame(pa);
            }
        }
        self.mapped_bytes -= bytes;
        Ok(bytes)
    }

    /// Resolves a virtual address, answering from the translation cache
    /// when it can. The epoch is read *before* the table walk so a
    /// concurrent invalidation between walk and fill leaves the filled
    /// entry already stale (see [`crate::tlb`]).
    pub fn resolve(&self, mem: &PhysMem, va: VAddr) -> Result<ResolveAnswer, PtError> {
        if let Some(hit) = self.cache.lookup(va) {
            // Deliberately uninstrumented: the hit path is ~5ns and a
            // counter add here measurably regresses it (DESIGN.md §10).
            return Ok(hit);
        }
        crate::metrics::tlb_miss();
        let epoch = self.cache.epoch();
        let ans = self.table.as_ops_ref().resolve(mem, va)?;
        self.cache.fill(va, &ans, epoch);
        Ok(ans)
    }

    /// Tears down the address space: frees owned backing frames and all
    /// directory frames.
    pub fn destroy(self, mem: &mut PhysMem, alloc: &mut dyn FrameSource) {
        for (frame, _size) in &self.owned_frames {
            alloc.free_frame(*frame);
        }
        match self.table {
            Table::Verified(t) => t.destroy(mem, alloc),
            Table::Unverified(t) => t.destroy(mem, alloc),
        }
    }
}

// --- the NR-replicated memory system (Fig 1b/1c workload) ----------------

/// Operations on a replicated address space.
#[derive(Clone, Copy, Debug)]
pub enum VSpaceWriteOp {
    /// Map a fresh kernel-allocated frame at the address.
    MapNew {
        /// Virtual base (4 KiB aligned).
        va: u64,
    },
    /// Unmap the mapping based at the address.
    Unmap {
        /// Virtual base.
        va: u64,
    },
    /// Map `pages` fresh physically contiguous frames as one range.
    MapRange {
        /// Virtual base (4 KiB aligned).
        va: u64,
        /// Number of 4 KiB pages.
        pages: u64,
    },
    /// Unmap `pages` consecutive page slots as one range.
    UnmapRange {
        /// Virtual base.
        va: u64,
        /// Number of 4 KiB page slots.
        pages: u64,
    },
}

/// Read-only operations on a replicated address space.
#[derive(Clone, Copy, Debug)]
pub enum VSpaceReadOp {
    /// Resolve an address to its physical translation.
    Resolve {
        /// The address to translate.
        va: u64,
    },
    /// Total mapped bytes.
    MappedBytes,
}

/// The response type of replicated address-space operations.
pub type VSpaceResponse = Result<u64, PtError>;

/// One replica's complete memory system: its own physical memory, frame
/// allocator, and page table — replicated per node as in NrOS, kept
/// consistent by replaying the same operation log.
pub struct VSpaceDispatch {
    mem: PhysMem,
    alloc: crate::frame_alloc::BuddyAllocator,
    vspace: VSpace,
}

impl VSpaceDispatch {
    /// Creates a replica with `frames` frames of simulated memory.
    ///
    /// # Panics
    ///
    /// Panics when `frames` is too small to host an allocator region
    /// (< 32 frames).
    pub fn new(frames: usize, kind: PtKind) -> Self {
        assert!(frames >= 32);
        let mut mem = PhysMem::new(frames);
        // Reserve the low 16 frames (as a real kernel reserves low
        // memory), manage the rest.
        let mut alloc =
            crate::frame_alloc::BuddyAllocator::new(PAddr(16 * PAGE_4K), frames - 16);
        // lint: allow(panic-freedom) — documented `# Panics` contract of
        // this bench-facing constructor: with `frames >= 32` asserted
        // above, the allocator always has a root frame to hand out.
        let vspace = VSpace::new(&mut mem, &mut alloc, kind).expect("root frame");
        Self { mem, alloc, vspace }
    }
}

impl Dispatch for VSpaceDispatch {
    type ReadOp = VSpaceReadOp;
    type WriteOp = VSpaceWriteOp;
    type Response = VSpaceResponse;

    fn dispatch(&self, op: VSpaceReadOp) -> VSpaceResponse {
        match op {
            VSpaceReadOp::Resolve { va } => self
                .vspace
                .resolve(&self.mem, VAddr(va))
                .map(|r| r.pa.0),
            VSpaceReadOp::MappedBytes => Ok(self.vspace.mapped_bytes()),
        }
    }

    fn dispatch_mut(&mut self, op: &VSpaceWriteOp) -> VSpaceResponse {
        match *op {
            VSpaceWriteOp::MapNew { va } => self
                .vspace
                .map_new(
                    &mut self.mem,
                    &mut self.alloc,
                    VAddr(va),
                    MapFlags::user_rw(),
                )
                .map(|pa| pa.0),
            VSpaceWriteOp::Unmap { va } => self
                .vspace
                .unmap(&mut self.mem, &mut self.alloc, VAddr(va))
                .map(|()| 0),
            VSpaceWriteOp::MapRange { va, pages } => self
                .vspace
                .map_range_new(
                    &mut self.mem,
                    &mut self.alloc,
                    VAddr(va),
                    pages,
                    MapFlags::user_rw(),
                )
                .map(|pa| pa.0),
            VSpaceWriteOp::UnmapRange { va, pages } => self
                .vspace
                .unmap_range(&mut self.mem, &mut self.alloc, VAddr(va), pages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame_alloc::BuddyAllocator;
    use veros_nr::NodeReplicated;

    fn setup(kind: PtKind) -> (PhysMem, BuddyAllocator, VSpace) {
        let mut mem = PhysMem::new(512);
        let mut alloc = BuddyAllocator::new(PAddr(16 * PAGE_4K), 256);
        let v = VSpace::new(&mut mem, &mut alloc, kind).unwrap();
        (mem, alloc, v)
    }

    #[test]
    fn map_new_allocates_and_maps() {
        for kind in [PtKind::Verified, PtKind::Unverified] {
            let (mut mem, mut alloc, mut v) = setup(kind);
            let pa = v.map_new(&mut mem, &mut alloc, VAddr(0x4000), MapFlags::user_rw()).unwrap();
            let r = v.resolve(&mem, VAddr(0x4010)).unwrap();
            assert_eq!(r.pa, PAddr(pa.0 + 0x10));
            assert_eq!(v.mapped_bytes(), PAGE_4K);
        }
    }

    #[test]
    fn unmap_returns_owned_frames() {
        let (mut mem, mut alloc, mut v) = setup(PtKind::Verified);
        let before = alloc.allocated_frames();
        v.map_new(&mut mem, &mut alloc, VAddr(0x4000), MapFlags::user_rw()).unwrap();
        v.unmap(&mut mem, &mut alloc, VAddr(0x4000)).unwrap();
        assert_eq!(alloc.allocated_frames(), before, "backing + dirs freed");
        assert_eq!(v.mapped_bytes(), 0);
    }

    #[test]
    fn destroy_frees_everything() {
        let (mut mem, mut alloc, mut v) = setup(PtKind::Verified);
        for i in 0..20u64 {
            v.map_new(&mut mem, &mut alloc, VAddr(0x10_0000 + i * PAGE_4K), MapFlags::user_rw())
                .unwrap();
        }
        v.destroy(&mut mem, &mut alloc);
        assert_eq!(alloc.allocated_frames(), 0);
    }

    #[test]
    fn double_map_fails_cleanly() {
        let (mut mem, mut alloc, mut v) = setup(PtKind::Verified);
        v.map_new(&mut mem, &mut alloc, VAddr(0x4000), MapFlags::user_rw()).unwrap();
        let held = alloc.allocated_frames();
        assert_eq!(
            v.map_new(&mut mem, &mut alloc, VAddr(0x4000), MapFlags::user_rw()),
            Err(PtError::AlreadyMapped)
        );
        assert_eq!(alloc.allocated_frames(), held, "failed map leaks nothing");
    }

    #[test]
    fn map_range_new_accounts_and_resolves() {
        for kind in [PtKind::Verified, PtKind::Unverified] {
            let (mut mem, mut alloc, mut v) = setup(kind);
            let before = alloc.allocated_frames();
            let base = v
                .map_range_new(&mut mem, &mut alloc, VAddr(0x40_0000), 12, MapFlags::user_rw())
                .unwrap();
            assert_eq!(v.mapped_bytes(), 12 * PAGE_4K);
            for i in 0..12u64 {
                let r = v.resolve(&mem, VAddr(0x40_0000 + i * PAGE_4K + 0x4)).unwrap();
                assert_eq!(r.pa, PAddr(base.0 + i * PAGE_4K + 0x4), "page {i} contiguous");
            }
            let bytes = v.unmap_range(&mut mem, &mut alloc, VAddr(0x40_0000), 12).unwrap();
            assert_eq!(bytes, 12 * PAGE_4K);
            assert_eq!(v.mapped_bytes(), 0);
            assert_eq!(alloc.allocated_frames(), before, "backings + dirs returned");
        }
    }

    #[test]
    fn map_range_new_failure_leaks_nothing() {
        let (mut mem, mut alloc, mut v) = setup(PtKind::Verified);
        // Pre-existing mapping in the middle of the target range.
        v.map_new(&mut mem, &mut alloc, VAddr(0x40_3000), MapFlags::user_rw()).unwrap();
        let held = alloc.allocated_frames();
        let bytes = v.mapped_bytes();
        assert_eq!(
            v.map_range_new(&mut mem, &mut alloc, VAddr(0x40_0000), 8, MapFlags::user_rw()),
            Err(PtError::AlreadyMapped)
        );
        assert_eq!(alloc.allocated_frames(), held, "failed range leaks nothing");
        assert_eq!(v.mapped_bytes(), bytes);
    }

    #[test]
    fn cached_resolve_stays_correct_across_unmap_and_remap() {
        let (mut mem, mut alloc, mut v) = setup(PtKind::Verified);
        let va = VAddr(0x40_0000);
        let pa1 = v.map_new(&mut mem, &mut alloc, va, MapFlags::user_rw()).unwrap();
        // Populate the cache, then check the hit agrees with the walk.
        assert_eq!(v.resolve(&mem, va).unwrap().pa, pa1);
        assert_eq!(v.resolve(&mem, va).unwrap().pa, pa1);
        v.unmap(&mut mem, &mut alloc, va).unwrap();
        assert!(v.resolve(&mem, va).is_err(), "cache must not outlive the mapping");
        // Remap; new frame may differ — the cache must serve the new one.
        let pa2 = v.map_new(&mut mem, &mut alloc, va, MapFlags::user_rw()).unwrap();
        assert_eq!(v.resolve(&mem, va).unwrap().pa, pa2);
        assert_eq!(v.resolve(&mem, va).unwrap().pa, pa2);
    }

    #[test]
    fn replicated_range_ops_converge() {
        let nr = NodeReplicated::new(2, 2, 64, || VSpaceDispatch::new(512, PtKind::Verified));
        let mut t0 = nr.register(0).unwrap();
        let mut t1 = nr.register(1).unwrap();
        let base0 = nr
            .execute_mut(VSpaceWriteOp::MapRange { va: 0x40_0000, pages: 6 }, &mut t0)
            .unwrap();
        // Replicas replay the same log over identical initial states, so
        // the contiguous base is identical on both.
        for i in 0..6u64 {
            let pa = nr
                .execute(VSpaceReadOp::Resolve { va: 0x40_0000 + i * PAGE_4K }, &mut t1)
                .unwrap();
            assert_eq!(pa, base0 + i * PAGE_4K);
        }
        let bytes = nr
            .execute_mut(VSpaceWriteOp::UnmapRange { va: 0x40_0000, pages: 6 }, &mut t1)
            .unwrap();
        assert_eq!(bytes, 6 * PAGE_4K);
        assert_eq!(nr.execute(VSpaceReadOp::MappedBytes, &mut t0), Ok(0));
    }

    #[test]
    fn replicated_vspace_basic() {
        let nr = NodeReplicated::new(2, 2, 64, || VSpaceDispatch::new(512, PtKind::Verified));
        let mut t0 = nr.register(0).unwrap();
        let mut t1 = nr.register(1).unwrap();
        let pa0 = nr.execute_mut(VSpaceWriteOp::MapNew { va: 0x4000 }, &mut t0).unwrap();
        // Replica 1 sees the same mapping at the same physical address —
        // replicas replay identical logs over identical initial states,
        // so they converge exactly.
        let pa1 = nr.execute(VSpaceReadOp::Resolve { va: 0x4000 }, &mut t1).unwrap();
        assert_eq!(pa0, pa1);
        nr.execute_mut(VSpaceWriteOp::Unmap { va: 0x4000 }, &mut t1).unwrap();
        assert!(nr.execute(VSpaceReadOp::Resolve { va: 0x4000 }, &mut t0).is_err());
        assert_eq!(nr.execute(VSpaceReadOp::MappedBytes, &mut t0), Ok(0));
    }
}
