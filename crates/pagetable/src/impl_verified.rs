//! The verified page-table implementation (layer 3 of the paper's Fig 2).
//!
//! "We implement executable, concrete functions in Rust for the map,
//! unmap and resolve operations. Those functions read and write memory
//! locations of the page table to perform mapping or unmapping of frames,
//! as well as allocate or free memory used to store the page table."
//!
//! The code is structured the way the Verus proof structures it: one
//! function per level, so each function's obligations (preserve the
//! structural invariant, refine the prefix-tree layer) are local. The
//! table's ghost state is a type parameter, [`GhostMode`]: the
//! verification conditions run [`Tracked`], the kernel and Figures 1b/1c
//! run [`Erased`], the default, which costs nothing.

use veros_hw::{FrameSource, PAddr, PhysMem, PtEntry, PtFlags, VAddr, PAGE_4K};

use crate::ghost::{Erased, GhostMode, Tracked};
use crate::high_spec::AbsMapping;
use crate::ops::{MapFlags, MapRequest, PageSize, PtError, ResolveAnswer};
use crate::prefix_tree::{index_at, span_at, PrefixTree};
use crate::range::{overflows, remap_removed_prefix, unmap_mapped_prefix};
use crate::PageTableOps;

/// Flags given to directory entries: maximally permissive, so the leaf
/// entry alone determines the effective permissions (the MMU accumulates
/// conjunctively for W/U and disjunctively for NX).
fn dir_flags() -> PtFlags {
    PtFlags::PRESENT | PtFlags::WRITABLE | PtFlags::USER
}

/// Encodes abstract [`MapFlags`] into a leaf entry's architectural bits.
pub fn encode_leaf(pa: PAddr, size: PageSize, flags: MapFlags) -> PtEntry {
    let mut f = PtFlags::PRESENT;
    if flags.writable {
        f |= PtFlags::WRITABLE;
    }
    if flags.user {
        f |= PtFlags::USER;
    }
    if flags.nx {
        f |= PtFlags::NX;
    }
    if size.leaf_level() > 1 {
        f |= PtFlags::HUGE;
    }
    PtEntry::new(pa, f)
}

/// Decodes a leaf entry back to abstract flags.
pub fn decode_leaf(e: PtEntry) -> MapFlags {
    MapFlags {
        writable: e.flags().contains(PtFlags::WRITABLE),
        user: e.flags().contains(PtFlags::USER),
        nx: e.flags().contains(PtFlags::NX),
    }
}

pub(crate) fn entry_addr(table: PAddr, idx: u16) -> PAddr {
    PAddr(table.0 + 8 * idx as u64)
}

pub(crate) fn table_empty(mem: &PhysMem, table: PAddr) -> bool {
    (0..512u16).all(|i| !PtEntry(mem.read_u64(entry_addr(table, i))).is_present())
}

/// Frees the directory `table` at `level` and every directory below it.
pub(crate) fn free_subtree(
    mem: &mut PhysMem,
    alloc: &mut dyn FrameSource,
    table: PAddr,
    level: u8,
) {
    if level > 1 {
        for idx in 0..512u16 {
            let e = PtEntry(mem.read_u64(entry_addr(table, idx)));
            if e.is_present() && !e.is_huge() {
                free_subtree(mem, alloc, e.addr(), level - 1);
            }
        }
    }
    mem.zero_frame(table);
    alloc.free_frame(table);
}

/// Walks to the level-1 table holding `va`'s PTE, when the full
/// directory path exists (a missing directory or a huge leaf on the way
/// returns `None`).
fn walk_to_l1(mem: &PhysMem, cr3: PAddr, va: VAddr) -> Option<PAddr> {
    let mut table = cr3;
    for level in [4u8, 3, 2] {
        let entry = PtEntry(mem.read_u64(entry_addr(table, index_at(va, level))));
        if !entry.is_present() || entry.is_huge() {
            return None;
        }
        table = entry.addr();
    }
    Some(table)
}

/// The verified page table. `G` decides whether it carries its ghost
/// state ([`Tracked`]) or not ([`Erased`], the default).
pub struct VerifiedPageTable<G: GhostMode = Erased> {
    cr3: PAddr,
    ghost: G,
}

impl VerifiedPageTable<Tracked> {
    /// The ghost prefix tree.
    ///
    /// This is the implementation's `view()` in the paper's sense: the
    /// abstraction of its concrete state that client reasoning uses.
    pub fn ghost(&self) -> &PrefixTree {
        &self.ghost.tree
    }
}

impl<G: GhostMode> VerifiedPageTable<G> {
    // --- map ------------------------------------------------------------

    /// Per-level map function. Mirrors `PrefixTree::map_rec` — that
    /// correspondence *is* the refinement argument, discharged by the
    /// differential VCs.
    fn map_at(
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        table: PAddr,
        level: u8,
        req: &MapRequest,
    ) -> Result<(), PtError> {
        let idx = index_at(req.va, level);
        let slot = entry_addr(table, idx);
        let entry = PtEntry(mem.read_u64(slot));
        if level == req.size.leaf_level() {
            if entry.is_present() {
                return Err(PtError::AlreadyMapped);
            }
            mem.write_u64(slot, encode_leaf(req.pa, req.size, req.flags).0);
            return Ok(());
        }
        if entry.is_present() {
            if entry.is_huge() {
                return Err(PtError::AlreadyMapped);
            }
            return Self::map_at(mem, alloc, entry.addr(), level - 1, req);
        }
        // Allocate a fresh directory. Descending into it can only fail
        // with OutOfMemory (fresh tables are empty); roll back on failure
        // so no empty directory is ever left installed.
        let child = alloc.alloc_frame().ok_or(PtError::OutOfMemory)?;
        mem.zero_frame(child);
        match Self::map_at(mem, alloc, child, level - 1, req) {
            Ok(()) => {
                mem.write_u64(slot, PtEntry::new(child, dir_flags()).0);
                Ok(())
            }
            Err(e) => {
                debug_assert_eq!(e, PtError::OutOfMemory);
                alloc.free_frame(child);
                Err(e)
            }
        }
    }

    // --- unmap ----------------------------------------------------------

    /// Per-level unmap. Returns the removed mapping and whether `table`
    /// became empty (so the caller can free it).
    fn unmap_at(
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        table: PAddr,
        level: u8,
        va: VAddr,
    ) -> Result<(AbsMapping, bool), PtError> {
        let idx = index_at(va, level);
        let slot = entry_addr(table, idx);
        let entry = PtEntry(mem.read_u64(slot));
        if !entry.is_present() {
            return Err(PtError::NotMapped);
        }
        let is_leaf = level == 1 || entry.is_huge();
        if is_leaf {
            if !va.is_aligned(span_at(level)) {
                return Err(PtError::NotMapped);
            }
            let size = match level {
                1 => PageSize::Size4K,
                2 => PageSize::Size2M,
                3 => PageSize::Size1G,
                _ => return Err(PtError::NotMapped), // Huge bit at L4 is not architectural.
            };
            let mapping = AbsMapping {
                pa: entry.addr().0,
                size,
                flags: decode_leaf(entry),
            };
            mem.write_u64(slot, PtEntry::zero().0);
            return Ok((mapping, table_empty(mem, table)));
        }
        let (mapping, child_empty) = Self::unmap_at(mem, alloc, entry.addr(), level - 1, va)?;
        if child_empty {
            // Free the now-empty child directory and clear our entry —
            // the no-empty-dirs invariant, in bits.
            let child = entry.addr();
            mem.zero_frame(child);
            alloc.free_frame(child);
            mem.write_u64(slot, PtEntry::zero().0);
            return Ok((mapping, table_empty(mem, table)));
        }
        Ok((mapping, false))
    }

    // --- resolve ----------------------------------------------------------

    /// Per-level resolve.
    fn resolve_at(
        mem: &PhysMem,
        table: PAddr,
        level: u8,
        va: VAddr,
    ) -> Result<ResolveAnswer, PtError> {
        let idx = index_at(va, level);
        let entry = PtEntry(mem.read_u64(entry_addr(table, idx)));
        if !entry.is_present() {
            return Err(PtError::NotMapped);
        }
        let is_leaf = level == 1 || entry.is_huge();
        if is_leaf {
            let size = match level {
                1 => PageSize::Size4K,
                2 => PageSize::Size2M,
                3 => PageSize::Size1G,
                _ => return Err(PtError::NotMapped),
            };
            let base = VAddr(va.0 & !(span_at(level) - 1));
            return Ok(ResolveAnswer {
                pa: PAddr(entry.addr().0 + (va.0 - base.0)),
                base,
                size,
                flags: decode_leaf(entry),
            });
        }
        Self::resolve_at(mem, entry.addr(), level - 1, va)
    }
}

impl<G: GhostMode> PageTableOps for VerifiedPageTable<G> {
    fn new(mem: &mut PhysMem, alloc: &mut dyn FrameSource) -> Result<Self, PtError> {
        let cr3 = alloc.alloc_frame().ok_or(PtError::OutOfMemory)?;
        mem.zero_frame(cr3);
        Ok(Self {
            cr3,
            ghost: G::default(),
        })
    }

    fn destroy(self, mem: &mut PhysMem, alloc: &mut dyn FrameSource) {
        free_subtree(mem, alloc, self.cr3, 4);
    }

    fn map_frame(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        req: MapRequest,
    ) -> Result<(), PtError> {
        if !req.va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        if !req.va.is_aligned(req.size.bytes()) {
            return Err(PtError::MisalignedVa);
        }
        if !req.pa.is_aligned(req.size.bytes()) {
            return Err(PtError::MisalignedPa);
        }
        let result = Self::map_at(mem, alloc, self.cr3, 4, &req);
        self.ghost.map(&req, result);
        result
    }

    fn unmap_frame(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        va: VAddr,
    ) -> Result<AbsMapping, PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        if !va.is_aligned(PAGE_4K) {
            return Err(PtError::MisalignedVa);
        }
        let result = Self::unmap_at(mem, alloc, self.cr3, 4, va).map(|(m, _)| m);
        self.ghost.unmap(va, result);
        result
    }

    /// Amortized: the first page of each 2 MiB-aligned chunk goes through
    /// `map_frame`, and every further 4 KiB page whose PTE lives in the
    /// same level-1 table is a single read + write into that table — the
    /// descent is reused, not repeated. Alignment and canonicality
    /// propagate 4 KiB steps inside a chunk (the canonical halves are
    /// unions of whole 2 MiB chunks), so the skipped per-page validations
    /// hold for free. Every page written directly moves the ghost too.
    fn map_range(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        req: MapRequest,
        pages: u64,
    ) -> Result<(), PtError> {
        let step = req.size.bytes();
        if overflows(req.va.0, step, pages) {
            return Err(PtError::NonCanonical);
        }
        if overflows(req.pa.0, step, pages) {
            return Err(PtError::PhysOutOfRange);
        }
        let mut done: u64 = 0;
        while done < pages {
            let head = MapRequest {
                va: VAddr(req.va.0 + done * step),
                pa: PAddr(req.pa.0 + done * step),
                ..req
            };
            if let Err(e) = self.map_frame(mem, alloc, head) {
                unmap_mapped_prefix(self, mem, alloc, &req, done);
                return Err(e);
            }
            done += 1;
            if req.size != PageSize::Size4K {
                continue;
            }
            let Some(l1) = walk_to_l1(mem, self.cr3, head.va) else {
                continue;
            };
            while done < pages {
                let va = VAddr(req.va.0 + done * step);
                if va.0 >> 21 != head.va.0 >> 21 {
                    break;
                }
                let page = MapRequest {
                    va,
                    pa: PAddr(req.pa.0 + done * step),
                    ..req
                };
                let slot = entry_addr(l1, index_at(va, 1));
                if PtEntry(mem.read_u64(slot)).is_present() {
                    self.ghost.map(&page, Err(PtError::AlreadyMapped));
                    unmap_mapped_prefix(self, mem, alloc, &req, done);
                    return Err(PtError::AlreadyMapped);
                }
                mem.write_u64(slot, encode_leaf(page.pa, PageSize::Size4K, req.flags).0);
                self.ghost.map(&page, Ok(()));
                done += 1;
            }
        }
        Ok(())
    }

    /// Amortized, mirroring `map_range`: middle slots of each level-1
    /// chunk are cleared with one read + write into the cached table; the
    /// first and last in-range slot of every chunk go through
    /// `unmap_frame`, so an emptied level-1 table still gets its
    /// directories pruned (the no-empty-dirs invariant holds on return,
    /// success or rollback). Every slot cleared directly moves the ghost
    /// too.
    fn unmap_range(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        va: VAddr,
        pages: u64,
    ) -> Result<Vec<AbsMapping>, PtError> {
        if overflows(va.0, PAGE_4K, pages) {
            return Err(PtError::NonCanonical);
        }
        let mut removed: Vec<AbsMapping> = Vec::new();
        while (removed.len() as u64) < pages {
            let head = VAddr(va.0 + removed.len() as u64 * PAGE_4K);
            match self.unmap_frame(mem, alloc, head) {
                Ok(m) => removed.push(m),
                Err(e) => {
                    remap_removed_prefix(self, mem, alloc, va, &removed);
                    return Err(e);
                }
            }
            // A pruned path or a removed huge mapping leaves no level-1
            // table to reuse; the next chunk head descends again.
            let Some(l1) = walk_to_l1(mem, self.cr3, head) else {
                continue;
            };
            loop {
                let i = removed.len() as u64;
                if i >= pages {
                    break;
                }
                let cur = VAddr(va.0 + i * PAGE_4K);
                if cur.0 >> 21 != head.0 >> 21 {
                    break;
                }
                let last_of_chunk =
                    i + 1 >= pages || (va.0 + (i + 1) * PAGE_4K) >> 21 != head.0 >> 21;
                if last_of_chunk {
                    match self.unmap_frame(mem, alloc, cur) {
                        Ok(m) => removed.push(m),
                        Err(e) => {
                            remap_removed_prefix(self, mem, alloc, va, &removed);
                            return Err(e);
                        }
                    }
                    break;
                }
                let slot = entry_addr(l1, index_at(cur, 1));
                let entry = PtEntry(mem.read_u64(slot));
                if !entry.is_present() {
                    self.ghost.unmap(cur, Err(PtError::NotMapped));
                    remap_removed_prefix(self, mem, alloc, va, &removed);
                    return Err(PtError::NotMapped);
                }
                let m = AbsMapping {
                    pa: entry.addr().0,
                    size: PageSize::Size4K,
                    flags: decode_leaf(entry),
                };
                mem.write_u64(slot, PtEntry::zero().0);
                self.ghost.unmap(cur, Ok(m));
                removed.push(m);
            }
        }
        Ok(removed)
    }

    fn resolve(&self, mem: &PhysMem, va: VAddr) -> Result<ResolveAnswer, PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        let result = Self::resolve_at(mem, self.cr3, 4, va);
        self.ghost.resolve(va, result);
        result
    }

    fn root(&self) -> PAddr {
        self.cr3
    }

    fn check_ghost_steps(&self) -> Result<(), String> {
        self.ghost.check_steps()
    }

    fn check_ghost(&self, mem: &PhysMem) -> Result<(), String> {
        self.ghost.check(mem, self.cr3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_hw::StackFrameSource;

    fn setup() -> (PhysMem, StackFrameSource) {
        // 1024 frames of memory; frames 16..512 are allocatable.
        (
            PhysMem::new(1024),
            StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(512 * PAGE_4K)),
        )
    }

    #[test]
    fn map_resolve_round_trip() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        let r = pt.resolve(&mem, VAddr(0x1abc)).unwrap();
        assert_eq!(r.pa, PAddr(0x8abc));
        assert_eq!(r.flags, MapFlags::user_rw());
    }

    #[test]
    fn mmu_walk_agrees_with_resolve() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x7000, 0x9000))
            .unwrap();
        let m = veros_hw::walk(&mem, pt.root(), VAddr(0x7010)).unwrap();
        assert_eq!(m.pa_base, PAddr(0x9000));
        assert!(m.writable && m.user && m.nx);
        let r = pt.resolve(&mem, VAddr(0x7010)).unwrap();
        assert_eq!(m.translate(VAddr(0x7010)), r.pa);
    }

    #[test]
    fn unmap_frees_empty_directories() {
        let (mut mem, mut alloc) = setup();
        let before = alloc.free_frames();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        assert_eq!(alloc.free_frames(), before - 4, "root + 3 directories");
        pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x1000)).unwrap();
        assert_eq!(alloc.free_frames(), before - 1, "only the root remains");
        pt.destroy(&mut mem, &mut alloc);
        assert_eq!(alloc.free_frames(), before, "no leaked frames");
    }

    #[test]
    fn shared_directories_survive_partial_unmap() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x2000, 0x9000))
            .unwrap();
        pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x1000)).unwrap();
        // 0x2000 shares all three directories: still resolvable.
        assert_eq!(pt.resolve(&mem, VAddr(0x2000)).unwrap().pa, PAddr(0x9000));
    }

    #[test]
    fn huge_page_map_and_conflicts() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let huge = MapRequest {
            va: VAddr(0x20_0000),
            pa: PAddr(0x40_0000),
            size: PageSize::Size2M,
            flags: MapFlags::user_ro(),
        };
        pt.map_frame(&mut mem, &mut alloc, huge).unwrap();
        assert_eq!(
            pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x20_1000, 0x1000)),
            Err(PtError::AlreadyMapped)
        );
        let r = pt.resolve(&mem, VAddr(0x21_0123)).unwrap();
        assert_eq!(r.pa, PAddr(0x41_0123));
        assert_eq!(r.size, PageSize::Size2M);
        assert_eq!(r.flags, MapFlags::user_ro());
        // The MMU agrees, including the huge mapping's span.
        let m = veros_hw::walk(&mem, pt.root(), VAddr(0x21_0123)).unwrap();
        assert_eq!(m.size, PageSize::Size2M.bytes());
        assert!(!m.writable);
    }

    #[test]
    fn gig_page_round_trip() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let gig = MapRequest {
            va: VAddr(0x4000_0000),
            pa: PAddr(0x4000_0000),
            size: PageSize::Size1G,
            flags: MapFlags::kernel_rw(),
        };
        pt.map_frame(&mut mem, &mut alloc, gig).unwrap();
        let r = pt.resolve(&mem, VAddr(0x4abc_d123)).unwrap();
        assert_eq!(r.pa, PAddr(0x4abc_d123));
        let m = pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x4000_0000)).unwrap();
        assert_eq!(m.size, PageSize::Size1G);
    }

    #[test]
    fn error_cases_match_spec() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        assert_eq!(
            pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1001, 0x8000)),
            Err(PtError::MisalignedVa)
        );
        assert_eq!(
            pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8001)),
            Err(PtError::MisalignedPa)
        );
        assert_eq!(
            pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x5000)),
            Err(PtError::NotMapped)
        );
        assert_eq!(pt.resolve(&mem, VAddr(0x5000)), Err(PtError::NotMapped));
        assert_eq!(
            pt.resolve(&mem, VAddr(0x0000_9000_0000_0000)),
            Err(PtError::NonCanonical)
        );
    }

    #[test]
    fn out_of_memory_rolls_back_cleanly() {
        let mut mem = PhysMem::new(64);
        // Only two frames: root plus one directory — not enough for a
        // full 4-level path.
        let mut alloc = StackFrameSource::new(PAddr(0x1000), PAddr(0x3000));
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        assert_eq!(
            pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000)),
            Err(PtError::OutOfMemory)
        );
        // The partially allocated chain was rolled back.
        assert_eq!(alloc.free_frames(), 1);
        // The table is still structurally sound and empty.
        assert!(veros_hw::interpret_page_table(&mem, pt.root()).is_empty());
        assert_eq!(pt.ghost().flatten().len(), 0);
        pt.check_ghost(&mem).unwrap();
    }

    #[test]
    fn flag_encoding_round_trips_for_all_combinations() {
        for flags in MapFlags::all_combinations() {
            let e = encode_leaf(PAddr(0x8000), PageSize::Size4K, flags);
            assert_eq!(decode_leaf(e), flags);
            let h = encode_leaf(PAddr(0x20_0000), PageSize::Size2M, flags);
            assert!(h.is_huge());
            assert_eq!(decode_leaf(h), flags);
        }
    }

    #[test]
    fn boundary_indices_work() {
        // Index 511 at every level — the edge of each table.
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let va = VAddr::from_indices(255, 511, 511, 511);
        pt.map_frame(
            &mut mem,
            &mut alloc,
            MapRequest {
                va,
                pa: PAddr(0x8000),
                size: PageSize::Size4K,
                flags: MapFlags::user_rw(),
            },
        )
        .unwrap();
        assert_eq!(pt.resolve(&mem, va).unwrap().pa, PAddr(0x8000));
        assert_eq!(pt.unmap_frame(&mut mem, &mut alloc, va).unwrap().pa, 0x8000);
    }

    #[test]
    fn map_range_round_trips_across_chunk_boundary() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        // 8 pages straddling the 2 MiB chunk boundary at 0x20_0000:
        // exercises both the amortized tail and a fresh chunk-head
        // descent mid-range.
        let req = MapRequest::rw_4k(0x20_0000 - 4 * 0x1000, 0x80_0000);
        pt.map_range(&mut mem, &mut alloc, req, 8).unwrap();
        for i in 0..8u64 {
            let r = pt.resolve(&mem, VAddr(req.va.0 + i * 0x1000 + 0x123)).unwrap();
            assert_eq!(r.pa, PAddr(req.pa.0 + i * 0x1000 + 0x123));
        }
        assert_eq!(pt.ghost().flatten().len(), 8);
        pt.check_ghost(&mem).unwrap();
        let removed = pt.unmap_range(&mut mem, &mut alloc, req.va, 8).unwrap();
        assert_eq!(removed.len(), 8);
        for (i, m) in removed.iter().enumerate() {
            assert_eq!(m.pa, req.pa.0 + i as u64 * 0x1000);
            assert_eq!(m.size, PageSize::Size4K);
        }
        assert_eq!(pt.ghost().flatten().len(), 0);
        pt.check_ghost(&mem).unwrap();
        assert_eq!(pt.resolve(&mem, req.va), Err(PtError::NotMapped));
    }

    #[test]
    fn map_range_failure_rolls_back_everything() {
        let (mut mem, mut alloc) = setup();
        let free_empty = alloc.free_frames();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        // Pre-existing page in the middle of the target range.
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x5000, 0x9000))
            .unwrap();
        let held = alloc.free_frames();
        let req = MapRequest::rw_4k(0x1000, 0x80_0000);
        assert_eq!(
            pt.map_range(&mut mem, &mut alloc, req, 8),
            Err(PtError::AlreadyMapped)
        );
        // Nothing from the failed range survives: only the pre-existing
        // page is mapped and no directory frames leaked.
        assert_eq!(alloc.free_frames(), held);
        assert_eq!(pt.ghost().flatten().len(), 1);
        pt.check_ghost(&mem).unwrap();
        assert_eq!(pt.resolve(&mem, VAddr(0x1000)), Err(PtError::NotMapped));
        assert_eq!(pt.resolve(&mem, VAddr(0x5000)).unwrap().pa, PAddr(0x9000));
        pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x5000)).unwrap();
        pt.destroy(&mut mem, &mut alloc);
        assert_eq!(alloc.free_frames(), free_empty);
    }

    #[test]
    fn unmap_range_failure_rolls_back_removed_prefix() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let req = MapRequest::rw_4k(0x1000, 0x80_0000);
        pt.map_range(&mut mem, &mut alloc, req, 6).unwrap();
        // Punch a hole at slot 3, then try to unmap all 6 slots.
        pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x4000)).unwrap();
        assert_eq!(
            pt.unmap_range(&mut mem, &mut alloc, VAddr(0x1000), 6),
            Err(PtError::NotMapped)
        );
        // The removed prefix (slots 0..3) came back.
        for i in [0u64, 1, 2, 4, 5] {
            let r = pt.resolve(&mem, VAddr(0x1000 + i * 0x1000)).unwrap();
            assert_eq!(r.pa, PAddr(0x80_0000 + i * 0x1000));
        }
        assert_eq!(pt.ghost().flatten().len(), 5);
        pt.check_ghost(&mem).unwrap();
    }

    #[test]
    fn map_range_frees_directories_like_per_page_loop() {
        // The amortized version must be observationally identical to the
        // per-page default: same resolves, same frame accounting.
        let (mut mem, mut alloc) = setup();
        let before = alloc.free_frames();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let req = MapRequest::rw_4k(0x3f_e000, 0x100_0000); // crosses a chunk edge
        pt.map_range(&mut mem, &mut alloc, req, 520).unwrap();
        let (mut mem2, mut alloc2) = setup();
        let mut ref_pt = VerifiedPageTable::<Tracked>::new(&mut mem2, &mut alloc2).unwrap();
        for i in 0..520u64 {
            ref_pt
                .map_frame(
                    &mut mem2,
                    &mut alloc2,
                    MapRequest::rw_4k(req.va.0 + i * 0x1000, req.pa.0 + i * 0x1000),
                )
                .unwrap();
        }
        assert_eq!(alloc.free_frames(), alloc2.free_frames());
        for i in (0..520u64).step_by(37) {
            let va = VAddr(req.va.0 + i * 0x1000);
            assert_eq!(pt.resolve(&mem, va), ref_pt.resolve(&mem2, va));
        }
        let removed = pt.unmap_range(&mut mem, &mut alloc, req.va, 520).unwrap();
        assert_eq!(removed.len(), 520);
        pt.destroy(&mut mem, &mut alloc);
        assert_eq!(alloc.free_frames(), before);
    }

    #[test]
    fn unmap_range_removing_huge_mapping_at_last_slot() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        // A 4 KiB page followed by... a huge mapping based at the next
        // chunk: unmap_range over [page, huge_base] removes both (the
        // huge one whole), per the slot-by-slot spec.
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1f_f000, 0x8000))
            .unwrap();
        let huge = MapRequest {
            va: VAddr(0x20_0000),
            pa: PAddr(0x40_0000),
            size: PageSize::Size2M,
            flags: MapFlags::user_ro(),
        };
        pt.map_frame(&mut mem, &mut alloc, huge).unwrap();
        let removed = pt
            .unmap_range(&mut mem, &mut alloc, VAddr(0x1f_f000), 2)
            .unwrap();
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[1].size, PageSize::Size2M);
        assert_eq!(pt.ghost().flatten().len(), 0);
        pt.check_ghost(&mem).unwrap();
    }

    #[test]
    fn range_overflow_is_rejected_up_front() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let req = MapRequest::rw_4k(0xffff_ffff_ffff_f000, 0x8000);
        assert_eq!(
            pt.map_range(&mut mem, &mut alloc, req, u64::MAX),
            Err(PtError::NonCanonical)
        );
        assert_eq!(
            pt.unmap_range(&mut mem, &mut alloc, VAddr(0xffff_ffff_ffff_f000), u64::MAX),
            Err(PtError::NonCanonical)
        );
    }

    #[test]
    fn high_half_addresses_work() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let va = VAddr(0xffff_8000_0010_0000);
        pt.map_frame(
            &mut mem,
            &mut alloc,
            MapRequest {
                va,
                pa: PAddr(0x8000),
                size: PageSize::Size4K,
                flags: MapFlags::kernel_rw(),
            },
        )
        .unwrap();
        assert_eq!(pt.resolve(&mem, va + 5).unwrap().pa, PAddr(0x8005));
        let interp = veros_hw::interpret_page_table(&mem, pt.root());
        assert!(interp.contains_key(&va));
    }

    #[test]
    fn erased_ghost_costs_no_space() {
        assert_eq!(
            std::mem::size_of::<VerifiedPageTable>(),
            std::mem::size_of::<PAddr>()
        );
    }

    #[test]
    fn tracked_ghost_reports_the_first_divergence() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        pt.check_ghost(&mem).unwrap();
        // A leaf written behind the table's back: the table resolves it,
        // the ghost does not know it.
        let l1 = walk_to_l1(&mem, pt.root(), VAddr(0x1000)).unwrap();
        mem.write_u64(
            entry_addr(l1, 2),
            encode_leaf(PAddr(0x9000), PageSize::Size4K, MapFlags::user_rw()).0,
        );
        assert!(pt.resolve(&mem, VAddr(0x2000)).is_ok());
        let err = pt.check_ghost(&mem).unwrap_err();
        assert!(err.starts_with("ghost diverged on resolve 0x2000"), "{err}");
    }
}
