//! The unverified baseline page table (NrOS's original implementation,
//! modelled).
//!
//! Same semantics as [`crate::impl_verified::VerifiedPageTable`] but
//! written the way a kernel developer writes it when no proof structure
//! constrains the shape: one iterative loop per operation, no ghost
//! state, no layered functions. The leaf-entry codec and the teardown are
//! the verified table's; the range calls are [`PageTableOps`]'s per-page
//! default bodies, the loop the verified table's amortized overrides must
//! match (the equivalence VCs compare the two). This is the "NrOS
//! Unverified" series of Figures 1b and 1c; the paper's claim is that the verified version
//! "can closely match the performance of the unverified implementation",
//! which holds here because both compile to near-identical work.

use veros_hw::{FrameSource, PAddr, PhysMem, PtEntry, PtFlags, VAddr, PAGE_4K};

use crate::high_spec::AbsMapping;
use crate::impl_verified::{decode_leaf, encode_leaf, entry_addr, free_subtree, table_empty};
use crate::ops::{MapRequest, PageSize, PtError, ResolveAnswer};
use crate::PageTableOps;

/// The unverified page table: just the root pointer.
pub struct UnverifiedPageTable {
    cr3: PAddr,
}

fn indices(va: VAddr) -> [u16; 4] {
    // Ordered level 4 down to level 1.
    [
        va.pml4_index() as u16,
        va.pdpt_index() as u16,
        va.pd_index() as u16,
        va.pt_index() as u16,
    ]
}

impl UnverifiedPageTable {
    fn rollback(
        mem: &mut PhysMem,
        alloc: &mut dyn FrameSource,
        fresh: &mut Vec<(PAddr, PAddr)>,
    ) {
        // Unlink the topmost fresh directory from its parent, then free
        // the chain (fresh directories only contain each other).
        if let Some((_, first_slot)) = fresh.first() {
            mem.write_u64(*first_slot, PtEntry::zero().0);
        }
        for (frame, _) in fresh.drain(..) {
            mem.zero_frame(frame);
            alloc.free_frame(frame);
        }
    }
}

impl PageTableOps for UnverifiedPageTable {
    fn new(mem: &mut PhysMem, alloc: &mut dyn FrameSource) -> Result<Self, PtError> {
        let cr3 = alloc.alloc_frame().ok_or(PtError::OutOfMemory)?;
        mem.zero_frame(cr3);
        Ok(Self { cr3 })
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
        let idxs = indices(req.va);
        let leaf_level = req.size.leaf_level();
        let mut table = self.cr3;
        // Remember newly allocated directories so an OOM deeper down can
        // roll back (also unlinking from the parent table).
        let mut fresh: Vec<(PAddr, PAddr)> = Vec::new(); // (frame, parent slot)
        let mut level = 4u8;
        loop {
            let idx = idxs[(4 - level) as usize];
            let slot = entry_addr(table, idx);
            let entry = PtEntry(mem.read_u64(slot));
            if level == leaf_level {
                if entry.is_present() {
                    Self::rollback(mem, alloc, &mut fresh);
                    return Err(PtError::AlreadyMapped);
                }
                mem.write_u64(slot, encode_leaf(req.pa, req.size, req.flags).0);
                return Ok(());
            }
            if entry.is_present() {
                if entry.is_huge() {
                    Self::rollback(mem, alloc, &mut fresh);
                    return Err(PtError::AlreadyMapped);
                }
                table = entry.addr();
            } else {
                let Some(child) = alloc.alloc_frame() else {
                    Self::rollback(mem, alloc, &mut fresh);
                    return Err(PtError::OutOfMemory);
                };
                mem.zero_frame(child);
                mem.write_u64(
                    slot,
                    PtEntry::new(child, PtFlags::PRESENT | PtFlags::WRITABLE | PtFlags::USER).0,
                );
                fresh.push((child, slot));
                table = child;
            }
            level -= 1;
        }
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
        let idxs = indices(va);
        // Walk down, recording the path for the cleanup pass.
        let mut path: Vec<PAddr> = Vec::new(); // parent slots
        let mut table = self.cr3;
        let mut level = 4u8;
        let mapping = loop {
            let idx = idxs[(4 - level) as usize];
            let slot = entry_addr(table, idx);
            let entry = PtEntry(mem.read_u64(slot));
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
                if !va.is_aligned(size.bytes()) {
                    return Err(PtError::NotMapped);
                }
                let mapping = AbsMapping {
                    pa: entry.addr().0,
                    size,
                    flags: decode_leaf(entry),
                };
                mem.write_u64(slot, PtEntry::zero().0);
                break mapping;
            }
            path.push(slot);
            table = entry.addr();
            level -= 1;
        };
        // Cleanup pass: free directories that became empty, bottom-up.
        for parent_slot in path.into_iter().rev() {
            let child = PtEntry(mem.read_u64(parent_slot)).addr();
            if !table_empty(mem, child) {
                break;
            }
            mem.zero_frame(child);
            alloc.free_frame(child);
            mem.write_u64(parent_slot, PtEntry::zero().0);
        }
        Ok(mapping)
    }

    fn resolve(&self, mem: &PhysMem, va: VAddr) -> Result<ResolveAnswer, PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        let idxs = indices(va);
        let mut table = self.cr3;
        let mut level = 4u8;
        loop {
            let idx = idxs[(4 - level) as usize];
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
                let span = size.bytes();
                let base = VAddr(va.0 & !(span - 1));
                return Ok(ResolveAnswer {
                    pa: PAddr(entry.addr().0 + (va.0 - base.0)),
                    base,
                    size,
                    flags: decode_leaf(entry),
                });
            }
            table = entry.addr();
            level -= 1;
        }
    }

    fn root(&self) -> PAddr {
        self.cr3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MapFlags;
    use veros_hw::StackFrameSource;

    fn setup() -> (PhysMem, StackFrameSource) {
        (
            PhysMem::new(1024),
            StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(512 * PAGE_4K)),
        )
    }

    #[test]
    fn map_resolve_unmap_round_trip() {
        let (mut mem, mut alloc) = setup();
        let mut pt = UnverifiedPageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        assert_eq!(pt.resolve(&mem, VAddr(0x1123)).unwrap().pa, PAddr(0x8123));
        let m = pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x1000)).unwrap();
        assert_eq!(m.pa, 0x8000);
        assert_eq!(pt.resolve(&mem, VAddr(0x1123)), Err(PtError::NotMapped));
    }

    #[test]
    fn unmap_frees_empty_directories() {
        let (mut mem, mut alloc) = setup();
        let before = alloc.free_frames();
        let mut pt = UnverifiedPageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x1000)).unwrap();
        assert_eq!(alloc.free_frames(), before - 1);
        pt.destroy(&mut mem, &mut alloc);
        assert_eq!(alloc.free_frames(), before);
    }

    #[test]
    fn oom_rolls_back_partially_created_path() {
        let mut mem = PhysMem::new(64);
        let mut alloc = StackFrameSource::new(PAddr(0x1000), PAddr(0x3000));
        let mut pt = UnverifiedPageTable::new(&mut mem, &mut alloc).unwrap();
        assert_eq!(
            pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000)),
            Err(PtError::OutOfMemory)
        );
        assert_eq!(alloc.free_frames(), 1);
        assert!(veros_hw::interpret_page_table(&mem, pt.root()).is_empty());
    }

    #[test]
    fn map_range_matches_per_page_loop_and_mmu() {
        let (mut mem, mut alloc) = setup();
        let mut pt = UnverifiedPageTable::new(&mut mem, &mut alloc).unwrap();
        let req = MapRequest::rw_4k(0x1f_d000, 0x80_0000); // crosses 0x20_0000
        pt.map_range(&mut mem, &mut alloc, req, 12).unwrap();
        for i in 0..12u64 {
            let va = VAddr(req.va.0 + i * 0x1000);
            assert_eq!(pt.resolve(&mem, va).unwrap().pa, PAddr(req.pa.0 + i * 0x1000));
            // The MMU sees exactly what resolve reports, fast path or not.
            let m = veros_hw::walk(&mem, pt.root(), va).unwrap();
            assert_eq!(m.pa_base, PAddr(req.pa.0 + i * 0x1000));
        }
        let removed = pt.unmap_range(&mut mem, &mut alloc, req.va, 12).unwrap();
        assert_eq!(removed.len(), 12);
        assert_eq!(pt.resolve(&mem, req.va), Err(PtError::NotMapped));
    }

    #[test]
    fn range_failures_roll_back() {
        let (mut mem, mut alloc) = setup();
        let mut pt = UnverifiedPageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x4000, 0x9000))
            .unwrap();
        let held = alloc.free_frames();
        assert_eq!(
            pt.map_range(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x80_0000), 8),
            Err(PtError::AlreadyMapped)
        );
        assert_eq!(alloc.free_frames(), held, "failed map_range leaks nothing");
        assert_eq!(pt.resolve(&mem, VAddr(0x1000)), Err(PtError::NotMapped));
        // unmap_range across the hole left after removing 0x4000:
        pt.unmap_frame(&mut mem, &mut alloc, VAddr(0x4000)).unwrap();
        pt.map_range(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x80_0000), 2)
            .unwrap();
        assert_eq!(
            pt.unmap_range(&mut mem, &mut alloc, VAddr(0x1000), 4),
            Err(PtError::NotMapped)
        );
        for i in 0..2u64 {
            assert_eq!(
                pt.resolve(&mem, VAddr(0x1000 + i * 0x1000)).unwrap().pa,
                PAddr(0x80_0000 + i * 0x1000),
                "removed prefix restored"
            );
        }
    }

    #[test]
    fn agrees_with_mmu_walk() {
        let (mut mem, mut alloc) = setup();
        let mut pt = UnverifiedPageTable::new(&mut mem, &mut alloc).unwrap();
        let req = MapRequest {
            va: VAddr(0x20_0000),
            pa: PAddr(0x40_0000),
            size: PageSize::Size2M,
            flags: MapFlags::user_ro(),
        };
        pt.map_frame(&mut mem, &mut alloc, req).unwrap();
        let m = veros_hw::walk(&mem, pt.root(), VAddr(0x20_1234)).unwrap();
        assert_eq!(m.pa_base, PAddr(0x40_0000));
        assert_eq!(m.size, PageSize::Size2M.bytes());
        assert!(!m.writable && m.user);
    }
}
