//! The MMU's page-walk interpretation function.
//!
//! This is the heart of the hardware spec: given the physical memory and
//! a root pointer (CR3), [`walk`] computes the translation the MMU would
//! produce for one virtual address, and [`interpret_page_table`] computes
//! the *entire* logical map the in-memory page table denotes. The paper's
//! central proof obligation — "given the MMU's interpretation function of
//! the page table in memory, the implemented map, unmap and resolve
//! functions have the same behavior as their counterparts in the abstract
//! high-level spec" — is checked against exactly this function.

use std::collections::BTreeMap;

use crate::addr::{PAddr, VAddr, PAGE_1G, PAGE_2M, PAGE_4K, PT_ENTRIES};
use crate::paging::{PtEntry, PtFlags};
use crate::physmem::PhysMem;

/// A successful translation: the containing mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mapping {
    /// Virtual base of the mapped page.
    pub va_base: VAddr,
    /// Physical base the page maps to.
    pub pa_base: PAddr,
    /// Page size: 4 KiB, 2 MiB, or 1 GiB.
    pub size: u64,
    /// True when every level of the walk allows writes.
    pub writable: bool,
    /// True when every level of the walk allows user access.
    pub user: bool,
    /// True when any level of the walk disables execution.
    pub nx: bool,
}

impl Mapping {
    /// Translates an address inside this mapping.
    ///
    /// # Panics
    ///
    /// Panics when `va` is outside the mapping.
    pub fn translate(&self, va: VAddr) -> PAddr {
        assert!(va.0 >= self.va_base.0 && va.0 - self.va_base.0 < self.size);
        PAddr(self.pa_base.0 + (va.0 - self.va_base.0))
    }
}

/// Why a walk failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkError {
    /// The virtual address is not canonical.
    NonCanonical,
    /// A non-present entry was hit at the given level (4 = PML4, 1 = PT).
    NotMapped {
        /// Table level of the non-present entry.
        level: u8,
    },
}

/// Walks the 4-level page table rooted at `cr3` for `va`.
///
/// Permissions accumulate architecturally: writable/user are the
/// conjunction over all levels, NX the disjunction. The walk reads
/// physical memory exactly like the MMU does — one 8-byte entry per
/// level.
pub fn walk(mem: &PhysMem, cr3: PAddr, va: VAddr) -> Result<Mapping, WalkError> {
    if !va.is_canonical() {
        return Err(WalkError::NonCanonical);
    }
    let mut writable = true;
    let mut user = true;
    let mut nx = false;

    // Level 4.
    let l4e = read_entry(mem, cr3, va.pml4_index());
    if !l4e.is_present() {
        return Err(WalkError::NotMapped { level: 4 });
    }
    accumulate(&mut writable, &mut user, &mut nx, l4e);

    // Level 3.
    let l3e = read_entry(mem, l4e.addr(), va.pdpt_index());
    if !l3e.is_present() {
        return Err(WalkError::NotMapped { level: 3 });
    }
    accumulate(&mut writable, &mut user, &mut nx, l3e);
    if l3e.is_huge() {
        return Ok(Mapping {
            va_base: va.align_down(PAGE_1G),
            pa_base: l3e.addr(),
            size: PAGE_1G,
            writable,
            user,
            nx,
        });
    }

    // Level 2.
    let l2e = read_entry(mem, l3e.addr(), va.pd_index());
    if !l2e.is_present() {
        return Err(WalkError::NotMapped { level: 2 });
    }
    accumulate(&mut writable, &mut user, &mut nx, l2e);
    if l2e.is_huge() {
        return Ok(Mapping {
            va_base: va.align_down(PAGE_2M),
            pa_base: l2e.addr(),
            size: PAGE_2M,
            writable,
            user,
            nx,
        });
    }

    // Level 1.
    let l1e = read_entry(mem, l2e.addr(), va.pt_index());
    if !l1e.is_present() {
        return Err(WalkError::NotMapped { level: 1 });
    }
    accumulate(&mut writable, &mut user, &mut nx, l1e);
    Ok(Mapping {
        va_base: va.align_down(PAGE_4K),
        pa_base: l1e.addr(),
        size: PAGE_4K,
        writable,
        user,
        nx,
    })
}

fn read_entry(mem: &PhysMem, table: PAddr, index: usize) -> PtEntry {
    debug_assert!(index < PT_ENTRIES);
    PtEntry(mem.read_u64(PAddr(table.0 + 8 * index as u64)))
}

fn accumulate(writable: &mut bool, user: &mut bool, nx: &mut bool, e: PtEntry) {
    let f = e.flags();
    *writable &= f.contains(PtFlags::WRITABLE);
    *user &= f.contains(PtFlags::USER);
    *nx |= f.contains(PtFlags::NX);
}

/// Computes the full logical map denoted by the page table at `cr3`:
/// every present leaf mapping, keyed by virtual base address.
///
/// This is the interpretation function the refinement checks compare the
/// abstract map against. It deliberately re-reads every entry from
/// physical memory rather than consulting any implementation state.
pub fn interpret_page_table(mem: &PhysMem, cr3: PAddr) -> BTreeMap<VAddr, Mapping> {
    let mut out = BTreeMap::new();
    for l4 in 0..PT_ENTRIES {
        let l4e = read_entry(mem, cr3, l4);
        if !l4e.is_present() {
            continue;
        }
        for l3 in 0..PT_ENTRIES {
            let l3e = read_entry(mem, l4e.addr(), l3);
            if !l3e.is_present() {
                continue;
            }
            if l3e.is_huge() {
                insert_leaf(&mut out, mem, cr3, VAddr::from_indices(l4, l3, 0, 0));
                continue;
            }
            for l2 in 0..PT_ENTRIES {
                let l2e = read_entry(mem, l3e.addr(), l2);
                if !l2e.is_present() {
                    continue;
                }
                if l2e.is_huge() {
                    insert_leaf(&mut out, mem, cr3, VAddr::from_indices(l4, l3, l2, 0));
                    continue;
                }
                for l1 in 0..PT_ENTRIES {
                    let l1e = read_entry(mem, l2e.addr(), l1);
                    if l1e.is_present() {
                        insert_leaf(&mut out, mem, cr3, VAddr::from_indices(l4, l3, l2, l1));
                    }
                }
            }
        }
    }
    out
}

fn insert_leaf(out: &mut BTreeMap<VAddr, Mapping>, mem: &PhysMem, cr3: PAddr, va: VAddr) {
    // Re-walk through the front door so the inserted mapping carries the
    // same accumulated permissions a real translation would.
    #[expect(
        clippy::expect_used,
        reason = "the caller just observed a present leaf for `va` in this same (immutable) \
                  memory, so the walk succeeds by construction"
    )]
    let m = walk(mem, cr3, va).expect("leaf just observed present");
    out.insert(m.va_base, m);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds a page table mapping one 4 KiB page, without using any
    /// page-table implementation — the walker must be independently
    /// trustworthy since every refinement check leans on it.
    fn build_single_4k(mem: &mut PhysMem, va: VAddr, pa: PAddr, flags: PtFlags) -> PAddr {
        let cr3 = PAddr(0x1000);
        let l3 = PAddr(0x2000);
        let l2 = PAddr(0x3000);
        let l1 = PAddr(0x4000);
        let dir = PtFlags::PRESENT | PtFlags::WRITABLE | PtFlags::USER;
        mem.write_u64(PAddr(cr3.0 + 8 * va.pml4_index() as u64), PtEntry::new(l3, dir).0);
        mem.write_u64(PAddr(l3.0 + 8 * va.pdpt_index() as u64), PtEntry::new(l2, dir).0);
        mem.write_u64(PAddr(l2.0 + 8 * va.pd_index() as u64), PtEntry::new(l1, dir).0);
        mem.write_u64(
            PAddr(l1.0 + 8 * va.pt_index() as u64),
            PtEntry::new(pa, flags | PtFlags::PRESENT).0,
        );
        cr3
    }

    #[test]
    fn walk_finds_hand_built_mapping() {
        let mut mem = PhysMem::new(64);
        let va = VAddr(0x7f00_0000_3000);
        let pa = PAddr(0x2_8000);
        let cr3 = build_single_4k(&mut mem, va, pa, PtFlags::WRITABLE | PtFlags::USER);
        let m = walk(&mem, cr3, va).unwrap();
        assert_eq!(m.va_base, va);
        assert_eq!(m.pa_base, pa);
        assert_eq!(m.size, PAGE_4K);
        assert!(m.writable && m.user && !m.nx);
        // An address inside the page translates with its offset.
        assert_eq!(m.translate(va + 0x123), PAddr(pa.0 + 0x123));
    }

    #[test]
    fn permissions_accumulate_conjunctively() {
        let mut mem = PhysMem::new(64);
        let va = VAddr(0x5000_0000);
        // Leaf says writable, but we will clear W at level 2 below.
        let cr3 = build_single_4k(&mut mem, va, PAddr(0x8000), PtFlags::WRITABLE | PtFlags::USER);
        // Rewrite the L2 entry without the writable bit.
        let l2 = PAddr(0x3000);
        let e = PtEntry(mem.read_u64(PAddr(l2.0 + 8 * va.pd_index() as u64)));
        mem.write_u64(
            PAddr(l2.0 + 8 * va.pd_index() as u64),
            PtEntry::new(e.addr(), e.flags().without(PtFlags::WRITABLE)).0,
        );
        let m = walk(&mem, cr3, va).unwrap();
        assert!(!m.writable, "W must AND across levels");
        assert!(m.user);
    }

    #[test]
    fn nx_accumulates_disjunctively() {
        let mut mem = PhysMem::new(64);
        let va = VAddr(0x5000_0000);
        let cr3 = build_single_4k(&mut mem, va, PAddr(0x8000), PtFlags::WRITABLE | PtFlags::USER | PtFlags::NX);
        let m = walk(&mem, cr3, va).unwrap();
        assert!(m.nx);
    }

    #[test]
    fn unmapped_reports_level() {
        let mem = PhysMem::new(64);
        let cr3 = PAddr(0x1000);
        assert_eq!(
            walk(&mem, cr3, VAddr(0x1234_5000)),
            Err(WalkError::NotMapped { level: 4 })
        );
    }

    #[test]
    fn non_canonical_faults() {
        let mem = PhysMem::new(16);
        assert_eq!(
            walk(&mem, PAddr(0x1000), VAddr(0x0000_8000_0000_0000)),
            Err(WalkError::NonCanonical)
        );
    }

    #[test]
    fn huge_2m_walks_stop_at_level_2() {
        let mut mem = PhysMem::new(64);
        let va = VAddr(0x4060_0000); // 2 MiB aligned.
        let cr3 = PAddr(0x1000);
        let l3 = PAddr(0x2000);
        let l2 = PAddr(0x3000);
        let dir = PtFlags::PRESENT | PtFlags::WRITABLE | PtFlags::USER;
        mem.write_u64(PAddr(cr3.0 + 8 * va.pml4_index() as u64), PtEntry::new(l3, dir).0);
        mem.write_u64(PAddr(l3.0 + 8 * va.pdpt_index() as u64), PtEntry::new(l2, dir).0);
        mem.write_u64(
            PAddr(l2.0 + 8 * va.pd_index() as u64),
            PtEntry::new(PAddr(0x20_0000), dir | PtFlags::HUGE).0,
        );
        let m = walk(&mem, cr3, va + 0x12345).unwrap();
        assert_eq!(m.size, PAGE_2M);
        assert_eq!(m.va_base, va);
        assert_eq!(m.pa_base, PAddr(0x20_0000));
        assert_eq!(m.translate(va + 0x12345), PAddr(0x20_0000 + 0x12345));
    }

    #[test]
    fn huge_1g_walks_stop_at_level_3() {
        let mut mem = PhysMem::new(64);
        let va = VAddr(0x1_4000_0000); // 1 GiB aligned (5 GiB).
        let cr3 = PAddr(0x1000);
        let l3 = PAddr(0x2000);
        let dir = PtFlags::PRESENT | PtFlags::WRITABLE | PtFlags::USER;
        mem.write_u64(PAddr(cr3.0 + 8 * va.pml4_index() as u64), PtEntry::new(l3, dir).0);
        mem.write_u64(
            PAddr(l3.0 + 8 * va.pdpt_index() as u64),
            PtEntry::new(PAddr(PAGE_1G), dir | PtFlags::HUGE).0,
        );
        let m = walk(&mem, cr3, va + 0xabcdef).unwrap();
        assert_eq!(m.size, PAGE_1G);
        assert_eq!(m.pa_base, PAddr(PAGE_1G));
    }

    #[test]
    fn interpret_enumerates_exactly_the_present_leaves() {
        let mut mem = PhysMem::new(64);
        let va = VAddr(0x7f00_0000_3000);
        let cr3 = build_single_4k(&mut mem, va, PAddr(0x2_8000), PtFlags::WRITABLE | PtFlags::USER);
        // Add a second leaf in the same L1 table.
        let l1 = PAddr(0x4000);
        let va2 = VAddr(va.0 + PAGE_4K);
        mem.write_u64(
            PAddr(l1.0 + 8 * va2.pt_index() as u64),
            PtEntry::new(PAddr(0x3_0000), PtFlags::PRESENT).0,
        );
        let map = interpret_page_table(&mem, cr3);
        assert_eq!(map.len(), 2);
        assert_eq!(map[&va].pa_base, PAddr(0x2_8000));
        assert_eq!(map[&va2].pa_base, PAddr(0x3_0000));
        // The second mapping has no W/U at the leaf: conjunction is false.
        assert!(!map[&va2].writable && !map[&va2].user);
    }

    #[test]
    fn interpret_of_empty_root_is_empty() {
        let mem = PhysMem::new(16);
        assert!(interpret_page_table(&mem, PAddr(0x1000)).is_empty());
    }
}
