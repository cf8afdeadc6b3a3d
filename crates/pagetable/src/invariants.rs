//! Structural invariants of the in-memory page table.
//!
//! These are the inductive invariants a Verus proof would carry through
//! every operation; here they are checked as a whole-structure predicate
//! after operation sequences. A violation of any of them would make the
//! refinement argument unsound (e.g. a shared directory frame would make
//! unmap's frees corrupt unrelated mappings).

use std::collections::HashSet;

use veros_hw::{PAddr, PhysMem, PtEntry, PtFlags, PAGE_4K};

/// Statistics returned by a successful structure check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Structure {
    /// Directory frames reachable from the root (including the root).
    pub directories: usize,
    /// Present leaf entries.
    pub leaves: usize,
}

/// Checks the structural invariants of the table rooted at `root`:
///
/// 1. Every reachable directory frame is 4 KiB aligned and in bounds.
/// 2. No directory frame is reachable twice (no aliasing, no cycles).
/// 3. Non-root directories are non-empty (the no-empty-dirs invariant).
/// 4. The huge bit appears only at levels 3 and 2.
/// 5. Directory entries carry exactly the canonical directory flags.
/// 6. Leaf physical addresses are aligned to their page size.
pub fn check_structure(mem: &PhysMem, root: PAddr) -> Result<Structure, String> {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stats = Structure::default();
    check_table(mem, root, 4, true, &mut seen, &mut stats)?;
    Ok(stats)
}

fn check_table(
    mem: &PhysMem,
    table: PAddr,
    level: u8,
    is_root: bool,
    seen: &mut HashSet<u64>,
    stats: &mut Structure,
) -> Result<(), String> {
    if !table.is_aligned(PAGE_4K) {
        return Err(format!("directory {table} not frame-aligned"));
    }
    if !mem.contains(table, PAGE_4K) {
        return Err(format!("directory {table} outside physical memory"));
    }
    if !seen.insert(table.0) {
        return Err(format!("directory {table} reachable twice (aliasing or cycle)"));
    }
    stats.directories += 1;

    let mut present = 0usize;
    for idx in 0..512u16 {
        let e = PtEntry(mem.read_u64(PAddr(table.0 + 8 * idx as u64)));
        if !e.is_present() {
            continue;
        }
        present += 1;
        let is_leaf = level == 1 || e.is_huge();
        if is_leaf {
            if level == 4 {
                return Err(format!("huge bit set in PML4 entry {idx} of {table}"));
            }
            let span = PAGE_4K << (9 * (level - 1));
            if !e.addr().0.is_multiple_of(span) {
                return Err(format!(
                    "leaf at level {level} idx {idx} of {table} maps misaligned {}",
                    e.addr()
                ));
            }
            stats.leaves += 1;
        } else {
            let expected = PtFlags::PRESENT | PtFlags::WRITABLE | PtFlags::USER;
            if e.flags() != expected {
                return Err(format!(
                    "directory entry {idx} of {table} has flags {:?}, expected {expected:?}",
                    e.flags()
                ));
            }
            check_table(mem, e.addr(), level - 1, false, seen, stats)?;
        }
    }
    if present == 0 && !is_root {
        return Err(format!("empty non-root directory {table} at level {level}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{MapFlags, MapRequest, PageSize};
    use crate::{Erased, PageTableOps, Tracked, VerifiedPageTable};
    use veros_hw::{StackFrameSource, VAddr};

    fn setup() -> (PhysMem, StackFrameSource) {
        (
            PhysMem::new(1024),
            StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(512 * PAGE_4K)),
        )
    }

    #[test]
    fn fresh_table_is_structurally_sound() {
        let (mut mem, mut alloc) = setup();
        let pt = VerifiedPageTable::<Erased>::new(&mut mem, &mut alloc).unwrap();
        let s = check_structure(&mem, pt.root()).unwrap();
        assert_eq!(s, Structure { directories: 1, leaves: 0 });
    }

    #[test]
    fn populated_table_counts_match_ghost() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        pt.map_frame(
            &mut mem,
            &mut alloc,
            MapRequest {
                va: VAddr(0x20_0000),
                pa: PAddr(0x40_0000),
                size: PageSize::Size2M,
                flags: MapFlags::user_rw(),
            },
        )
        .unwrap();
        let s = check_structure(&mem, pt.root()).unwrap();
        assert_eq!(s.leaves, 2);
        // Root + ghost directory count.
        assert_eq!(s.directories, 1 + pt.ghost().directory_count());
        pt.check_ghost(&mem).unwrap();
    }

    #[test]
    fn sabotaged_empty_directory_is_caught() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Erased>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        // Zero the leaf entry directly, leaving its parent chain intact:
        // an empty L1 directory.
        let l4e = PtEntry(mem.read_u64(PAddr(pt.root().0)));
        let l3e = PtEntry(mem.read_u64(l4e.addr()));
        let l2e = PtEntry(mem.read_u64(l3e.addr()));
        mem.write_u64(PAddr(l2e.addr().0 + 8), PtEntry::zero().0); // idx 1 = 0x1000.
        let err = check_structure(&mem, pt.root()).unwrap_err();
        assert!(err.contains("empty non-root"), "{err}");
    }

    #[test]
    fn sabotaged_cycle_is_caught() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Erased>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        // Point a second PML4 slot at the root itself.
        let dir = PtFlags::PRESENT | PtFlags::WRITABLE | PtFlags::USER;
        mem.write_u64(
            PAddr(pt.root().0 + 8 * 5),
            PtEntry::new(pt.root(), dir).0,
        );
        let err = check_structure(&mem, pt.root()).unwrap_err();
        assert!(err.contains("reachable twice"), "{err}");
    }

    #[test]
    fn sabotaged_pml4_huge_bit_is_caught() {
        let (mut mem, mut alloc) = setup();
        let pt = VerifiedPageTable::<Erased>::new(&mut mem, &mut alloc).unwrap();
        let dir = PtFlags::PRESENT | PtFlags::HUGE;
        mem.write_u64(PAddr(pt.root().0), PtEntry::new(PAddr(0x8000), dir).0);
        let err = check_structure(&mem, pt.root()).unwrap_err();
        assert!(err.contains("PML4"), "{err}");
    }

    #[test]
    fn sabotaged_misaligned_huge_leaf_is_caught() {
        let (mut mem, mut alloc) = setup();
        let mut pt = VerifiedPageTable::<Erased>::new(&mut mem, &mut alloc).unwrap();
        pt.map_frame(
            &mut mem,
            &mut alloc,
            MapRequest {
                va: VAddr(0x20_0000),
                pa: PAddr(0x40_0000),
                size: PageSize::Size2M,
                flags: MapFlags::user_rw(),
            },
        )
        .unwrap();
        // Overwrite the huge leaf with a 4 KiB-aligned (but not
        // 2 MiB-aligned) physical base.
        let l4e = PtEntry(mem.read_u64(PAddr(pt.root().0)));
        let l3e = PtEntry(mem.read_u64(l4e.addr()));
        let idx = VAddr(0x20_0000).pd_index() as u64;
        mem.write_u64(
            PAddr(l3e.addr().0 + 8 * idx),
            PtEntry::new(PAddr(0x41_1000), PtFlags::PRESENT | PtFlags::HUGE).0,
        );
        let err = check_structure(&mem, pt.root()).unwrap_err();
        assert!(err.contains("misaligned"), "{err}");
    }
}
