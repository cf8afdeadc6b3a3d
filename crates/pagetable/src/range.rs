//! The two rollbacks of the range calls, used by [`PageTableOps`]'s
//! default bodies (the specification, which the unverified baseline
//! runs) and by the verified table's amortized overrides.

use veros_hw::{FrameSource, PAddr, PhysMem, VAddr, PAGE_4K};

use crate::high_spec::AbsMapping;
use crate::ops::MapRequest;
use crate::PageTableOps;

/// True when `base + pages * step` (the end of a range operation)
/// overflows. The defaults and the verified table's amortized paths
/// reject such ranges up-front so they agree on every input.
pub(crate) fn overflows(base: u64, step: u64, pages: u64) -> bool {
    step.checked_mul(pages)
        .and_then(|span| base.checked_add(span))
        .is_none()
}

/// Rolls a failed `map_range` back: unmaps, newest first, the `done`
/// pages it had already installed.
pub(crate) fn unmap_mapped_prefix<P: PageTableOps + ?Sized>(
    pt: &mut P,
    mem: &mut PhysMem,
    alloc: &mut dyn FrameSource,
    req: &MapRequest,
    done: u64,
) {
    let step = req.size.bytes();
    for j in (0..done).rev() {
        let rolled = pt.unmap_frame(mem, alloc, VAddr(req.va.0 + j * step));
        debug_assert!(rolled.is_ok(), "map_range rollback failed at page {j}");
    }
}

/// Rolls a failed `unmap_range` back: re-installs, newest first, the
/// mappings it had already removed, so the table is as before the call.
pub(crate) fn remap_removed_prefix<P: PageTableOps + ?Sized>(
    pt: &mut P,
    mem: &mut PhysMem,
    alloc: &mut dyn FrameSource,
    va: VAddr,
    removed: &[AbsMapping],
) {
    for (j, m) in removed.iter().enumerate().rev() {
        let back = MapRequest {
            va: VAddr(va.0 + j as u64 * PAGE_4K),
            pa: PAddr(m.pa),
            size: m.size,
            flags: m.flags,
        };
        let rolled = pt.map_frame(mem, alloc, back);
        debug_assert!(rolled.is_ok(), "unmap_range rollback failed at slot {j}");
    }
}
