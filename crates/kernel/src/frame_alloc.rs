//! Physical memory management: one buddy allocator.
//!
//! NrOS manages physical memory with per-NUMA-node allocators ("NCache")
//! feeding smaller caches; this model has no per-node layer, only the
//! buddy scheme, which keeps coalescing cheap. The allocator owns a
//! physical range, hands out power-of-two blocks of frames, and
//! implements [`veros_hw::FrameSource`] so the verified page table can
//! draw directory frames from it directly.

use veros_hw::{FrameSource, PAddr, PAGE_4K};

/// Maximum buddy order: blocks of `2^MAX_ORDER` frames (order 9 = 2 MiB,
/// matching the huge-page size).
pub const MAX_ORDER: usize = 9;

/// A buddy allocator over a contiguous physical range.
pub struct BuddyAllocator {
    base: PAddr,
    frames: usize,
    /// Free lists per order, storing block base addresses.
    free: Vec<Vec<PAddr>>,
    /// Allocation bitmap at frame granularity for double-free checking
    /// (one bit per frame; only block bases are marked).
    allocated: Vec<u64>,
    allocated_frames: usize,
}

impl BuddyAllocator {
    /// Creates an allocator owning `[base, base + frames * 4 KiB)`.
    ///
    /// # Panics
    ///
    /// Panics when `base` is not frame-aligned or `frames` is zero.
    pub fn new(base: PAddr, frames: usize) -> Self {
        assert!(base.is_aligned(PAGE_4K));
        assert!(frames > 0);
        let mut a = Self {
            base,
            frames,
            free: vec![Vec::new(); MAX_ORDER + 1],
            allocated: vec![0; frames.div_ceil(64)],
            allocated_frames: 0,
        };
        // Seed free lists greedily with the largest aligned blocks.
        // Alignment is absolute (like the buddy pairing in `free_order`):
        // a misaligned base simply seeds smaller blocks until the
        // addresses reach the next natural boundary.
        let mut frame = 0usize;
        while frame < frames {
            let pa = PAddr(base.0 + (frame as u64) * PAGE_4K);
            let mut order = MAX_ORDER;
            loop {
                let block = 1usize << order;
                if frame + block <= frames && pa.is_aligned(block_bytes(order)) {
                    break;
                }
                order -= 1;
            }
            a.free[order].push(pa);
            frame += 1 << order;
        }
        a
    }

    /// Currently allocated frames.
    pub fn allocated_frames(&self) -> usize {
        self.allocated_frames
    }

    /// Currently free frames.
    pub fn free_frames(&self) -> usize {
        self.frames - self.allocated_frames
    }

    /// Audits frame conservation: every owned frame is either accounted
    /// by `allocated_frames` or sits on exactly one free list, and free
    /// blocks are in-range, aligned, non-overlapping and not marked
    /// allocated. This is the checkable form of the no-lost-frames
    /// invariant (`invariant::frames::*` in `INVARIANTS.md`); the fault
    /// sweeps call it between every workload step.
    pub fn audit_conservation(&self) -> Result<(), String> {
        let end = self.base.0 + self.frames as u64 * PAGE_4K;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut free_frames = 0usize;
        for (order, list) in self.free.iter().enumerate() {
            for &b in list {
                let bytes = block_bytes(order);
                if b.0 < self.base.0 || b.0 + bytes > end {
                    return Err(format!("free list order {order} holds foreign block {b}"));
                }
                if !b.is_aligned(bytes) {
                    return Err(format!("free list order {order} holds misaligned block {b}"));
                }
                if self.is_marked(b) {
                    return Err(format!(
                        "block {b} is on the order-{order} free list but marked allocated"
                    ));
                }
                intervals.push((b.0, b.0 + bytes));
                free_frames += 1 << order;
            }
        }
        intervals.sort_unstable();
        for ((a0, a1), (b0, b1)) in intervals.iter().zip(intervals.iter().skip(1)) {
            if a1 > b0 {
                return Err(format!(
                    "free blocks overlap: [{a0:#x}, {a1:#x}) and [{b0:#x}, {b1:#x})"
                ));
            }
        }
        if free_frames + self.allocated_frames != self.frames {
            return Err(format!(
                "frame conservation violated: {free_frames} free + {} allocated != {} owned",
                self.allocated_frames, self.frames
            ));
        }
        Ok(())
    }

    /// Allocates a block of `2^order` contiguous frames.
    pub fn alloc_order(&mut self, order: usize) -> Option<PAddr> {
        if order > MAX_ORDER {
            return None;
        }
        // Find the smallest order with a free block, splitting down.
        let mut o = order;
        while o <= MAX_ORDER && self.free[o].is_empty() {
            o += 1;
        }
        if o > MAX_ORDER {
            return None;
        }
        let block = self.free[o].pop()?;
        while o > order {
            o -= 1;
            // Split: push the upper buddy, keep the lower half.
            let upper = PAddr(block.0 + block_bytes(o));
            self.free[o].push(upper);
        }
        self.mark(block, true);
        self.allocated_frames += 1 << order;
        Some(block)
    }

    /// Frees a block previously returned by [`Self::alloc_order`]
    /// (Self::alloc_order) with the same order, coalescing buddies.
    ///
    /// # Panics
    ///
    /// Panics on double free or foreign address.
    pub fn free_order(&mut self, block: PAddr, order: usize) {
        assert!(order <= MAX_ORDER);
        assert!(
            block.0 >= self.base.0
                && block.0 + block_bytes(order) <= self.base.0 + self.frames as u64 * PAGE_4K,
            "block {block} not owned by this allocator"
        );
        assert!(block.is_aligned(block_bytes(order)), "misaligned free of {block}");
        assert!(self.is_marked(block), "double free of {block}");
        self.mark(block, false);
        self.allocated_frames -= 1 << order;

        // Coalesce upward while the buddy is free. Buddy pairing is
        // absolute (`pa ^ size`), matching the absolute alignment the
        // seeding loop and the assert above enforce: with a base that is
        // not MAX_ORDER-aligned, base-relative pairing would put block
        // boundaries where no seeded block ever sits and freed frames
        // could never coalesce back to large blocks.
        let mut block = block;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = PAddr(block.0 ^ block_bytes(order));
            // The buddy must be entirely inside our range and present in
            // the free list of this order.
            if buddy.0 < self.base.0
                || buddy.0 + block_bytes(order) > self.base.0 + self.frames as u64 * PAGE_4K
            {
                break;
            }
            if let Some(pos) = self.free[order].iter().position(|&b| b == buddy) {
                self.free[order].swap_remove(pos);
                block = PAddr(block.0.min(buddy.0));
                order += 1;
            } else {
                break;
            }
        }
        self.free[order].push(block);
    }

    fn frame_index(&self, pa: PAddr) -> usize {
        ((pa.0 - self.base.0) / PAGE_4K) as usize
    }

    fn mark(&mut self, pa: PAddr, on: bool) {
        let i = self.frame_index(pa);
        let (w, b) = (i / 64, i % 64);
        if on {
            self.allocated[w] |= 1 << b;
        } else {
            self.allocated[w] &= !(1 << b);
        }
    }

    fn is_marked(&self, pa: PAddr) -> bool {
        let i = self.frame_index(pa);
        self.allocated[i / 64] & (1 << (i % 64)) != 0
    }
}

fn block_bytes(order: usize) -> u64 {
    PAGE_4K << order
}

impl FrameSource for BuddyAllocator {
    fn alloc_frame(&mut self) -> Option<PAddr> {
        self.alloc_order(0)
    }

    fn free_frame(&mut self, frame: PAddr) {
        self.free_order(frame, 0);
    }

    fn alloc_contiguous(&mut self, frames: usize) -> Option<PAddr> {
        if frames == 0 || frames > 1 << MAX_ORDER {
            return None;
        }
        let order = (usize::BITS - (frames - 1).leading_zeros()) as usize;
        let block = self.alloc_order(order)?;
        // Re-tag the block as `frames` order-0 allocations so each frame
        // is individually freeable (callers release range backings one
        // frame at a time), then hand the unused tail of the rounded-up
        // power-of-two block straight back.
        for i in 1..frames as u64 {
            self.mark(PAddr(block.0 + i * PAGE_4K), true);
        }
        for i in frames as u64..(1u64 << order) {
            let tail = PAddr(block.0 + i * PAGE_4K);
            // `free_order` unmarks the frame and decrements the count
            // `alloc_order` charged for it, so accounting nets out to
            // exactly `frames` held.
            self.mark(tail, true);
            self.free_order(tail, 0);
        }
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_distinct_aligned_blocks() {
        let mut a = BuddyAllocator::new(PAddr(0x10_0000), 64);
        let x = a.alloc_order(0).unwrap();
        let y = a.alloc_order(3).unwrap();
        assert_ne!(x, y);
        assert!(y.is_aligned(8 * PAGE_4K));
        assert_eq!(a.allocated_frames(), 9);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = BuddyAllocator::new(PAddr(0), 4);
        assert!(a.alloc_order(2).is_some());
        assert!(a.alloc_order(0).is_none());
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn free_coalesces_back_to_full_blocks() {
        let mut a = BuddyAllocator::new(PAddr(0), 16);
        let blocks: Vec<PAddr> = (0..16).map(|_| a.alloc_order(0).unwrap()).collect();
        assert!(a.alloc_order(0).is_none());
        for b in &blocks {
            a.free_order(*b, 0);
        }
        assert_eq!(a.free_frames(), 16);
        // Coalesced back: a 16-frame (order 4 > MAX? no, 4) block exists,
        // so an order-4 alloc succeeds.
        assert!(a.alloc_order(4).is_some());
    }

    #[test]
    fn split_and_refill() {
        let mut a = BuddyAllocator::new(PAddr(0), 1 << MAX_ORDER);
        let x = a.alloc_order(0).unwrap();
        assert_eq!(x, PAddr(0));
        a.free_order(x, 0);
        let y = a.alloc_order(MAX_ORDER).unwrap();
        assert_eq!(y, PAddr(0), "coalesced back to the maximal block");
    }

    #[test]
    fn conservation_audit_holds_through_a_mixed_workload() {
        let mut a = BuddyAllocator::new(PAddr(0x10_0000), 96);
        a.audit_conservation().unwrap();
        let mut held = Vec::new();
        for order in [0, 2, 0, 3, 1] {
            held.push((a.alloc_order(order).unwrap(), order));
            a.audit_conservation().unwrap();
        }
        let run = a.alloc_contiguous(5).unwrap();
        a.audit_conservation().unwrap();
        for (b, order) in held {
            a.free_order(b, order);
            a.audit_conservation().unwrap();
        }
        for i in 0..5 {
            a.free_order(PAddr(run.0 + i * PAGE_4K), 0);
        }
        a.audit_conservation().unwrap();
        assert_eq!(a.allocated_frames(), 0);
    }

    #[test]
    fn conservation_audit_detects_leaked_accounting() {
        let mut a = BuddyAllocator::new(PAddr(0), 16);
        a.alloc_order(0).unwrap();
        // Simulate a rollback path that dropped a frame: the count says
        // allocated, but we also corrupt the free total by faking an
        // extra allocated frame.
        a.allocated_frames += 1;
        let err = a.audit_conservation().unwrap_err();
        assert!(err.contains("conservation"), "{err}");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = BuddyAllocator::new(PAddr(0), 8);
        let x = a.alloc_order(0).unwrap();
        a.free_order(x, 0);
        a.free_order(x, 0);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_free_panics() {
        let mut a = BuddyAllocator::new(PAddr(0x1000), 8);
        a.free_order(PAddr(0x100_0000), 0);
    }

    #[test]
    fn frame_source_interface_works_with_page_table() {
        use veros_pagetable::{MapRequest, PageTableOps, Tracked, VerifiedPageTable};
        let mut mem = veros_hw::PhysMem::new(256);
        let mut a = BuddyAllocator::new(PAddr(0x10_000), 128);
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut a).unwrap();
        pt.map_frame(&mut mem, &mut a, MapRequest::rw_4k(0x1000, 0x8000))
            .unwrap();
        assert_eq!(a.allocated_frames(), 4);
        pt.unmap_frame(&mut mem, &mut a, veros_hw::VAddr(0x1000)).unwrap();
        assert_eq!(a.allocated_frames(), 1);
        pt.check_ghost(&mem).unwrap();
        pt.destroy(&mut mem, &mut a);
        assert_eq!(a.allocated_frames(), 0);
    }

    #[test]
    fn alloc_contiguous_is_contiguous_and_frame_freeable() {
        let mut a = BuddyAllocator::new(PAddr(0x10_0000), 64);
        let base = a.alloc_contiguous(5).unwrap();
        // Exactly 5 frames held, not the rounded-up power-of-two block.
        assert_eq!(a.allocated_frames(), 5);
        // No other allocation can land inside the run.
        for _ in 0..59 {
            if let Some(f) = a.alloc_frame() {
                assert!(f.0 < base.0 || f.0 >= base.0 + 5 * PAGE_4K);
                a.free_order(f, 0);
            }
        }
        // Each frame of the run is individually freeable and the space
        // coalesces back to the maximal block.
        for i in 0..5u64 {
            a.free_order(PAddr(base.0 + i * PAGE_4K), 0);
        }
        assert_eq!(a.free_frames(), 64);
        assert!(a.alloc_order(5).is_some(), "32-frame block re-formed");
    }

    #[test]
    fn alloc_contiguous_rejects_degenerate_sizes() {
        let mut a = BuddyAllocator::new(PAddr(0), 1 << MAX_ORDER);
        assert!(a.alloc_contiguous(0).is_none());
        assert!(a.alloc_contiguous((1 << MAX_ORDER) + 1).is_none());
        assert!(a.alloc_contiguous(1 << MAX_ORDER).is_some());
    }

    #[test]
    fn misaligned_base_coalesces_back_to_max_blocks() {
        // Regression: with a base that is 4 KiB- but not 2 MiB-aligned
        // (exactly how `VSpaceDispatch` sets its allocator up), freeing a
        // 512-frame run frame-by-frame must still coalesce back to an
        // order-9 block. Base-relative buddy pairing silently leaked one
        // maximal block per alloc/free cycle here.
        let mut a = BuddyAllocator::new(PAddr(16 * PAGE_4K), 8176);
        for cycle in 0..32 {
            let base = a
                .alloc_contiguous(512)
                .unwrap_or_else(|| panic!("cycle {cycle}: maximal blocks leaked"));
            for i in 0..512u64 {
                a.free_frame(PAddr(base.0 + i * PAGE_4K));
            }
            assert_eq!(a.allocated_frames(), 0);
        }
    }

    #[test]
    fn random_alloc_free_storm_preserves_accounting() {
        let mut rng = veros_spec::rng::SpecRng::seeded(11);
        let mut a = BuddyAllocator::new(PAddr(0), 512);
        let mut held: Vec<(PAddr, usize)> = Vec::new();
        for _ in 0..2000 {
            if rng.chance(1, 2) && !held.is_empty() {
                let i = rng.index(held.len());
                let (b, o) = held.swap_remove(i);
                a.free_order(b, o);
            } else {
                let o = rng.index(4);
                if let Some(b) = a.alloc_order(o) {
                    // No overlap with anything held.
                    for (ob, oo) in &held {
                        let (s1, e1) = (b.0, b.0 + block_bytes(o));
                        let (s2, e2) = (ob.0, ob.0 + block_bytes(*oo));
                        assert!(e1 <= s2 || e2 <= s1, "overlapping allocation");
                    }
                    held.push((b, o));
                }
            }
        }
        let held_frames: usize = held.iter().map(|(_, o)| 1 << o).sum();
        assert_eq!(a.allocated_frames(), held_frames);
        for (b, o) in held {
            a.free_order(b, o);
        }
        assert_eq!(a.free_frames(), 512);
        assert!(a.alloc_order(MAX_ORDER).is_some(), "fully coalesced");
    }
}
