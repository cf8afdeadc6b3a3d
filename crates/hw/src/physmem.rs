//! Simulated physical memory.
//!
//! Frame-granular, lazily materialized memory. The page-table walker, the
//! page-table implementations, and the kernel's frame allocator all
//! operate on this model. Accesses are bounds-checked; reading memory
//! that was never written returns zeros, matching RAM that the
//! environment guarantees to be zeroed.

use crate::addr::{PAddr, PAGE_4K};

/// A source of free 4 KiB frames.
///
/// The page-table implementation allocates directory frames through this
/// trait so it can run both against the simple test allocator here and
/// against the kernel's buddy allocator.
pub trait FrameSource {
    /// Allocates a zeroed, 4 KiB-aligned frame, or `None` when exhausted.
    fn alloc_frame(&mut self) -> Option<PAddr>;
    /// Returns a frame to the source.
    ///
    /// The frame must have come from `alloc_frame` and must not be used
    /// after being freed.
    fn free_frame(&mut self, frame: PAddr);

    /// Allocates `frames` physically contiguous 4 KiB frames, returning
    /// the base. Each frame is individually freeable with `free_frame`.
    ///
    /// Sources without contiguity support may decline any multi-frame
    /// request; the default declines everything beyond a single frame.
    fn alloc_contiguous(&mut self, frames: usize) -> Option<PAddr> {
        if frames == 1 {
            self.alloc_frame()
        } else {
            None
        }
    }
}

/// Byte-addressable simulated physical memory.
#[derive(Clone)]
pub struct PhysMem {
    frames: Vec<Option<Box<[u8; PAGE_4K as usize]>>>,
}

impl PhysMem {
    /// Creates a memory of `frames` 4 KiB frames, all zeroed.
    pub fn new(frames: usize) -> Self {
        Self {
            frames: (0..frames).map(|_| None).collect(),
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.frames.len() as u64 * PAGE_4K
    }

    /// True when `pa..pa+len` lies inside the memory.
    pub fn contains(&self, pa: PAddr, len: u64) -> bool {
        pa.0.checked_add(len).is_some_and(|end| end <= self.size())
    }

    fn frame_mut(&mut self, index: usize) -> &mut [u8; PAGE_4K as usize] {
        self.frames[index].get_or_insert_with(|| Box::new([0; PAGE_4K as usize]))
    }

    /// Reads `buf.len()` bytes starting at `pa`.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the memory — physical accesses in
    /// the model are issued by the kernel/walker, which must stay in
    /// bounds; going outside is a model bug, not a recoverable error.
    pub fn read_bytes(&self, pa: PAddr, buf: &mut [u8]) {
        assert!(
            self.contains(pa, buf.len() as u64),
            "physical read out of bounds: {pa} + {}",
            buf.len()
        );
        let mut off = 0usize;
        while off < buf.len() {
            let addr = pa.0 + off as u64;
            let frame = (addr / PAGE_4K) as usize;
            let inner = (addr % PAGE_4K) as usize;
            let chunk = ((PAGE_4K as usize) - inner).min(buf.len() - off);
            match &self.frames[frame] {
                Some(data) => buf[off..off + chunk].copy_from_slice(&data[inner..inner + chunk]),
                None => buf[off..off + chunk].fill(0),
            }
            off += chunk;
        }
    }

    /// Writes `buf` starting at `pa`.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the memory (see [`Self::read_bytes`]
    /// (Self::read_bytes)).
    pub fn write_bytes(&mut self, pa: PAddr, buf: &[u8]) {
        assert!(
            self.contains(pa, buf.len() as u64),
            "physical write out of bounds: {pa} + {}",
            buf.len()
        );
        let mut off = 0usize;
        while off < buf.len() {
            let addr = pa.0 + off as u64;
            let frame = (addr / PAGE_4K) as usize;
            let inner = (addr % PAGE_4K) as usize;
            let chunk = ((PAGE_4K as usize) - inner).min(buf.len() - off);
            self.frame_mut(frame)[inner..inner + chunk].copy_from_slice(&buf[off..off + chunk]);
            off += chunk;
        }
    }

    /// Reads a little-endian `u64` at `pa` (must be 8-byte aligned, as
    /// page-table entries are).
    pub fn read_u64(&self, pa: PAddr) -> u64 {
        debug_assert!(pa.is_aligned(8), "unaligned PTE read at {pa}");
        let mut b = [0u8; 8];
        self.read_bytes(pa, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `pa` (must be 8-byte aligned).
    pub fn write_u64(&mut self, pa: PAddr, value: u64) {
        debug_assert!(pa.is_aligned(8), "unaligned PTE write at {pa}");
        self.write_bytes(pa, &value.to_le_bytes());
    }

    /// Zeroes the 4 KiB frame containing `pa`.
    pub fn zero_frame(&mut self, pa: PAddr) {
        let frame = (pa.0 / PAGE_4K) as usize;
        assert!(frame < self.frames.len());
        self.frames[frame] = None;
    }

    /// Returns the number of frames that have been materialized (written
    /// at least once and not zeroed since). Used by tests to check the
    /// page table frees its directory frames.
    pub fn materialized_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }
}

/// A trivial stack-based frame source handing out frames from a fixed
/// physical range.
pub struct StackFrameSource {
    free: Vec<PAddr>,
    low: u64,
    high: u64,
}

impl StackFrameSource {
    /// Creates a source owning the frames in `[start, end)` (both 4 KiB
    /// aligned).
    pub fn new(start: PAddr, end: PAddr) -> Self {
        assert!(start.is_aligned(PAGE_4K) && end.is_aligned(PAGE_4K) && start <= end);
        let mut free: Vec<PAddr> = (start.0..end.0)
            .step_by(PAGE_4K as usize)
            .map(PAddr)
            .collect();
        free.reverse();
        Self {
            free,
            low: start.0,
            high: end.0,
        }
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }
}

impl FrameSource for StackFrameSource {
    fn alloc_frame(&mut self) -> Option<PAddr> {
        self.free.pop()
    }

    fn free_frame(&mut self, frame: PAddr) {
        assert!(
            frame.0 >= self.low && frame.0 < self.high && frame.is_aligned(PAGE_4K),
            "freed frame {frame} not owned by this source"
        );
        debug_assert!(!self.free.contains(&frame), "double free of {frame}");
        self.free.push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let m = PhysMem::new(4);
        let mut buf = [0xffu8; 16];
        m.read_bytes(PAddr(0x1000), &mut buf);
        assert_eq!(buf, [0; 16]);
        assert_eq!(m.read_u64(PAddr(0)), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = PhysMem::new(4);
        m.write_bytes(PAddr(0x10), b"hello world");
        let mut buf = [0u8; 11];
        m.read_bytes(PAddr(0x10), &mut buf);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn cross_frame_access_works() {
        let mut m = PhysMem::new(3);
        let data: Vec<u8> = (0..=255).collect();
        // Straddle the frame boundary at 0x1000.
        m.write_bytes(PAddr(0x1000 - 100), &data);
        let mut buf = vec![0u8; 256];
        m.read_bytes(PAddr(0x1000 - 100), &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn u64_round_trip_is_little_endian() {
        let mut m = PhysMem::new(1);
        m.write_u64(PAddr(8), 0x0102_0304_0506_0708);
        let mut b = [0u8; 8];
        m.read_bytes(PAddr(8), &mut b);
        assert_eq!(b, [8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(m.read_u64(PAddr(8)), 0x0102_0304_0506_0708);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let m = PhysMem::new(1);
        let mut buf = [0u8; 8];
        m.read_bytes(PAddr(PAGE_4K - 4), &mut buf);
    }

    #[test]
    fn zero_frame_releases_storage() {
        let mut m = PhysMem::new(2);
        m.write_u64(PAddr(0x1000), 7);
        assert_eq!(m.materialized_frames(), 1);
        m.zero_frame(PAddr(0x1008));
        assert_eq!(m.materialized_frames(), 0);
        assert_eq!(m.read_u64(PAddr(0x1000)), 0);
    }

    #[test]
    fn stack_source_allocates_each_frame_once() {
        let mut s = StackFrameSource::new(PAddr(0x1000), PAddr(0x4000));
        assert_eq!(s.free_frames(), 3);
        let a = s.alloc_frame().unwrap();
        let b = s.alloc_frame().unwrap();
        let c = s.alloc_frame().unwrap();
        assert!(s.alloc_frame().is_none());
        let mut got = [a.0, b.0, c.0];
        got.sort();
        assert_eq!(got, [0x1000, 0x2000, 0x3000]);
        s.free_frame(b);
        assert_eq!(s.alloc_frame().unwrap(), b);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn freeing_foreign_frame_panics() {
        let mut s = StackFrameSource::new(PAddr(0x1000), PAddr(0x2000));
        s.free_frame(PAddr(0x8000));
    }
}
