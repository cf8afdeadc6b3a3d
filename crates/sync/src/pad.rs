//! Cache-line padding for contended atomics.
//!
//! The shared log's tail and each replica's local tail, the lock's
//! per-reader flags, and an SPSC ring's head and tail are each written
//! by different threads; without padding they share cache lines and
//! every write invalidates its neighbours. `CachePadded<T>` aligns the
//! value to 128 bytes — two 64-byte lines, covering the adjacent-line
//! prefetcher on modern x86 — which is what NR's "per-reader flag on its
//! own cache line" design requires. In-tree replacement for
//! `crossbeam_utils::CachePadded`.

/// Pads and aligns `T` to 128 bytes so it occupies its own cache line(s).
#[derive(Debug)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Published;

    #[test]
    fn alignment_and_size() {
        assert!(std::mem::align_of::<CachePadded<Published>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<Published>>() >= 128);
    }

    #[test]
    fn deref_reaches_value() {
        let p = CachePadded::new(Published::new(7));
        p.store(9);
        assert_eq!(p.load(), 9);
    }

    #[test]
    fn adjacent_elements_do_not_share_lines() {
        let v: Vec<CachePadded<Published>> = (0..2)
            .map(|_| CachePadded::new(Published::new(0)))
            .collect();
        let a = &*v[0] as *const _ as usize;
        let b = &*v[1] as *const _ as usize;
        assert!(b - a >= 128);
    }
}
