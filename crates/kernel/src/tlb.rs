//! A software translation cache in front of [`crate::vspace::VSpace`]'s
//! resolve path — the model analogue of the TLB, built the way NrOS
//! builds read-side fast paths: lock-free, atomics only, safe under any
//! number of concurrent readers.
//!
//! # Structure
//!
//! A direct-mapped array of `SLOTS` entries keyed by the 4 KiB page of
//! the queried address. Each slot is a [`SeqSlot`] holding a `[page,
//! data, fill_epoch]` triple, so a lookup never combines the page key
//! of one fill with the data of another, and a never-filled slot reads
//! as empty rather than as page 0.
//!
//! # Invalidation
//!
//! A single global epoch (a [`Published`] word), bumped on every
//! unmap. Lookups compare the slot's fill-time epoch against the
//! current one, so one bump invalidates the whole cache in O(1). Maps
//! never invalidate: a successful map cannot change an existing
//! translation (overlapping maps are rejected with `AlreadyMapped`) and
//! negative results are never cached, so every cached entry stays
//! correct across maps.
//!
//! # Why fills stamp the epoch read *before* the walk
//!
//! [`TranslationCache::fill`] stores the epoch its caller observed
//! before walking the page table, not the epoch at fill time. If an
//! invalidation lands between walk and fill, the entry is born already
//! stale-marked (its epoch can never match again) instead of masking
//! the unmap. `VSpace` itself cannot hit that window — mutation takes
//! `&mut self` while resolves take `&self`, so Rust's aliasing rules
//! serialize them — but the cache's own API is `&self` throughout and
//! stays correct even under fully concurrent lookup/fill/invalidate
//! traffic; the `translation_cache_coherent` verification condition and
//! the threaded test below exercise exactly that contract.

use veros_hw::{PAddr, VAddr};
use veros_pagetable::{MapFlags, PageSize, ResolveAnswer};
use veros_sync::{Published, SeqSlot};

/// Number of direct-mapped slots. A power of two so the index is a mask.
const SLOTS: usize = 128;

/// Packs a successful resolve into one word. The mapping's physical
/// base is at least 4 KiB-aligned, so its low 12 bits are free for the
/// size tag (bits 4-5) and flag bits (0-2).
fn pack(va: u64, ans: &ResolveAnswer) -> u64 {
    let mapping_pa_base = ans.pa.0 - (va - ans.base.0);
    let tag: u64 = match ans.size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    mapping_pa_base
        | (tag << 4)
        | (u64::from(ans.flags.writable) << 2)
        | (u64::from(ans.flags.user) << 1)
        | u64::from(ans.flags.nx)
}

/// Reconstructs the resolve answer for `va` from a packed word. The
/// mapping base follows from `va` and the size, so answers for every
/// offset within the cached page come out exact.
fn unpack(va: u64, data: u64) -> ResolveAnswer {
    let size = match (data >> 4) & 0x3 {
        0 => PageSize::Size4K,
        1 => PageSize::Size2M,
        _ => PageSize::Size1G,
    };
    let base = va & !(size.bytes() - 1);
    ResolveAnswer {
        pa: PAddr((data & !0xfff) + (va - base)),
        base: VAddr(base),
        size,
        flags: MapFlags {
            writable: data & 0b100 != 0,
            user: data & 0b010 != 0,
            nx: data & 0b001 != 0,
        },
    }
}

/// The per-address-space translation cache.
pub struct TranslationCache {
    /// `[page key (va >> 12), packed answer (see [`pack`]), the cache
    /// epoch the filler observed before its walk]`.
    slots: Vec<SeqSlot<3>>,
    epoch: Published,
}

impl Default for TranslationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TranslationCache {
    /// An empty cache.
    pub fn new() -> Self {
        TranslationCache {
            slots: (0..SLOTS).map(|_| SeqSlot::new()).collect(),
            epoch: Published::new(0),
        }
    }

    /// The current invalidation epoch. Read this *before* walking the
    /// page table and hand it to [`fill`](Self::fill).
    pub fn epoch(&self) -> u64 {
        self.epoch.load()
    }

    /// Invalidates every cached translation in O(1).
    pub fn invalidate_all(&self) {
        self.epoch.fetch_add(1);
    }

    /// Looks `va` up; `Some` only if a stable, current-epoch entry for
    /// its page exists.
    pub fn lookup(&self, va: VAddr) -> Option<ResolveAnswer> {
        let page = va.0 >> 12;
        let [k, d, e] = self.slots[(page as usize) & (SLOTS - 1)].read()?;
        if k != page || e != self.epoch.load() {
            return None;
        }
        Some(unpack(va.0, d))
    }

    /// Publishes a walk result for `va`. `epoch_at_walk` must be the
    /// value [`epoch`](Self::epoch) returned before the walk started.
    /// Fills never block: if another fill owns the slot, this one is
    /// dropped — losing a cache fill is always safe.
    pub fn fill(&self, va: VAddr, ans: &ResolveAnswer, epoch_at_walk: u64) {
        let page = va.0 >> 12;
        let slot = &self.slots[(page as usize) & (SLOTS - 1)];
        slot.try_write([page, pack(va.0, ans), epoch_at_walk]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer_4k(va: u64, pa: u64) -> ResolveAnswer {
        ResolveAnswer {
            pa: PAddr(pa + (va & 0xfff)),
            base: VAddr(va & !0xfff),
            size: PageSize::Size4K,
            flags: MapFlags::user_rw(),
        }
    }

    #[test]
    fn fill_then_lookup_round_trips() {
        let c = TranslationCache::new();
        let va = VAddr(0x4000_0123);
        let ans = answer_4k(va.0, 0x8000);
        assert!(c.lookup(va).is_none());
        c.fill(va, &ans, c.epoch());
        assert_eq!(c.lookup(va), Some(ans));
        // Another offset in the same page reconstructs its own pa.
        let got = c.lookup(VAddr(0x4000_0fff)).unwrap();
        assert_eq!(got.pa, PAddr(0x8fff));
    }

    #[test]
    fn pack_round_trips_all_sizes_and_flags() {
        for size in PageSize::all() {
            for flags in MapFlags::all_combinations() {
                let base = 3 * size.bytes(); // size-aligned va base
                let va = base + size.bytes() / 2 + 5;
                let ans = ResolveAnswer {
                    pa: PAddr(7 * size.bytes() + size.bytes() / 2 + 5),
                    base: VAddr(base),
                    size,
                    flags,
                };
                assert_eq!(unpack(va, pack(va, &ans)), ans);
            }
        }
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let c = TranslationCache::new();
        for i in 0..SLOTS as u64 {
            let va = VAddr(i << 12);
            c.fill(va, &answer_4k(va.0, 0x10_0000 + (i << 12)), c.epoch());
        }
        assert!(c.lookup(VAddr(5 << 12)).is_some());
        c.invalidate_all();
        for i in 0..SLOTS as u64 {
            assert!(c.lookup(VAddr(i << 12)).is_none(), "slot {i} survived");
        }
    }

    #[test]
    fn stale_epoch_fill_is_stillborn() {
        let c = TranslationCache::new();
        let va = VAddr(0x7000);
        let old = c.epoch();
        c.invalidate_all(); // an unmap lands between walk and fill
        c.fill(va, &answer_4k(va.0, 0x8000), old);
        assert!(c.lookup(va).is_none(), "pre-invalidation walk must not stick");
    }

    #[test]
    fn colliding_pages_evict_not_corrupt() {
        let c = TranslationCache::new();
        let a = VAddr(0x3000);
        let b = VAddr(0x3000 + ((SLOTS as u64) << 12)); // same slot, different page
        c.fill(a, &answer_4k(a.0, 0x10_0000), c.epoch());
        c.fill(b, &answer_4k(b.0, 0x20_0000), c.epoch());
        assert!(c.lookup(a).is_none(), "evicted, never wrong");
        assert_eq!(c.lookup(b).unwrap().pa, PAddr(0x20_0000));
    }

    #[test]
    fn concurrent_lookup_fill_invalidate_never_serves_garbage() {
        use std::sync::Arc;
        // Ground truth: page p maps to pa 0x100_0000 + (p << 12). Fillers
        // publish true answers, an invalidator bumps the epoch, readers
        // assert any hit is the truth — regardless of interleaving.
        let c = Arc::new(TranslationCache::new());
        // The seqlock's races show up within a few hundred fills; the
        // long native run is for schedule variety Miri does not need.
        #[cfg(miri)]
        const FILLS: u64 = 500;
        #[cfg(not(miri))]
        const FILLS: u64 = 20_000;
        #[cfg(miri)]
        const INVALIDATES: u64 = 100;
        #[cfg(not(miri))]
        const INVALIDATES: u64 = 5_000;
        let pages = 4 * SLOTS as u64;
        let truth = move |page: u64| answer_4k(page << 12, 0x100_0000 + (page << 12));
        let mut handles = Vec::new();
        for t in 0..2 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..FILLS {
                    let page = (i * 7 + t * 13) % pages;
                    let e = c.epoch();
                    c.fill(VAddr(page << 12), &truth(page), e);
                }
            }));
        }
        {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..INVALIDATES {
                    c.invalidate_all();
                }
            }));
        }
        for t in 0..2u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..40_000u64 {
                    let page = (i * 3 + t * 11) % pages;
                    let va = VAddr((page << 12) | 0x123);
                    if let Some(ans) = c.lookup(va) {
                        let want = ResolveAnswer {
                            pa: PAddr(0x100_0000 + (page << 12) + 0x123),
                            ..truth(page)
                        };
                        assert_eq!(ans, want, "hit disagrees with ground truth");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
