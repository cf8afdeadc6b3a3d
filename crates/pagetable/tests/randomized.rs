//! Randomized tests of the page-table layers: the high-level spec's
//! algebraic laws and the implementation's agreement with it on
//! arbitrary operation sequences, driven by the in-tree deterministic
//! [`SpecRng`] (formerly proptest-based).

use veros_spec::rng::SpecRng;
use veros_hw::{PAddr, PhysMem, StackFrameSource, VAddr, PAGE_4K};
use veros_pagetable::high_spec::HighSpec;
use veros_pagetable::prefix_tree::PrefixTree;
use veros_pagetable::{
    Erased, MapFlags, MapRequest, PageSize, PageTableOps, PtError, Tracked, VerifiedPageTable,
};

fn arbitrary_size(rng: &mut SpecRng) -> PageSize {
    // Weighted 4:2:1 toward small pages, as the proptest strategy was.
    match rng.below(7) {
        0..=3 => PageSize::Size4K,
        4 | 5 => PageSize::Size2M,
        _ => PageSize::Size1G,
    }
}

fn arbitrary_request(rng: &mut SpecRng) -> MapRequest {
    let size = arbitrary_size(rng);
    let (l4, l3, l2, l1) = (rng.index(4), rng.index(8), rng.index(8), rng.index(8));
    let va = VAddr(VAddr::from_indices(l4, l3, l2, l1).0 & !(size.bytes() - 1));
    MapRequest {
        va,
        pa: PAddr(rng.below(64) * size.bytes()),
        size,
        flags: MapFlags {
            writable: rng.chance(1, 2),
            user: rng.chance(1, 2),
            nx: rng.chance(1, 2),
        },
    }
}

/// map then unmap of the same base is the identity on the spec map, and
/// unmap returns exactly what map installed.
#[test]
fn map_unmap_identity() {
    let mut rng = SpecRng::for_obligation("pt::tests::map_unmap_identity");
    for _ in 0..128 {
        let req = arbitrary_request(&mut rng);
        let mut s = HighSpec::new();
        for _ in 0..rng.index(6) {
            let n = arbitrary_request(&mut rng);
            let _ = s.apply_map(&n);
        }
        let before = s.clone();
        if s.apply_map(&req).is_ok() {
            let m = s.apply_unmap(req.va).expect("just mapped");
            assert_eq!(m.pa, req.pa.0);
            assert_eq!(m.size, req.size);
            assert_eq!(m.flags, req.flags);
            assert_eq!(s, before);
        }
    }
}

/// Resolve agrees with map contents: after a successful map, every
/// probed offset inside the mapping translates with that offset.
#[test]
fn resolve_is_translation() {
    let mut rng = SpecRng::for_obligation("pt::tests::resolve_is_translation");
    for _ in 0..128 {
        let req = arbitrary_request(&mut rng);
        let mut s = HighSpec::new();
        if s.apply_map(&req).is_ok() {
            let off = rng.below(1 << 21) % req.size.bytes();
            let r = s.resolve(VAddr(req.va.0 + off)).expect("mapped");
            assert_eq!(r.pa.0, req.pa.0 + off);
            assert_eq!(r.base, req.va);
        }
    }
}

/// Overlap is symmetric: if A then B fails with AlreadyMapped, then B
/// then A also fails with AlreadyMapped.
#[test]
fn overlap_symmetric() {
    let mut rng = SpecRng::for_obligation("pt::tests::overlap_symmetric");
    for _ in 0..256 {
        let a = arbitrary_request(&mut rng);
        let b = arbitrary_request(&mut rng);
        let mut s1 = HighSpec::new();
        let mut s2 = HighSpec::new();
        if s1.apply_map(&a).is_ok() && s2.apply_map(&b).is_ok() {
            let ab = s1.apply_map(&b);
            let ba = s2.apply_map(&a);
            assert_eq!(
                ab == Err(PtError::AlreadyMapped),
                ba == Err(PtError::AlreadyMapped),
                "A={a:?} B={b:?}"
            );
        }
    }
}

/// The prefix tree and the flat spec agree on arbitrary request
/// sequences (the first refinement step, randomized).
#[test]
fn tree_flat_agree() {
    let mut rng = SpecRng::for_obligation("pt::tests::tree_flat_agree");
    for _ in 0..48 {
        let mut tree = PrefixTree::new();
        let mut flat = HighSpec::new();
        for i in 0..rng.index(24) {
            let req = arbitrary_request(&mut rng);
            let a = tree.map(&req);
            let b = flat.apply_map(&req);
            assert_eq!(a, b, "req {i}");
            assert!(tree.wf());
        }
        assert_eq!(tree.flatten(), flat.map);
    }
}

/// The bit-level implementation agrees with the flat spec, and the MMU
/// interpretation matches, on arbitrary request sequences with
/// interleaved unmaps.
#[test]
fn impl_spec_agree() {
    let mut rng = SpecRng::for_obligation("pt::tests::impl_spec_agree");
    for _ in 0..48 {
        let mut mem = PhysMem::new(2048);
        let mut alloc = StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(2048 * PAGE_4K));
        let mut pt =
            VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).expect("root frame allocates");
        let mut spec = HighSpec::new();
        for _ in 0..rng.index(16) {
            let req = arbitrary_request(&mut rng);
            let a = pt.map_frame(&mut mem, &mut alloc, req);
            let b = spec.apply_map(&req);
            assert_eq!(a, b);
            if rng.chance(1, 2) {
                let a = pt.unmap_frame(&mut mem, &mut alloc, req.va).map(|m| (m.pa, m.size));
                let b = spec.apply_unmap(req.va).map(|m| (m.pa, m.size));
                assert_eq!(a, b);
            }
        }
        veros_pagetable::interp::interpretation_matches(&mem, pt.root(), &spec)
            .expect("interpretation matches spec");
        pt.check_ghost(&mem).expect("ghost moved in lock-step");
    }
}

/// Frame accounting: after unmapping everything, only the root frame
/// remains allocated, regardless of the sequence.
#[test]
fn no_frame_leaks() {
    let mut rng = SpecRng::for_obligation("pt::tests::no_frame_leaks");
    for _ in 0..48 {
        let mut mem = PhysMem::new(2048);
        let mut alloc = StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(2048 * PAGE_4K));
        let before = alloc.free_frames();
        let mut pt =
            VerifiedPageTable::<Erased>::new(&mut mem, &mut alloc).expect("root frame allocates");
        let mut mapped = Vec::new();
        for _ in 0..rng.index(12) {
            let req = arbitrary_request(&mut rng);
            if pt.map_frame(&mut mem, &mut alloc, req).is_ok() {
                mapped.push(req.va);
            }
        }
        for va in mapped {
            pt.unmap_frame(&mut mem, &mut alloc, va).expect("mapped above");
        }
        assert_eq!(alloc.free_frames(), before - 1, "only the root may remain");
    }
}
