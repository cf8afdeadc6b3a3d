//! The interpretation obligation: bits in memory ⇔ abstract map.
//!
//! "This correspondence represents the lion's share of the proof effort,
//! as it requires us to map from a multi-level tree structure encoded as
//! bits to a flat abstract data type" (Section 5). Here the MMU's
//! interpretation function ([`veros_hw::interpret_page_table`]) is run
//! over the implementation's in-memory table and compared, entry by
//! entry, against the high-level spec map — including the *effective*
//! permissions the hardware would accumulate along the walk.
//!
//! The TLB-coherence checks additionally verify the stale-translation
//! semantics: translations through a [`veros_hw::Machine`] match the
//! spec map provided the required invalidations were issued, and the
//! deliberately-missing-invlpg case is observably incoherent (a negative
//! check that the hardware model is not vacuously forgiving).

use veros_hw::{interpret_page_table, PAddr, PhysMem, VAddr};

use crate::high_spec::HighSpec;
use crate::ops::PtError;

/// Checks that the MMU's interpretation of the table rooted at `root`
/// equals `spec.map`, in both directions, with matching permissions.
pub fn interpretation_matches(mem: &PhysMem, root: PAddr, spec: &HighSpec) -> Result<(), String> {
    let interp = interpret_page_table(mem, root);
    if interp.len() != spec.map.len() {
        return Err(format!(
            "interpretation has {} mappings, spec has {}",
            interp.len(),
            spec.map.len()
        ));
    }
    for (va, m) in &spec.map {
        let Some(hw) = interp.get(&VAddr(*va)) else {
            return Err(format!("spec maps {va:#x} but the MMU does not"));
        };
        if hw.pa_base.0 != m.pa {
            return Err(format!(
                "{va:#x}: MMU translates to {} but spec says {:#x}",
                hw.pa_base, m.pa
            ));
        }
        if hw.size != m.size.bytes() {
            return Err(format!(
                "{va:#x}: MMU size {} != spec size {}",
                hw.size,
                m.size.bytes()
            ));
        }
        if hw.writable != m.flags.writable || hw.user != m.flags.user || hw.nx != m.flags.nx {
            return Err(format!(
                "{va:#x}: effective permissions (w={},u={},nx={}) != spec ({},{},{})",
                hw.writable, hw.user, hw.nx, m.flags.writable, m.flags.user, m.flags.nx
            ));
        }
    }
    Ok(())
}

/// Checks per-address translation: for each probe address, walking the
/// hardware table gives exactly what the spec's `resolve` gives.
pub fn walk_matches_resolve(
    mem: &PhysMem,
    root: PAddr,
    spec: &HighSpec,
    probes: &[VAddr],
) -> Result<(), String> {
    for &va in probes {
        let hw = veros_hw::walk(mem, root, va);
        let sp = spec.resolve(va);
        match (hw, sp) {
            (Ok(m), Ok(r)) => {
                if m.translate(va) != r.pa {
                    return Err(format!(
                        "{va}: walk gives {}, spec resolve gives {}",
                        m.translate(va),
                        r.pa
                    ));
                }
            }
            (Err(_), Err(PtError::NotMapped)) => {}
            (Err(veros_hw::WalkError::NonCanonical), Err(PtError::NonCanonical)) => {}
            (hw, sp) => {
                return Err(format!("{va}: walk {hw:?} vs spec resolve {sp:?}"));
            }
        }
    }
    Ok(())
}

/// TLB coherence: a machine that issues `invlpg` after every unmap (and
/// nothing after map, which only *adds* translations) always translates
/// according to the current spec map.
///
/// Returns the number of translations checked.
pub fn tlb_coherent_with_shootdown(seed: u64, steps: usize) -> Result<usize, String> {
    use crate::ops::{MapFlags, MapRequest, PageSize};
    use crate::PageTableOps;

    let mut rng = veros_spec::rng::SpecRng::seeded(seed);
    let mut machine = veros_hw::Machine::new(2048, 8);
    let mut alloc = veros_hw::StackFrameSource::new(
        PAddr(16 * veros_hw::PAGE_4K),
        PAddr(1024 * veros_hw::PAGE_4K),
    );
    let mut pt = crate::VerifiedPageTable::<crate::Erased>::new(&mut machine.mem, &mut alloc)
        .map_err(|e| e.to_string())?;
    machine.load_cr3(pt.root());
    machine.user_mode = false;
    let mut spec = HighSpec::new();
    let vas: Vec<u64> = (0..8).map(|i| 0x1000 * (i + 1)).collect();
    let mut checked = 0usize;

    for step in 0..steps {
        // Random mutation.
        let va = VAddr(*rng.choose(&vas));
        if rng.chance(1, 2) {
            let req = MapRequest {
                va,
                pa: PAddr((1024 + rng.below(512)) * veros_hw::PAGE_4K),
                size: PageSize::Size4K,
                flags: MapFlags {
                    writable: true,
                    user: false,
                    nx: true,
                },
            };
            let r = pt.map_frame(&mut machine.mem, &mut alloc, req);
            if r.is_ok() {
                spec.apply_map(&req).map_err(|e| format!("spec diverged: {e}"))?;
            }
        } else {
            let r = pt.unmap_frame(&mut machine.mem, &mut alloc, va);
            if r.is_ok() {
                spec.apply_unmap(va).map_err(|e| format!("spec diverged: {e}"))?;
                // The required shootdown.
                machine.tlb.invlpg(va);
            }
        }
        // Probe all addresses through the TLB-enabled machine.
        for &probe in &vas {
            let probe = VAddr(probe + rng.below(veros_hw::PAGE_4K));
            let hw = machine.translate(probe, veros_hw::AccessKind::Read);
            let sp = spec.resolve(probe);
            checked += 1;
            match (hw, sp) {
                (Ok(m), Ok(r)) => {
                    if m.translate(probe) != r.pa {
                        return Err(format!(
                            "step {step}: {probe} -> hw {} vs spec {}",
                            m.translate(probe),
                            r.pa
                        ));
                    }
                }
                (Err(_), Err(_)) => {}
                (hw, sp) => return Err(format!("step {step}: {probe} -> hw {hw:?} vs spec {sp:?}")),
            }
        }
    }
    Ok(checked)
}

/// The negative check: *without* the unmap shootdown the machine serves a
/// stale translation, i.e. the hardware model genuinely caches.
pub fn tlb_incoherent_without_shootdown() -> Result<(), String> {
    use crate::ops::MapRequest;
    use crate::PageTableOps;

    let mut machine = veros_hw::Machine::new(2048, 8);
    let mut alloc = veros_hw::StackFrameSource::new(
        PAddr(16 * veros_hw::PAGE_4K),
        PAddr(1024 * veros_hw::PAGE_4K),
    );
    let mut pt = crate::VerifiedPageTable::<crate::Erased>::new(&mut machine.mem, &mut alloc)
        .map_err(|e| e.to_string())?;
    machine.load_cr3(pt.root());
    machine.user_mode = false;
    let va = VAddr(0x1000);
    pt.map_frame(&mut machine.mem, &mut alloc, MapRequest::rw_4k(0x1000, 1024 * 4096))
        .map_err(|e| e.to_string())?;
    // Prime the TLB.
    machine
        .translate(va, veros_hw::AccessKind::Read)
        .map_err(|e| format!("{e:?}"))?;
    pt.unmap_frame(&mut machine.mem, &mut alloc, va)
        .map_err(|e| e.to_string())?;
    // No invlpg: the machine must still translate (staleness observed).
    match machine.translate(va, veros_hw::AccessKind::Read) {
        Ok(_) => Ok(()),
        Err(e) => Err(format!(
            "expected stale TLB hit after skipped shootdown, got fault {e:?} — the TLB model is vacuous"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MapRequest;
    use crate::refine::{differential_vs_spec, OpUniverse};
    use crate::{PageTableOps, Tracked, VerifiedPageTable};
    use veros_hw::StackFrameSource;

    #[test]
    fn interpretation_matches_simple_state() {
        let mut mem = PhysMem::new(1024);
        let mut alloc = StackFrameSource::new(PAddr(16 * 4096), PAddr(512 * 4096));
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let mut spec = HighSpec::new();
        for (va, pa) in [(0x1000u64, 0x8000u64), (0x2000, 0x9000), (0x40_0000, 0xa000)] {
            let req = MapRequest::rw_4k(va, pa);
            pt.map_frame(&mut mem, &mut alloc, req).unwrap();
            spec.apply_map(&req).unwrap();
        }
        interpretation_matches(&mem, pt.root(), &spec).unwrap();
        pt.check_ghost(&mem).unwrap();
    }

    #[test]
    fn interpretation_catches_divergence() {
        let mut mem = PhysMem::new(1024);
        let mut alloc = StackFrameSource::new(PAddr(16 * 4096), PAddr(512 * 4096));
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let mut spec = HighSpec::new();
        let req = MapRequest::rw_4k(0x1000, 0x8000);
        pt.map_frame(&mut mem, &mut alloc, req).unwrap();
        spec.apply_map(&req).unwrap();
        // Sabotage: spec thinks another page exists.
        spec.apply_map(&MapRequest::rw_4k(0x5000, 0x8000)).unwrap();
        assert!(interpretation_matches(&mem, pt.root(), &spec).is_err());
    }

    #[test]
    fn walk_matches_resolve_on_probes() {
        let mut mem = PhysMem::new(1024);
        let mut alloc = StackFrameSource::new(PAddr(16 * 4096), PAddr(512 * 4096));
        let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).unwrap();
        let mut spec = HighSpec::new();
        let req = MapRequest::rw_4k(0x1000, 0x8000);
        pt.map_frame(&mut mem, &mut alloc, req).unwrap();
        spec.apply_map(&req).unwrap();
        let probes: Vec<VAddr> = vec![
            VAddr(0x1000),
            VAddr(0x1fff),
            VAddr(0x2000),
            VAddr(0),
            VAddr(0x0000_8000_0000_0000),
        ];
        walk_matches_resolve(&mem, pt.root(), &spec, &probes).unwrap();
        pt.check_ghost(&mem).unwrap();
    }

    #[test]
    fn deep_differential_with_interpretation() {
        // Depth 2 with interpretation at every step — the quick version
        // of the heavyweight VC.
        differential_vs_spec::<VerifiedPageTable<Tracked>>(&OpUniverse::small(), 2, true)
            .unwrap();
    }

    #[test]
    fn tlb_checks() {
        let n = tlb_coherent_with_shootdown(3, 60).unwrap();
        assert!(n > 0);
        tlb_incoherent_without_shootdown().unwrap();
    }
}
