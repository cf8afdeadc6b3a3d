//! Bounded differential refinement of the implementations.
//!
//! The prefix-tree → flat-map step is checked by genuine forward
//! simulation ([`crate::prefix_tree::TreeToFlat`]). The implementation →
//! prefix-tree step involves states (physical memory contents) that are
//! too heavy to hash into an explored state set, so it is checked
//! *differentially*: enumerate every operation sequence from a finite
//! universe up to a depth bound, apply it in lock-step to the
//! implementation and to the spec, and require identical observable
//! results at every step. For a deterministic implementation this is
//! exactly bounded refinement checking; the bounds are part of the VC
//! record.

use veros_hw::{PAddr, PhysMem, StackFrameSource, VAddr, PAGE_4K};

use crate::high_spec::HighSpec;
use crate::ops::{MapFlags, MapRequest, PageSize, PtError, PtOp};
use crate::{PageTableOps, UnverifiedPageTable, VerifiedPageTable};

/// Which implementation to check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Impl {
    /// The layered, ghost-carrying implementation.
    Verified,
    /// The NrOS-style baseline.
    Unverified,
}

/// A finite operation universe for bounded checking.
#[derive(Clone, Debug)]
pub struct OpUniverse {
    /// The candidate operations.
    pub ops: Vec<PtOp>,
}

impl OpUniverse {
    /// A universe exercising all three sizes, conflicts, boundary
    /// indices, and both halves of the canonical space.
    pub fn rich() -> Self {
        let mut ops = vec![
            PtOp::Map(MapRequest::rw_4k(0x1000, 0x8000)),
            PtOp::Map(MapRequest::rw_4k(0x2000, 0x9000)),
            PtOp::Map(MapRequest {
                va: VAddr(0x20_0000),
                pa: PAddr(0x40_0000),
                size: PageSize::Size2M,
                flags: MapFlags::user_ro(),
            }),
            // Conflicts with the 2 MiB page above once mapped.
            PtOp::Map(MapRequest::rw_4k(0x20_1000, 0xa000)),
            PtOp::Map(MapRequest {
                va: VAddr(0x4000_0000),
                pa: PAddr(0x8000_0000),
                size: PageSize::Size1G,
                flags: MapFlags::kernel_rw(),
            }),
            // High-half kernel mapping.
            PtOp::Map(MapRequest {
                va: VAddr(0xffff_8000_0000_0000),
                pa: PAddr(0xb000),
                size: PageSize::Size4K,
                flags: MapFlags::kernel_rw(),
            }),
        ];
        for va in [
            0x1000u64,
            0x2000,
            0x20_0000,
            0x20_1000,
            0x4000_0000,
            0xffff_8000_0000_0000,
        ] {
            ops.push(PtOp::Unmap(VAddr(va)));
            ops.push(PtOp::Resolve(VAddr(va + 0x123)));
        }
        Self { ops }
    }

    /// A smaller universe for quick (debug-profile) runs.
    pub fn small() -> Self {
        let ops = vec![
            PtOp::Map(MapRequest::rw_4k(0x1000, 0x8000)),
            PtOp::Map(MapRequest {
                va: VAddr(0x20_0000),
                pa: PAddr(0x40_0000),
                size: PageSize::Size2M,
                flags: MapFlags::user_rw(),
            }),
            PtOp::Map(MapRequest::rw_4k(0x20_1000, 0xa000)),
            PtOp::Unmap(VAddr(0x1000)),
            PtOp::Unmap(VAddr(0x20_0000)),
            PtOp::Resolve(VAddr(0x1080)),
            PtOp::Resolve(VAddr(0x20_0040)),
        ];
        Self { ops }
    }
}

/// The table under check: exactly one of the two implementations.
enum Table {
    Verified(VerifiedPageTable),
    Unverified(UnverifiedPageTable),
}

impl Table {
    fn ops(&mut self) -> &mut dyn PageTableOps {
        match self {
            Table::Verified(v) => v,
            Table::Unverified(u) => u,
        }
    }

    fn root(&self) -> PAddr {
        match self {
            Table::Verified(v) => v.root(),
            Table::Unverified(u) => u.root(),
        }
    }
}

struct World {
    mem: PhysMem,
    alloc: StackFrameSource,
    table: Table,
}

#[expect(
    clippy::expect_used,
    reason = "checker-harness setup: the fresh 1024-frame arena always has \
              a root frame, and an allocation failure here is a harness bug, \
              not a result"
)]
fn fresh_world(which: Impl) -> World {
    let mut mem = PhysMem::new(1024);
    let mut alloc = StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(1024 * PAGE_4K));
    let table = match which {
        Impl::Verified => {
            Table::Verified(VerifiedPageTable::new(&mut mem, &mut alloc, true).expect("root frame"))
        }
        Impl::Unverified => {
            Table::Unverified(UnverifiedPageTable::new(&mut mem, &mut alloc).expect("root frame"))
        }
    };
    World { mem, alloc, table }
}

fn apply_impl(world: &mut World, op: &PtOp) -> Result<Option<crate::ops::ResolveAnswer>, PtError> {
    let World { mem, alloc, table } = world;
    let pt = table.ops();
    match op {
        PtOp::Map(req) => pt.map_frame(mem, alloc, *req).map(|()| None),
        PtOp::Unmap(va) => pt.unmap_frame(mem, alloc, *va).map(|m| {
            Some(crate::ops::ResolveAnswer {
                pa: PAddr(m.pa),
                base: *va,
                size: m.size,
                flags: m.flags,
            })
        }),
        PtOp::Resolve(va) => pt.resolve(mem, *va).map(Some),
    }
}

/// Enumerates every op sequence of length `depth` from `universe`
/// (by replay — the implementation is deterministic) and checks that the
/// implementation's observable behaviour matches the high-level spec at
/// every step: same `Ok`/`Err` with the same payload, and after every
/// step the MMU interpretation of the in-memory table equals the spec
/// map.
///
/// Returns the number of `(sequence, step)` checks performed.
pub fn differential_vs_spec(
    which: Impl,
    universe: &OpUniverse,
    depth: usize,
    check_interp_each_step: bool,
) -> Result<usize, String> {
    let mut checks = 0usize;
    let n = universe.ops.len();
    let mut seq = vec![0usize; depth];
    loop {
        // Replay this sequence.
        let mut world = fresh_world(which);
        let mut spec = HighSpec::new();
        for (step, &op_idx) in seq.iter().enumerate() {
            let op = &universe.ops[op_idx];
            let got = apply_impl(&mut world, op);
            let want = spec.apply(op);
            checks += 1;
            if got != want {
                return Err(format!(
                    "step {step} of {seq:?}: op {op:?} -> impl {got:?}, spec {want:?}"
                ));
            }
            if check_interp_each_step {
                crate::interp::interpretation_matches(&world.mem, world.table.root(), &spec)
                    .map_err(|e| format!("after step {step} of {seq:?}: {e}"))?;
            }
        }
        // Next sequence in lexicographic order.
        let mut i = depth;
        loop {
            if i == 0 {
                return Ok(checks);
            }
            i -= 1;
            seq[i] += 1;
            if seq[i] < n {
                break;
            }
            seq[i] = 0;
        }
    }
}

/// Randomized long-run differential check: applies `steps` random ops
/// from a generated universe to the implementation and the spec,
/// verifying observable equality (and final interpretation equality).
pub fn randomized_vs_spec(which: Impl, seed: u64, steps: usize) -> Result<usize, String> {
    randomized_audit(which, seed, steps, 0, 0)
}

/// Like [`randomized_vs_spec`], additionally re-checking the MMU
/// interpretation every `interp_every` steps and the structural
/// invariants every `structure_every` steps (0 disables the periodic
/// check; both always run once at the end).
pub fn randomized_audit(
    which: Impl,
    seed: u64,
    steps: usize,
    interp_every: usize,
    structure_every: usize,
) -> Result<usize, String> {
    let mut rng = veros_spec::rng::SpecRng::seeded(seed);
    let mut world = fresh_world(which);
    let mut spec = HighSpec::new();
    // A pool of virtual bases across subtrees, plus sizes.
    let vas: Vec<u64> = (0..24)
        .map(|i| {
            let l4 = [0u64, 1, 255, 256, 300][i % 5];
            let l3 = (i as u64 * 7) % 512;
            let l2 = (i as u64 * 13) % 512;
            let l1 = (i as u64 * 29) % 512;
            VAddr::from_indices(l4 as usize, l3 as usize, l2 as usize, l1 as usize).0
        })
        .collect();
    for step in 0..steps {
        let op = match rng.below(10) {
            0..=4 => {
                let va = *rng.choose(&vas);
                let size = match rng.below(12) {
                    0 => PageSize::Size1G,
                    1 | 2 => PageSize::Size2M,
                    _ => PageSize::Size4K,
                };
                let va = va & !(size.bytes() - 1);
                // Keep high-half addresses canonical after alignment.
                let pa = rng.below(1 << 20) * size.bytes() % (1 << 40);
                let flags = *rng.choose(&MapFlags::all_combinations());
                PtOp::Map(MapRequest {
                    va: VAddr(va),
                    pa: PAddr(pa & !(size.bytes() - 1)),
                    size,
                    flags,
                })
            }
            5..=7 => {
                // Unmap an existing base half the time, a random one
                // otherwise.
                if rng.chance(1, 2) && !spec.map.is_empty() {
                    let keys: Vec<u64> = spec.map.keys().copied().collect();
                    PtOp::Unmap(VAddr(*rng.choose(&keys)))
                } else {
                    PtOp::Unmap(VAddr(*rng.choose(&vas)))
                }
            }
            _ => PtOp::Resolve(VAddr(rng.choose(&vas) + rng.below(PAGE_4K))),
        };
        let got = apply_impl(&mut world, &op);
        let want = spec.apply(&op);
        if got != want {
            return Err(format!(
                "seed {seed} step {step}: op {op:?} -> impl {got:?}, spec {want:?}"
            ));
        }
        let root = world.table.root();
        if interp_every != 0 && step % interp_every == 0 {
            crate::interp::interpretation_matches(&world.mem, root, &spec)
                .map_err(|e| format!("seed {seed} step {step} interpretation: {e}"))?;
        }
        if structure_every != 0 && step % structure_every == 0 {
            crate::invariants::check_structure(&world.mem, root)
                .map_err(|e| format!("seed {seed} step {step} structure: {e}"))?;
        }
    }
    let root = world.table.root();
    crate::interp::interpretation_matches(&world.mem, root, &spec)
        .map_err(|e| format!("seed {seed} final interpretation: {e}"))?;
    crate::invariants::check_structure(&world.mem, root)
        .map_err(|e| format!("seed {seed} final structure: {e}"))?;
    if let Table::Verified(v) = &world.table {
        // View correspondence: the implementation's ghost view (the
        // paper's `view()`) is exactly the spec map.
        #[expect(
            clippy::expect_used,
            reason = "`fresh_world` constructed the verified table with audit \
                      mode on, so the ghost view exists"
        )]
        let ghost = v.ghost().expect("audit mode");
        if ghost.flatten() != spec.map {
            return Err(format!("seed {seed}: ghost view diverged from spec map"));
        }
        if !ghost.wf() {
            return Err(format!("seed {seed}: ghost tree not well-formed"));
        }
    }
    Ok(steps)
}

/// Differential check of the two implementations against each other:
/// identical op sequences must produce identical results and identical
/// MMU interpretations (this is the "verified == unverified semantics"
/// claim underlying the Fig 1b/1c comparison).
pub fn verified_vs_unverified(seed: u64, steps: usize) -> Result<(), String> {
    let mut rng_a = veros_spec::rng::SpecRng::seeded(seed);
    // Drive both from the same op stream by regenerating with the same
    // seed through the spec-guided generator: reuse randomized_vs_spec's
    // logic indirectly by comparing both against the spec.
    randomized_vs_spec(Impl::Verified, seed, steps)?;
    randomized_vs_spec(Impl::Unverified, seed, steps)?;
    let _ = &mut rng_a;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_differential_small_depth2() {
        let n = differential_vs_spec(Impl::Verified, &OpUniverse::small(), 2, true).unwrap();
        assert_eq!(n, 7 * 7 * 2);
    }

    #[test]
    fn bounded_differential_unverified_depth2() {
        differential_vs_spec(Impl::Unverified, &OpUniverse::small(), 2, true).unwrap();
    }

    #[test]
    fn bounded_differential_depth3_no_interp() {
        // Depth 3 over the small universe, result-equality only (the
        // per-step interpretation is the expensive part).
        differential_vs_spec(Impl::Verified, &OpUniverse::small(), 3, false).unwrap();
    }

    #[test]
    fn randomized_differential_short() {
        randomized_vs_spec(Impl::Verified, 1, 200).unwrap();
        randomized_vs_spec(Impl::Unverified, 1, 200).unwrap();
    }

    #[test]
    fn implementations_agree() {
        verified_vs_unverified(7, 150).unwrap();
    }
}
