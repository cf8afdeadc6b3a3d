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
//! record. The randomized checks also make range calls, against the
//! per-page loop [`PageTableOps`]'s default bodies state. Every check is
//! generic over the table and fails on a ghost divergence the table
//! recorded ([`PageTableOps::check_ghost_steps`]); the randomized ones,
//! and the bounded ones that interpret every step, also check the ghost
//! view ([`PageTableOps::check_ghost`]).

use veros_hw::{interpret_page_table, PAddr, PhysMem, StackFrameSource, VAddr, PAGE_4K};
use veros_spec::rng::SpecRng;

use crate::high_spec::{AbsMapping, HighSpec};
use crate::ops::{MapFlags, MapRequest, PageSize, PtError, PtOp, ResolveAnswer};
use crate::{PageTableOps, Tracked, UnverifiedPageTable, VerifiedPageTable};

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

/// One step of a check: a single-page [`PtOp`], or one of the two range
/// calls.
#[derive(Clone, Copy, Debug)]
enum Step {
    Op(PtOp),
    MapRange(MapRequest, u64),
    UnmapRange(VAddr, u64),
}

/// What a step returns: a resolve's answer, or for each mapping an unmap
/// removed the answer a resolve of its base gave (nothing for a map).
type Observed = Result<Vec<ResolveAnswer>, PtError>;

fn removed(base: VAddr, m: AbsMapping) -> ResolveAnswer {
    ResolveAnswer {
        pa: PAddr(m.pa),
        base,
        size: m.size,
        flags: m.flags,
    }
}

/// The spec's answer to `step`. A range call is the per-page loop the
/// default bodies of [`PageTableOps::map_range`] and
/// [`PageTableOps::unmap_range`] state, all-or-nothing: on the first
/// failing page the spec returns to its state before the call.
fn apply_spec(spec: &mut HighSpec, step: &Step) -> Observed {
    let before;
    let result = match *step {
        Step::Op(op) => return spec.apply(&op).map(|a| a.into_iter().collect()),
        Step::MapRange(req, pages) => {
            let size = req.size.bytes();
            if crate::range::overflows(req.va.0, size, pages) {
                return Err(PtError::NonCanonical);
            }
            if crate::range::overflows(req.pa.0, size, pages) {
                return Err(PtError::PhysOutOfRange);
            }
            before = spec.clone();
            (0..pages)
                .try_for_each(|i| {
                    spec.apply_map(&MapRequest {
                        va: VAddr(req.va.0 + i * size),
                        pa: PAddr(req.pa.0 + i * size),
                        ..req
                    })
                })
                .map(|()| Vec::new())
        }
        Step::UnmapRange(va, pages) => {
            if crate::range::overflows(va.0, PAGE_4K, pages) {
                return Err(PtError::NonCanonical);
            }
            before = spec.clone();
            (0..pages)
                .map(|i| {
                    let slot = VAddr(va.0 + i * PAGE_4K);
                    spec.apply_unmap(slot).map(|m| removed(slot, m))
                })
                .collect()
        }
    };
    if result.is_err() {
        *spec = before;
    }
    result
}

/// A table under check, with the memory and frames it lives in.
struct World<P> {
    mem: PhysMem,
    alloc: StackFrameSource,
    pt: P,
}

impl<P: PageTableOps> World<P> {
    #[expect(
        clippy::expect_used,
        reason = "checker-harness setup: the fresh 1024-frame arena always has \
                  a root frame, and an allocation failure here is a harness bug, \
                  not a result"
    )]
    fn new() -> Self {
        let mut mem = PhysMem::new(1024);
        let mut alloc = StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(1024 * PAGE_4K));
        let pt = P::new(&mut mem, &mut alloc).expect("root frame");
        World { mem, alloc, pt }
    }

    fn apply(&mut self, step: &Step) -> Observed {
        let World { mem, alloc, pt } = self;
        match *step {
            Step::Op(PtOp::Map(req)) => pt.map_frame(mem, alloc, req).map(|()| Vec::new()),
            Step::Op(PtOp::Unmap(va)) => {
                pt.unmap_frame(mem, alloc, va).map(|m| vec![removed(va, m)])
            }
            Step::Op(PtOp::Resolve(va)) => pt.resolve(mem, va).map(|a| vec![a]),
            Step::MapRange(req, pages) => pt.map_range(mem, alloc, req, pages).map(|()| Vec::new()),
            Step::UnmapRange(va, pages) => pt.unmap_range(mem, alloc, va, pages).map(|ms| {
                let slot = |i: usize| VAddr(va.0 + i as u64 * PAGE_4K);
                ms.into_iter()
                    .enumerate()
                    .map(|(i, m)| removed(slot(i), m))
                    .collect()
            }),
        }
    }
}

/// Enumerates every op sequence of length `depth` from `universe`
/// (by replay — the implementation is deterministic) and checks that the
/// implementation's observable behaviour matches the high-level spec at
/// every step: same `Ok`/`Err` with the same payload, and after every
/// step the MMU interpretation of the in-memory table equals the spec
/// map, and each sequence ends with the table's ghost check (without
/// the per-step interpretation, only its recorded divergence).
///
/// Returns the number of `(sequence, step)` checks performed.
pub fn differential_vs_spec<P: PageTableOps>(
    universe: &OpUniverse,
    depth: usize,
    check_interp_each_step: bool,
) -> Result<usize, String> {
    let mut checks = 0usize;
    let n = universe.ops.len();
    let mut seq = vec![0usize; depth];
    loop {
        // Replay this sequence.
        let mut world = World::<P>::new();
        let mut spec = HighSpec::new();
        for (step, &op_idx) in seq.iter().enumerate() {
            let op = Step::Op(universe.ops[op_idx]);
            let got = world.apply(&op);
            let want = apply_spec(&mut spec, &op);
            checks += 1;
            if got != want {
                return Err(format!(
                    "step {step} of {seq:?}: op {op:?} -> impl {got:?}, spec {want:?}"
                ));
            }
            if check_interp_each_step {
                crate::interp::interpretation_matches(&world.mem, world.pt.root(), &spec)
                    .map_err(|e| format!("after step {step} of {seq:?}: {e}"))?;
            }
        }
        let ghost = if check_interp_each_step {
            world.pt.check_ghost(&world.mem)
        } else {
            world.pt.check_ghost_steps()
        };
        ghost.map_err(|e| format!("after {seq:?}: {e}"))?;
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

/// The op stream of the randomized checks: maps of all three sizes over a
/// pool of bases spread across subtrees and both canonical halves, unmaps
/// (of a mapped base half the time), resolves, and both range calls.
struct OpStream {
    rng: SpecRng,
    vas: Vec<u64>,
}

impl OpStream {
    fn new(seed: u64) -> Self {
        let vas = (0..24)
            .map(|i| {
                let l4 = [0u64, 1, 255, 256, 300][i % 5];
                let l3 = (i as u64 * 7) % 512;
                let l2 = (i as u64 * 13) % 512;
                let l1 = (i as u64 * 29) % 512;
                VAddr::from_indices(l4 as usize, l3 as usize, l2 as usize, l1 as usize).0
            })
            .collect();
        Self {
            rng: SpecRng::seeded(seed),
            vas,
        }
    }

    /// The next step, given the bases currently mapped, in ascending order.
    fn next(&mut self, mapped: impl ExactSizeIterator<Item = u64>) -> Step {
        let rng = &mut self.rng;
        let va = *rng.choose(&self.vas);
        match rng.below(12) {
            0..=4 => {
                let size = match rng.below(12) {
                    0 => PageSize::Size1G,
                    1 | 2 => PageSize::Size2M,
                    _ => PageSize::Size4K,
                };
                let va = va & !(size.bytes() - 1);
                // Keep high-half addresses canonical after alignment.
                let pa = rng.below(1 << 20) * size.bytes() % (1 << 40);
                Step::Op(PtOp::Map(MapRequest {
                    va: VAddr(va),
                    pa: PAddr(pa & !(size.bytes() - 1)),
                    size,
                    flags: *rng.choose(&MapFlags::all_combinations()),
                }))
            }
            5..=7 => {
                // Unmap an existing base most of the time, a pool base
                // otherwise; from an existing base a range call covers the
                // run of 4 KiB-spaced bases there, and now and then one
                // slot more (which fails and rolls back).
                let n = mapped.len();
                if rng.chance(3, 4) && n > 0 {
                    let mut rest = mapped.skip(rng.index(n));
                    let base = rest.next().unwrap_or(va);
                    let run = rest.zip(1..).take_while(|&(b, k)| b == base + k * PAGE_4K);
                    let run = 1 + run.count() as u64;
                    if run > 1 || rng.chance(1, 4) {
                        Step::UnmapRange(VAddr(base), run + rng.below(2))
                    } else {
                        Step::Op(PtOp::Unmap(VAddr(base)))
                    }
                } else if rng.chance(1, 4) {
                    Step::UnmapRange(VAddr(va), 1 + rng.below(8))
                } else {
                    Step::Op(PtOp::Unmap(VAddr(va)))
                }
            }
            8..=10 => Step::Op(PtOp::Resolve(VAddr(va + rng.below(PAGE_4K)))),
            _ => {
                // Start a few pages before a pool base and cover it (the
                // range may run into a mapping there), or now and then
                // before a 2 MiB boundary and cross it (into the next
                // level-1 table).
                let edge = if rng.chance(1, 4) {
                    (va | 0x1f_ffff).wrapping_add(1)
                } else {
                    va
                };
                let pages = 1 + rng.below(8);
                let va = edge.wrapping_sub(rng.below(pages) * PAGE_4K);
                let pa = rng.below(1 << 20) * PAGE_4K;
                let req = MapRequest {
                    flags: *rng.choose(&MapFlags::all_combinations()),
                    ..MapRequest::rw_4k(va, pa)
                };
                Step::MapRange(req, pages)
            }
        }
    }
}

/// Randomized long-run differential check: applies `steps` random ops
/// (range calls included) to the implementation and the spec, verifying
/// observable equality, final interpretation equality and the table's
/// ghost check.
pub fn randomized_vs_spec<P: PageTableOps>(seed: u64, steps: usize) -> Result<usize, String> {
    randomized_audit::<P>(seed, steps, 0, 0)
}

/// Like [`randomized_vs_spec`], additionally re-checking the MMU
/// interpretation every `interp_every` steps and the structural
/// invariants every `structure_every` steps (0 disables the periodic
/// check; both always run once at the end).
pub fn randomized_audit<P: PageTableOps>(
    seed: u64,
    steps: usize,
    interp_every: usize,
    structure_every: usize,
) -> Result<usize, String> {
    let mut ops = OpStream::new(seed);
    let mut world = World::<P>::new();
    let mut spec = HighSpec::new();
    for step in 0..steps {
        let op = ops.next(spec.map.keys().copied());
        let got = world.apply(&op);
        let want = apply_spec(&mut spec, &op);
        if got != want {
            return Err(format!(
                "seed {seed} step {step}: op {op:?} -> impl {got:?}, spec {want:?}"
            ));
        }
        let root = world.pt.root();
        if interp_every != 0 && step % interp_every == 0 {
            crate::interp::interpretation_matches(&world.mem, root, &spec)
                .map_err(|e| format!("seed {seed} step {step} interpretation: {e}"))?;
        }
        if structure_every != 0 && step % structure_every == 0 {
            crate::invariants::check_structure(&world.mem, root)
                .map_err(|e| format!("seed {seed} step {step} structure: {e}"))?;
        }
    }
    let root = world.pt.root();
    crate::interp::interpretation_matches(&world.mem, root, &spec)
        .map_err(|e| format!("seed {seed} final interpretation: {e}"))?;
    crate::invariants::check_structure(&world.mem, root)
        .map_err(|e| format!("seed {seed} final structure: {e}"))?;
    // View correspondence: a ghost view (the paper's `view()`) is the
    // MMU's interpretation, which was just checked against the spec map.
    world
        .pt
        .check_ghost(&world.mem)
        .map_err(|e| format!("seed {seed}: {e}"))?;
    Ok(steps)
}

/// Differential check of the two implementations against each other:
/// one op stream drives a [`VerifiedPageTable`] (ghost tracked) and an
/// [`UnverifiedPageTable`] in lock-step, and every step must return the
/// same result on both and leave the same MMU interpretation (this is the
/// "verified == unverified semantics" claim underlying the Fig 1b/1c
/// comparison). The baseline's range calls are the trait's per-page
/// default bodies, so on range calls this also checks the verified
/// table's amortized paths against that loop on a real table.
pub fn verified_vs_unverified(seed: u64, steps: usize) -> Result<(), String> {
    let mut ops = OpStream::new(seed);
    let mut verified = World::<VerifiedPageTable<Tracked>>::new();
    let mut unverified = World::<UnverifiedPageTable>::new();
    let mut interp = interpret_page_table(&verified.mem, verified.pt.root());
    for step in 0..steps {
        let op = ops.next(interp.keys().map(|va| va.0));
        let a = verified.apply(&op);
        let b = unverified.apply(&op);
        if a != b {
            return Err(format!(
                "seed {seed} step {step}: op {op:?} -> verified {a:?}, unverified {b:?}"
            ));
        }
        if matches!(op, Step::Op(PtOp::Resolve(_))) {
            continue; // A resolve reads the tables and cannot change them.
        }
        interp = interpret_page_table(&verified.mem, verified.pt.root());
        if interp != interpret_page_table(&unverified.mem, unverified.pt.root()) {
            return Err(format!(
                "seed {seed} step {step}: op {op:?} left the two tables' MMU interpretations different"
            ));
        }
    }
    verified
        .pt
        .check_ghost(&verified.mem)
        .map_err(|e| format!("seed {seed}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    type Verified = VerifiedPageTable<Tracked>;

    #[test]
    fn bounded_differential_small_depth2() {
        let n = differential_vs_spec::<Verified>(&OpUniverse::small(), 2, true).unwrap();
        assert_eq!(n, 7 * 7 * 2);
    }

    #[test]
    fn bounded_differential_unverified_depth2() {
        differential_vs_spec::<UnverifiedPageTable>(&OpUniverse::small(), 2, true).unwrap();
    }

    #[test]
    fn bounded_differential_depth3_no_interp() {
        // Depth 3 over the small universe, result-equality only (the
        // per-step interpretation is the expensive part).
        differential_vs_spec::<Verified>(&OpUniverse::small(), 3, false).unwrap();
    }

    #[test]
    fn randomized_differential_short() {
        randomized_vs_spec::<Verified>(1, 200).unwrap();
        randomized_vs_spec::<UnverifiedPageTable>(1, 200).unwrap();
    }

    #[test]
    fn implementations_agree() {
        verified_vs_unverified(7, 150).unwrap();
    }

    /// The randomized checks reach what only range calls run: multi-page
    /// map ranges that succeed, ones that fail after installing a page
    /// (the rollback), and multi-slot unmap ranges.
    #[test]
    fn op_stream_reaches_the_range_paths() {
        let mut reached = [0u32; 3];
        for seed in 0..4 {
            let (mut ops, mut spec) = (OpStream::new(seed), HighSpec::new());
            for _ in 0..300 {
                let op = ops.next(spec.map.keys().copied());
                match (op, apply_spec(&mut spec, &op)) {
                    (Step::MapRange(_, 2..), Ok(_)) => reached[0] += 1,
                    (Step::MapRange(req, 2..), Err(PtError::AlreadyMapped))
                        if spec.resolve(req.va).is_err() =>
                    {
                        reached[1] += 1
                    }
                    (Step::UnmapRange(..), Ok(r)) if r.len() > 1 => reached[2] += 1,
                    _ => {}
                }
            }
        }
        assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
    }
}
