//! The verification-condition population of the page-table prototype.
//!
//! The paper's Figure 1a plots the CDF of "all 220 verification
//! conditions" of the prototype, all individually discharged in ≤ 11 s
//! with a total of ≈ 40 s. This module registers the corresponding 220
//! obligations of this reproduction with the [`veros_spec::VcEngine`]:
//! encoding round-trips, spec invariants, forward simulation, bounded and
//! randomized differential refinement, interpretation and structure
//! audits, TLB coherence, baseline equivalence, and frame accounting.
//!
//! Two profiles exist: [`Profile::Paper`] sizes the checks for the
//! Figure 1a reproduction (run in release mode by `veros-bench`'s `fig1a`
//! binary); [`Profile::Quick`] shrinks iteration counts so the whole
//! population can run inside `cargo test`.

use veros_hw::{PAddr, StackFrameSource, VAddr, PAGE_4K};
use veros_spec::explorer::{prove_invariant, ExploreLimits};
use veros_spec::rng::SpecRng;
use veros_spec::{check_refinement, VcEngine, VcKind};

use crate::high_spec::{HighSpec, HighSpecMachine};
use crate::impl_verified::{decode_leaf, encode_leaf};
use crate::ops::{MapFlags, MapRequest, PageSize, PtError, PtOp};
use crate::prefix_tree::{PrefixTree, PrefixTreeMachine, TreeToFlat};
use crate::refine::{
    differential_vs_spec, randomized_audit, randomized_vs_spec, Impl, OpUniverse,
};
use crate::{PageTableOps, UnverifiedPageTable, VerifiedPageTable};

/// Sizing profile for the VC population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Small iteration counts: the whole population runs in a few
    /// seconds under `cargo test` (debug profile).
    Quick,
    /// Paper-scale iteration counts for the Figure 1a reproduction
    /// (release build).
    Paper,
}

struct Params {
    encode_iters: u64,
    random_steps: usize,
    interp_steps: usize,
    structure_steps: usize,
    tlb_steps: usize,
    tree_random_steps: usize,
    bounded_depth_rich: usize,
    bounded_depth_small: usize,
    accounting_rounds: usize,
    probe_count: usize,
}

impl Profile {
    fn params(self) -> Params {
        match self {
            Profile::Quick => Params {
                encode_iters: 200,
                random_steps: 60,
                interp_steps: 30,
                structure_steps: 30,
                tlb_steps: 20,
                tree_random_steps: 100,
                bounded_depth_rich: 1,
                bounded_depth_small: 2,
                accounting_rounds: 3,
                probe_count: 50,
            },
            Profile::Paper => Params {
                encode_iters: 4_000_000,
                random_steps: 15_000,
                interp_steps: 8_000,
                structure_steps: 12_000,
                tlb_steps: 15_000,
                tree_random_steps: 400_000,
                bounded_depth_rich: 3,
                bounded_depth_small: 6,
                accounting_rounds: 200,
                probe_count: 80_000,
            },
        }
    }
}

const MODULE: &str = "pagetable";

/// Registers the full VC population (220 obligations) with `engine`.
pub fn register_all(engine: &mut VcEngine, profile: Profile) {
    let p = profile.params();
    register_encoding(engine, &p); // 24
    register_high_spec(engine, &p); // 9
    register_prefix_tree(engine, &p); // 14
    register_scenarios(engine); // 36
    register_bounded(engine, &p); // 6
    register_randomized(engine, &p); // 60
    register_interpretation(engine, &p); // 16
    register_structure(engine, &p); // 8
    register_tlb(engine, &p); // 13
    register_equivalence(engine, &p); // 8
    register_accounting(engine, &p); // 8
    register_view(engine, &p); // 8
    register_probes(engine, &p); // 10
}

/// The number of VCs [`register_all`] registers, matching the paper's
/// population size.
pub const VC_COUNT: usize = 220;

// --- encoding (24) -------------------------------------------------------

fn flag_tag(f: MapFlags) -> String {
    format!(
        "{}{}{}",
        if f.writable { "w" } else { "-" },
        if f.user { "u" } else { "-" },
        if f.nx { "x" } else { "-" }
    )
}

fn register_encoding(engine: &mut VcEngine, p: &Params) {
    for flags in MapFlags::all_combinations() {
        for size in PageSize::all() {
            let iters = p.encode_iters;
            let name = format!("encode::roundtrip_{}_{:?}", flag_tag(flags), size);
            engine.register(MODULE, VcKind::Property, name.clone(), move || {
                let mut rng = SpecRng::for_obligation(&name);
                for _ in 0..iters {
                    let pa = PAddr(((rng.below(1 << 30)) * size.bytes()) & 0x000f_ffff_ffff_f000);
                    let pa = PAddr(pa.0 & !(size.bytes() - 1));
                    let e = encode_leaf(pa, size, flags);
                    if !e.is_present() {
                        return Err(format!("{e:?} not present"));
                    }
                    if e.addr() != pa {
                        return Err(format!("address corrupted: {pa} -> {:?}", e.addr()));
                    }
                    if decode_leaf(e) != flags {
                        return Err(format!("flags corrupted: {flags:?} -> {:?}", decode_leaf(e)));
                    }
                    if (size.leaf_level() > 1) != e.is_huge() {
                        return Err("huge bit wrong".into());
                    }
                }
                Ok(())
            });
        }
    }
}

// --- high-level spec (9) -------------------------------------------------

fn universes() -> Vec<(&'static str, Vec<PtOp>)> {
    let base = HighSpecMachine::small().universe;
    // Variant with a 1 GiB page and a high-half mapping.
    let mut big = base.clone();
    big.push(PtOp::Map(MapRequest {
        va: VAddr(0x4000_0000),
        pa: PAddr(0x8000_0000),
        size: PageSize::Size1G,
        flags: MapFlags::kernel_rw(),
    }));
    big.push(PtOp::Unmap(VAddr(0x4000_0000)));
    let mut high = base.clone();
    high.push(PtOp::Map(MapRequest {
        va: VAddr(0xffff_8000_0000_0000),
        pa: PAddr(0xb000),
        size: PageSize::Size4K,
        flags: MapFlags::kernel_rw(),
    }));
    high.push(PtOp::Unmap(VAddr(0xffff_8000_0000_0000)));
    vec![("small", base), ("sizes", big), ("highhalf", high)]
}

fn register_high_spec(engine: &mut VcEngine, _p: &Params) {
    for (tag, universe) in universes() {
        engine.register(
            MODULE,
            VcKind::Invariant,
            format!("high_spec::wf_reachable_{tag}"),
            move || {
                prove_invariant(
                    HighSpecMachine { universe },
                    ExploreLimits::default(),
                    |s| s.wf(),
                )
                .map(|_| ())
            },
        );
    }
    // Precondition properties, each its own obligation.
    engine.register(MODULE, VcKind::Property, "high_spec::pre_noncanonical", || {
        let mut s = HighSpec::new();
        match s.apply_map(&MapRequest::rw_4k(0x0000_8000_0000_0000, 0)) {
            Err(PtError::NonCanonical) => Ok(()),
            other => Err(format!("{other:?}")),
        }
    });
    engine.register(MODULE, VcKind::Property, "high_spec::pre_misaligned_va", || {
        let mut s = HighSpec::new();
        for size in PageSize::all() {
            let r = s.apply_map(&MapRequest {
                va: VAddr(size.bytes() / 2),
                pa: PAddr(0),
                size,
                flags: MapFlags::user_rw(),
            });
            if r != Err(PtError::MisalignedVa) {
                return Err(format!("{size:?}: {r:?}"));
            }
        }
        Ok(())
    });
    engine.register(MODULE, VcKind::Property, "high_spec::pre_misaligned_pa", || {
        let mut s = HighSpec::new();
        for size in [PageSize::Size2M, PageSize::Size1G] {
            let r = s.apply_map(&MapRequest {
                va: VAddr(0),
                pa: PAddr(PAGE_4K),
                size,
                flags: MapFlags::user_rw(),
            });
            if r != Err(PtError::MisalignedPa) {
                return Err(format!("{size:?}: {r:?}"));
            }
        }
        Ok(())
    });
    engine.register(MODULE, VcKind::Property, "high_spec::overlap_symmetric", || {
        // Overlap is detected regardless of which mapping came first.
        let first = MapRequest::rw_4k(0x20_1000, 0x1000);
        let second = MapRequest {
            va: VAddr(0x20_0000),
            pa: PAddr(0x40_0000),
            size: PageSize::Size2M,
            flags: MapFlags::user_rw(),
        };
        let mut s = HighSpec::new();
        s.apply_map(&first).map_err(|e| e.to_string())?;
        if s.apply_map(&second) != Err(PtError::AlreadyMapped) {
            return Err("small-then-huge overlap missed".into());
        }
        let mut s = HighSpec::new();
        s.apply_map(&second).map_err(|e| e.to_string())?;
        if s.apply_map(&first) != Err(PtError::AlreadyMapped) {
            return Err("huge-then-small overlap missed".into());
        }
        Ok(())
    });
    engine.register(MODULE, VcKind::Property, "high_spec::adjacent_no_overlap", || {
        let mut s = HighSpec::new();
        s.apply_map(&MapRequest::rw_4k(0x1000, 0x8000)).map_err(|e| e.to_string())?;
        s.apply_map(&MapRequest::rw_4k(0x2000, 0x9000)).map_err(|e| e.to_string())?;
        s.apply_map(&MapRequest::rw_4k(0x0, 0xa000)).map_err(|e| e.to_string())?;
        Ok(())
    });
    engine.register(MODULE, VcKind::Property, "high_spec::unmap_exact_base_only", || {
        let mut s = HighSpec::new();
        s.apply_map(&MapRequest {
            va: VAddr(0x20_0000),
            pa: PAddr(0x40_0000),
            size: PageSize::Size2M,
            flags: MapFlags::user_rw(),
        })
        .map_err(|e| e.to_string())?;
        if s.apply_unmap(VAddr(0x20_1000)) != Err(PtError::NotMapped) {
            return Err("interior unmap accepted".into());
        }
        s.apply_unmap(VAddr(0x20_0000)).map_err(|e| e.to_string())?;
        Ok(())
    });
}

// --- prefix tree layer (14) ----------------------------------------------

fn register_prefix_tree(engine: &mut VcEngine, p: &Params) {
    for (tag, universe) in universes() {
        let u2 = universe.clone();
        engine.register(
            MODULE,
            VcKind::Invariant,
            format!("prefix_tree::wf_reachable_{tag}"),
            move || {
                prove_invariant(
                    PrefixTreeMachine { universe },
                    ExploreLimits::default(),
                    |t| t.wf(),
                )
                .map(|_| ())
            },
        );
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("prefix_tree::forward_simulation_{tag}"),
            move || {
                check_refinement(
                    &TreeToFlat,
                    PrefixTreeMachine { universe: u2.clone() },
                    &HighSpecMachine { universe: u2 },
                    ExploreLimits::default(),
                )
                .map(|_| ())
                .map_err(|e| e.to_string())
            },
        );
    }
    // Randomized long-run tree-vs-flat differential, 8 seeds. The op
    // stream draws from the full `PtOp` surface; veros-lint's
    // obligation-coverage check cross-references this list.
    // covers: PtOp::Map, PtOp::Unmap, PtOp::Resolve
    for seed in 0..8u64 {
        let steps = p.tree_random_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("prefix_tree::random_differential_s{seed}"),
            move || tree_random_differential(seed, steps),
        );
    }
}

/// Long random op stream applied to both the prefix tree and the flat
/// spec; checks result equality, flatten equality, and wf throughout.
fn tree_random_differential(seed: u64, steps: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0x7ee);
    let mut tree = PrefixTree::new();
    let mut flat = HighSpec::new();
    let vas: Vec<u64> = (0..16)
        .map(|i| VAddr::from_indices([0, 1, 300][i % 3], (i * 11) % 512, (i * 3) % 512, i % 512).0)
        .collect();
    for step in 0..steps {
        let op = match rng.below(3) {
            0 => {
                let size = *rng.choose(&PageSize::all());
                let va = rng.choose(&vas) & !(size.bytes() - 1);
                PtOp::Map(MapRequest {
                    va: VAddr(va),
                    pa: PAddr((rng.below(1 << 20) * size.bytes()) & !(size.bytes() - 1)),
                    size,
                    flags: *rng.choose(&MapFlags::all_combinations()),
                })
            }
            1 => PtOp::Unmap(VAddr(rng.choose(&vas) & !(PAGE_4K - 1))),
            _ => PtOp::Resolve(VAddr(rng.choose(&vas) + rng.below(PAGE_4K))),
        };
        let a = tree.apply(&op);
        let b = flat.apply(&op);
        if a != b {
            return Err(format!("seed {seed} step {step}: {op:?} -> tree {a:?}, flat {b:?}"));
        }
        if !tree.wf() {
            return Err(format!("seed {seed} step {step}: tree not wf"));
        }
    }
    if tree.flatten() != flat.map {
        return Err(format!("seed {seed}: flatten mismatch after {steps} steps"));
    }
    Ok(())
}

// --- hand-written scenarios (36 = 18 x 2 impls) ---------------------------

type Scenario = fn(&mut dyn PageTableOps, &mut veros_hw::PhysMem, &mut StackFrameSource) -> Result<(), String>;

fn scenarios() -> Vec<(&'static str, Scenario)> {
    fn ok(r: Result<(), PtError>) -> Result<(), String> {
        r.map_err(|e| e.to_string())
    }
    vec![
        ("map_first_page", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x8000)))?;
            expect_pa(pt, mem, 0x1000, 0x8000)
        }),
        ("map_va_zero", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0, 0x8000)))?;
            expect_pa(pt, mem, 0x123, 0x8123)
        }),
        ("map_index_511_all_levels", |pt, mem, alloc| {
            let va = VAddr::from_indices(255, 511, 511, 511);
            ok(pt.map_frame(mem, alloc, MapRequest { va, pa: PAddr(0x8000), size: PageSize::Size4K, flags: MapFlags::user_rw() }))?;
            expect_pa(pt, mem, va.0, 0x8000)
        }),
        ("map_high_half", |pt, mem, alloc| {
            let va = VAddr(0xffff_8000_0000_0000);
            ok(pt.map_frame(mem, alloc, MapRequest { va, pa: PAddr(0x8000), size: PageSize::Size4K, flags: MapFlags::kernel_rw() }))?;
            expect_pa(pt, mem, va.0 + 7, 0x8007)
        }),
        ("map_duplicate_fails", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x8000)))?;
            expect_err(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x9000)), PtError::AlreadyMapped)
        }),
        ("map_2m_then_4k_inside_fails", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest { va: VAddr(0x20_0000), pa: PAddr(0x40_0000), size: PageSize::Size2M, flags: MapFlags::user_rw() }))?;
            expect_err(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x20_1000, 0x1000)), PtError::AlreadyMapped)
        }),
        ("map_4k_then_2m_over_fails", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x20_1000, 0x1000)))?;
            expect_err(
                pt.map_frame(mem, alloc, MapRequest { va: VAddr(0x20_0000), pa: PAddr(0x40_0000), size: PageSize::Size2M, flags: MapFlags::user_rw() }),
                PtError::AlreadyMapped,
            )
        }),
        ("map_1g_round_trip", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest { va: VAddr(0x4000_0000), pa: PAddr(0x8000_0000), size: PageSize::Size1G, flags: MapFlags::user_ro() }))?;
            expect_pa(pt, mem, 0x4123_4567, 0x8123_4567)?;
            pt.unmap_frame(mem, alloc, VAddr(0x4000_0000)).map_err(|e| e.to_string())?;
            expect_err_resolve(pt, mem, 0x4123_4567, PtError::NotMapped)
        }),
        ("unmap_returns_mapping", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x8000)))?;
            let m = pt.unmap_frame(mem, alloc, VAddr(0x1000)).map_err(|e| e.to_string())?;
            if m.pa != 0x8000 || m.size != PageSize::Size4K {
                return Err(format!("wrong mapping returned: {m:?}"));
            }
            Ok(())
        }),
        ("unmap_unmapped_fails", |pt, mem, alloc| {
            expect_err_abs(pt.unmap_frame(mem, alloc, VAddr(0x1000)), PtError::NotMapped)
        }),
        ("unmap_interior_of_huge_fails", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest { va: VAddr(0x20_0000), pa: PAddr(0x40_0000), size: PageSize::Size2M, flags: MapFlags::user_rw() }))?;
            expect_err_abs(pt.unmap_frame(mem, alloc, VAddr(0x20_1000)), PtError::NotMapped)
        }),
        ("remap_after_unmap", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x8000)))?;
            pt.unmap_frame(mem, alloc, VAddr(0x1000)).map_err(|e| e.to_string())?;
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x9000)))?;
            expect_pa(pt, mem, 0x1000, 0x9000)
        }),
        ("sibling_survives_unmap", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x8000)))?;
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x2000, 0x9000)))?;
            pt.unmap_frame(mem, alloc, VAddr(0x1000)).map_err(|e| e.to_string())?;
            expect_pa(pt, mem, 0x2000, 0x9000)
        }),
        ("directories_freed_on_last_unmap", |pt, mem, alloc| {
            let before = alloc.free_frames();
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x8000)))?;
            pt.unmap_frame(mem, alloc, VAddr(0x1000)).map_err(|e| e.to_string())?;
            if alloc.free_frames() != before {
                return Err(format!("leaked {} frames", before - alloc.free_frames()));
            }
            Ok(())
        }),
        ("oom_leaves_table_unchanged", |pt, mem, _alloc| {
            let mut tiny = StackFrameSource::new(PAddr(600 * PAGE_4K), PAddr(601 * PAGE_4K));
            expect_err(
                pt.map_frame(mem, &mut tiny, MapRequest::rw_4k(0x1000, 0x8000)),
                PtError::OutOfMemory,
            )?;
            if tiny.free_frames() != 1 {
                return Err("rollback leaked a frame".into());
            }
            expect_err_resolve(pt, mem, 0x1000, PtError::NotMapped)
        }),
        ("resolve_permissions_propagate", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest { va: VAddr(0x1000), pa: PAddr(0x8000), size: PageSize::Size4K, flags: MapFlags::user_ro() }))?;
            let r = pt.resolve(mem, VAddr(0x1000)).map_err(|e| e.to_string())?;
            if r.flags != MapFlags::user_ro() {
                return Err(format!("flags {:?}", r.flags));
            }
            Ok(())
        }),
        ("resolve_noncanonical_fails", |pt, mem, _alloc| {
            expect_err_resolve_raw(pt.resolve(mem, VAddr(0x0000_8000_0000_0000)), PtError::NonCanonical)
        }),
        ("mixed_sizes_coexist", |pt, mem, alloc| {
            ok(pt.map_frame(mem, alloc, MapRequest::rw_4k(0x1000, 0x8000)))?;
            ok(pt.map_frame(mem, alloc, MapRequest { va: VAddr(0x20_0000), pa: PAddr(0x40_0000), size: PageSize::Size2M, flags: MapFlags::user_rw() }))?;
            ok(pt.map_frame(mem, alloc, MapRequest { va: VAddr(0x4000_0000), pa: PAddr(0x8000_0000), size: PageSize::Size1G, flags: MapFlags::user_rw() }))?;
            expect_pa(pt, mem, 0x1000, 0x8000)?;
            expect_pa(pt, mem, 0x20_0040, 0x40_0040)?;
            expect_pa(pt, mem, 0x4000_0040, 0x8000_0040)
        }),
    ]
}

fn expect_pa(pt: &dyn PageTableOps, mem: &veros_hw::PhysMem, va: u64, pa: u64) -> Result<(), String> {
    let r = pt.resolve(mem, VAddr(va)).map_err(|e| e.to_string())?;
    if r.pa != PAddr(pa) {
        return Err(format!("resolve({va:#x}) = {}, expected {pa:#x}", r.pa));
    }
    // The MMU must agree.
    let m = veros_hw::walk(mem, pt.root(), VAddr(va)).map_err(|e| format!("{e:?}"))?;
    if m.translate(VAddr(va)) != PAddr(pa) {
        return Err(format!("MMU walk disagrees at {va:#x}"));
    }
    Ok(())
}

fn expect_err(r: Result<(), PtError>, want: PtError) -> Result<(), String> {
    match r {
        Err(e) if e == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn expect_err_abs(r: Result<crate::high_spec::AbsMapping, PtError>, want: PtError) -> Result<(), String> {
    match r {
        Err(e) if e == want => Ok(()),
        Ok(m) => Err(format!("expected {want:?}, got Ok({m:?})")),
        Err(e) => Err(format!("expected {want:?}, got {e:?}")),
    }
}

fn expect_err_resolve(pt: &dyn PageTableOps, mem: &veros_hw::PhysMem, va: u64, want: PtError) -> Result<(), String> {
    expect_err_resolve_raw(pt.resolve(mem, VAddr(va)), want)
}

fn expect_err_resolve_raw(r: Result<crate::ops::ResolveAnswer, PtError>, want: PtError) -> Result<(), String> {
    match r {
        Err(e) if e == want => Ok(()),
        Ok(a) => Err(format!("expected {want:?}, got Ok({a:?})")),
        Err(e) => Err(format!("expected {want:?}, got {e:?}")),
    }
}

fn register_scenarios(engine: &mut VcEngine) {
    for which in [Impl::Verified, Impl::Unverified] {
        for (name, scenario) in scenarios() {
            let tag = match which {
                Impl::Verified => "verified",
                Impl::Unverified => "unverified",
            };
            engine.register(
                MODULE,
                VcKind::Property,
                format!("{tag}::{name}"),
                move || {
                    let mut mem = veros_hw::PhysMem::new(1024);
                    let mut alloc =
                        StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(512 * PAGE_4K));
                    match which {
                        Impl::Verified => {
                            let mut pt = VerifiedPageTable::new(&mut mem, &mut alloc, true)
                                .map_err(|e| e.to_string())?;
                            scenario(&mut pt, &mut mem, &mut alloc)?;
                            crate::invariants::check_structure(&mem, pt.root())
                                .map(|_| ())
                                .map_err(|e| format!("structure after scenario: {e}"))
                        }
                        Impl::Unverified => {
                            let mut pt = UnverifiedPageTable::new(&mut mem, &mut alloc)
                                .map_err(|e| e.to_string())?;
                            scenario(&mut pt, &mut mem, &mut alloc)?;
                            crate::invariants::check_structure(&mem, pt.root())
                                .map(|_| ())
                                .map_err(|e| format!("structure after scenario: {e}"))
                        }
                    }
                },
            );
        }
    }
}

// --- bounded differential (6) ---------------------------------------------

fn register_bounded(engine: &mut VcEngine, p: &Params) {
    for which in [Impl::Verified, Impl::Unverified] {
        let tag = match which {
            Impl::Verified => "verified",
            Impl::Unverified => "unverified",
        };
        let d = p.bounded_depth_rich;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("{tag}::bounded_rich_depth{d}_interp"),
            move || differential_vs_spec(which, &OpUniverse::rich(), d, true).map(|_| ()),
        );
        let d = p.bounded_depth_small;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("{tag}::bounded_small_depth{d}"),
            move || differential_vs_spec(which, &OpUniverse::small(), d, false).map(|_| ()),
        );
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("{tag}::bounded_small_depth2_interp"),
            move || differential_vs_spec(which, &OpUniverse::small(), 2, true).map(|_| ()),
        );
    }
}

// --- randomized differential (60) ------------------------------------------

fn register_randomized(engine: &mut VcEngine, p: &Params) {
    for seed in 0..40u64 {
        let steps = p.random_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("verified::random_differential_s{seed}"),
            move || randomized_vs_spec(Impl::Verified, seed, steps).map(|_| ()),
        );
    }
    for seed in 0..20u64 {
        let steps = p.random_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("unverified::random_differential_s{seed}"),
            move || randomized_vs_spec(Impl::Unverified, seed, steps).map(|_| ()),
        );
    }
}

// --- interpretation audits (16) --------------------------------------------

fn register_interpretation(engine: &mut VcEngine, p: &Params) {
    for seed in 0..16u64 {
        let steps = p.interp_steps;
        engine.register(
            MODULE,
            VcKind::Interpretation,
            format!("verified::interp_every_step_s{seed}"),
            move || randomized_audit(Impl::Verified, seed + 100, steps, 1, 0).map(|_| ()),
        );
    }
}

// --- structure audits (8) ---------------------------------------------------

fn register_structure(engine: &mut VcEngine, p: &Params) {
    for seed in 0..8u64 {
        let steps = p.structure_steps;
        engine.register(
            MODULE,
            VcKind::Invariant,
            format!("verified::structure_every_step_s{seed}"),
            move || randomized_audit(Impl::Verified, seed + 200, steps, 0, 1).map(|_| ()),
        );
    }
}

// --- TLB coherence (13) ------------------------------------------------------

fn register_tlb(engine: &mut VcEngine, p: &Params) {
    for seed in 0..12u64 {
        let steps = p.tlb_steps;
        engine.register(
            MODULE,
            VcKind::Interpretation,
            format!("tlb::coherent_with_shootdown_s{seed}"),
            move || crate::interp::tlb_coherent_with_shootdown(seed, steps).map(|_| ()),
        );
    }
    engine.register(
        MODULE,
        VcKind::Interpretation,
        "tlb::stale_without_shootdown",
        crate::interp::tlb_incoherent_without_shootdown,
    );
}

// --- baseline equivalence (8) -------------------------------------------------

fn register_equivalence(engine: &mut VcEngine, p: &Params) {
    for seed in 0..8u64 {
        let steps = p.random_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("equiv::verified_vs_unverified_s{seed}"),
            move || crate::refine::verified_vs_unverified(seed + 300, steps),
        );
    }
}

// --- frame accounting (8) --------------------------------------------------

fn register_accounting(engine: &mut VcEngine, p: &Params) {
    for seed in 0..8u64 {
        let rounds = p.accounting_rounds;
        engine.register(
            MODULE,
            VcKind::Invariant,
            format!("verified::frame_accounting_s{seed}"),
            move || frame_accounting(seed, rounds),
        );
    }
}

/// Map/unmap storms followed by `destroy` must return the allocator to
/// its starting balance — no leaked and no double-freed frames.
fn frame_accounting(seed: u64, rounds: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0xacc);
    for round in 0..rounds {
        let mut mem = veros_hw::PhysMem::new(2048);
        let mut alloc = StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(2048 * PAGE_4K));
        let before = alloc.free_frames();
        let mut pt = VerifiedPageTable::new(&mut mem, &mut alloc, false)
            .map_err(|e| e.to_string())?;
        let mut mapped: Vec<u64> = Vec::new();
        for _ in 0..64 {
            if rng.chance(2, 3) || mapped.is_empty() {
                let va = VAddr::from_indices(
                    rng.index(4),
                    rng.index(8),
                    rng.index(8),
                    rng.index(32),
                );
                if pt
                    .map_frame(&mut mem, &mut alloc, MapRequest::rw_4k(va.0, 0x10_0000))
                    .is_ok()
                {
                    mapped.push(va.0);
                }
            } else {
                let i = rng.index(mapped.len());
                let va = mapped.swap_remove(i);
                pt.unmap_frame(&mut mem, &mut alloc, VAddr(va))
                    .map_err(|e| format!("round {round}: unmap {va:#x}: {e}"))?;
            }
        }
        // Unmap the rest, then destroy.
        for va in mapped.drain(..) {
            pt.unmap_frame(&mut mem, &mut alloc, VAddr(va))
                .map_err(|e| e.to_string())?;
        }
        pt.destroy(&mut mem, &mut alloc);
        if alloc.free_frames() != before {
            return Err(format!(
                "round {round}: {} frames leaked",
                before - alloc.free_frames()
            ));
        }
    }
    Ok(())
}

// --- view correspondence (8) -----------------------------------------------

fn register_view(engine: &mut VcEngine, p: &Params) {
    for seed in 0..8u64 {
        let steps = p.random_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("verified::view_correspondence_s{seed}"),
            // `randomized_audit` ends by comparing the ghost view (the
            // paper's `view()`) against the spec map and checking wf.
            move || randomized_audit(Impl::Verified, seed + 400, steps, 0, 0).map(|_| ()),
        );
    }
}

// --- resolve probe grids (10) ------------------------------------------------

fn register_probes(engine: &mut VcEngine, p: &Params) {
    for seed in 0..10u64 {
        let probes = p.probe_count;
        engine.register(
            MODULE,
            VcKind::Interpretation,
            format!("verified::walk_matches_resolve_s{seed}"),
            move || probe_grid(seed, probes),
        );
    }
}

/// Builds a random populated table and compares hardware walks against
/// spec resolution on a large probe grid (mapped bases, interior offsets,
/// unmapped neighbours, non-canonical addresses).
fn probe_grid(seed: u64, probes: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0x12_0be);
    let mut mem = veros_hw::PhysMem::new(2048);
    let mut alloc = StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(1024 * PAGE_4K));
    let mut pt = VerifiedPageTable::new(&mut mem, &mut alloc, false).map_err(|e| e.to_string())?;
    let mut spec = HighSpec::new();
    // Populate with a mixed-size random set.
    for _ in 0..40 {
        let size = match rng.below(8) {
            0 => PageSize::Size1G,
            1 | 2 => PageSize::Size2M,
            _ => PageSize::Size4K,
        };
        let va = VAddr(
            VAddr::from_indices(rng.index(3), rng.index(64), rng.index(64), rng.index(64)).0
                & !(size.bytes() - 1),
        );
        let req = MapRequest {
            va,
            pa: PAddr((rng.below(1 << 18) * size.bytes()) & !(size.bytes() - 1)),
            size,
            flags: *rng.choose(&MapFlags::all_combinations()),
        };
        if spec.map_precondition(&req).is_ok() {
            pt.map_frame(&mut mem, &mut alloc, req).map_err(|e| e.to_string())?;
            spec.apply_map(&req).map_err(|e| e.to_string())?;
        }
    }
    // Probe grid: random addresses biased toward mapped neighbourhoods.
    let bases: Vec<u64> = spec.map.keys().copied().collect();
    let mut grid = Vec::with_capacity(probes);
    for _ in 0..probes {
        let va = if !bases.is_empty() && rng.chance(3, 4) {
            let b = *rng.choose(&bases);
            // Inside, at the edge, or just past the mapping.
            b.wrapping_add(rng.below(4 * PAGE_4K)).min(0x0000_7fff_ffff_ffff)
        } else {
            rng.below(1 << 47)
        };
        grid.push(VAddr(va));
    }
    grid.push(VAddr(0x0000_8000_0000_0000)); // Non-canonical probe.
    crate::interp::walk_matches_resolve(&mem, pt.root(), &spec, &grid)?;
    // Each probe must also agree with the implementation's own resolve.
    for &va in &grid {
        let a = pt.resolve(&mem, va);
        let b = spec.resolve(va);
        if a != b {
            return Err(format!("{va}: impl resolve {a:?} vs spec {b:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_size_matches_the_paper() {
        let mut engine = VcEngine::new();
        register_all(&mut engine, Profile::Quick);
        assert_eq!(engine.len(), VC_COUNT, "Figure 1a population size");
    }

    #[test]
    fn quick_profile_all_pass() {
        let mut engine = VcEngine::new();
        register_all(&mut engine, Profile::Quick);
        let report = engine.run();
        let failures: Vec<String> = report
            .failures()
            .iter()
            .map(|o| format!("{}: {:?}", o.vc.name, o.status))
            .collect();
        assert!(failures.is_empty(), "failed VCs:\n{}", failures.join("\n"));
        assert_eq!(report.total(), VC_COUNT);
    }

    #[test]
    fn kinds_cover_the_proof_structure() {
        let mut engine = VcEngine::new();
        register_all(&mut engine, Profile::Quick);
        let report = engine.run();
        let kinds: Vec<VcKind> = report.count_by_kind().into_iter().map(|(k, _)| k).collect();
        for want in [
            VcKind::Invariant,
            VcKind::Refinement,
            VcKind::Interpretation,
            VcKind::Property,
        ] {
            assert!(kinds.contains(&want), "missing kind {want:?}");
        }
    }
}
