//! The page-table prototype's verification story, interactively: build
//! an address space, watch the three Figure-2 layers agree, then run a
//! slice of the verification conditions.
//!
//! Run: `cargo run --example pagetable_audit`

use veros::hw::{interpret_page_table, PAddr, PhysMem, StackFrameSource, VAddr, PAGE_4K};
use veros::pagetable::high_spec::HighSpec;
use veros::pagetable::{MapFlags, MapRequest, PageSize, PageTableOps, Tracked, VerifiedPageTable};
use veros::spec::{VcEngine, VcKind};

fn main() {
    let mut mem = PhysMem::new(1024);
    let mut alloc = StackFrameSource::new(PAddr(16 * PAGE_4K), PAddr(512 * PAGE_4K));
    // Tracked: the table carries its ghost prefix tree.
    let mut pt = VerifiedPageTable::<Tracked>::new(&mut mem, &mut alloc).expect("root");
    let mut spec = HighSpec::new();

    println!("layer 3 (implementation): mapping three pages + one huge page");
    for req in [
        MapRequest::rw_4k(0x1000, 0x10_0000),
        MapRequest::rw_4k(0x2000, 0x11_0000),
        MapRequest {
            va: VAddr(0xffff_8000_0000_0000),
            pa: PAddr(0x12_0000),
            size: PageSize::Size4K,
            flags: MapFlags::kernel_rw(),
        },
        MapRequest {
            va: VAddr(0x20_0000),
            pa: PAddr(0x40_0000),
            size: PageSize::Size2M,
            flags: MapFlags::user_ro(),
        },
    ] {
        pt.map_frame(&mut mem, &mut alloc, req).expect("map");
        spec.apply_map(&req).expect("spec map");
        println!("  map {:>18} -> {:<10} {:?}", format!("{}", req.va), format!("{}", req.pa), req.size);
    }

    println!("\nlayer 1 (hardware spec): the MMU's interpretation of the bits:");
    let interp = interpret_page_table(&mem, pt.root());
    for (va, m) in &interp {
        println!(
            "  {va} -> {} ({} bytes, w={} u={} nx={})",
            m.pa_base, m.size, m.writable, m.user, m.nx
        );
    }

    println!("\nlayer 2 (high-level spec): the mathematical map:");
    for (va, m) in &spec.map {
        println!("  {va:#x} -> {:#x} ({:?})", m.pa, m.size);
    }

    // The refinement, checked on the spot.
    veros::pagetable::interp::interpretation_matches(&mem, pt.root(), &spec)
        .expect("MMU interpretation == abstract map");
    pt.check_ghost(&mem).expect("ghost moved in lock-step");
    assert_eq!(pt.ghost().flatten(), spec.map);
    println!("\ninterpretation check: bits in memory == abstract map ✓");
    println!("ghost view check:     implementation view() == abstract map ✓");

    // Run a fast slice of the VC population (the full 220 run in Paper
    // profile is `cargo run --release -p veros-bench --bin fig1a`).
    println!("\nrunning the 220-VC population (quick profile)...");
    let mut engine = VcEngine::new();
    veros::pagetable::vcs::register_all(&mut engine, veros::pagetable::vcs::Profile::Quick);
    let report = engine.run();
    println!("{}", report.summary());
    for (kind, n) in report.count_by_kind() {
        let label = match kind {
            VcKind::Invariant => "invariant preservation",
            VcKind::Refinement => "refinement",
            VcKind::Interpretation => "hardware interpretation",
            VcKind::Marshalling => "marshalling",
            VcKind::RaceFreedom => "race freedom",
            VcKind::Linearizability => "linearizability",
            VcKind::Property => "functional properties",
        };
        println!("  {n:>3}  {label}");
    }
    assert!(report.all_passed(), "VC failures");
    println!("all verification conditions passed ✓");
}
