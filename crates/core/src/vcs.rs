//! Verification conditions for the full OS contract.
//!
//! The page table's 220 VCs ([`veros_pagetable::vcs`]) regenerate the
//! paper's Figure 1a. This module is the *vision* part made concrete:
//! obligations for every component of the §1 inventory, so `cargo run -p
//! veros-bench --bin audit` discharges the whole stack:
//!
//! * the three §3 obligations (marshalling, mapping, race freedom),
//! * the §4.4 refinement theorem over randomized traces,
//! * scheduler sanity (the execution-model invariants),
//! * node-replication linearizability (the §4.3 "verify NR once" step),
//! * filesystem crash safety,
//! * the network transport's prefix-delivery spec,
//! * the userspace mutex's mutual exclusion (the §3 futex example),
//! * the block-store wire protocol's marshalling + checksum integrity.

use veros_spec::rng::SpecRng;
use veros_spec::{check_linearizable, Recorder, SeqSpec, VcEngine, VcKind};

use crate::obligations;
use crate::theorem;

/// Sizing profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Runs inside `cargo test`.
    Quick,
    /// Audit-scale (release binary).
    Full,
}

struct Params {
    refine_steps: usize,
    refine_seeds: u64,
    marshal_iters: usize,
    mapping_steps: usize,
    sched_steps: usize,
    nr_ops_per_thread: usize,
    fs_crash_seeds: u64,
    rdt_seeds: u64,
    uring_seeds: u64,
    uring_steps: usize,
    mutex_workers: u32,
    mutex_incs: u32,
    wire_iters: usize,
    invariant_seeds: u64,
    invariant_schedules: usize,
}

impl Profile {
    fn params(self) -> Params {
        match self {
            Profile::Quick => Params {
                refine_steps: 120,
                refine_seeds: 4,
                marshal_iters: 300,
                mapping_steps: 30,
                sched_steps: 200,
                nr_ops_per_thread: 6,
                fs_crash_seeds: 4,
                rdt_seeds: 4,
                uring_seeds: 4,
                uring_steps: 48,
                mutex_workers: 3,
                mutex_incs: 5,
                wire_iters: 200,
                invariant_seeds: 2,
                invariant_schedules: 2,
            },
            Profile::Full => Params {
                refine_steps: 3_000,
                refine_seeds: 24,
                marshal_iters: 200_000,
                mapping_steps: 600,
                sched_steps: 20_000,
                nr_ops_per_thread: 10,
                fs_crash_seeds: 24,
                rdt_seeds: 16,
                uring_seeds: 8,
                uring_steps: 240,
                mutex_workers: 4,
                mutex_incs: 40,
                wire_iters: 20_000,
                invariant_seeds: 8,
                invariant_schedules: 4,
            },
        }
    }
}

const MODULE: &str = "os-contract";

/// Registers the full-stack VC population.
pub fn register_all(engine: &mut VcEngine, profile: Profile) {
    register_all_with(engine, profile, None);
}

/// [`register_all`] with the invariant fault-schedule depth overridden
/// — the audit's `--schedules N` deep-sweep knob. `None` keeps the
/// profile's sizing. The override changes only how many schedules each
/// `invariant::*` VC sweeps, never which VCs exist, so names are
/// stable across depths; sweeps of ≥ 8 schedules keep the lattice
/// corner-pinning guarantee (`veros_spec::fault::FaultSchedule::sweep`).
pub fn register_all_with(
    engine: &mut VcEngine,
    profile: Profile,
    invariant_schedules: Option<usize>,
) {
    let mut p = profile.params();
    if let Some(n) = invariant_schedules {
        p.invariant_schedules = n.max(1);
    }

    // --- §3 obligations ---------------------------------------------------
    engine.register(MODULE, VcKind::Marshalling, "abi::all_variants_roundtrip", || {
        obligations::marshalling_regs_roundtrip()
    });
    for seed in 0..4u64 {
        let iters = p.marshal_iters;
        engine.register(
            MODULE,
            VcKind::Marshalling,
            format!("abi::random_args_s{seed}"),
            move || obligations::marshalling_random_args(seed, iters),
        );
        engine.register(
            MODULE,
            VcKind::Marshalling,
            format!("abi::decode_fuzz_s{seed}"),
            move || obligations::marshalling_decode_fuzz(seed, iters),
        );
        engine.register(
            MODULE,
            VcKind::Marshalling,
            format!("wire::typed_roundtrip_s{seed}"),
            move || obligations::marshalling_bytes_roundtrip(seed, iters / 4),
        );
    }
    for seed in 0..6u64 {
        let steps = p.mapping_steps;
        engine.register(
            MODULE,
            VcKind::Interpretation,
            format!("mapping::user_buffers_via_page_table_s{seed}"),
            move || obligations::mapping_obligation(seed, steps),
        );
    }
    for seed in 0..4u64 {
        let steps = p.mapping_steps;
        engine.register(
            MODULE,
            VcKind::RaceFreedom,
            format!("race::serialized_buffer_access_s{seed}"),
            move || obligations::race_freedom_obligation(seed, steps),
        );
    }

    // --- §4.4 refinement theorem -------------------------------------------
    // The random traces exercise the complete syscall surface. The match
    // names every `Syscall` variant and has no wildcard, so a new syscall
    // does not compile until it is listed here, beside the VC that covers
    // it.
    const _: fn(&veros_kernel::Syscall) = |call| {
        use veros_kernel::Syscall as S;
        match call {
            S::Spawn
            | S::Exit { .. }
            | S::Wait { .. }
            | S::Map { .. }
            | S::Unmap { .. }
            | S::Open { .. }
            | S::Read { .. }
            | S::Write { .. }
            | S::Seek { .. }
            | S::Close { .. }
            | S::Unlink { .. }
            | S::FutexWait { .. }
            | S::FutexWake { .. }
            | S::ThreadSpawn { .. }
            | S::Yield
            | S::ClockRead => {}
        }
    };
    for seed in 0..p.refine_seeds {
        let steps = p.refine_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("theorem::kernel_refines_sys_spec_s{seed}"),
            move || theorem::refinement_run(seed, steps, 25).map(|_| ()),
        );
    }

    // --- scheduler sanity ----------------------------------------------------
    for seed in 0..6u64 {
        let steps = p.sched_steps;
        engine.register(
            MODULE,
            VcKind::Invariant,
            format!("scheduler::sanity_s{seed}"),
            move || scheduler_sanity(seed, steps),
        );
    }

    // --- NR linearizability ---------------------------------------------------
    for (tag, replicas, threads) in [("r1t2", 1usize, 2usize), ("r2t2", 2, 2), ("r2t3", 2, 3)] {
        let ops = p.nr_ops_per_thread;
        engine.register(
            MODULE,
            VcKind::Linearizability,
            format!("nr::counter_history_{tag}"),
            move || nr_linearizable(replicas, threads, ops),
        );
    }

    // --- NR-replicated address space ------------------------------------------
    // Drives the replicated memory system (the Fig 1b/1c workload
    // structure) against a sequential reference replica, over every
    // write and read op: the two matches have no wildcard, so a new op
    // does not compile until it is listed here.
    const _: fn(&veros_kernel::vspace::VSpaceWriteOp) = |op| {
        use veros_kernel::vspace::VSpaceWriteOp as W;
        match op {
            W::MapNew { .. } | W::Unmap { .. } | W::MapRange { .. } | W::UnmapRange { .. } => {}
        }
    };
    const _: fn(&veros_kernel::vspace::VSpaceReadOp) = |op| {
        use veros_kernel::vspace::VSpaceReadOp as R;
        match op {
            R::Resolve { .. } | R::MappedBytes => {}
        }
    };
    for seed in 0..4u64 {
        let steps = p.mapping_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("nr::vspace_replicas_match_reference_s{seed}"),
            move || vspace_replication_consistent(seed, steps),
        );
    }

    // --- translation cache coherence ------------------------------------------
    // The resolve fast path (veros-kernel's software TLB) must be
    // invisible: cached answers always equal what the high-level spec
    // map says, across random map/unmap/range traffic.
    for seed in 0..4u64 {
        let steps = p.mapping_steps;
        engine.register(
            MODULE,
            VcKind::Refinement,
            format!("tlb::cache_agrees_with_spec_map_s{seed}"),
            move || translation_cache_coherent(seed, steps),
        );
    }

    // --- filesystem crash safety ------------------------------------------------
    for seed in 0..p.fs_crash_seeds {
        engine.register(
            MODULE,
            VcKind::Property,
            format!("fs::crash_recovers_committed_boundary_s{seed}"),
            move || fs_crash_safety(seed),
        );
    }

    // --- network transport spec ----------------------------------------------
    for seed in 0..p.rdt_seeds {
        engine.register(
            MODULE,
            VcKind::Property,
            format!("net::rdt_prefix_delivery_s{seed}"),
            move || rdt_prefix_spec(seed),
        );
    }

    // --- uring: asynchronous submission/completion rings ----------------------
    // The ring path must be invisible to the OS contract: every CQE
    // result equals the synchronous dispatch result of its SQE in the
    // single order the engine performed them (witnessed by its dispatch
    // log and by a policy-mirroring synchronous twin on a second
    // kernel), non-blocking submissions complete FIFO, and the final
    // abstract kernel states are identical.
    for seed in 0..p.uring_seeds {
        let steps = p.uring_steps;
        engine.register(
            MODULE,
            VcKind::Linearizability,
            format!("uring::ring_linearizes_to_sync_dispatch_s{seed}"),
            move || crate::uring::differential_run(seed, steps),
        );
    }
    // Exactly-once delivery across wraparound and full/empty boundaries
    // of a deliberately tiny ring (depth 4, constant backpressure).
    for seed in 0..p.uring_seeds {
        let steps = p.uring_steps * 4;
        engine.register(
            MODULE,
            VcKind::Property,
            format!("uring::no_entry_lost_or_duplicated_s{seed}"),
            move || crate::uring::ring_exactly_once(seed, steps),
        );
    }
    engine.register(
        MODULE,
        VcKind::Property,
        "uring::telemetry_counters_coherent",
        crate::uring::telemetry_counters_coherent,
    );
    // Chain atomicity: a failing link cancels exactly its suffix —
    // never the completed prefix, never a later chain — across
    // wraparound and drain-split chains on a tiny ring.
    for seed in 0..p.uring_seeds {
        let steps = p.uring_steps;
        engine.register(
            MODULE,
            VcKind::Property,
            format!("uring::chain_atomicity_s{seed}"),
            move || crate::uring::chain_atomicity(seed, steps),
        );
    }

    // --- userspace mutex: the §3 futex example ---------------------------------
    // Mutual exclusion of the ulib futex mutex over the model kernel:
    // cooperative workers hold the lock across scheduler yields, so any
    // exclusion break shows up as a counter moving under a held lock or
    // as a lost update that wedges the workload.
    for seed in 0..4u64 {
        let (workers, incs) = (p.mutex_workers, p.mutex_incs);
        engine.register(
            MODULE,
            VcKind::RaceFreedom,
            format!("ulib::futex_mutex_mutual_exclusion_s{seed}"),
            move || ulib_mutex_exclusion(seed, workers, incs),
        );
    }

    // --- block-store wire protocol ---------------------------------------------
    // The storage protocol's marshalling obligation: random messages
    // round-trip, ids echo, truncations decode to None, and the
    // end-to-end checksum catches single-byte corruption.
    for seed in 0..2u64 {
        let iters = p.wire_iters;
        engine.register(
            MODULE,
            VcKind::Marshalling,
            format!("blockstore::wire_roundtrip_checksum_s{seed}"),
            move || blockstore_wire_roundtrip(seed, iters),
        );
    }

    // --- telemetry coherence ---------------------------------------------------
    // The observability layer must agree with spec-visible behaviour:
    // with instruments live, counters are exact and own-thread
    // increments immediately visible, so a single-threaded workload's
    // deltas are hard lower bounds (concurrent VCs can only inflate
    // them); with the feature off, every instrument must read zero.
    engine.register(
        MODULE,
        VcKind::Property,
        "telemetry::tlb_counters_match_resolve_behaviour",
        telemetry_tlb_counters_coherent,
    );
    engine.register(
        MODULE,
        VcKind::Property,
        "telemetry::journal_counters_match_commit_replay",
        telemetry_journal_counters_coherent,
    );

    // --- end-to-end invariants under fault schedules ---------------------------
    // The INVARIANTS.md families, one VC per `FAMILIES` row and seed,
    // seed-major. Each VC sweeps a seeded *enumeration* of fault
    // schedules (crash point × wire faults × torn writes, via
    // `veros_spec::fault`), never a single seed. The names self-anchor
    // to the doc's backticked `invariant::<family>::*` globs; the
    // audit's invariant-coverage check enforces that mapping in both
    // directions.
    for seed in 0..p.invariant_seeds {
        for family in &crate::invariants::FAMILIES {
            let (run, n) = (family.run, p.invariant_schedules);
            engine.register(
                MODULE,
                VcKind::Invariant,
                format!("invariant::{}::{}_s{seed}", family.name, family.vc),
                move || run(seed, n, crate::invariants::Ablation::None),
            );
        }
    }
}

/// Random scheduler workouts asserting the sanity invariant throughout.
fn scheduler_sanity(seed: u64, steps: usize) -> Result<(), String> {
    use veros_kernel::thread::BlockReason;
    use veros_kernel::{Pid, Scheduler};

    let mut rng = SpecRng::seeded(seed ^ 0x5c4ed);
    let cores = 1 + rng.index(4);
    let mut sched = Scheduler::new(cores);
    let mut tids = Vec::new();
    for _ in 0..(2 + rng.index(6)) {
        let aff = if rng.chance(1, 3) {
            Some(rng.index(cores))
        } else {
            None
        };
        tids.push(sched.spawn_thread(Pid(1), aff).map_err(|e| format!("{e:?}"))?);
    }
    for step in 0..steps {
        match rng.below(10) {
            0..=4 => {
                let core = rng.index(cores);
                sched.schedule(core).map_err(|e| format!("{e:?}"))?;
            }
            5 => {
                let core = rng.index(cores);
                if sched.running_on(core).is_some() {
                    sched
                        .block_current(core, BlockReason::Futex(rng.next_u64()))
                        .map_err(|e| format!("{e:?}"))?;
                }
            }
            6 => {
                let tid = *rng.choose(&tids);
                let _ = sched.unblock(tid); // WrongState is fine.
            }
            7 => {
                let core = rng.index(cores);
                sched.tick(core).map_err(|e| format!("{e:?}"))?;
            }
            8 => {
                if rng.chance(1, 10) {
                    let tid = *rng.choose(&tids);
                    let _ = sched.exit_thread(tid);
                }
            }
            _ => {
                if tids.len() < 12 {
                    tids.push(
                        sched
                            .spawn_thread(Pid(1), None)
                            .map_err(|e| format!("{e:?}"))?,
                    );
                }
            }
        }
        sched
            .invariant()
            .map_err(|e| format!("seed {seed} step {step}: {e}"))?;
    }
    Ok(())
}

/// Sequential spec for the NR counter used in history checking.
struct CounterSpec;

#[derive(Clone, Debug, PartialEq, Eq)]
enum CounterOp {
    Add(u64),
    Get,
}

impl SeqSpec for CounterSpec {
    type Op = CounterOp;
    type Ret = u64;
    type State = u64;

    fn init(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, op: &CounterOp) -> (u64, u64) {
        match op {
            CounterOp::Add(n) => (state + n, state + n),
            CounterOp::Get => (*state, *state),
        }
    }
}

/// NR dispatch for the counter.
#[derive(Clone, Default)]
struct NrCounter(u64);

impl veros_nr::Dispatch for NrCounter {
    type ReadOp = ();
    type WriteOp = u64;
    type Response = u64;

    fn dispatch(&self, _: ()) -> u64 {
        self.0
    }

    fn dispatch_mut(&mut self, n: &u64) -> u64 {
        self.0 += n;
        self.0
    }
}

/// Records a concurrent NR history on real threads and checks it with
/// the Wing–Gong linearizability checker — "verify NR once", §4.3.
fn nr_linearizable(replicas: usize, threads: usize, ops_per_thread: usize) -> Result<(), String> {
    use std::sync::Arc;

    let nr = Arc::new(veros_nr::NodeReplicated::new(
        replicas,
        threads,
        64,
        NrCounter::default,
    ));
    let recorder = Arc::new(Recorder::<CounterOp, u64>::new());
    let mut handles = Vec::new();
    for t in 0..threads * replicas {
        let nr = Arc::clone(&nr);
        let recorder = Arc::clone(&recorder);
        handles.push(std::thread::spawn(move || {
            let mut tkn = nr.register(t % replicas).expect("slot");
            for i in 0..ops_per_thread {
                if i % 3 == 2 {
                    recorder.invoke(t, CounterOp::Get);
                    let v = nr.execute((), &mut tkn);
                    recorder.response(t, v);
                } else {
                    let add = (t * 10 + i + 1) as u64;
                    recorder.invoke(t, CounterOp::Add(add));
                    let v = nr.execute_mut(add, &mut tkn);
                    recorder.response(t, v);
                }
            }
        }));
    }
    for h in handles {
        h.join().map_err(|_| "worker panicked".to_string())?;
    }
    let history = Arc::try_unwrap(recorder)
        .map_err(|_| "recorder still shared".to_string())?
        .finish();
    check_linearizable(&CounterSpec, &history)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The NR-replicated address space agrees with a sequential reference on
/// random operation sequences, observed from every replica.
///
/// Replica state is deterministic (same log order, same buddy allocator
/// decisions), so each response — including the physical addresses
/// `Resolve` returns — must equal the reference's, and reads must be
/// fresh on whichever replica serves them.
fn vspace_replication_consistent(seed: u64, steps: usize) -> Result<(), String> {
    use veros_kernel::vspace::{VSpaceDispatch, VSpaceReadOp, VSpaceWriteOp};
    use veros_nr::{Dispatch, NodeReplicated};

    let replicas = 2;
    let nr = NodeReplicated::new(replicas, 1, 32, || <VSpaceDispatch>::new(256));
    let mut reference: VSpaceDispatch = VSpaceDispatch::new(256);
    let mut tkns: Vec<_> = (0..replicas)
        .map(|r| nr.register(r).ok_or(format!("replica {r} full")))
        .collect::<Result<_, _>>()?;
    let mut rng = SpecRng::seeded(seed ^ 0x5bace);
    let vas: Vec<u64> = (0..8).map(|i| 0x40_0000 + i * 0x1000).collect();
    for step in 0..steps {
        let va = *rng.choose(&vas);
        match rng.below(6) {
            0 | 1 => {
                let op = if rng.chance(1, 2) {
                    VSpaceWriteOp::MapNew { va }
                } else {
                    VSpaceWriteOp::Unmap { va }
                };
                let got = nr.execute_mut(op, &mut tkns[rng.index(replicas)]);
                let want = reference.dispatch_mut(&op);
                if got != want {
                    return Err(format!(
                        "seed {seed} step {step}: {op:?} -> {got:?}, reference {want:?}"
                    ));
                }
            }
            2 => {
                let pages = 1 + rng.below(6);
                let op = if rng.chance(1, 2) {
                    VSpaceWriteOp::MapRange { va, pages }
                } else {
                    VSpaceWriteOp::UnmapRange { va, pages }
                };
                let got = nr.execute_mut(op, &mut tkns[rng.index(replicas)]);
                let want = reference.dispatch_mut(&op);
                if got != want {
                    return Err(format!(
                        "seed {seed} step {step}: {op:?} -> {got:?}, reference {want:?}"
                    ));
                }
            }
            3 | 4 => {
                let op = VSpaceReadOp::Resolve { va };
                let want = reference.dispatch(op);
                for (r, tkn) in tkns.iter_mut().enumerate() {
                    let got = nr.execute(op, tkn);
                    if got != want {
                        return Err(format!(
                            "seed {seed} step {step}: replica {r} {op:?} -> {got:?}, reference {want:?}"
                        ));
                    }
                }
            }
            _ => {
                let op = VSpaceReadOp::MappedBytes;
                let want = reference.dispatch(op);
                for (r, tkn) in tkns.iter_mut().enumerate() {
                    let got = nr.execute(op, tkn);
                    if got != want {
                        return Err(format!(
                            "seed {seed} step {step}: replica {r} mapped bytes {got:?}, reference {want:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The translation cache never changes what `resolve` answers: after
/// every operation, resolving twice (a cold walk that fills the cache,
/// then the cached hit) must agree with the high-level specification map
/// mirroring the successful operations.
///
/// This is the coherence obligation for the resolve fast path: the cache
/// is an implementation detail below the spec line, so any divergence —
/// a stale entry surviving an unmap, a wrong offset reconstruction, an
/// entry outliving a remap — shows up as a spec mismatch here.
fn translation_cache_coherent(seed: u64, steps: usize) -> Result<(), String> {
    use veros_hw::{PAddr, PhysMem, VAddr, PAGE_4K};
    use veros_kernel::vspace::VSpace;
    use veros_kernel::BuddyAllocator;
    use veros_pagetable::{HighSpec, MapFlags, MapRequest, PageSize};

    let mut mem = PhysMem::new(512);
    let mut alloc = BuddyAllocator::new(PAddr(16 * PAGE_4K), 496);
    let mut v: VSpace = VSpace::new(&mut mem, &mut alloc).map_err(|e| format!("{e:?}"))?;
    // The spec mirror: exactly the mappings the successful operations
    // installed. Failed operations change neither side.
    let mut spec = HighSpec::new();
    let mut rng = SpecRng::seeded(seed ^ 0x71b);
    let vas: Vec<u64> = (0..10).map(|i| 0x40_0000 + i * 0x1000).collect();
    for step in 0..steps {
        let va = VAddr(*rng.choose(&vas));
        match rng.below(4) {
            0 => {
                if let Ok(pa) = v.map_new(&mut mem, &mut alloc, va, MapFlags::user_rw()) {
                    let req = MapRequest { va, pa, size: PageSize::Size4K, flags: MapFlags::user_rw() };
                    spec.apply_map(&req)
                        .map_err(|e| format!("seed {seed} step {step}: spec rejects map: {e:?}"))?;
                }
            }
            1 => {
                let pages = 1 + rng.below(6);
                if let Ok(base) = v.map_range_new(&mut mem, &mut alloc, va, pages, MapFlags::user_rw()) {
                    for i in 0..pages {
                        let req = MapRequest {
                            va: VAddr(va.0 + i * PAGE_4K),
                            pa: PAddr(base.0 + i * PAGE_4K),
                            size: PageSize::Size4K,
                            flags: MapFlags::user_rw(),
                        };
                        spec.apply_map(&req).map_err(|e| {
                            format!("seed {seed} step {step}: spec rejects range page {i}: {e:?}")
                        })?;
                    }
                }
            }
            2 => {
                if v.unmap(&mut mem, &mut alloc, va).is_ok() {
                    spec.apply_unmap(va)
                        .map_err(|e| format!("seed {seed} step {step}: spec rejects unmap: {e:?}"))?;
                }
            }
            _ => {
                let pages = 1 + rng.below(6);
                if let Ok(bytes) = v.unmap_range(&mut mem, &mut alloc, va, pages) {
                    let mut spec_bytes = 0u64;
                    for i in 0..pages {
                        let m = spec.apply_unmap(VAddr(va.0 + i * PAGE_4K)).map_err(|e| {
                            format!("seed {seed} step {step}: spec rejects range slot {i}: {e:?}")
                        })?;
                        spec_bytes += m.size.bytes();
                    }
                    if spec_bytes != bytes {
                        return Err(format!(
                            "seed {seed} step {step}: unmap_range freed {bytes} bytes, spec {spec_bytes}"
                        ));
                    }
                }
            }
        }
        // Probe: cold walk (fills the cache), then the cached hit; both
        // must equal the spec's answer. Off-page-base offsets exercise
        // the cache's physical-address reconstruction.
        for &probe in &vas {
            for offset in [0u64, 0x123] {
                let pv = VAddr(probe + offset);
                let want = spec.resolve(pv);
                for pass in ["cold", "cached"] {
                    let got = v.resolve(&mem, pv);
                    if got != want {
                        return Err(format!(
                            "seed {seed} step {step}: {pass} resolve({pv:?}) -> {got:?}, spec {want:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Telemetry coherence: the TLB counters must track resolve-path
/// behaviour (misses, epoch invalidations) as exact lower bounds, the
/// *uninstrumented* hit path must leave the miss counter untouched, and
/// everything reads zero in a telemetry-off build.
fn telemetry_tlb_counters_coherent() -> Result<(), String> {
    use veros_hw::{PAddr, PhysMem, VAddr, PAGE_4K};
    use veros_kernel::metrics::{TLB_EPOCH_INVALIDATIONS, TLB_MISSES};
    use veros_kernel::vspace::VSpace;
    use veros_kernel::BuddyAllocator;
    use veros_pagetable::MapFlags;

    let misses0 = TLB_MISSES.get();
    let inval0 = TLB_EPOCH_INVALIDATIONS.get();

    let mut mem = PhysMem::new(512);
    let mut alloc = BuddyAllocator::new(PAddr(16 * PAGE_4K), 496);
    let mut v: VSpace = VSpace::new(&mut mem, &mut alloc).map_err(|e| format!("{e:?}"))?;
    let vas: Vec<u64> = (0..8).map(|i| 0x40_0000 + i * PAGE_4K).collect();
    for &va in &vas {
        v.map_new(&mut mem, &mut alloc, VAddr(va), MapFlags::user_rw())
            .map_err(|e| format!("map {va:#x}: {e:?}"))?;
    }
    // Warm pass: every resolve is a cold walk (8 misses), filling the
    // cache; then 50 hot rounds (400 hits — uncounted by design, the
    // hit path carries no instrument; see DESIGN.md §10).
    for &va in &vas {
        v.resolve(&mem, VAddr(va)).map_err(|e| format!("warm resolve: {e:?}"))?;
    }
    for _ in 0..50 {
        for &va in &vas {
            v.resolve(&mem, VAddr(va)).map_err(|e| format!("hot resolve: {e:?}"))?;
        }
    }
    // Unmap one page: the whole cache is epoch-invalidated, so the next
    // pass over all 8 addresses misses again (including the failing
    // resolve of the unmapped page, counted before the walk).
    v.unmap(&mut mem, &mut alloc, VAddr(vas[0]))
        .map_err(|e| format!("unmap: {e:?}"))?;
    let misses_before_repass = TLB_MISSES.get();
    for &va in &vas {
        let _ = v.resolve(&mem, VAddr(va)); // vas[0] now errs, by design.
    }

    if !veros_telemetry::enabled() {
        if TLB_MISSES.get() != 0 || TLB_EPOCH_INVALIDATIONS.get() != 0 {
            return Err("telemetry disabled but TLB counters are nonzero".into());
        }
        return Ok(());
    }
    let d_misses = TLB_MISSES.get() - misses0;
    let d_inval = TLB_EPOCH_INVALIDATIONS.get() - inval0;
    let d_repass = TLB_MISSES.get() - misses_before_repass;
    if d_misses < 8 {
        return Err(format!("8 cold walks recorded only {d_misses} misses"));
    }
    if d_inval < 1 {
        return Err(format!("unmap recorded {d_inval} epoch invalidations"));
    }
    if d_repass < 8 {
        return Err(format!(
            "post-invalidation pass over 8 pages recorded only {d_repass} misses"
        ));
    }
    Ok(())
}

/// Telemetry coherence: journal counters must track commits, recovery
/// replay (cross-checked against the instance-exact `replayed_ops`),
/// and the WAL's on-disk footprint; and read zero with telemetry off.
fn telemetry_journal_counters_coherent() -> Result<(), String> {
    use veros_fs::journal::{FsOp, JournaledFs};
    use veros_fs::metrics::{JOURNAL_COMMITS, JOURNAL_REPLAYED, WAL_BYTES};
    use veros_hw::{SimDisk, SECTOR_SIZE};

    let commits0 = JOURNAL_COMMITS.get();
    let replayed0 = JOURNAL_REPLAYED.get();
    let wal0 = WAL_BYTES.get();

    let mut jfs = JournaledFs::format(SimDisk::new(1024));
    for i in 0..5u32 {
        let f = format!("/vc{i}");
        jfs.apply(FsOp::Create(f.clone())).map_err(|e| e.to_string())?;
        jfs.apply(FsOp::WriteAt(f, 0, vec![i as u8; 64])).map_err(|e| e.to_string())?;
        jfs.commit().map_err(|e| e.to_string())?;
    }
    let recovered = JournaledFs::recover(jfs.into_disk());
    if recovered.replayed_ops != 10 {
        return Err(format!(
            "recovery replayed {} ops, spec says exactly 10",
            recovered.replayed_ops
        ));
    }

    if !veros_telemetry::enabled() {
        if JOURNAL_COMMITS.get() != 0 || JOURNAL_REPLAYED.get() != 0 || WAL_BYTES.get() != 0 {
            return Err("telemetry disabled but journal counters are nonzero".into());
        }
        return Ok(());
    }
    let d_commits = JOURNAL_COMMITS.get() - commits0;
    let d_replayed = JOURNAL_REPLAYED.get() - replayed0;
    let d_wal = WAL_BYTES.get() - wal0;
    if d_commits < 5 {
        return Err(format!("5 commits recorded only {d_commits}"));
    }
    if d_replayed < 10 {
        return Err(format!("10 replayed ops recorded only {d_replayed}"));
    }
    // One record per commit: 9 + 85 bytes of ops (`Create /vcN`, a
    // 64-byte `WriteAt`) + 12 of framing = 106 bytes, one sector each.
    let floor = 5 * SECTOR_SIZE as u64;
    if d_wal < floor {
        return Err(format!("WAL footprint {d_wal} below the {floor}-byte floor"));
    }
    Ok(())
}

/// Journal crash-safety over random histories (the spec from
/// `veros-fs::journal`), with a commit in flight: the last transaction
/// — the ops staged since the last commit plus a 600-byte write, a
/// 2-sector record — is committed with its barrier withheld, and the
/// drive keeps a random subset of what it had cached. Recovery must give
/// C, the last acknowledged state, or C′, the in-flight commit's —
/// C′ exactly when its whole record reached the platter. The history is
/// crashed 32 ways; both outcomes must occur.
fn fs_crash_safety(seed: u64) -> Result<(), String> {
    use veros_fs::journal::{FsOp, JournaledFs};
    use veros_fs::MemFs;
    use veros_hw::SimDisk;

    let history = || -> Result<(SimDisk, MemFs, MemFs), String> {
        let mut rng = SpecRng::seeded(seed ^ 0xc4a5);
        let mut jfs = JournaledFs::format(SimDisk::new(64));
        let mut acked = MemFs::new();
        for i in 0..40 {
            let f = format!("/f{}", rng.below(6));
            let op = match rng.below(4) {
                0 => FsOp::Create(f),
                1 => FsOp::WriteAt(f, rng.below(128), vec![rng.below(255) as u8; 16]),
                2 => FsOp::Truncate(f, rng.below(64)),
                _ => FsOp::Unlink(f),
            };
            let _ = jfs.apply(op);
            if i % 7 == 6 {
                jfs.commit().map_err(|e| e.to_string())?;
                acked = jfs.fs.clone();
            }
        }
        jfs.set_commit_barriers(false);
        let f = "/inflight".to_string();
        jfs.transact(&[FsOp::Create(f.clone()), FsOp::WriteAt(f, 0, vec![seed as u8; 600])])
            .map_err(|e| e.to_string())?;
        let in_flight = jfs.fs.clone();
        let _ = jfs.apply(FsOp::Create("/uncommitted".into()));
        Ok((jfs.into_disk(), acked, in_flight))
    };
    let mut crash_rng = SpecRng::seeded(seed ^ 0x5eed);
    let mut outcomes = [false; 2];
    for draw in 0..32 {
        let (disk, acked, in_flight) = history()?;
        let landed = crate::invariants::recovers_c_or_c_prime(disk, &acked, &in_flight, |disk| {
            disk.crash_random(&mut crash_rng)
        })
        .map_err(|e| format!("seed {seed} draw {draw}: {e}"))?;
        outcomes[landed as usize] = true;
    }
    if outcomes != [true, true] {
        return Err(format!("seed {seed}: 32 crashes recovered only one outcome ({outcomes:?})"));
    }
    Ok(())
}

/// The reliable transport's prefix-delivery spec under a hostile wire.
fn rdt_prefix_spec(seed: u64) -> Result<(), String> {
    use veros_net::demux::RdtDemux;
    use veros_net::sim::{FaultPlan, Network};

    let mut net = Network::new(2, FaultPlan::hostile(), seed ^ 0x2d7);
    let sa = net.host(0).bind(7000).map_err(|e| format!("{e:?}"))?;
    let sb = net.host(1).bind(7001).map_err(|e| format!("{e:?}"))?;
    let (ip0, ip1) = (net.host(0).ip(), net.host(1).ip());
    let mut a = RdtDemux::new(sa);
    let mut b = RdtDemux::new(sb);
    let sent: Vec<Vec<u8>> = (0..25u8).map(|i| vec![i, i ^ 0x5a]).collect();
    for m in &sent {
        a.send(net.host(0), 0, (ip1, 7001), m.clone()).map_err(|e| format!("{e:?}"))?;
    }
    let mut got = Vec::new();
    let mut done_at = None;
    for now in 0..5000u64 {
        net.step();
        a.poll(net.host(0), now).map_err(|e| format!("{e:?}"))?;
        b.poll(net.host(1), now).map_err(|e| format!("{e:?}"))?;
        a.on_tick(net.host(0), now).map_err(|e| format!("{e:?}"))?;
        b.on_tick(net.host(1), now).map_err(|e| format!("{e:?}"))?;
        while let Some((from, m)) = b.recv() {
            if from != (ip0, 7000) {
                return Err(format!("seed {seed} t={now}: delivered from {from:?}"));
            }
            got.push(m);
        }
        // Prefix property must hold at *every* instant, not just the end.
        if got.len() > sent.len() || got[..] != sent[..got.len()] {
            return Err(format!("seed {seed} t={now}: delivery is not a prefix"));
        }
        if a.quiescent() && done_at.is_none() {
            done_at = Some(now);
        }
        if done_at.is_some() && got.len() == sent.len() {
            return Ok(());
        }
    }
    Err(format!(
        "seed {seed}: transport did not deliver everything ({} of {})",
        got.len(),
        sent.len()
    ))
}

/// The §3 futex example as a checked obligation: cooperative workers
/// increment a shared counter under the ulib mutex, each deliberately
/// holding the lock across a scheduler reschedule. Exclusion failures
/// are witnessed two ways: a worker that sees the counter move while it
/// holds the lock exits nonzero, and a lost update leaves the count
/// short so some worker never reaches its quota and the run wedges.
fn ulib_mutex_exclusion(seed: u64, workers: u32, incs_per_worker: u32) -> Result<(), String> {
    use veros_kernel::{Kernel, KernelConfig, Syscall};
    use veros_ulib::{LockAttempt, LockState, Runtime, Step, UMutex};

    let kernel = Kernel::boot(KernelConfig { cores: 2, ..Default::default() })
        .map_err(|e| format!("boot: {e:?}"))?;
    let (pid, tid) = (kernel.init_pid, kernel.init_tid);
    let mut rt = Runtime::new(kernel);
    rt.kernel.sched.timeslice = 1 + seed % 3;
    rt.kernel
        .syscall(
            (pid, tid),
            Syscall::Map { va: 0x10_0000, pages: 1, writable: true },
        )
        .map_err(|e| format!("map: {e:?}"))?;
    const MUTEX: u64 = 0x10_0000;
    const COUNT: u64 = 0x10_0008;
    rt.attach(pid, tid, Box::new(|_| Step::Done(0)));
    let mut worker_tids = Vec::new();
    for _ in 0..workers {
        let mut done = 0u32;
        let mut lock = LockState::default();
        let mut holding = false;
        let mut stash = 0u32;
        let t = rt
            .spawn_task(
                (pid, tid),
                None,
                Box::new(move |ctx| {
                    if done == incs_per_worker {
                        return Step::Done(0);
                    }
                    let m = UMutex::at(MUTEX);
                    if !holding {
                        return match m.lock_attempt(ctx, &mut lock) {
                            Ok(LockAttempt::Acquired) => {
                                holding = true;
                                stash = ctx.read_u32(COUNT).unwrap_or(u32::MAX);
                                // Keep holding across a reschedule: a
                                // broken lock now lets another worker
                                // read the same counter value.
                                Step::Yield
                            }
                            Ok(_) => Step::Yield,
                            Err(_) => Step::Done(2),
                        };
                    }
                    let now = ctx.read_u32(COUNT).unwrap_or(u32::MAX);
                    if now != stash {
                        return Step::Done(1);
                    }
                    if ctx.write_u32(COUNT, now + 1).is_err() || m.unlock(ctx).is_err() {
                        return Step::Done(2);
                    }
                    holding = false;
                    done += 1;
                    Step::Yield
                }),
            )
            .map_err(|e| format!("spawn: {e:?}"))?;
        worker_tids.push(t);
    }
    if !rt.run(400_000) {
        return Err(format!(
            "seed {seed}: mutex workload wedged (lost update or deadlock)"
        ));
    }
    for t in worker_tids {
        match rt.exit_code(t) {
            Some(0) => {}
            Some(1) => {
                return Err(format!(
                    "seed {seed}: counter moved while a worker held the mutex"
                ))
            }
            other => return Err(format!("seed {seed}: worker {t:?} exited {other:?}")),
        }
    }
    Ok(())
}

/// Block-store wire marshalling: random requests and responses
/// round-trip exactly, ids echo, every truncation decodes to `None`,
/// and the end-to-end block checksum changes under single-byte flips.
fn blockstore_wire_roundtrip(seed: u64, iters: usize) -> Result<(), String> {
    use veros_blockstore::wire::{block_checksum, Request, Response};

    let mut rng = SpecRng::seeded(seed ^ 0xb10c);
    for i in 0..iters {
        let id = rng.next_u64();
        let key = format!("k{}", rng.below(1000));
        let data: Vec<u8> = (0..rng.below(64)).map(|_| rng.below(256) as u8).collect();
        let (client, seq, epoch) = (rng.below(2000), rng.next_u64(), rng.below(16));
        let rest: Vec<u16> = (0..rng.below(4)).map(|_| rng.below(64) as u16).collect();
        let req = match rng.below(6) {
            0 => Request::Get { id, key: key.clone() },
            1 => Request::ShardPut {
                id,
                key: key.clone(),
                checksum: block_checksum(&data),
                data: data.clone(),
                client,
                seq,
            },
            2 => Request::ShardDelete { id, key: key.clone(), client, seq },
            3 => Request::ChainPut {
                id,
                key: key.clone(),
                checksum: block_checksum(&data),
                data: data.clone(),
                client,
                seq,
                epoch,
                rest,
            },
            4 => Request::ChainDelete { id, key: key.clone(), client, seq, epoch, rest },
            _ => Request::SyncShard { id, shard: rng.below(1 << 16) as u32 },
        };
        let bytes = req.encode();
        match Request::decode(&bytes) {
            Some(back) if back == req && back.id() == id => {}
            other => {
                return Err(format!("seed {seed} iter {i}: request round-trip gave {other:?}"))
            }
        }
        let cut = rng.index(bytes.len());
        if cut < bytes.len() && Request::decode(&bytes[..cut]).is_some() {
            return Err(format!("seed {seed} iter {i}: truncation at {cut} decoded"));
        }
        let resp = match rng.below(7) {
            0 => Response::PutOk { id },
            1 => Response::GetOk { id, checksum: block_checksum(&data), data: data.clone() },
            2 => Response::NotFound { id },
            3 => Response::DeleteOk { id },
            4 => Response::Error { id, reason: "checksum mismatch".into() },
            5 => Response::Retry { id },
            _ => Response::SyncBlocks {
                id,
                blocks: vec![(key.clone(), data.clone(), block_checksum(&data))],
            },
        };
        let rbytes = resp.encode();
        match Response::decode(&rbytes) {
            Some(back) if back == resp && back.id() == id => {}
            other => {
                return Err(format!("seed {seed} iter {i}: response round-trip gave {other:?}"))
            }
        }
        if !data.is_empty() {
            let mut bad = data.clone();
            let at = rng.index(bad.len());
            bad[at] ^= 0x41;
            if block_checksum(&bad) == block_checksum(&data) {
                return Err(format!(
                    "seed {seed} iter {i}: checksum unchanged under a single-byte flip"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn population_covers_all_kinds() {
        let mut engine = VcEngine::new();
        register_all(&mut engine, Profile::Quick);
        assert!(engine.len() >= 40, "population too small: {}", engine.len());
    }
}
