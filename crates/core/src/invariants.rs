//! End-to-end safety invariants swept under fault schedules.
//!
//! `INVARIANTS.md` states what the whole stack guarantees; this module
//! is the executable side of that contract. Each public function here is
//! one invariant *family*: it enumerates [`FaultSchedule`]s with
//! [`FaultSchedule::sweep`] (crash points, wire faults, torn writes —
//! never a single lucky seed) and drives the real subsystems through
//! each schedule, failing with the schedule's description on the first
//! violation. The VC registrations in [`crate::vcs`] name these families
//! `invariant::<family>::*`, which is exactly the anchor format
//! `INVARIANTS.md` uses, so the audit's invariant-coverage check can
//! verify doc ↔ code agreement in both directions.
//!
//! Every family takes an [`Ablation`]: [`Ablation::None`] is the real
//! system, while each other variant disables exactly one fault-injected
//! defense (a journal barrier, replication, retransmission, rollback
//! accounting, resume-at-boundary recovery). The
//! `invariant_regression` integration test asserts each family *fails*
//! under its ablation — the anti-vacuity guard demanded by the sweep
//! discipline.

use std::collections::{BTreeMap, BTreeSet};

use veros_spec::fault::FaultSchedule;
use veros_spec::rng::SpecRng;
use veros_telemetry::Counter;

use crate::metrics;

/// The invariant families and their VC-name anchors, in the order they
/// appear in `INVARIANTS.md`. The audit's invariant-coverage check
/// matches the doc's backticked anchors against registered VC names;
/// this table is the code-side source of truth for family names.
pub const FAMILIES: [(&str, &str); 6] = [
    ("durability", "invariant::durability::*"),
    ("exactly_once", "invariant::exactly_once::*"),
    ("fs_journal", "invariant::fs_journal::*"),
    ("frames", "invariant::frames::*"),
    ("uring_chain", "invariant::uring_chain::*"),
    ("cluster_durability", "invariant::cluster_durability::*"),
];

/// Deliberate single-defense breakage, one per family. The sweeps must
/// fail under the matching ablation or they are vacuous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// The real system: every defense in place.
    None,
    /// Exactly-once: raw datagrams instead of the reliable transport.
    RawDatagrams,
    /// Journal: commit records without the flush barrier.
    SkipCommitBarrier,
    /// Frames: a rollback path that drops frames on the floor.
    LeakFrames,
    /// Uring: recovery replays the dispatch log from the start instead
    /// of resuming at the crash boundary.
    ReplayLogTwice,
    /// Durability and cluster durability: replication chains one node
    /// wide, so an ack no longer implies a copy that survives the
    /// writer's death.
    UnreplicatedChain,
}

fn swept(family: &'static Counter) {
    metrics::SCHEDULES_SWEPT.inc();
    family.inc();
}

/// Wraps a violation message; real (non-ablated) violations tick the
/// alert-pinned counter.
fn violation(ablation: Ablation, msg: String) -> String {
    if ablation == Ablation::None {
        metrics::VIOLATIONS.inc();
    }
    msg
}

// ---------------------------------------------------------------------
// Invariant 1: durability.
// ---------------------------------------------------------------------

/// **Durability** (`invariant::durability::*`): every blockstore write
/// the client saw acknowledged survives any single failure of the
/// replicated pair — head disk crash (torn or clean), head process
/// death with failover to the tail, or both — with contents and
/// checksum intact.
pub fn durability(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    for sched in FaultSchedule::sweep("durability", family_seed, schedules) {
        swept(&metrics::DURABILITY_SCHEDULES);
        durability_one(&sched, ablation)
            .map_err(|e| violation(ablation, format!("durability: {e} [{}]", sched.describe())))?;
    }
    Ok(())
}

fn durability_one(sched: &FaultSchedule, ablation: Ablation) -> Result<(), String> {
    use veros_blockstore::wire::block_checksum;
    use veros_blockstore::{BlockStore, Response};
    use veros_cluster::{Fleet, FleetConfig, Op};

    // `Fleet::pair`'s geometry; the ablation narrows the chain to its
    // head, so an ack no longer implies a second copy.
    let replication = if ablation == Ablation::UnreplicatedChain { 1 } else { 2 };
    let mut f = Fleet::new(FleetConfig {
        nodes: 2,
        replication,
        shards: 1,
        vnodes: 8,
        clients: 1,
        plan: sched.wire.into(),
        seed: sched.seed,
        ..FleetConfig::default()
    });
    const BUDGET: u64 = 30_000;
    let mut rng = SpecRng::seeded(sched.seed ^ 0xd00d);

    // Acked writes: the set the invariant quantifies over.
    let nkeys = 3 + sched.ordinal % 3;
    let mut acked: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..nkeys {
        let key = format!("inv-{i}");
        let mut data = vec![0u8; 16 + 8 * i];
        rng.fill(&mut data);
        let r = f
            .run_op(0, Op::Put { key: key.clone(), data: data.clone() }, BUDGET)
            .ok_or_else(|| format!("put {key} wedged"))?;
        if !matches!(r.resp, Response::PutOk { .. }) {
            return Err(format!("put {key} not acked: {:?}", r.resp));
        }
        acked.push((key, data));
    }

    // The single failure, chosen by the schedule: 0 = head death +
    // failover, 1 = head disk crash + recovery, 2 = both.
    let head = f.chain_for_key("inv-0")[0];
    let mode = sched.ordinal % 3;
    if mode != 0 {
        let node = &mut f.nodes[head as usize];
        let store = std::mem::replace(&mut node.store, BlockStore::format(64));
        let mut disk = store.into_disk();
        let keep = sched.crash_point(disk.dirty());
        match sched.torn_bytes {
            Some(t) => disk.crash_torn(keep, t),
            None => disk.crash_keep_prefix(keep),
        }
        node.store = BlockStore::recover(disk);
    }
    if mode == 1 {
        // Head recovered in place: every acked block must read back.
        for (key, data) in &acked {
            let (got, ck) = f.nodes[head as usize]
                .store
                .get(key)
                .map_err(|e| format!("{key} lost by head crash-recovery: {e:?}"))?;
            if got != *data || ck != block_checksum(data) {
                return Err(format!("{key} corrupted by head crash-recovery"));
            }
        }
        return Ok(());
    }
    // Head is gone: acked writes must be readable from the survivor.
    f.kill_node(head);
    for (key, data) in &acked {
        let r = f
            .run_op(0, Op::Get { key: key.clone() }, BUDGET)
            .ok_or_else(|| format!("{key} unreadable after failover"))?;
        match r.resp {
            Response::GetOk { data: got, checksum, .. }
                if got == *data && checksum == block_checksum(data) => {}
            other => return Err(format!("{key} lost after failover: {other:?}")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Invariant 2: exactly-once apply.
// ---------------------------------------------------------------------

/// **Exactly-once apply** (`invariant::exactly_once::*`): a
/// non-idempotent application log fed from the reliable transport
/// applies every sent message exactly once, in order, no matter how the
/// wire loses, duplicates, or reorders frames — and on lossy schedules
/// the transport must actually retransmit (the sweep is not vacuous).
pub fn exactly_once(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    let mut retransmissions = 0u64;
    let mut hostile_swept = false;
    for sched in FaultSchedule::sweep("exactly_once", family_seed, schedules) {
        swept(&metrics::EXACTLY_ONCE_SCHEDULES);
        hostile_swept |= sched.wire == veros_spec::fault::WireFaults::hostile();
        retransmissions += exactly_once_one(&sched, ablation).map_err(|e| {
            violation(ablation, format!("exactly_once: {e} [{}]", sched.describe()))
        })?;
    }
    if ablation == Ablation::None && hostile_swept && retransmissions == 0 {
        return Err(violation(
            ablation,
            "exactly_once: hostile schedules swept without a single retransmission \
             (vacuous sweep)"
                .to_string(),
        ));
    }
    Ok(())
}

fn exactly_once_one(sched: &FaultSchedule, ablation: Ablation) -> Result<u64, String> {
    use veros_net::rdt::RdtEndpoint;
    use veros_net::sim::Network;

    let mut net = Network::new(2, sched.wire.into(), sched.seed);
    let sa = net.host(0).bind(7000).map_err(|e| format!("bind a: {e:?}"))?;
    let sb = net.host(1).bind(7001).map_err(|e| format!("bind b: {e:?}"))?;
    let (ip0, ip1) = (net.host(0).ip(), net.host(1).ip());

    let n = 12 + sched.ordinal % 6;
    let sent: Vec<Vec<u8>> = (0..n)
        .map(|i| vec![i as u8, (sched.seed >> (8 * (i % 8))) as u8])
        .collect();
    // The applied log is non-idempotent by construction: a duplicate or
    // reordered apply is visible forever.
    let mut applied: Vec<Vec<u8>> = Vec::new();

    if ablation == Ablation::RawDatagrams {
        // Ablation: fire-and-forget datagrams, no transport.
        for m in &sent {
            net.host(0)
                .send_to(sa, ip1, 7001, m.clone())
                .map_err(|e| format!("send: {e:?}"))?;
        }
        for _ in 0..200 {
            net.step();
            while let Some((_, _, d)) = net.host(1).recv_from(sb).map_err(|e| format!("{e:?}"))? {
                applied.push(d);
            }
        }
        if applied != sent {
            return Err(format!(
                "applied {} messages for {} sent (raw wire broke exactly-once)",
                applied.len(),
                sent.len()
            ));
        }
        return Ok(0);
    }

    let mut a = RdtEndpoint::new(sa, (ip1, 7001)).with_window(4);
    let mut b = RdtEndpoint::new(sb, (ip0, 7000)).with_window(4);
    for m in &sent {
        a.send(net.host(0), 0, m.clone()).map_err(|e| format!("send: {e:?}"))?;
    }
    for now in 0..8_000u64 {
        net.step();
        a.poll(net.host(0), now).map_err(|e| format!("poll a: {e:?}"))?;
        b.poll(net.host(1), now).map_err(|e| format!("poll b: {e:?}"))?;
        a.on_tick(net.host(0), now).map_err(|e| format!("tick a: {e:?}"))?;
        b.on_tick(net.host(1), now).map_err(|e| format!("tick b: {e:?}"))?;
        while let Some(m) = b.recv() {
            applied.push(m);
        }
        // Mid-run: whatever has been applied is an exact prefix — the
        // receiver never applied early, twice, or out of order.
        if applied.len() > sent.len() || applied[..] != sent[..applied.len()] {
            return Err(format!("applied log diverged at step {now}"));
        }
        if a.fully_acked() && applied.len() == sent.len() {
            break;
        }
    }
    if applied != sent {
        return Err(format!(
            "applied {} of {} messages after drain",
            applied.len(),
            sent.len()
        ));
    }
    if !a.fully_acked() {
        return Err("sender never drained".to_string());
    }
    Ok(a.retransmissions())
}

// ---------------------------------------------------------------------
// Invariant 3: journal crash consistency.
// ---------------------------------------------------------------------

/// **Journal crash consistency** (`invariant::fs_journal::*`): after a
/// crash at *any* cached-write boundary — including a torn final sector
/// — recovery restores exactly the last committed transaction boundary:
/// nothing acknowledged is lost, nothing unacknowledged appears.
pub fn fs_journal(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    for sched in FaultSchedule::sweep("fs_journal", family_seed, schedules) {
        swept(&metrics::FS_JOURNAL_SCHEDULES);
        fs_journal_one(&sched, ablation)
            .map_err(|e| violation(ablation, format!("fs_journal: {e} [{}]", sched.describe())))?;
    }
    Ok(())
}

fn fs_journal_one(sched: &FaultSchedule, ablation: Ablation) -> Result<(), String> {
    use veros_fs::journal::JournaledFs;
    use veros_fs::FsOp;
    use veros_hw::disk::SimDisk;

    let mut jfs = JournaledFs::format(SimDisk::new(256));
    if ablation == Ablation::SkipCommitBarrier {
        jfs.set_commit_barriers(false);
    }
    let mut rng = SpecRng::seeded(sched.seed ^ 0xf5);
    let mut last_boundary = jfs.fs.clone();

    // A few committed transactions, then an uncommitted tail.
    let txns = 2 + sched.ordinal % 3;
    let mut file_no = 0u32;
    let gen_op = |rng: &mut SpecRng, file_no: &mut u32| -> FsOp {
        match rng.below(4) {
            0 => {
                *file_no += 1;
                FsOp::Create(format!("/f{file_no}"))
            }
            1 if *file_no > 0 => {
                let f = 1 + rng.below(*file_no as u64) as u32;
                let mut buf = vec![0u8; 8 + rng.index(24)];
                rng.fill(&mut buf);
                FsOp::WriteAt(format!("/f{f}"), rng.below(8), buf)
            }
            2 if *file_no > 0 => {
                let f = 1 + rng.below(*file_no as u64) as u32;
                FsOp::Truncate(format!("/f{f}"), rng.below(16))
            }
            _ => {
                *file_no += 1;
                FsOp::Create(format!("/f{file_no}"))
            }
        }
    };
    for _ in 0..txns {
        for _ in 0..(1 + rng.index(3)) {
            let op = gen_op(&mut rng, &mut file_no);
            let _ = jfs.apply(op); // invalid ops rejected up front: fine
        }
        jfs.commit().map_err(|e| format!("commit: {e:?}"))?;
        last_boundary = jfs.fs.clone();
    }
    // Uncommitted tail: acked nothing, so it must vanish on crash.
    for _ in 0..(1 + rng.index(2)) {
        let op = gen_op(&mut rng, &mut file_no);
        let _ = jfs.apply(op);
    }

    // Crash at the schedule's point in the cached-write stream.
    let mut disk = jfs.into_disk();
    let keep = sched.crash_point(disk.dirty());
    match sched.torn_bytes {
        Some(t) => disk.crash_torn(keep, t),
        None => disk.crash_keep_prefix(keep),
    }
    let recovered = JournaledFs::recover(disk);
    if recovered.fs != last_boundary {
        return Err(format!(
            "recovered state is not the last committed boundary \
             (crash kept {keep} cached writes)"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Invariant 4: frame conservation.
// ---------------------------------------------------------------------

/// **No lost frames** (`invariant::frames::*`): across arbitrary
/// map/unmap traffic with mid-range allocation failures forcing
/// rollback, every physical frame stays either allocated or on exactly
/// one free list ([`veros_kernel::BuddyAllocator::audit_conservation`]),
/// and tearing the whole address space down returns the allocator to
/// zero frames held.
pub fn frames(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    for sched in FaultSchedule::sweep("frames", family_seed, schedules) {
        swept(&metrics::FRAMES_SCHEDULES);
        frames_one(&sched, ablation)
            .map_err(|e| violation(ablation, format!("frames: {e} [{}]", sched.describe())))?;
    }
    Ok(())
}

fn frames_one(sched: &FaultSchedule, ablation: Ablation) -> Result<(), String> {
    use veros_hw::{FrameSource, PAddr, PhysMem, VAddr, PAGE_4K};
    use veros_kernel::vspace::{PtKind, VSpace};
    use veros_kernel::BuddyAllocator;
    use veros_pagetable::MapFlags;

    let mut mem = PhysMem::new(512);
    let mut alloc = BuddyAllocator::new(PAddr(16 * PAGE_4K), 496);
    let mut v = VSpace::new(&mut mem, &mut alloc, PtKind::Verified).map_err(|e| format!("{e:?}"))?;
    let mut rng = SpecRng::seeded(sched.seed ^ 0xf7a3e5);
    let vas: Vec<u64> = (0..12).map(|i| 0x40_0000 + i * 0x1000).collect();

    let steps = 40 + sched.ordinal * 5;
    // The schedule's crash point becomes the *pressure point*: the step
    // where we grab most of physical memory so range maps start failing
    // mid-allocation and must roll back.
    let pressure_at = sched.crash_point(steps);
    let mut blockers: Vec<PAddr> = Vec::new();
    let mut leaked = 0usize;

    for step in 0..steps {
        if step == pressure_at {
            // Exhaust to within a few frames of empty.
            while alloc.free_frames() > 4 {
                match alloc.alloc_frame() {
                    Some(f) => blockers.push(f),
                    None => break,
                }
            }
        }
        let va = VAddr(*rng.choose(&vas));
        match rng.below(4) {
            0 => {
                let _ = v.map_new(&mut mem, &mut alloc, va, MapFlags::user_rw());
            }
            1 => {
                let pages = 1 + rng.below(6);
                let _ = v.map_range_new(&mut mem, &mut alloc, va, pages, MapFlags::user_rw());
            }
            2 => {
                let _ = v.unmap(&mut mem, &mut alloc, va);
            }
            _ => {
                let pages = 1 + rng.below(6);
                let _ = v.unmap_range(&mut mem, &mut alloc, va, pages);
            }
        }
        alloc
            .audit_conservation()
            .map_err(|e| format!("after step {step}: {e}"))?;
        if step == pressure_at + 5 {
            // Release the pressure — except what the ablated rollback
            // path "forgot" it was holding.
            if ablation == Ablation::LeakFrames {
                leaked = blockers.len().min(3);
            }
            for f in blockers.drain(leaked..) {
                alloc.free_frame(f);
            }
            alloc.audit_conservation().map_err(|e| format!("after release: {e}"))?;
        }
    }
    for f in blockers.drain(leaked..) {
        alloc.free_frame(f);
    }
    // Full teardown: the address space gives everything back.
    for &va in &vas {
        let _ = v.unmap(&mut mem, &mut alloc, VAddr(va));
    }
    v.destroy(&mut mem, &mut alloc);
    alloc.audit_conservation().map_err(|e| format!("after teardown: {e}"))?;
    if alloc.allocated_frames() != 0 {
        return Err(format!(
            "{} frames lost after full teardown",
            alloc.allocated_frames()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Invariant 5: uring chain atomicity across a crash.
// ---------------------------------------------------------------------

/// **Chain crash atomicity** (`invariant::uring_chain::*`): if the
/// engine stops at *any* point mid-stream (a crash at the schedule's
/// SQE-consumption budget), every linked chain has executed either not
/// at all or as an exact effective prefix (all links up to the first
/// failure, nothing after), no link executed twice, and replaying the
/// dispatch log once from a fresh kernel reproduces the crashed
/// kernel's abstract state exactly.
pub fn uring_chain(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    for sched in FaultSchedule::sweep("uring_chain", family_seed, schedules) {
        swept(&metrics::URING_CHAIN_SCHEDULES);
        uring_chain_one(&sched, ablation)
            .map_err(|e| violation(ablation, format!("uring_chain: {e} [{}]", sched.describe())))?;
    }
    Ok(())
}

fn uring_chain_one(sched: &FaultSchedule, ablation: Ablation) -> Result<(), String> {
    use veros_kernel::syscall::Syscall;
    use veros_uring::{pair, Engine, SqeFlags};

    use crate::uring::{boot, MAP_VAS, PATH, PATH_VA, SHARED_VA};
    use crate::view::view;

    let mut ka = boot()?;
    let owner = (ka.init_pid, ka.init_tid);
    let (mut user, kring) = pair(8);
    let mut engine = Engine::new(kring, owner).with_dispatch_log();
    let mut rng = SpecRng::seeded(sched.seed ^ 0x0c4a);

    // Non-blocking links only (no workers: the crashed state is exactly
    // boot + dispatched links). Roughly a fifth fail (bad fd).
    let gen_link = |rng: &mut SpecRng| -> Syscall {
        match rng.below(6) {
            0 => Syscall::ClockRead,
            1 => Syscall::Yield,
            2 => Syscall::Open { path_ptr: PATH_VA, path_len: PATH.len() as u64, create: true },
            3 => Syscall::Close { fd: 99 }, // BadFd: the chain breaker.
            4 => Syscall::Write {
                fd: 3 + rng.below(3) as u32,
                buf_ptr: SHARED_VA + 0x100,
                buf_len: 1 + rng.below(16),
            },
            _ => Syscall::Map { va: *rng.choose(&MAP_VAS), pages: 1, writable: true },
        }
    };
    let nchains = 6 + sched.ordinal % 3;
    let mut token = 0u64;
    let chains: Vec<Vec<(u64, Syscall)>> = (0..nchains)
        .map(|_| {
            (0..1 + rng.index(4))
                .map(|_| {
                    let t = token;
                    token += 1;
                    (t, gen_link(&mut rng))
                })
                .collect()
        })
        .collect();
    let total_links: usize = chains.iter().map(Vec::len).sum();
    // The crash: the engine may consume at most this many SQEs.
    let budget = sched.crash_point(total_links);
    let mut consumed = 0usize;

    let drain_bounded = |engine: &mut Engine,
                             ka: &mut veros_kernel::Kernel,
                             user: &mut veros_uring::UserRing,
                             consumed: &mut usize,
                             max: usize|
     -> usize {
        let room = budget.saturating_sub(*consumed);
        if room == 0 {
            return 0;
        }
        let (c, _) = engine.submit_batch_bounded(ka, max.min(room));
        *consumed += c;
        while user.complete().is_some() {}
        c
    };

    'submit: for chain in &chains {
        for (i, (t, call)) in chain.iter().enumerate() {
            let flags = SqeFlags { link: i + 1 < chain.len(), subst: None };
            while user.submit_flagged(*t, call, flags).is_err() {
                // SQ full: the engine must make progress — unless the
                // crash budget is spent, which *is* the crash.
                if drain_bounded(&mut engine, &mut ka, &mut user, &mut consumed, 4) == 0 {
                    break 'submit;
                }
            }
            if rng.chance(1, 3) {
                drain_bounded(&mut engine, &mut ka, &mut user, &mut consumed, 2);
            }
        }
    }
    while drain_bounded(&mut engine, &mut ka, &mut user, &mut consumed, 8) > 0 {}

    // CRASH: no shutdown, no final drain — harvest the dispatch log and
    // abandon the ring (buffered chain prefixes and queued SQEs die).
    let log = engine.take_dispatch_log();
    drop(engine);
    drop(user);

    // 1. No link dispatched twice.
    let mut seen = BTreeSet::new();
    for rec in &log {
        if !seen.insert(rec.user_data) {
            return Err(format!("link {} dispatched twice", rec.user_data));
        }
    }
    let by_token: BTreeMap<u64, &veros_uring::DispatchRecord> =
        log.iter().map(|r| (r.user_data, r)).collect();

    // 2. Each chain executed atomically: nothing, or the exact
    // effective prefix (everything before the first failure).
    for (ci, chain) in chains.iter().enumerate() {
        let dispatched: Vec<usize> = (0..chain.len())
            .filter(|i| by_token.contains_key(&chain[*i].0))
            .collect();
        let k = dispatched.len();
        if dispatched != (0..k).collect::<Vec<_>>() {
            return Err(format!(
                "chain {ci}: dispatched links {dispatched:?} are not a prefix"
            ));
        }
        for &i in dispatched.iter().take(k.saturating_sub(1)) {
            if by_token[&chain[i].0].result.is_err() {
                return Err(format!("chain {ci}: link {i} failed but later links ran"));
            }
        }
        if 0 < k && k < chain.len() && by_token[&chain[k - 1].0].result.is_ok() {
            return Err(format!(
                "chain {ci}: dispatch stopped after successful link {} — a partial \
                 chain crossed the crash",
                k - 1
            ));
        }
    }

    // 3. Recovery: replaying the log once from a fresh kernel
    // reproduces the crashed kernel exactly — result for result, and
    // state for state.
    let mut kb = boot()?;
    let owner_b = (kb.init_pid, kb.init_tid);
    for rec in &log {
        let r = kb.syscall_batched(owner_b, rec.call);
        if r != rec.result {
            return Err(format!(
                "replay of link {} returned {r:?}, logged {:?}",
                rec.user_data, rec.result
            ));
        }
    }
    if ablation == Ablation::ReplayLogTwice {
        // Ablated recovery restarts the log from the beginning: any
        // non-idempotent link (an open, a map, even a clock read)
        // diverges on the second pass.
        for rec in &log {
            let r = kb.syscall_batched(owner_b, rec.call);
            if r != rec.result {
                return Err(format!(
                    "second replay of link {} returned {r:?}, logged {:?}",
                    rec.user_data, rec.result
                ));
            }
        }
    }
    if view(&ka) != view(&kb) {
        return Err("replayed kernel state diverges from the crashed kernel".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Invariant 6: cluster durability on the sharded fleet.
// ---------------------------------------------------------------------

/// **Cluster durability** (`invariant::cluster_durability::*`): on the
/// sharded, chain-replicated fleet, every write a client saw
/// acknowledged survives the fail-stop loss of any single member of its
/// replication chain — head, middle, or tail, chosen by the schedule's
/// victim selector — and reads back with exactly the acknowledged
/// contents from the surviving nodes, under every wire tier.
///
/// This is the §1 durability invariant re-proven on the topology
/// `veros-cluster` generalizes it to: the ack is released only after
/// the tail of an M-way chain acknowledged upstream, so any M−1 deaths
/// short of the whole chain leave a serving copy. The sweep kills one
/// member per schedule; `FaultSchedule::victim_of` walks every chain
/// position across consecutive ordinals, so "any single chain node" is
/// covered, not sampled.
pub fn cluster_durability(
    family_seed: u64,
    schedules: usize,
    ablation: Ablation,
) -> Result<(), String> {
    for sched in FaultSchedule::sweep("cluster_durability", family_seed, schedules) {
        swept(&metrics::CLUSTER_DURABILITY_SCHEDULES);
        cluster_durability_one(&sched, ablation).map_err(|e| {
            violation(
                ablation,
                format!("cluster_durability: {e} [{}]", sched.describe()),
            )
        })?;
    }
    Ok(())
}

fn cluster_durability_one(sched: &FaultSchedule, ablation: Ablation) -> Result<(), String> {
    use veros_blockstore::Response;
    use veros_cluster::{Fleet, FleetConfig, Op};

    // The ablation strips every chain to a single replica: the ack no
    // longer buys a surviving copy, and the sweep must notice the loss.
    let replication = if ablation == Ablation::UnreplicatedChain { 1 } else { 3 };
    let mut f = Fleet::new(FleetConfig {
        nodes: 6,
        replication,
        shards: 16,
        vnodes: 8,
        clients: 1,
        plan: sched.wire.into(),
        seed: sched.seed,
        sectors: 1 << 10,
    });
    const BUDGET: u64 = 30_000;

    // Acked writes: the set the invariant quantifies over.
    let nkeys = 3 + sched.ordinal % 3;
    let mut acked: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..nkeys {
        let key = format!("cd-{i}");
        let data = vec![(sched.seed >> (8 * (i % 8))) as u8; 24 + 8 * i];
        let r = f
            .run_op(0, Op::Put { key: key.clone(), data: data.clone() }, BUDGET)
            .ok_or_else(|| format!("put {key} wedged"))?;
        if !matches!(r.resp, Response::PutOk { .. }) {
            return Err(format!("put {key} not acked: {:?}", r.resp));
        }
        acked.push((key, data));
    }

    // The single failure: the schedule's crash fraction picks which
    // acked key's chain to attack, and the victim selector picks which
    // chain position dies.
    let attacked = acked[sched.crash_point(nkeys - 1)].0.clone();
    let chain = f.chain_for_key(&attacked);
    let victim_pos = sched.victim_of(chain.len());
    let victim = chain[victim_pos];
    f.kill_node(victim);

    // Every acked write — on the attacked chain or off it — must read
    // back from the surviving fleet, through failover and shard syncs.
    for (key, data) in &acked {
        let r = f
            .run_op(0, Op::Get { key: key.clone() }, BUDGET)
            .ok_or_else(|| format!("{key} unreadable after losing node {victim}"))?;
        match &r.resp {
            Response::GetOk { data: got, .. } if got == data => {}
            other => {
                return Err(format!(
                    "{key} lost after killing chain position {victim_pos} \
                     (node {victim}): {other:?}"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The quick-profile VCs already sweep each family; these tests pin
    // the family table and the telemetry contract.

    #[test]
    fn family_table_matches_the_anchor_format() {
        for (name, anchor) in FAMILIES {
            assert_eq!(*anchor, format!("invariant::{name}::*"));
        }
    }

    #[test]
    fn sweeps_tick_the_schedule_counters() {
        let before = metrics::SCHEDULES_SWEPT.get();
        let frames_before = metrics::FRAMES_SCHEDULES.get();
        frames(7, 2, Ablation::None).unwrap();
        if veros_telemetry::enabled() {
            assert_eq!(metrics::SCHEDULES_SWEPT.get(), before + 2);
            assert_eq!(metrics::FRAMES_SCHEDULES.get(), frames_before + 2);
        }
        assert_eq!(metrics::VIOLATIONS.get(), 0);
    }
}
