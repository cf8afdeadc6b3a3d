//! End-to-end safety invariants swept under fault schedules.
//!
//! `INVARIANTS.md` states what the whole stack guarantees; this module
//! is the executable side of that contract. Each row of [`FAMILIES`] is
//! one invariant *family*: its sweep enumerates [`FaultSchedule`]s with
//! [`FaultSchedule::sweep`] (crash points, wire faults, torn writes —
//! never a single lucky seed) and drives the real subsystems through
//! each schedule, failing with the schedule's description on the first
//! violation. Every consumer iterates the table: [`crate::vcs`]
//! registers each row as `invariant::<name>::*` VCs (exactly the anchor
//! format `INVARIANTS.md` uses, so the audit's invariant-coverage check
//! can verify doc ↔ code agreement in both directions),
//! [`crate::metrics::export`] exports each row's schedule counter, and
//! the audit, `telemetry_report` and the `invariant_regression` test
//! read the rows. Adding a family is its sweep function, one row here
//! plus one `INVARIANTS.md` section.
//!
//! Every family takes an [`Ablation`]: [`Ablation::None`] is the real
//! system, while each other variant disables exactly one fault-injected
//! defense (a journal barrier, replication, retransmission, rollback
//! accounting, resume-at-boundary recovery). The
//! `invariant_regression` integration test asserts each row's sweep
//! *fails* under the row's ablation — the anti-vacuity guard demanded by
//! the sweep discipline.

use std::collections::{BTreeMap, BTreeSet};

use veros_spec::fault::FaultSchedule;
use veros_spec::rng::SpecRng;
use veros_telemetry::Counter;

use crate::metrics;

/// One end-to-end invariant family: everything the VC registry, the
/// telemetry export, the audit and the anti-vacuity regression know
/// about it.
pub struct Family {
    /// The `invariant::<name>::*` anchor segment, the
    /// [`FaultSchedule::sweep`] seed domain, and the prefix of every
    /// violation the sweep reports.
    pub name: &'static str,
    /// The VC leaf: seed `s` registers `invariant::<name>::<vc>_s<s>`.
    pub vc: &'static str,
    /// The telemetry name of `counter`: `invariant.<name>.schedules`.
    pub metric: &'static str,
    /// Schedules this family swept.
    pub counter: Counter,
    /// The sweep: `run(family_seed, schedules, ablation)`.
    pub run: fn(u64, usize, Ablation) -> Result<(), String>,
    /// The one defense the anti-vacuity regression disables.
    pub ablation: Ablation,
    /// The schedule count at which the sweep must fail under `ablation`
    /// (and pass without it)…
    pub fails_at: usize,
    /// …and why those schedules expose the missing defense.
    pub fails_because: &'static str,
}

/// The invariant families, in the order they appear in `INVARIANTS.md`:
/// the one declaration of each. The audit's invariant-coverage check
/// matches the doc's backticked anchors against the VC names registered
/// from these rows.
pub static FAMILIES: [Family; 6] = [
    Family {
        name: "durability",
        vc: "acked_survives_crash",
        metric: "invariant.durability.schedules",
        counter: Counter::new(),
        run: durability,
        ablation: Ablation::UnreplicatedChain,
        fails_at: 3,
        fails_because: "ordinal 0 exercises the failover mode: a put acked by a 1-wide \
                        chain is lost the moment its head dies",
    },
    Family {
        name: "exactly_once",
        vc: "applied_once_in_order",
        metric: "invariant.exactly_once.schedules",
        counter: Counter::new(),
        run: exactly_once,
        ablation: Ablation::RawDatagrams,
        fails_at: 4,
        fails_because: "four schedules include mild and hostile wire tiers: a raw \
                        datagram stream loses, duplicates, or reorders at least one of them",
    },
    Family {
        name: "fs_journal",
        vc: "recovers_committed_boundary",
        metric: "invariant.fs_journal.schedules",
        counter: Counter::new(),
        run: fs_journal,
        ablation: Ablation::SkipCommitBarrier,
        fails_at: 3,
        fails_because: "ordinal 0 crashes at the zero boundary: with the flush barrier \
                        skipped, the committed records are still volatile and vanish",
    },
    Family {
        name: "frames",
        vc: "conservation_under_pressure",
        metric: "invariant.frames.schedules",
        counter: Counter::new(),
        run: frames,
        ablation: Ablation::LeakFrames,
        fails_at: 3,
        fails_because: "ordinal 0 puts the allocation-pressure point at step 0, so the \
                        ablated release path holds frames back and teardown comes up short",
    },
    Family {
        name: "uring_chain",
        vc: "crash_leaves_exact_prefix",
        metric: "invariant.uring_chain.schedules",
        counter: Counter::new(),
        run: uring_chain,
        ablation: Ablation::ReplayLogTwice,
        fails_at: 5,
        fails_because: "mid-stream crash points leave a non-empty dispatch log; replaying \
                        it twice re-executes non-idempotent links (opens, maps, even clock \
                        reads) and diverges from the crashed kernel",
    },
    Family {
        name: "cluster_durability",
        vc: "acked_survives_any_chain_loss",
        metric: "invariant.cluster_durability.schedules",
        counter: Counter::new(),
        run: cluster_durability,
        ablation: Ablation::UnreplicatedChain,
        fails_at: 2,
        fails_because: "with every chain one replica wide, schedule 0 kills the acked \
                        write's only holder: the promoted owner syncs an empty shard and \
                        serves NotFound — the ack bought nothing",
    },
];

/// Deliberate single-defense breakage, one per family. The sweeps must
/// fail under the matching ablation or they are vacuous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// The real system: every defense in place.
    None,
    /// Exactly-once: raw datagrams instead of the reliable transport.
    RawDatagrams,
    /// Journal: commits without the flush barrier.
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

/// The one sweep driver: runs `check` on each of `schedules` fault
/// schedules of the family `name`, ticking `invariant.schedules_swept`
/// and the family's row counter, and fails on the first violation with
/// the family and the schedule named.
fn sweep(
    name: &str,
    family_seed: u64,
    schedules: usize,
    ablation: Ablation,
    mut check: impl FnMut(&FaultSchedule) -> Result<(), String>,
) -> Result<(), String> {
    let family = FAMILIES
        .iter()
        .find(|f| f.name == name)
        .expect("every sweep is declared by a FAMILIES row");
    for sched in FaultSchedule::sweep(family.name, family_seed, schedules) {
        metrics::SCHEDULES_SWEPT.inc();
        family.counter.inc();
        check(&sched)
            .map_err(|e| violation(ablation, format!("{name}: {e} [{}]", sched.describe())))?;
    }
    Ok(())
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
fn durability(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    sweep("durability", family_seed, schedules, ablation, |sched| {
        durability_one(sched, ablation)
    })
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
        plan: sched.wire,
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

/// **Exactly-once apply** (`invariant::exactly_once::*`): two senders
/// feed one receiving transport, which applies each message to that
/// sender's non-idempotent log and answers it, the way a fleet node
/// serves its clients. Every sender's log holds every message it sent
/// exactly once, in order, and so does every sender's log of answers,
/// no matter how the wire loses, duplicates, or reorders frames — and
/// on lossy schedules the transport must actually retransmit (the sweep
/// is not vacuous).
fn exactly_once(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    let mut retransmissions = 0u64;
    let mut hostile_swept = false;
    sweep("exactly_once", family_seed, schedules, ablation, |sched| {
        hostile_swept |= sched.wire == veros_spec::fault::WireFaults::hostile();
        retransmissions += exactly_once_one(sched, ablation)?;
        Ok(())
    })?;
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
    use veros_net::demux::RdtDemux;
    use veros_net::sim::Network;

    // Hosts 0 and 1 send; host 2 receives.
    const SENDERS: usize = 2;
    const RECEIVER: usize = SENDERS;
    const PORT: u16 = 7000;
    let mut net = Network::new(SENDERS as u16 + 1, sched.wire, sched.seed);
    let socks = (0..=RECEIVER)
        .map(|h| net.host(h).bind(PORT).map_err(|e| format!("bind {h}: {e:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let peers: Vec<_> = (0..=RECEIVER).map(|h| (net.host(h).ip(), PORT)).collect();
    let sender_of = |from| {
        peers[..SENDERS]
            .iter()
            .position(|&p| p == from)
            .ok_or_else(|| format!("applied a message from {from:?}, which sent none"))
    };

    let n = 12 + sched.ordinal % 6;
    let message = |s: usize, i: usize| vec![s as u8, i as u8, (sched.seed >> (8 * (i % 8))) as u8];
    let sent: Vec<Vec<Vec<u8>>> = (0..SENDERS).map(|s| (0..n).map(|i| message(s, i)).collect()).collect();
    // The applied logs, one per sender, are non-idempotent by
    // construction: a duplicate or reordered apply is visible forever.
    let mut applied: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS];

    if ablation == Ablation::RawDatagrams {
        // Ablation: fire-and-forget datagrams, no transport.
        let (ip, port) = peers[RECEIVER];
        for i in 0..n {
            for (s, stream) in sent.iter().enumerate() {
                net.host(s).send_to(socks[s], ip, port, &[&stream[i]]).map_err(|e| format!("send: {e:?}"))?;
            }
        }
        for _ in 0..200 {
            net.step();
            let receiver = net.host(RECEIVER);
            while let Some((ip, port, d)) =
                receiver.recv_from(socks[RECEIVER]).map_err(|e| format!("{e:?}"))?
            {
                applied[sender_of((ip, port))?].push(d);
            }
        }
        if applied != sent {
            return Err(format!(
                "applied {:?} messages for {n} sent by each sender (raw wire broke exactly-once)",
                applied.iter().map(Vec::len).collect::<Vec<_>>(),
            ));
        }
        return Ok(0);
    }

    let mut demux: Vec<RdtDemux> = socks.into_iter().map(RdtDemux::new).collect();
    for (s, stream) in sent.iter().enumerate() {
        for m in stream {
            demux[s]
                .send(net.host(s), 0, peers[RECEIVER], m.clone())
                .map_err(|e| format!("send: {e:?}"))?;
        }
    }
    // What each sender got back: the receiver answers every apply.
    let mut answered: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS];
    for now in 0..8_000u64 {
        net.step();
        for (h, d) in demux.iter_mut().enumerate() {
            let stack = net.host(h);
            d.poll(stack, now).map_err(|e| format!("poll {h}: {e:?}"))?;
            while let Some((from, m)) = d.recv() {
                if h == RECEIVER {
                    applied[sender_of(from)?].push(m.clone());
                    d.send(stack, now, from, m).map_err(|e| format!("answer: {e:?}"))?;
                } else {
                    answered[h].push(m);
                }
            }
            d.on_tick(stack, now).map_err(|e| format!("tick {h}: {e:?}"))?;
        }
        for s in 0..SENDERS {
            // Mid-run: whatever has been applied is an exact prefix —
            // the receiver never applied early, twice, or out of order —
            // and a sender with nothing left unacknowledged sees all of
            // it applied.
            if !sent[s].starts_with(&applied[s]) || !sent[s].starts_with(&answered[s]) {
                return Err(format!("sender {s}'s log diverged at step {now}"));
            }
            if demux[s].quiescent() && applied[s] != sent[s] {
                return Err(format!("sender {s} fully acked at step {now}, log short"));
            }
        }
        if demux.iter().all(RdtDemux::quiescent) && answered == sent {
            break;
        }
    }
    if applied != sent || answered != sent {
        return Err(format!(
            "applied {:?} and answered {:?} of {n} messages per sender after drain",
            applied.iter().map(Vec::len).collect::<Vec<_>>(),
            answered.iter().map(Vec::len).collect::<Vec<_>>(),
        ));
    }
    if !demux.iter().all(RdtDemux::quiescent) {
        return Err("a demux never drained".to_string());
    }
    Ok(demux.iter().map(RdtDemux::retransmissions).sum())
}

// ---------------------------------------------------------------------
// Invariant 3: journal crash consistency.
// ---------------------------------------------------------------------

/// **Journal crash consistency** (`invariant::fs_journal::*`): with a
/// commit in flight — its record handed to the drive, its barrier not
/// yet returned — a crash at *any* cached-write boundary, including a
/// torn sector, recovers to C, the state at the last acknowledged
/// commit, or to C′, the state after the in-flight one, exactly when
/// its whole record reached the platter: nothing acknowledged is lost,
/// nothing unacknowledged appears even in part. Each schedule crashes
/// the same history twice: at its own point, `crash_point(dirty)`, and
/// with the whole record kept (only the barrier missing). The sweep
/// must recover both C and C′, or it checked one side of the "iff".
fn fs_journal(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    let mut outcomes = [false; 2];
    sweep("fs_journal", family_seed, schedules, ablation, |sched| {
        for whole in [false, true] {
            let landed = fs_journal_one(sched, ablation, whole)?;
            outcomes[landed as usize] = true;
        }
        Ok(())
    })?;
    if ablation == Ablation::None && outcomes != [true, true] {
        return Err(violation(
            ablation,
            format!("fs_journal: sweep recovered only one outcome (C, C′ seen: {outcomes:?}; vacuous)"),
        ));
    }
    Ok(())
}

/// Crashes `disk` — which must hold a commit in flight — with `crash`
/// and recovers it. The state must be C′ (`in_flight`) exactly when the
/// platter then holds everything that was written, i.e. the in-flight
/// record landed whole, and C (`acked`) otherwise. Returns whether it
/// landed.
pub(crate) fn recovers_c_or_c_prime(
    mut disk: veros_hw::disk::SimDisk,
    acked: &veros_fs::MemFs,
    in_flight: &veros_fs::MemFs,
    crash: impl FnOnce(&mut veros_hw::disk::SimDisk),
) -> Result<bool, String> {
    if disk.dirty() == 0 {
        return Err("nothing in flight at the crash (vacuous)".to_string());
    }
    let written = platter(&disk);
    crash(&mut disk);
    let landed = platter(&disk) == written;
    let (want, name) = if landed { (in_flight, "C′") } else { (acked, "C") };
    if veros_fs::JournaledFs::recover(disk).fs != *want {
        return Err(format!(
            "recovered state is not {name} (in-flight record landed whole: {landed})"
        ));
    }
    Ok(landed)
}

/// Every sector of `disk` as a read sees it: before a crash, what was
/// written (the cache wins); after it, what reached the platter.
fn platter(disk: &veros_hw::disk::SimDisk) -> Vec<u8> {
    use veros_hw::SECTOR_SIZE;
    let mut image = vec![0u8; disk.sectors() as usize * SECTOR_SIZE];
    for (sector, buf) in (0..).zip(image.as_chunks_mut::<SECTOR_SIZE>().0) {
        // In range by construction: `sector < disk.sectors()`.
        let _ = disk.read(sector, buf);
    }
    image
}

/// Crashes `sched`'s history at its crash point, or with the in-flight
/// record `whole`; returns whether that record landed.
fn fs_journal_one(sched: &FaultSchedule, ablation: Ablation, whole: bool) -> Result<bool, String> {
    let (disk, acked, in_flight) = fs_journal_history(sched, ablation)?;
    let dirty = disk.dirty();
    let keep = if whole { dirty } else { sched.crash_point(dirty) };
    recovers_c_or_c_prime(disk, &acked, &in_flight, |disk| match sched.torn_bytes {
        Some(t) => disk.crash_torn(keep, t),
        None => disk.crash_keep_prefix(keep),
    })
    .map_err(|e| format!("{e}; crash kept {keep} of {dirty} cached writes"))
}

/// The schedule's history, replayed identically on every call: a few
/// acknowledged transactions, one more committed with its barrier
/// withheld (a new file first, so C′ ≠ C, and up to ~1.6 KiB of data,
/// so its record spans 1–4 sectors), then an uncommitted tail. Returns
/// the disk with the in-flight record still cached, C and C′.
fn fs_journal_history(
    sched: &FaultSchedule,
    ablation: Ablation,
) -> Result<(veros_hw::disk::SimDisk, veros_fs::MemFs, veros_fs::MemFs), String> {
    use veros_fs::journal::JournaledFs;
    use veros_fs::FsOp;
    use veros_hw::disk::SimDisk;

    let mut jfs = JournaledFs::format(SimDisk::new(256));
    if ablation == Ablation::SkipCommitBarrier {
        jfs.set_commit_barriers(false);
    }
    let mut rng = SpecRng::seeded(sched.seed ^ 0xf5);

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
    }
    let acked = jfs.fs.clone();

    // In flight: committed, barrier withheld.
    file_no += 1;
    let mut data = vec![0u8; 400 + rng.index(1200)];
    rng.fill(&mut data);
    let mut txn = vec![FsOp::Create(format!("/f{file_no}")), FsOp::WriteAt(format!("/f{file_no}"), 0, data)];
    for _ in 0..rng.index(3) {
        txn.push(gen_op(&mut rng, &mut file_no));
    }
    jfs.set_commit_barriers(false);
    jfs.transact(&txn).map_err(|e| format!("in-flight transact: {e:?}"))?;
    let in_flight = jfs.fs.clone();

    // Uncommitted tail: acked nothing, never written, must never appear.
    for _ in 0..(1 + rng.index(2)) {
        let op = gen_op(&mut rng, &mut file_no);
        let _ = jfs.apply(op);
    }
    Ok((jfs.into_disk(), acked, in_flight))
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
fn frames(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    sweep("frames", family_seed, schedules, ablation, |sched| frames_one(sched, ablation))
}

fn frames_one(sched: &FaultSchedule, ablation: Ablation) -> Result<(), String> {
    use veros_hw::{FrameSource, PAddr, PhysMem, VAddr, PAGE_4K};
    use veros_kernel::vspace::VSpace;
    use veros_kernel::BuddyAllocator;
    use veros_pagetable::MapFlags;

    let mut mem = PhysMem::new(512);
    let mut alloc = BuddyAllocator::new(PAddr(16 * PAGE_4K), 496);
    let mut v: VSpace = VSpace::new(&mut mem, &mut alloc).map_err(|e| format!("{e:?}"))?;
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
fn uring_chain(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    sweep("uring_chain", family_seed, schedules, ablation, |sched| {
        uring_chain_one(sched, ablation)
    })
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
        let c = engine.submit_batch_bounded(ka, max.min(room));
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
fn cluster_durability(family_seed: u64, schedules: usize, ablation: Ablation) -> Result<(), String> {
    sweep("cluster_durability", family_seed, schedules, ablation, |sched| {
        cluster_durability_one(sched, ablation)
    })
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
        plan: sched.wire,
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
