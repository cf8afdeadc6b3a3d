//! Emits one merged telemetry snapshot covering every instrumented
//! crate (nr, kernel, fs, net, blockstore, uring, cluster).
//!
//! Runs a small representative workload per subsystem — the NR hot
//! path, a kernel boot with a syscall sequence, a journaled filesystem
//! with crash recovery, a sharded block-store fleet over a lossy
//! simulated network with a mid-run chain-node kill, and a two-schedule
//! mini-sweep of every end-to-end invariant family — then registers
//! each crate's `metrics::export` into one `Registry` and mirrors the
//! JSON snapshot into the results directory (schema in
//! OBSERVABILITY.md).
//!
//! With `--no-default-features` the same binary still produces a
//! structurally complete snapshot whose `telemetry_enabled` field is
//! `false` and whose values are all zero.
//!
//! With `--check`, the run additionally evaluates the standing alert
//! policy ([`veros_telemetry::default_rules`]) against the snapshot and
//! fails on any violation. Check mode skips the deliberate
//! checksum-rejection probe — its whole point is to tick the counter
//! the policy says must stay at zero — so a clean stack passes and a
//! real integrity failure or replay-lag blowup trips the gate.
//!
//! Usage: `cargo run --release -p veros-bench --bin telemetry_report
//! [--check]`

use veros_blockstore::wire::block_checksum;
use veros_blockstore::BlockStore;
use veros_fs::journal::FsOp;
use veros_fs::JournaledFs;
use veros_hw::SimDisk;
use veros_kernel::{Kernel, KernelConfig, Syscall};
use veros_net::FaultPlan;
use veros_telemetry::Registry;

/// NR: drive the contended execute_mut hot path (combiner batching, log
/// appends, replay lag) plus the resolve/range paths.
fn exercise_nr() {
    veros_bench::hotpath::contended_execute_mut(4, 2, 2000);
    veros_bench::hotpath::resolve_latency_ns(8, 20_000);
    veros_bench::hotpath::range_ns_per_page(16, 5, true);
}

/// Kernel: boot and push a syscall sequence through the typed dispatch
/// (latency histograms + trace ring), exercising the TLB and the buddy
/// allocator along the way.
fn exercise_kernel() {
    let mut k = Kernel::boot(KernelConfig::default()).expect("default config boots");
    let caller = (k.init_pid, k.init_tid);
    let base = 0x40_0000u64;
    k.syscall(caller, Syscall::Map { va: base, pages: 8, writable: true })
        .expect("map");
    // A file round-trip through user memory: path + payload buffers.
    let path = b"/telemetry_probe";
    k.write_user(caller.0, base, path).expect("path into user memory");
    let fd = k
        .syscall(
            caller,
            Syscall::Open { path_ptr: base, path_len: path.len() as u64, create: true },
        )
        .expect("open creates");
    k.write_user(caller.0, base + 0x100, b"snapshot payload").expect("payload");
    k.syscall(
        caller,
        Syscall::Write { fd: fd as u32, buf_ptr: base + 0x100, buf_len: 16 },
    )
    .expect("write");
    k.syscall(caller, Syscall::Seek { fd: fd as u32, offset: 0 }).expect("seek");
    k.syscall(
        caller,
        Syscall::Read { fd: fd as u32, buf_ptr: base + 0x200, buf_len: 16 },
    )
    .expect("read");
    k.syscall(caller, Syscall::Close { fd: fd as u32 }).expect("close");
    let child = k.syscall(caller, Syscall::Spawn).expect("spawn");
    // The child is still running, so Wait blocks the caller — the error
    // return still exercises the wait instrument.
    let _ = k.syscall(caller, Syscall::Wait { pid: child });
    k.syscall(caller, Syscall::FutexWake { va: base, count: 1 }).expect("wake none");
    k.syscall(caller, Syscall::ClockRead).expect("clock");
    k.syscall(caller, Syscall::Yield).expect("yield");
    k.syscall(caller, Syscall::Unmap { va: base, pages: 8 }).expect("unmap");
}

/// Uring: a submission-ring batch through the engine, including one
/// parked-and-woken futex wait so the pending-table instruments tick;
/// then the multi-ring poller (a flooded ring against a trickling one,
/// so the fairness-deferral counter engages) and the chain dispatcher
/// (one clean chain, one mid-chain failure whose suffix cancels).
fn exercise_uring() {
    let mut k = Kernel::boot(KernelConfig::default()).expect("default config boots");
    let owner = (k.init_pid, k.init_tid);
    let base = 0x50_0000u64;
    k.syscall(owner, Syscall::Map { va: base, pages: 1, writable: true })
        .expect("map futex page");
    let (mut user, kring) = veros_uring::pair(8);
    let mut engine = veros_uring::Engine::new(kring, owner);
    for i in 0..4u64 {
        user.submit(i, &Syscall::ClockRead).expect("sq has room");
    }
    user.submit(4, &Syscall::FutexWait { va: base, expected: 0 })
        .expect("sq has room");
    engine.submit_batch(&mut k);
    k.syscall(owner, Syscall::FutexWake { va: base, count: 1 })
        .expect("wake the parked worker");
    engine.reap(&mut k);
    while user.complete().is_some() {}
    engine.shutdown(&mut k);

    // Poller: burst 1 over two rings, ring 0 flooded past the budget —
    // every sweep defers ring 0 until the flood drains, then the idle
    // sweeps pull the deferral/sweep ratio back under the alert bound.
    let mut set = veros_uring::RingSet::new(1);
    let (mut u0, kr0) = veros_uring::pair(8);
    let (mut u1, kr1) = veros_uring::pair(8);
    set.add(veros_uring::Engine::new(kr0, owner));
    set.add(veros_uring::Engine::new(kr1, owner));
    for i in 0..6u64 {
        u0.submit(i, &Syscall::ClockRead).expect("sq has room");
    }
    u1.submit(100, &Syscall::ClockRead).expect("sq has room");
    while !set.sweep(&mut k).idle() {}

    // Chains on ring 0: a clean LINKed triple, then a chain whose
    // second link fails (bad fd) and cancels its suffix — aborts and
    // links-cancelled tick, the atomicity self-check stays silent.
    use veros_uring::SqeFlags;
    let link = SqeFlags { link: true, subst: None };
    for ud in [200u64, 201] {
        u0.submit_flagged(ud, &Syscall::ClockRead, link).expect("sq has room");
    }
    u0.submit_flagged(202, &Syscall::ClockRead, SqeFlags::NONE)
        .expect("sq has room");
    u0.submit_flagged(300, &Syscall::ClockRead, link).expect("sq has room");
    u0.submit_flagged(301, &Syscall::Seek { fd: 99, offset: 0 }, link)
        .expect("sq has room");
    u0.submit_flagged(302, &Syscall::ClockRead, SqeFlags::NONE)
        .expect("sq has room");
    while !set.sweep(&mut k).idle() {}
    while u0.complete().is_some() {}
    while u1.complete().is_some() {}
    set.shutdown_all(&mut k);
}

/// Net + blockstore + fleet: a sharded chain-replicated fleet over a
/// mildly lossy wire — puts, gets and a delete tick the store latency
/// histograms, the per-node/per-shard banks and the replication lag
/// histogram, then a chain-node kill plus follow-up reads drive a
/// failover (view epoch bump, shard sync, failover-time sample).
/// Outside check mode, a direct checksum rejection follows.
fn exercise_fleet(check: bool) {
    use veros_cluster::{Fleet, FleetConfig, Op};
    let mut f = Fleet::new(FleetConfig {
        nodes: 6,
        replication: 3,
        shards: 16,
        vnodes: 8,
        clients: 2,
        // A mildly lossy wire: enough retransmission traffic to move
        // the lag histogram without stretching the run.
        plan: FaultPlan { loss: (1, 20), duplicate: (1, 40), reorder: false },
        seed: 7,
        sectors: 1 << 10,
    });
    const BUDGET: u64 = 30_000;
    for i in 0..6u32 {
        let key = format!("fleet-{i}");
        f.run_op(i as usize % 2, Op::Put { key, data: vec![i as u8; 64] }, BUDGET)
            .expect("fleet put acked");
    }
    // Kill the tail — the read-serving replica — so the follow-up get
    // has to ride out suspicion, the view change, and promotion, giving
    // the failover-time histogram a real sample.
    let chain = f.chain_for_key("fleet-0");
    f.kill_node(*chain.last().expect("non-empty chain"));
    for i in 0..6u32 {
        let key = format!("fleet-{i}");
        f.run_op(0, Op::Get { key }, BUDGET).expect("fleet get after failover");
    }
    f.run_op(0, Op::Delete { key: "fleet-0".into() }, BUDGET).expect("fleet delete acked");

    // A client-side checksum mismatch, rejected before storage. The
    // probe proves the rejection path is live, but it also ticks the
    // exact counter the alert policy holds at zero, so check mode
    // leaves it out.
    if !check {
        let mut store = BlockStore::format(1 << 12);
        assert!(store.put("bad", b"data", block_checksum(b"data") ^ 1).is_err());
    }
}

/// Invariants: one two-schedule mini-sweep per family, so every
/// `invariant.*` counter is visibly nonzero in the snapshot while
/// `invariant.violations` stays at the zero the alert policy pins.
fn exercise_invariants() {
    use veros_core::invariants::{self, Ablation};
    invariants::durability(0, 2, Ablation::None).expect("durability sweep");
    invariants::exactly_once(0, 2, Ablation::None).expect("exactly-once sweep");
    invariants::fs_journal(0, 2, Ablation::None).expect("fs-journal sweep");
    invariants::frames(0, 2, Ablation::None).expect("frames sweep");
    invariants::uring_chain(0, 2, Ablation::None).expect("uring-chain sweep");
    invariants::cluster_durability(0, 2, Ablation::None).expect("cluster-durability sweep");
}

/// Filesystem: committed transactions plus a recovery replay.
fn exercise_fs() {
    let mut jfs = JournaledFs::format(SimDisk::new(1024));
    for i in 0..5u32 {
        let f = format!("/t{i}");
        jfs.apply(FsOp::Create(f.clone())).expect("create");
        jfs.apply(FsOp::WriteAt(f, 0, vec![i as u8; 64])).expect("write");
        jfs.commit().expect("commit");
    }
    let recovered = JournaledFs::recover(jfs.into_disk());
    assert_eq!(recovered.replayed_ops, 10, "5 creates + 5 writes replayed");
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    exercise_nr();
    exercise_kernel();
    exercise_uring();
    exercise_fs();
    exercise_fleet(check);
    exercise_invariants();

    let mut reg = Registry::new();
    veros_nr::metrics::export(&mut reg);
    veros_kernel::metrics::export(&mut reg);
    veros_fs::metrics::export(&mut reg);
    veros_net::metrics::export(&mut reg);
    veros_blockstore::metrics::export(&mut reg);
    veros_uring::metrics::export(&mut reg);
    veros_cluster::metrics::export(&mut reg);
    veros_core::metrics::export(&mut reg);

    let names = reg.metric_names();
    let prefixes = [
        "nr.",
        "kernel.",
        "fs.",
        "net.",
        "blockstore.",
        "uring.",
        "cluster.",
        "invariant.",
    ];
    let all_crates_covered = prefixes
        .iter()
        .all(|p| names.iter().any(|n| n.starts_with(p)));
    let enough_metrics = reg.metric_count() >= 12;

    // With instruments live, the workloads above must have left visible
    // traces in each subsystem; with telemetry off, every value is zero
    // by construction and only the structural checks gate.
    let snapshot = reg.snapshot();
    let observed = if veros_telemetry::enabled() {
        let counter_value = |name: &str| {
            snapshot
                .metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| match &m.value {
                    veros_telemetry::registry::MetricValue::Counter(v) => Some(*v),
                    veros_telemetry::registry::MetricValue::Gauge(v) => Some(*v),
                    _ => None,
                })
                .unwrap_or(0)
        };
        counter_value("nr.log.appends") > 0
            && counter_value("kernel.tlb.misses") > 0
            && counter_value("uring.cqe.posted") > 0
            && counter_value("uring.pending.parked") > 0
            && counter_value("uring.poller.sweeps") > 0
            && counter_value("uring.poller.fairness_deferrals") > 0
            && counter_value("uring.chain.dispatched") > 0
            && counter_value("uring.chain.aborts") > 0
            && counter_value("uring.chain.links_cancelled") > 0
            && counter_value("uring.chain.atomicity_violations") == 0
            && counter_value("fs.journal.commits") > 0
            && counter_value("net.sim.delivered") > 0
            && counter_value("cluster.ops.completed") > 0
            && counter_value("cluster.shard.syncs") > 0
            && counter_value("cluster.view.epoch") > 0
            && counter_value("invariant.schedules_swept") >= 12
            && counter_value("invariant.violations") == 0
            && (check || counter_value("blockstore.checksum_failures") > 0)
    } else {
        true
    };

    let mut ok = all_crates_covered && enough_metrics && observed;
    if check {
        let alerts = veros_telemetry::evaluate(&snapshot, &veros_telemetry::default_rules());
        for a in &alerts {
            eprintln!("ALERT: {}", a.message);
        }
        if alerts.is_empty() {
            eprintln!("telemetry_report --check: no alerts");
        } else {
            ok = false;
        }
    }
    eprintln!(
        "telemetry_report: {} metrics, all crates covered: {all_crates_covered}, \
         observations recorded: {observed} (enabled: {})",
        reg.metric_count(),
        veros_telemetry::enabled()
    );
    veros_bench::out::finish("TELEMETRY.json", &snapshot.to_json(), ok);
}
