//! Emits one merged telemetry snapshot covering every instrumented
//! crate (nr, kernel, fs, net, blockstore, uring, cluster).
//!
//! Runs a small representative workload per subsystem — the NR hot
//! path, a kernel boot with a syscall sequence, a journaled filesystem
//! with crash recovery, a sharded block-store fleet over a lossy
//! simulated network with a mid-run chain-node kill, and a two-schedule
//! mini-sweep of every end-to-end invariant family — then snapshots
//! [`veros_bench::catalogue::registry`] and mirrors the JSON into the
//! results directory (schema in OBSERVABILITY.md).
//!
//! The run passes or fails on one rule list,
//! [`veros_telemetry::default_rules`], evaluated over the snapshot:
//! integrity counters held at zero, tail-latency ceilings, and liveness
//! floors proving each subsystem's watched activity happened. Every
//! metric a rule names must be registered — `evaluate` skips absent
//! metrics, so a rule naming a metric nobody exports would otherwise
//! pass vacuously.
//!
//! With `--no-default-features` the same binary still produces a
//! structurally complete snapshot whose `telemetry_enabled` field is
//! `false` and whose values are all zero; the liveness floors skip
//! themselves and the rest pass on zeros.
//!
//! Usage: `cargo run --release -p veros-bench --bin telemetry_report`

use veros_fs::journal::FsOp;
use veros_fs::JournaledFs;
use veros_hw::SimDisk;
use veros_kernel::{Kernel, KernelConfig, Syscall};
use veros_net::FaultPlan;
use veros_telemetry::{default_rules, evaluate};

/// NR: drive the contended execute_mut hot path (log appends, replay
/// lag) plus the resolve/range paths.
fn exercise_nr() {
    veros_bench::hotpath::contended_execute_mut(4, 2, 2000);
    veros_bench::hotpath::resolve_latency_ns(8, 20_000);
    veros_bench::hotpath::range_ns_per_page(16, 5, true);
}

/// Kernel: boot and push a syscall sequence through the typed dispatch
/// (latency histograms + trace ring), exercising the translation cache
/// and the buddy allocator along the way.
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
/// then engine passes over the chain dispatcher (one clean chain, one
/// mid-chain failure whose suffix cancels).
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

    // Chains: a clean LINKed triple, then a chain whose second link
    // fails (bad fd) and cancels its suffix — aborts and
    // links-cancelled tick, the atomicity self-check stays silent.
    use veros_uring::SqeFlags;
    let link = SqeFlags { link: true, subst: None };
    for ud in [200u64, 201] {
        user.submit_flagged(ud, &Syscall::ClockRead, link).expect("sq has room");
    }
    user.submit_flagged(202, &Syscall::ClockRead, SqeFlags::NONE)
        .expect("sq has room");
    user.submit_flagged(300, &Syscall::ClockRead, link).expect("sq has room");
    user.submit_flagged(301, &Syscall::Seek { fd: 99, offset: 0 }, link)
        .expect("sq has room");
    user.submit_flagged(302, &Syscall::ClockRead, SqeFlags::NONE)
        .expect("sq has room");
    while engine.pass(&mut k) {}
    while user.complete().is_some() {}
    engine.shutdown(&mut k);
}

/// Net + blockstore + fleet: a sharded chain-replicated fleet over a
/// mildly lossy wire — puts, gets and a delete tick the store latency
/// histograms, the per-node bank and the replication lag
/// histogram, then a chain-node kill plus follow-up reads drive a
/// failover (view epoch bump, shard sync, failover-time sample).
fn exercise_fleet() {
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
}

/// Invariants: one two-schedule mini-sweep per `FAMILIES` row, so every
/// `invariant.*` counter is visibly nonzero in the snapshot while
/// `invariant.violations` stays at the zero the alert policy pins.
fn exercise_invariants() {
    use veros_core::invariants::{Ablation, FAMILIES};
    for family in &FAMILIES {
        (family.run)(0, 2, Ablation::None)
            .unwrap_or_else(|e| panic!("{} sweep: {e}", family.name));
    }
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
    exercise_nr();
    exercise_kernel();
    exercise_uring();
    exercise_fs();
    exercise_fleet();
    exercise_invariants();

    let reg = veros_bench::catalogue::registry();

    let rules = default_rules();
    let names = reg.metric_names();
    let mut unregistered: Vec<&str> = rules
        .iter()
        .map(|r| r.metric())
        .filter(|m| !names.contains(m))
        .collect();
    unregistered.sort_unstable();
    unregistered.dedup();
    for m in &unregistered {
        eprintln!("ALERT: rule names unregistered metric {m}");
    }
    let snapshot = reg.snapshot();
    let alerts = evaluate(&snapshot, &rules);
    for a in &alerts {
        eprintln!("ALERT: {}", a.message);
    }
    eprintln!(
        "telemetry_report: {} metrics, {} rules, {} alerts (enabled: {})",
        reg.metric_count(),
        rules.len(),
        unregistered.len() + alerts.len(),
        veros_telemetry::enabled()
    );
    let ok = unregistered.is_empty() && alerts.is_empty();
    veros_bench::out::finish("TELEMETRY.json", &snapshot.to_json(), ok);
}
