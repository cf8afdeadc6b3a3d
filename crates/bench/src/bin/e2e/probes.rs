//! Isolated probes: each times one public function of one layer, on
//! inputs shaped like the workload being reported (its value size and
//! per-node population), and reports a unit cost.
//!
//! Probes are how a cell that cannot be seen from outside a running
//! world (a checksum inside a store put inside a node poll) still gets
//! a number; `ledger.node_closure` multiplies them by measured counts
//! and compares the sum with the measured node-poll time. They run only
//! in `--trace 1` runs, after the measured repetitions, and only for
//! layers the workload crosses. The kernel-side probes reuse the
//! measurement loops `nr_hotpath` and `uring_hotpath` already gate.

use std::hint::black_box;
use std::time::Instant;

use veros_blockstore::wire::block_checksum;
use veros_blockstore::{BlockStore, Request};
use veros_cluster::{Fleet, FleetConfig, ShardMap};
use veros_fs::journal::{FsOp, JournaledFs};
use veros_fs::{MemFs, Path};
use veros_hw::{SimDisk, SECTOR_SIZE};
use veros_net::demux::RdtDemux;
use veros_net::sim::{FaultPlan, Network};
use veros_net::{EthFrame, EtherType, IpAddr, IpPacket, Mac, Proto, UdpDatagram};

use crate::fleet::FleetSpec;

/// A probe's result: metric name and value.
pub type Cell = (&'static str, f64);

/// Mean ns per call of `f` over `iters` calls (after one untimed call).
fn time_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    f(0);
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn store_with(population: u32, value: &[u8]) -> BlockStore {
    let mut store = BlockStore::format(1 << 18);
    let checksum = block_checksum(value);
    for k in 0..population {
        store
            .put(&format!("ycsb-{k}"), value, checksum)
            .expect("probe preload");
    }
    store
}

fn store_put_ns(population: u32, value_bytes: usize, iters: u64) -> f64 {
    let value = vec![0xabu8; value_bytes];
    let checksum = block_checksum(&value);
    let mut store = store_with(population, &value);
    let keys: Vec<String> = (0..population).map(|k| format!("ycsb-{k}")).collect();
    time_ns(iters, |i| {
        store
            .put(&keys[i as usize % keys.len()], black_box(&value), checksum)
            .expect("probe put");
    })
}

fn journal_with(population: u32, value: &[u8]) -> (JournaledFs, Vec<String>) {
    let mut fs = JournaledFs::format(SimDisk::new(1 << 18));
    let paths: Vec<String> = (0..population).map(|k| format!("/b_{k:08x}")).collect();
    for p in &paths {
        fs.apply(FsOp::Create(p.clone())).expect("probe create");
        fs.apply(FsOp::WriteAt(p.clone(), 0, value.to_vec()))
            .expect("probe fill");
        fs.commit().expect("probe commit");
    }
    (fs, paths)
}

fn apply_commit_ns(population: u32, value_bytes: usize, iters: u64) -> f64 {
    let value = vec![0xcdu8; value_bytes];
    let (mut fs, paths) = journal_with(population, &value);
    time_ns(iters, |i| {
        let path = paths[i as usize % paths.len()].clone();
        fs.apply(FsOp::WriteAt(path, 0, black_box(&value).clone()))
            .expect("probe apply");
        fs.commit().expect("probe commit");
    })
}

/// `fs.*` and `hw.*` probes, shaped by one value size and a file
/// population; both the fleet workloads (per-node population) and
/// `kernel_fileio` (its file count) cross these layers.
pub fn storage(value_bytes: usize, population: u32) -> Vec<Cell> {
    let value = vec![0xefu8; value_bytes];
    let mut memfs = MemFs::new();
    let ino = memfs
        .create(&Path::parse("/probe").expect("path"))
        .expect("create");
    let memfs_write = time_ns(20_000, |_| {
        memfs
            .write_at(ino, 0, black_box(&value))
            .expect("probe write");
    });
    let mut disk = SimDisk::new(1 << 12);
    let sector = [0x5au8; SECTOR_SIZE];
    let write_flush = time_ns(4_000, |i| {
        for s in 0..8 {
            disk.write((i * 8 + s) % (1 << 12), black_box(&sector))
                .expect("in range");
        }
        disk.flush();
    });
    vec![
        (
            "fs.apply_commit_ns_pop16",
            apply_commit_ns(16, value_bytes, 2_000),
        ),
        (
            "fs.apply_commit_ns_at_pop",
            apply_commit_ns(population.max(1), value_bytes, 300),
        ),
        ("fs.memfs_write_ns", memfs_write),
        ("hw.disk_write_flush_ns_per_sector", write_flush / 8.0),
    ]
}

/// `cluster.*`, `net.*` and `blockstore.*` probes for a fleet workload.
pub fn fleet(spec: &FleetSpec) -> Vec<Cell> {
    let value_bytes = spec.load.value_bytes;
    let population = spec.per_node_population();
    let value = vec![0x42u8; value_bytes];
    let mut out = Vec::new();

    // A tick with nothing outstanding, at the workload's client count.
    let mut idle = Fleet::new(FleetConfig {
        seed: 1,
        ..spec.fleet
    });
    idle.run(64);
    out.push(("cluster.idle_tick_us", time_ns(512, |_| idle.step()) / 1e3));

    let map = ShardMap::new(
        spec.fleet.nodes,
        spec.fleet.replication,
        spec.fleet.shards,
        spec.fleet.vnodes,
    );
    let live = map.all_live();
    let keys: Vec<String> = (0..spec.load.keyspace)
        .map(|k| format!("ycsb-{k}"))
        .collect();
    out.push((
        "cluster.route_ns",
        time_ns(20_000, |i| {
            black_box(map.chain_for_key(&keys[i as usize % keys.len()], &live));
        }),
    ));

    // One wire message: a fleet put at the workload's value size.
    let request = Request::ShardPut {
        id: 7 << 32,
        key: "ycsb-123".into(),
        data: value.clone(),
        checksum: block_checksum(&value),
        client: 9,
        seq: 1,
    };
    let message = request.encode();
    out.push((
        "blockstore.wire_encode_ns",
        time_ns(20_000, |_| {
            black_box(black_box(&request).encode());
        }),
    ));
    out.push((
        "blockstore.wire_decode_ns",
        time_ns(20_000, |_| {
            black_box(Request::decode(black_box(&message)).expect("decodes"));
        }),
    ));
    let big = vec![0x17u8; 64 << 10];
    out.push((
        "blockstore.checksum_ns_per_kib",
        time_ns(500, |_| {
            black_box(block_checksum(black_box(&big)));
        }) / 64.0,
    ));

    out.push((
        "net.frame_codec_ns",
        time_ns(20_000, |_| {
            let udp = UdpDatagram {
                src_port: 4003,
                dst_port: 4000,
                payload: message.clone(),
            };
            let ip = IpPacket {
                src: IpAddr::host(9),
                dst: IpAddr::host(1),
                proto: Proto::Udp,
                ttl: 64,
                payload: udp.encode(),
            };
            let frame = EthFrame {
                dst: Mac::host(1),
                src: Mac::host(9),
                ethertype: EtherType::Ip,
                payload: ip.encode(),
            }
            .encode();
            let eth = EthFrame::decode(black_box(&frame)).expect("eth");
            let ip = IpPacket::decode(&eth.payload).expect("ip");
            black_box(UdpDatagram::decode(&ip.payload).expect("udp"));
        }),
    ));

    // send -> deliver -> ack of one message over a 2-host reliable wire.
    let mut net = Network::new(2, FaultPlan::reliable(), 1);
    let mut a = RdtDemux::new(net.host(0).bind(7000).expect("bind"));
    let mut b = RdtDemux::new(net.host(1).bind(7000).expect("bind"));
    let peer = (IpAddr::host(1), 7000);
    out.push((
        "net.rdt_msg_ns",
        time_ns(5_000, |now| {
            a.send(net.host(0), now, peer, message.clone())
                .expect("send");
            net.step();
            b.poll(net.host(1), now).expect("poll");
            black_box(b.recv().expect("delivered in one step"));
            net.step();
            a.poll(net.host(0), now).expect("poll");
        }),
    ));

    let put_pop16 = store_put_ns(16, value_bytes, 2_000);
    let put_at_pop = store_put_ns(population, value_bytes, 200);
    let store = store_with(population, &value);
    let get_at_pop = time_ns(2_000, |i| {
        black_box(
            store
                .get(&keys[i as usize % population as usize])
                .expect("probe get"),
        );
    });
    out.extend([
        ("blockstore.store_put_ns_pop16", put_pop16),
        ("blockstore.store_put_ns_at_pop", put_at_pop),
        ("blockstore.store_get_ns_at_pop", get_at_pop),
        ("blockstore.store_put_pop_scaling", put_at_pop / put_pop16),
        ("blockstore.store_put_ns_4k", store_put_ns(16, 4 << 10, 300)),
        (
            "blockstore.store_put_ns_64k",
            store_put_ns(16, 64 << 10, 100),
        ),
    ]);
    out.extend(storage(value_bytes + 8, population));
    out
}

/// `kernel.*`, `uring.*`, `nr.*` and `pagetable.*` probes.
pub fn kernel() -> Vec<Cell> {
    use veros_bench::{hotpath, uring};
    vec![
        ("kernel.syscall_trap_ns", uring::sync_ns_per_op(200_000)),
        (
            "uring.ring_batch8_ns_per_op",
            uring::ring_ns_per_op(200_000, 8),
        ),
        (
            "uring.chain_orc_ns",
            uring::chain_orc_ns_per_op(5_000, true),
        ),
        (
            "nr.execute_mut_ns",
            1e9 / hotpath::contended_execute_mut(1, 1, 200_000),
        ),
        (
            "kernel.resolve_hot_ns",
            hotpath::resolve_latency_ns(8, 400_000),
        ),
        (
            "kernel.resolve_cold_ns",
            hotpath::resolve_latency_ns(2048, 100_000),
        ),
        (
            "pagetable.map_range_ns_per_page",
            hotpath::range_ns_per_page(512, 40, true),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_finite_cost() {
        let _world = crate::world_lock();
        let spec = crate::fleet::tests::tiny("fleet_write_heavy");
        let mut cells = fleet(&spec);
        cells.extend(storage(64, 4));
        for (name, v) in cells {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
            assert!(
                crate::catalogue::def(name).is_some(),
                "{name} is not in the catalogue"
            );
        }
    }

    #[test]
    fn store_cost_grows_with_population() {
        let _world = crate::world_lock();
        // The sizing fact the write-heavy workload is built on:
        // `JournaledFs::apply` clones the whole `MemFs` per operation.
        let small = apply_commit_ns(4, 512, 300);
        let large = apply_commit_ns(256, 512, 300);
        assert!(
            large > small,
            "pop 4: {small:.0} ns, pop 256: {large:.0} ns"
        );
    }
}
