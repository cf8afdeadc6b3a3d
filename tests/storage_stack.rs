//! Cross-crate integration: the storage path from application protocol
//! down to simulated sectors — block store over journaled filesystem
//! over the crash-injecting disk, across the lossy network.

use veros::blockstore::{wire, BlockStore};
use veros::cluster::{Fleet, Op};
use veros::net::sim::FaultPlan;
use veros::spec::rng::SpecRng;

#[test]
fn blockstore_agrees_with_an_abstract_map_under_random_workload() {
    use std::collections::BTreeMap;

    let mut rng = SpecRng::seeded(77);
    let mut store = BlockStore::format(1 << 15);
    let mut spec: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for _ in 0..200 {
        let key = format!("k{}", rng.below(10));
        match rng.below(3) {
            0 => {
                let mut data = vec![0u8; rng.index(128) + 1];
                rng.fill(&mut data);
                store
                    .put(&key, &data, wire::block_checksum(&data))
                    .expect("put");
                spec.insert(key, data);
            }
            1 => {
                let got = store.get(&key).ok().map(|(d, _)| d);
                assert_eq!(got, spec.get(&key).cloned(), "get {key}");
            }
            _ => {
                let got = store.delete(&key).is_ok();
                let want = spec.remove(&key).is_some();
                assert_eq!(got, want, "delete {key}");
            }
        }
        // List always agrees.
        let keys: Vec<String> = spec.keys().cloned().collect();
        assert_eq!(store.list(), keys);
    }
}

const BUDGET: u64 = 20_000;

fn put(f: &mut Fleet, key: &str, data: &[u8]) {
    let r = f
        .run_op(0, Op::Put { key: key.into(), data: data.to_vec() }, BUDGET)
        .expect("put completes");
    assert!(r.ok, "{:?}", r.resp);
}

#[test]
fn acknowledged_cluster_writes_survive_crash_of_either_replica() {
    let mut fleet = Fleet::pair(FaultPlan::hostile(), 31);
    for i in 0..5u32 {
        put(&mut fleet, &format!("blk{i}"), format!("data{i}").as_bytes());
    }
    let chain = fleet.chain_for_key("blk0");
    let (head, tail) = (chain[0] as usize, chain[1] as usize);

    // Crash the HEAD's disk: recover and check every acknowledged
    // block.
    let store = std::mem::replace(&mut fleet.nodes[head].store, BlockStore::format(64));
    let mut disk = store.into_disk();
    let mut rng = SpecRng::seeded(5);
    disk.crash_random(&mut rng);
    let recovered = BlockStore::recover(disk);
    for i in 0..5u32 {
        assert_eq!(
            recovered.get(&format!("blk{i}")).expect("acknowledged block").0,
            format!("data{i}").as_bytes()
        );
    }

    // The TAIL independently has every acknowledged block (the ack
    // waits for the whole chain), so losing the head entirely is also
    // fine.
    for i in 0..5u32 {
        assert_eq!(
            fleet.nodes[tail].store.get(&format!("blk{i}")).expect("replicated").0,
            format!("data{i}").as_bytes()
        );
    }
}

#[test]
fn overwrites_replicate_in_order() {
    let mut fleet = Fleet::pair(FaultPlan::hostile(), 13);
    for round in 0..4u32 {
        put(&mut fleet, "hot-key", format!("version {round}").as_bytes());
    }
    let r = fleet
        .run_op(0, Op::Get { key: "hot-key".into() }, BUDGET)
        .expect("get completes");
    assert_eq!(r.read.as_deref(), Some(&b"version 3"[..]));
    for node in &fleet.nodes {
        assert_eq!(node.store.get("hot-key").unwrap().0, b"version 3");
    }
}

#[test]
fn wire_protocol_rejects_corruption_everywhere() {
    let mut rng = SpecRng::seeded(3);
    // Any single bit flip of any request either still decodes (benign
    // field change) or is rejected — never a panic.
    for req in wire::Request::samples() {
        for _ in 0..8 {
            let mut corrupt = req.encode();
            let i = rng.index(corrupt.len());
            corrupt[i] ^= 1 << rng.index(8);
            let _ = wire::Request::decode(&corrupt);
        }
    }
}
