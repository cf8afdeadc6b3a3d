//! The paper's motivating application, end to end: a replicated block
//! storage node (the "data-storage node in a distributed block store
//! like GFS or S3" of §1) serving a client over the hostile simulated
//! network, surviving the loss of its chain head.
//!
//! Run: `cargo run --example blockstore_node`

use veros::blockstore::Response;
use veros::cluster::{Fleet, Op};
use veros::net::sim::FaultPlan;

const BUDGET: u64 = 20_000;

fn main() {
    // Two storage nodes forming one 2-way replication chain, a
    // coordinator and a client, over a wire that drops 20%, duplicates
    // 10%, and reorders everything.
    let mut fleet = Fleet::pair(FaultPlan::hostile(), 2026);
    println!("fleet up: client + head + tail over a hostile wire");

    // Store a few objects (each put is checksummed end-to-end,
    // journaled to the head's disk, and acknowledged only after the
    // tail has applied it too).
    for (key, data) in [
        ("manifest", b"objects: 2".as_slice()),
        ("obj/alpha", b"first object contents".as_slice()),
        ("obj/beta", b"second object contents".as_slice()),
    ] {
        let op = Op::Put { key: key.into(), data: data.to_vec() };
        match fleet.run_op(0, op, BUDGET).expect("put").resp {
            Response::PutOk { .. } => println!("put {key:<12} ({} bytes) acknowledged", data.len()),
            other => panic!("unexpected: {other:?}"),
        }
    }

    // Read one back through the lossy wire.
    let op = Op::Get { key: "obj/alpha".into() };
    match fleet.run_op(0, op, BUDGET).expect("get").resp {
        Response::GetOk { data, checksum, .. } => {
            println!("get obj/alpha -> {:?} (checksum {checksum:#x} verified)",
                String::from_utf8_lossy(&data));
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Kill the chain head. Every *acknowledged* write must be readable
    // from the survivor — that is what waiting for the tail bought.
    let head = fleet.chain_for_key("obj/beta")[0];
    fleet.kill_node(head);
    println!("\nnode {head} (chain head) killed; reading from the survivor...");
    let op = Op::Get { key: "obj/beta".into() };
    match fleet.run_op(0, op, BUDGET).expect("failover get").resp {
        Response::GetOk { data, .. } => {
            println!(
                "survivor served obj/beta -> {:?}",
                String::from_utf8_lossy(&data)
            );
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Writes fail over too: the client suspects the dead head, the
    // coordinator promotes the survivor, and the retried put lands.
    let op = Op::Put { key: "obj/gamma".into(), data: b"written after failover".to_vec() };
    match fleet.run_op(0, op, BUDGET).expect("failover put").resp {
        Response::PutOk { .. } => println!("put obj/gamma acknowledged by the promoted head"),
        other => panic!("unexpected: {other:?}"),
    }
    println!("acknowledged writes survived the head failure ✓");
}
