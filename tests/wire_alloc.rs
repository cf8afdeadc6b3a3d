//! A fleet message is one allocation — asserted on exact allocation
//! counts, so the result is the same on every host and every run.
//!
//! A `Get` served by a one-node fleet over a warmed-up, reliable wire
//! allocates exactly seven blocks. Each message on the wire costs its
//! encoding and its frame, and the encoding is built at its final size:
//!
//! 1. the client's `Get` request, encoded once;
//! 2. its DATA frame;
//! 3. the node's ACK frame for it;
//! 4. the `GetOk` reply, into which the store reads the block from its
//!    file and verifies it in place;
//! 5. the reply's DATA frame;
//! 6. the client's ACK frame for it;
//! 7. the copy of the block in `OpResult::read`.
//!
//! Nothing else is copied. The node decodes the request borrowed and
//! serves the key from the delivered message; the store writes the
//! block's file path into a stack buffer; the client verifies the block
//! where it arrived, and `OpResult::resp` keeps it in the delivered
//! message's own buffer. Routing allocates nothing: the client's live
//! set is kept, not rebuilt per attempt, and a chain is held inline.
//!
//! Decoding a malformed message allocates no more than a small multiple
//! of its length: a `SyncBlocks` header claiming 65 536 blocks with none
//! behind it reserves nothing, and neither does a `ChainPut` whose chain
//! claims 64 hosts with none behind them.
//!
//! A new rdt session holds no buffer: the first message to a new peer
//! and its ACK allocate the DATA frame and the ACK frame and nothing
//! else. The sender keeps the one message in flight inline in its
//! window and queues nothing in a backlog, and the receiving session
//! queues nothing of its own: the message waits in its demux's one
//! delivery queue. Its own test binary with a single `#[test]`: see
//! `counting_alloc`.

mod counting_alloc;

use counting_alloc::{allocated_by, Allocated};
use veros_blockstore::wire::block_checksum;
use veros_blockstore::{BlockStore, Request, Response};
use veros_cluster::node::COORD_PORT;
use veros_cluster::shard::ShardMap;
use veros_cluster::view::HEARTBEAT_EVERY;
use veros_cluster::{FleetClient, FleetNode, Op};
use veros_net::demux::RdtDemux;
use veros_net::sim::{FaultPlan, Network};
use veros_net::stack::HEADROOM;
use veros_net::IpAddr;

const KEY: &str = "hot";
const BLOCK: usize = 128;
/// The rdt header: type(1) seq(8).
const RDT_HEADER: usize = 9;

#[test]
fn fleet_messages_allocate_once_and_decoding_reserves_only_what_the_input_holds() {
    // Node on host 0, client on host 1. Nothing listens on the
    // coordinator address, so the node's heartbeats are dropped there.
    let mut net = Network::new(2, FaultPlan::reliable(), 1);
    let map = ShardMap::new(1, 1, 1, 8);
    let mut store = BlockStore::format(1 << 10);
    let data = vec![7u8; BLOCK];
    store.put(KEY, &data, block_checksum(&data)).expect("preload");
    let coord = (IpAddr::host(1), COORD_PORT);
    let mut node = FleetNode::new(0, store, map.clone(), net.host(0), coord);
    let mut client = FleetClient::new(1, map, net.host(1));
    // One tick: the op arrives, the request goes out, the node serves
    // it, the reply comes back, and the node takes the client's ACK.
    let mut round_trip = |now: u64, op: Op| {
        client.submit(now, op);
        client.poll(net.host(1), now);
        net.step();
        node.poll(net.host(0), now);
        net.step();
        client.poll(net.host(1), now);
        net.step();
        node.poll(net.host(0), now);
        client.results.pop().expect("answered in one tick")
    };
    // Warm up: sessions exist and every queue on the path has reached
    // its steady capacity. The node heartbeats on ticks 0 and
    // HEARTBEAT_EVERY; the measured tick falls between heartbeats.
    for now in 0..=HEARTBEAT_EVERY {
        assert!(round_trip(now, Op::Get { key: KEY.into() }).ok);
    }
    let op = Op::Get { key: KEY.into() };
    let mut result = None;
    let cost = allocated_by(|| result = Some(round_trip(HEARTBEAT_EVERY + 1, op)));
    let result = result.expect("ran");
    assert_eq!(result.read.as_deref(), Some(&data[..]));
    assert!(matches!(result.resp, Response::GetOk { .. }));
    assert!(client.quiet(), "the reply's ACK arrived");
    // Tag and id lead every message; a string or block is
    // length-prefixed; an rdt frame is the headroom, the rdt header and
    // the message.
    let request = 1 + 8 + 4 + KEY.len();
    let reply = 1 + 8 + 4 + BLOCK + 8;
    let frame = |message: usize| HEADROOM + RDT_HEADER + message;
    assert_eq!(
        cost,
        Allocated {
            blocks: 7,
            bytes: (request + frame(request) + frame(0) + reply + frame(reply) + frame(0) + BLOCK)
                as u64,
        },
        "a served get should allocate its two messages, their four frames and the read's \
         copy of the block, and copy no key, path or block besides"
    );

    // Tag, id and a block count of 65 536 (the decoder's bound) with no
    // blocks behind it: 13 bytes.
    let mut header = vec![8];
    header.extend_from_slice(&7u64.to_le_bytes());
    header.extend_from_slice(&(1u32 << 16).to_le_bytes());
    let mut decoded = Some(Response::PutOk { id: 0 });
    let cost = allocated_by(|| decoded = Response::decode(&header));
    assert_eq!(decoded, None);
    assert!(
        cost.bytes <= 4 * header.len() as u64,
        "decoding a {}-byte SyncBlocks header allocated {cost:?}",
        header.len()
    );

    // A `ChainPut` with an empty key and block whose chain claims 64
    // hosts (the decoder's bound) with none behind them.
    let mut chain_put = vec![7];
    chain_put.extend_from_slice(&7u64.to_le_bytes());
    chain_put.extend_from_slice(&[0; 2 * 4]); // empty key, empty block
    chain_put.extend_from_slice(&[0; 4 * 8]); // checksum, client, seq, epoch
    chain_put.extend_from_slice(&64u32.to_le_bytes());
    let mut decoded = Some(Request::Get { id: 0, key: String::new() });
    let cost = allocated_by(|| decoded = Request::decode(&chain_put));
    assert_eq!(decoded, None);
    assert_eq!(cost.bytes, 0, "decoding a hostless ChainPut reserved for its hosts");

    a_new_session_holds_no_buffer();
}

/// Hosts 0 and 2 each talk to host 1, then host 0 opens a session to
/// host 2: measured is that first message and its ACK.
fn a_new_session_holds_no_buffer() {
    const PORT: u16 = 7000;
    let mut net = Network::new(3, FaultPlan::reliable(), 1);
    let mut demux: Vec<RdtDemux> =
        (0..3).map(|h| RdtDemux::new(net.host(h).bind(PORT).expect("bind"))).collect();
    let peer = |h: u16| (IpAddr::host(h), PORT);
    // Warm up: hosts 0 and 2 each have a session with host 1 and have
    // received on it, so every table, queue and wire scratch vector on
    // the measured path has its capacity.
    for now in 0..4 {
        for h in [0, 2] {
            demux[h].send(net.host(h), now, peer(1), vec![h as u8]).expect("send");
        }
        net.step();
        demux[1].poll(net.host(1), now).expect("poll");
        while let Some((from, m)) = demux[1].recv() {
            demux[1].send(net.host(1), now, from, m).expect("echo");
        }
        net.step();
        for h in [0, 2] {
            demux[h].poll(net.host(h), now).expect("poll");
            assert!(demux[h].recv().is_some(), "host {h} got its echo");
        }
        net.step();
        demux[1].poll(net.host(1), now).expect("poll");
    }
    let message = vec![7u8; BLOCK];
    let mut got = None;
    let cost = allocated_by(|| {
        demux[0].send(net.host(0), 4, peer(2), message).expect("send");
        net.step();
        demux[2].poll(net.host(2), 4).expect("poll");
        got = demux[2].recv();
        net.step();
        demux[0].poll(net.host(0), 4).expect("poll");
    });
    assert_eq!(got, Some((peer(0), vec![7u8; BLOCK])));
    assert!(demux[0].quiescent() && demux[2].quiescent(), "the ACK arrived");
    assert_eq!((demux[0].sessions(), demux[2].sessions()), (2, 2));
    assert_eq!(
        cost,
        Allocated {
            blocks: 2,
            bytes: (HEADROOM + RDT_HEADER + BLOCK + HEADROOM + RDT_HEADER) as u64,
        },
        "a new session's first message should allocate its DATA frame and its ACK \
         frame, and no window, backlog or delivery buffer"
    );
}
