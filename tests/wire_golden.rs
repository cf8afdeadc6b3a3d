//! Every little-endian image the stack sends, stores or rings, pinned
//! byte for byte.
//!
//! Round-trip tests pass under any change to a format that its encoder
//! and decoder make in step; this file does not. It lists a literal
//! image of every blockstore request and response, a membership view
//! and a heartbeat, an rdt DATA header and an ACK as they leave a
//! demux, and a chained SQE and two CQEs. A change here is a wire or
//! ring format break. (The journal's records are pinned by
//! `veros_fs::journal`'s `wal_bytes_are_pinned`, the register images by
//! `veros-kernel`'s `abi_golden`.) Integers are little-endian; a string
//! or block is a `u32` length and the bytes.

use veros_blockstore::wire::{Request, Response};
use veros_cluster::view::{heartbeat, parse_heartbeat, View};
use veros_kernel::syscall::{SysError, Syscall};
use veros_net::demux::RdtDemux;
use veros_net::sim::{FaultPlan, Network};
use veros_net::IpAddr;
use veros_uring::entry::{Cqe, Sqe, SqeFlags};

#[test]
#[rustfmt::skip]
fn every_blockstore_message_has_its_pinned_image() {
    let key = || "k".to_string();
    let requests: [(Request, &[u8]); 6] = [
        (Request::Get { id: 1, key: key() },
         &[2, /* id */ 1, 0, 0, 0, 0, 0, 0, 0, /* key */ 1, 0, 0, 0, b'k']),
        (Request::ShardPut {
            id: 2, key: key(), data: vec![0xaa, 0xbb], checksum: 0x0807_0605_0403_0201,
            client: 3, seq: 4,
         },
         &[5, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, b'k', /* block */ 2, 0, 0, 0, 0xaa, 0xbb,
           /* checksum */ 1, 2, 3, 4, 5, 6, 7, 8, /* client */ 3, 0, 0, 0, 0, 0, 0, 0,
           /* seq */ 4, 0, 0, 0, 0, 0, 0, 0]),
        (Request::ShardDelete { id: 5, key: key(), client: 6, seq: 7 },
         &[6, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, b'k',
           6, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]),
        (Request::ChainPut {
            id: 8, key: key(), data: vec![0xcc], checksum: 9, client: 10, seq: 11, epoch: 12,
            rest: vec![0x0102, 3],
         },
         &[7, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, b'k', 1, 0, 0, 0, 0xcc,
           9, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0,
           /* epoch */ 12, 0, 0, 0, 0, 0, 0, 0,
           /* rest: count, u16 hosts */ 2, 0, 0, 0, 2, 1, 3, 0]),
        (Request::ChainDelete { id: 13, key: key(), client: 14, seq: 15, epoch: 16, rest: vec![] },
         &[8, 13, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, b'k', 14, 0, 0, 0, 0, 0, 0, 0,
           15, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        (Request::SyncShard { id: 17, shard: 0x0102_0304 },
         &[9, 17, 0, 0, 0, 0, 0, 0, 0, /* shard */ 4, 3, 2, 1]),
    ];
    for (request, image) in requests {
        assert_eq!(request.encode(), image, "{request:?}");
        assert_eq!(Request::decode(image), Some(request));
    }
    let responses: [(Response, &[u8]); 7] = [
        (Response::PutOk { id: 1 }, &[1, 1, 0, 0, 0, 0, 0, 0, 0]),
        (Response::GetOk { id: 2, data: vec![0xaa], checksum: 3 },
         &[2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xaa, 3, 0, 0, 0, 0, 0, 0, 0]),
        (Response::NotFound { id: 4 }, &[3, 4, 0, 0, 0, 0, 0, 0, 0]),
        (Response::DeleteOk { id: 5 }, &[4, 5, 0, 0, 0, 0, 0, 0, 0]),
        (Response::Error { id: 6, reason: "no".into() },
         &[6, 6, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, b'n', b'o']),
        (Response::Retry { id: 7 }, &[7, 7, 0, 0, 0, 0, 0, 0, 0]),
        (Response::SyncBlocks {
            id: 8,
            blocks: vec![("a".into(), vec![0xdd], 9), (String::new(), vec![], 10)],
         },
         &[8, 8, 0, 0, 0, 0, 0, 0, 0, /* block count */ 2, 0, 0, 0,
           1, 0, 0, 0, b'a', 1, 0, 0, 0, 0xdd, 9, 0, 0, 0, 0, 0, 0, 0,
           0, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0]),
    ];
    for (response, image) in responses {
        assert_eq!(response.encode(), image, "{response:?}");
        assert_eq!(Response::decode(image), Some(response));
    }
}

#[test]
#[rustfmt::skip]
fn a_view_and_a_heartbeat_have_their_pinned_images() {
    let view = View { epoch: 0x0102, live: [1u16, 0x0203].into_iter().collect() };
    let image = [0xb2, /* epoch */ 2, 1, 0, 0, 0, 0, 0, 0,
                 /* live: count, u16 hosts */ 2, 0, 0, 0, 1, 0, 3, 2];
    assert_eq!(view.encode(), image);
    assert_eq!(View::decode(&image), Some(view));
    let image = [0xb1, /* node */ 2, 1, /* epoch */ 4, 3, 0, 0, 0, 0, 0, 0];
    assert_eq!(heartbeat(0x0102, 0x0304), image);
    assert_eq!(parse_heartbeat(&image), Some((0x0102, 0x0304)));
}

/// The demux on host 0 sends two messages to a plain socket on host 1,
/// which reads them off the wire; host 1 then writes a DATA header by
/// hand, and host 0 delivers the message and ACKs it.
#[test]
fn rdt_data_and_ack_headers_have_their_pinned_images() {
    const PORT: u16 = 7000;
    let mut net = Network::new(2, FaultPlan::reliable(), 1);
    let mut demux = RdtDemux::new(net.host(0).bind(PORT).expect("bind"));
    let raw = net.host(1).bind(PORT).expect("bind");
    for message in [b"hi", b"yo"] {
        demux.send(net.host(0), 0, (IpAddr::host(1), PORT), message.to_vec()).expect("send");
    }
    net.step();
    let mut on_host_1 = || net.host(1).recv_from(raw).expect("recv").expect("a datagram").2;
    // Type DATA, then the sequence number.
    assert_eq!(on_host_1(), [1, 0, 0, 0, 0, 0, 0, 0, 0, b'h', b'i']);
    assert_eq!(on_host_1(), [1, 1, 0, 0, 0, 0, 0, 0, 0, b'y', b'o']);

    let data: &[u8] = &[1, 0, 0, 0, 0, 0, 0, 0, 0, b'x'];
    net.host(1).send_to(raw, IpAddr::host(0), PORT, &[data]).expect("send");
    net.step();
    demux.poll(net.host(0), 0).expect("poll");
    assert_eq!(demux.recv(), Some(((IpAddr::host(1), PORT), b"x".to_vec())));
    net.step();
    // Type ACK, then the first sequence number not yet received.
    let ack = net.host(1).recv_from(raw).expect("recv").expect("a datagram").2;
    assert_eq!(ack, [2, 1, 0, 0, 0, 0, 0, 0, 0]);
}

/// SQE and CQE decoding is a bijection between slot images and entries
/// (fixed-width fields, exact length), so a decoder pinned here and the
/// `veros-uring` round-trip tests (`decode(encode(e)) == e`) together
/// pin the encoder too.
#[test]
#[rustfmt::skip]
fn sqes_and_cqes_have_their_pinned_images() {
    let call = Syscall::Read { fd: 3, buf_ptr: 0x2000, buf_len: 64 };
    let flags = SqeFlags::NONE.linked().subst_prev(1);
    let sqe = Sqe::with_flags(0x0102, &call, flags);
    let sqe_image = [
        2, 1, 0, 0, 0, 0, 0, 0,      // user_data
        5, 1, 0, 0, 0, 0, 0, 0,      // flags: link | subst prev | reg 1
        7, 0, 0, 0, 0, 0, 0, 0,      // Read, then fd, buf_ptr, buf_len
        3, 0, 0, 0, 0, 0, 0, 0,
        0, 0x20, 0, 0, 0, 0, 0, 0,
        64, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert_eq!(Sqe::decode(&sqe_image), Ok(sqe));
    assert_eq!(sqe.sqe_flags(), Ok(flags));
    // user_data, status (0 or the error's code), value.
    let ok = Cqe { user_data: 9, result: Ok(0x0102) };
    let ok_image = [9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0];
    assert_eq!(Cqe::decode(&ok_image), Ok(ok));
    let err = Cqe { user_data: 10, result: Err(SysError::NoSuchPath) };
    let err_image = [10, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(Cqe::decode(&err_image), Ok(err));
}
