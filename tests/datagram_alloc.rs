//! A datagram is one buffer from rdt to the receiving socket — asserted
//! on exact allocation counts, so the result is the same on every host
//! and every run.
//!
//! One reliable message and its acknowledgement over a warmed-up 2-host
//! wire allocate exactly two blocks: the DATA frame `NetStack::send_to`
//! builds and the ACK frame the receiver answers with, each at its final
//! size. Everything else moves: the wire hands a frame from NIC to NIC,
//! the stack strips its headers in place and gives the NIC's buffer to
//! the socket, and rdt strips its own header and returns that same
//! buffer from `recv`. Its own test binary with a single `#[test]`: see
//! `counting_alloc`.

mod counting_alloc;

use counting_alloc::{allocated_by, Allocated};
use veros_net::demux::RdtDemux;
use veros_net::sim::{FaultPlan, Network};
use veros_net::stack::HEADROOM;
use veros_net::IpAddr;

const MESSAGE: usize = 128;
/// The rdt header: type(1) seq(8).
const RDT_HEADER: usize = 9;

#[test]
fn one_reliable_message_allocates_its_data_frame_and_its_ack_frame() {
    let mut net = Network::new(2, FaultPlan::reliable(), 1);
    let mut a = RdtDemux::new(net.host(0).bind(7000).expect("bind"));
    let mut b = RdtDemux::new(net.host(1).bind(7000).expect("bind"));
    let peer = (IpAddr::host(1), 7000);
    // send -> step -> poll -> recv, and the ACK back.
    let mut round_trip = |now: u64, message: Vec<u8>| -> Vec<u8> {
        a.send(net.host(0), now, peer, message).expect("send");
        net.step();
        b.poll(net.host(1), now).expect("poll");
        let (_, got) = b.recv().expect("delivered in one step");
        net.step();
        a.poll(net.host(0), now).expect("poll");
        got
    };
    // Warm up: the sessions exist and every queue on the path has
    // reached its steady capacity.
    for now in 0..16 {
        round_trip(now, vec![now as u8; MESSAGE]);
    }
    let message = vec![7u8; MESSAGE];
    let mut got = Vec::new();
    let cost = allocated_by(|| got = round_trip(16, message));
    assert_eq!(got, [7u8; MESSAGE]);
    assert!(a.quiescent(), "the ACK arrived");
    let data_frame = HEADROOM + RDT_HEADER + MESSAGE;
    let ack_frame = HEADROOM + RDT_HEADER;
    assert_eq!(
        cost,
        Allocated {
            blocks: 2,
            bytes: (data_frame + ack_frame) as u64,
        },
        "one message and its ACK should allocate the two frames and nothing else"
    );
}
