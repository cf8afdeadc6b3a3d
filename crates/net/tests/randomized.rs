//! Randomized tests of the network stack's codecs and the transport's
//! prefix-delivery spec under arbitrary fault seeds, driven by the
//! in-tree deterministic [`SpecRng`] (formerly proptest-based).

use veros_spec::rng::SpecRng;
use veros_net::frame::{EthFrame, EtherType, Mac};
use veros_net::ip::{checksum, IpAddr, IpPacket, Proto};
use veros_net::socket::SocketId;
use veros_net::stack::{NetStack, HEADROOM};
use veros_net::udp::UdpDatagram;

const CASES: usize = 128;

fn arbitrary_payload(rng: &mut SpecRng, max: usize) -> Vec<u8> {
    let mut p = vec![0u8; rng.index(max)];
    rng.fill(&mut p);
    p
}

/// Ethernet framing round-trips arbitrary payloads.
#[test]
fn eth_round_trip() {
    let mut rng = SpecRng::for_obligation("net::tests::eth_round_trip");
    for _ in 0..CASES {
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        rng.fill(&mut dst);
        rng.fill(&mut src);
        let f = EthFrame {
            dst: Mac(dst),
            src: Mac(src),
            ethertype: EtherType::Ip,
            payload: arbitrary_payload(&mut rng, 256),
        };
        assert_eq!(EthFrame::decode(&f.encode()), Some(f));
    }
}

/// IP packets round-trip, and any single-bit corruption of the header is
/// detected by the checksum.
#[test]
fn ip_round_trip_and_header_corruption_detected() {
    let mut rng = SpecRng::for_obligation("net::tests::ip_corruption");
    for _ in 0..CASES {
        let p = IpPacket {
            src: IpAddr(rng.next_u64() as u32),
            dst: IpAddr(rng.next_u64() as u32),
            proto: Proto::Udp,
            ttl: rng.next_u64() as u8,
            payload: arbitrary_payload(&mut rng, 128),
        };
        let wire = p.encode();
        assert_eq!(IpPacket::decode(&wire), Some(p));
        let mut corrupt = wire.clone();
        let flip_byte = rng.index(14);
        let flip_bit = rng.below(8) as u8;
        corrupt[flip_byte] ^= 1 << flip_bit;
        if corrupt != wire {
            assert_eq!(IpPacket::decode(&corrupt), None, "flip undetected");
        }
    }
}

/// UDP datagrams round-trip.
#[test]
fn udp_round_trip() {
    let mut rng = SpecRng::for_obligation("net::tests::udp_round_trip");
    for _ in 0..CASES {
        let d = UdpDatagram {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            payload: arbitrary_payload(&mut rng, 512),
        };
        assert_eq!(UdpDatagram::decode(&d.encode()), Some(d));
    }
}

/// The RFC-1071 checksum verifies on valid blocks: checksumming a header
/// that embeds its own checksum yields zero.
#[test]
fn checksum_self_verifies() {
    let mut rng = SpecRng::for_obligation("net::tests::checksum_self_verifies");
    for _ in 0..CASES {
        let p = IpPacket {
            src: IpAddr(1),
            dst: IpAddr(2),
            proto: Proto::Udp,
            ttl: 64,
            payload: arbitrary_payload(&mut rng, 64),
        };
        let wire = p.encode();
        assert_eq!(checksum(&wire[..14]), 0);
    }
}

fn arbitrary_mac(rng: &mut SpecRng) -> Mac {
    let mut m = [0u8; 6];
    rng.fill(&mut m);
    Mac(m)
}

/// `payload` cut at random points into gather parts, empty parts
/// included (and, for an empty payload, sometimes no part at all).
fn gather_parts<'a>(rng: &mut SpecRng, payload: &'a [u8]) -> Vec<&'a [u8]> {
    if payload.is_empty() && rng.chance(1, 2) {
        return Vec::new();
    }
    let mut cuts: Vec<usize> = (0..rng.index(5))
        .map(|_| rng.index(payload.len() + 1))
        .collect();
    cuts.sort_unstable();
    let mut parts = Vec::new();
    let mut at = 0;
    for cut in cuts {
        parts.push(&payload[at..cut]);
        at = cut;
    }
    parts.push(&payload[at..]);
    parts
}

/// The receive path spelled out with the struct codecs and the stack's
/// filters: the oracle for [`NetStack::poll`]. `Some((source IP, source
/// port, destination port, payload))` when a stack at `mac`/`ip` accepts
/// `frame`.
fn struct_receive(frame: &[u8], mac: Mac, ip: IpAddr) -> Option<(IpAddr, u16, u16, Vec<u8>)> {
    let f = EthFrame::decode(frame)?;
    if (f.dst != mac && f.dst != Mac::BROADCAST) || f.ethertype != EtherType::Ip {
        return None;
    }
    let p = IpPacket::decode(&f.payload)?;
    if p.dst != ip || p.ttl == 0 || p.proto != Proto::Udp {
        return None;
    }
    let d = UdpDatagram::decode(&p.payload)?;
    Some((p.src, d.src_port, d.dst_port, d.payload))
}

/// A frame built with the struct codecs in which every field a receive
/// filter looks at is sometimes wrong: MAC, ethertype, IP length,
/// destination IP, TTL, protocol, UDP length. The IP checksum is always
/// right, so the filters behind it are reached.
fn struct_frame(rng: &mut SpecRng, mac: Mac, ip: IpAddr, payload: &[u8]) -> Vec<u8> {
    let mut udp = UdpDatagram {
        src_port: rng.next_u64() as u16,
        dst_port: rng.next_u64() as u16,
        payload: payload.to_vec(),
    }
    .encode();
    if rng.chance(1, 6) {
        udp.push(rng.next_u64() as u8);
    }
    let mut packet = IpPacket {
        src: IpAddr(rng.next_u64() as u32),
        dst: if rng.chance(5, 6) { ip } else { IpAddr(rng.next_u64() as u32) },
        proto: if rng.chance(5, 6) { Proto::Udp } else { Proto::Unknown(rng.next_u64() as u8) },
        ttl: if rng.chance(1, 6) { 0 } else { rng.next_u64() as u8 },
        payload: udp,
    }
    .encode();
    if rng.chance(1, 8) && packet.len() < 1536 - 14 {
        packet.push(0);
    }
    let stranger = arbitrary_mac(rng);
    EthFrame {
        dst: *rng.choose(&[mac, mac, Mac::BROADCAST, stranger]),
        src: arbitrary_mac(rng),
        ethertype: if rng.chance(7, 8) {
            EtherType::Ip
        } else {
            EtherType::Unknown(rng.next_u64() as u16)
        },
        payload: packet,
    }
    .encode()
}

/// Delivers `frame` to `rx` and checks [`NetStack::poll`] against
/// [`struct_receive`]: the same accept/drop decision (drops counted in
/// `rx_dropped`), and the same datagram on the socket bound at `port`.
fn receives_like_the_structs(rx: &mut NetStack, sock: SocketId, port: u16, frame: Vec<u8>) {
    let want = struct_receive(&frame, rx.mac(), rx.ip());
    let dropped = rx.stats().rx_dropped;
    let what = format!("{} bytes: {:02x?}", frame.len(), &frame[..frame.len().min(HEADROOM)]);
    rx.nic.wire_deliver(frame);
    let accepted = rx.poll();
    assert_eq!(accepted, usize::from(want.is_some()), "{what}");
    assert_eq!(rx.stats().rx_dropped - dropped, 1 - accepted as u64, "{what}");
    let want = want
        .filter(|&(_, _, dport, _)| dport == port)
        .map(|(src, sport, _, payload)| (src, sport, payload));
    assert_eq!(rx.recv_from(sock).expect("bound"), want, "{what}");
}

/// The one-buffer path against the struct codecs. Send: the frame
/// `NetStack::send_to` builds is byte-identical to the nested struct
/// encodes, however the payload is split into gather parts. Receive:
/// `NetStack::poll` agrees with the struct-decode chain on the frame
/// itself, on truncations (every cut through the headers, and random
/// ones), on every single-byte corruption, on random bytes, and on
/// struct-built frames with each filtered field sometimes wrong.
#[test]
fn one_buffer_path_agrees_with_the_struct_codecs() {
    let mut rng = SpecRng::for_obligation("net::tests::one_buffer_path");
    for _ in 0..32 {
        let (src_mac, dst_mac) = (arbitrary_mac(&mut rng), arbitrary_mac(&mut rng));
        let (src_ip, dst_ip) = (IpAddr(rng.next_u64() as u32), IpAddr(rng.next_u64() as u32));
        let (sport, dport) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let payload = arbitrary_payload(&mut rng, 1501);

        let mut tx = NetStack::new(src_mac, src_ip);
        let known = rng.chance(3, 4);
        if known {
            tx.add_neighbor(dst_ip, dst_mac);
        }
        let sock = tx.bind(sport).expect("bind");
        tx.send_to(sock, dst_ip, dport, &gather_parts(&mut rng, &payload))
            .expect("send");
        let frame = tx.nic.wire_take_tx().expect("one frame");
        let nested = EthFrame {
            dst: if known { dst_mac } else { Mac::BROADCAST },
            src: src_mac,
            ethertype: EtherType::Ip,
            payload: IpPacket {
                src: src_ip,
                dst: dst_ip,
                proto: Proto::Udp,
                ttl: 64,
                payload: UdpDatagram {
                    src_port: sport,
                    dst_port: dport,
                    payload: payload.clone(),
                }
                .encode(),
            }
            .encode(),
        }
        .encode();
        assert_eq!(frame, nested, "{} payload bytes", payload.len());

        // Mostly the addressee, sometimes a bystander.
        let (rx_mac, rx_ip) = if rng.chance(4, 5) {
            (dst_mac, dst_ip)
        } else {
            (arbitrary_mac(&mut rng), IpAddr(rng.next_u64() as u32))
        };
        let mut rx = NetStack::new(rx_mac, rx_ip);
        let rx_sock = rx.bind(dport).expect("bind");
        let mut check = |f: Vec<u8>| receives_like_the_structs(&mut rx, rx_sock, dport, f);
        check(frame.clone());
        for cut in 0..=HEADROOM {
            check(frame[..cut.min(frame.len())].to_vec());
        }
        for _ in 0..8 {
            check(frame[..rng.index(frame.len())].to_vec());
            check(arbitrary_payload(&mut rng, 96));
            check(struct_frame(&mut rng, rx_mac, rx_ip, &payload));
        }
        for i in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[i] ^= 1 + rng.below(255) as u8;
            check(corrupt);
        }
    }
}

/// Transport spec under arbitrary seeds: whatever the wire does,
/// delivery is a prefix of the sent sequence at every instant.
#[test]
fn rdt_prefix_under_any_seed() {
    use veros_net::demux::RdtDemux;
    use veros_net::sim::{FaultPlan, Network};

    let mut rng = SpecRng::for_obligation("net::tests::rdt_prefix_under_any_seed");
    for _ in 0..24 {
        let seed = rng.next_u64();
        let cutoff = 10 + rng.below(190);
        let mut net = Network::new(2, FaultPlan::hostile(), seed);
        let mut a = RdtDemux::new(net.host(0).bind(7000).expect("bind"));
        let mut b = RdtDemux::new(net.host(1).bind(7001).expect("bind"));
        let (ip0, ip1) = (net.host(0).ip(), net.host(1).ip());
        let sent: Vec<Vec<u8>> = (0..15u8).map(|i| vec![i]).collect();
        for m in &sent {
            a.send(net.host(0), 0, (ip1, 7001), m.clone()).expect("send");
        }
        let mut got: Vec<Vec<u8>> = Vec::new();
        for now in 0..cutoff {
            net.step();
            a.poll(net.host(0), now).expect("poll a");
            b.poll(net.host(1), now).expect("poll b");
            a.on_tick(net.host(0), now).expect("tick a");
            b.on_tick(net.host(1), now).expect("tick b");
            while let Some((from, m)) = b.recv() {
                assert_eq!(from, (ip0, 7000), "seed={seed}");
                got.push(m);
            }
            assert!(got.len() <= sent.len());
            assert_eq!(&got[..], &sent[..got.len()], "not a prefix at t={now} seed={seed}");
        }
    }
}
