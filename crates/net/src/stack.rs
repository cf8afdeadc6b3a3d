//! One host's network stack: NIC ↔ IP demux ↔ sockets.
//!
//! A datagram is one buffer from the sender's gather list to the
//! receiving socket. [`NetStack::send_to`] allocates the frame once, at
//! its final size, copies the payload parts in behind [`HEADROOM`] bytes
//! and writes the Ethernet, IP and UDP headers in place.
//! [`NetStack::poll`] validates a received frame by slice — every check
//! a layer makes, each counted in `rx_dropped` — then strips the headers
//! in place and hands the NIC's own buffer to the socket.

use std::collections::BTreeMap;

use veros_hw::SimNic;

use crate::frame::{EthHeader, EtherType, Mac, ETH_HEADER};
use crate::ip::{IpAddr, IpHeader, Proto, IP_HEADER};
use crate::socket::{Received, SocketError, SocketId, SocketTable};
use crate::udp::{UdpHeader, UDP_HEADER};

/// Header bytes in front of every datagram's payload on the wire.
pub const HEADROOM: usize = ETH_HEADER + IP_HEADER + UDP_HEADER;

/// Per-stack counters for tests and observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Datagrams sent.
    pub tx_udp: u64,
    /// Datagrams delivered to sockets.
    pub rx_udp: u64,
    /// Frames dropped: wrong MAC, bad checksum, unknown proto, TTL zero.
    pub rx_dropped: u64,
}

/// A host network stack.
pub struct NetStack {
    /// The NIC (the wire side is driven by [`crate::sim::Network`]).
    pub nic: SimNic,
    mac: Mac,
    ip: IpAddr,
    /// Static neighbour table (ARP stand-in; the simulation registers
    /// every host at creation).
    arp: BTreeMap<IpAddr, Mac>,
    sockets: SocketTable,
    stats: StackStats,
}

impl NetStack {
    /// Creates a stack for a host with `mac`/`ip`.
    pub fn new(mac: Mac, ip: IpAddr) -> Self {
        Self {
            nic: SimNic::new(mac.0),
            mac,
            ip,
            arp: BTreeMap::new(),
            sockets: SocketTable::new(),
            stats: StackStats::default(),
        }
    }

    /// The host's IP address.
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// The host's MAC address.
    pub fn mac(&self) -> Mac {
        self.mac
    }

    /// Counters.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Registers a neighbour (simulation-time ARP).
    pub fn add_neighbor(&mut self, ip: IpAddr, mac: Mac) {
        self.arp.insert(ip, mac);
    }

    /// Binds a UDP socket.
    pub fn bind(&mut self, port: u16) -> Result<SocketId, SocketError> {
        self.sockets.bind(port)
    }

    /// Closes a socket.
    pub fn close(&mut self, sock: SocketId) -> Result<(), SocketError> {
        self.sockets.close(sock)
    }

    /// Sends a datagram from `sock` to `dst:dst_port` whose payload is
    /// the concatenation of `payload`'s parts: one allocation, one copy.
    pub fn send_to(
        &mut self,
        sock: SocketId,
        dst: IpAddr,
        dst_port: u16,
        payload: &[&[u8]],
    ) -> Result<(), SocketError> {
        let src_port = self.sockets.port_of(sock)?;
        let mut frame = crate::with_headroom(HEADROOM, payload);
        EthHeader {
            dst: self.arp.get(&dst).copied().unwrap_or(Mac::BROADCAST),
            src: self.mac,
            ethertype: EtherType::Ip,
        }
        .write(&mut frame);
        let packet = &mut frame[ETH_HEADER..];
        IpHeader {
            src: self.ip,
            dst,
            proto: Proto::Udp,
            ttl: 64,
        }
        .write(packet);
        UdpHeader { src_port, dst_port }.write(&mut packet[IP_HEADER..]);
        self.nic.transmit(frame);
        self.stats.tx_udp += 1;
        Ok(())
    }

    /// Receives the next datagram on `sock`, if any.
    pub fn recv_from(&mut self, sock: SocketId) -> Result<Option<Received>, SocketError> {
        self.sockets.recv_from(sock)
    }

    /// Drains the NIC receive queue, demultiplexing into sockets.
    /// Returns the number of datagrams delivered.
    pub fn poll(&mut self) -> usize {
        let mut delivered = 0;
        while let Some(mut frame) = self.nic.receive() {
            let Some((src, src_port, dst_port)) = self.accept(&frame) else {
                self.stats.rx_dropped += 1;
                continue;
            };
            // Accepted, so the frame is at least `HEADROOM` long and the
            // rest is exactly the UDP payload.
            frame.drain(..HEADROOM);
            self.sockets.deliver(dst_port, src, src_port, frame);
            self.stats.rx_udp += 1;
            delivered += 1;
        }
        delivered
    }

    /// Every check the layers make on a received frame, in layer order,
    /// by slice: length, MAC filter, ethertype, IP checksum and length
    /// field, destination IP, TTL, protocol, UDP length field. Returns
    /// the datagram's `(source IP, source port, destination port)`, or
    /// `None` to drop the frame.
    fn accept(&self, frame: &[u8]) -> Option<(IpAddr, u16, u16)> {
        let (eth, packet) = EthHeader::parse(frame)?;
        if (eth.dst != self.mac && eth.dst != Mac::BROADCAST) || eth.ethertype != EtherType::Ip {
            return None;
        }
        let (ip, datagram) = IpHeader::parse(packet)?;
        if ip.dst != self.ip || ip.ttl == 0 || ip.proto != Proto::Udp {
            return None;
        }
        let (udp, _) = UdpHeader::parse(datagram)?;
        Some((ip.src, udp.src_port, udp.dst_port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Moves every pending frame from `a`'s NIC to `b`'s NIC, verbatim.
    fn patch_cable(a: &mut NetStack, b: &mut NetStack) {
        while let Some(f) = a.nic.wire_take_tx() {
            b.nic.wire_deliver(f);
        }
    }

    fn pair() -> (NetStack, NetStack) {
        let mut a = NetStack::new(Mac::host(1), IpAddr::host(1));
        let mut b = NetStack::new(Mac::host(2), IpAddr::host(2));
        a.add_neighbor(b.ip(), b.mac());
        b.add_neighbor(a.ip(), a.mac());
        (a, b)
    }

    #[test]
    fn datagram_travels_end_to_end() {
        let (mut a, mut b) = pair();
        let sa = a.bind(1000).unwrap();
        let sb = b.bind(2000).unwrap();
        a.send_to(sa, b.ip(), 2000, &[b"ping"]).unwrap();
        patch_cable(&mut a, &mut b);
        assert_eq!(b.poll(), 1);
        let (src, sport, data) = b.recv_from(sb).unwrap().unwrap();
        assert_eq!(src, a.ip());
        assert_eq!(sport, 1000);
        assert_eq!(data, b"ping");
    }

    #[test]
    fn wrong_mac_or_ip_dropped() {
        let (mut a, mut b) = pair();
        let sa = a.bind(1000).unwrap();
        // Address a host that is not b at the IP layer but b's MAC is
        // unknown, so the frame broadcasts and b's IP filter drops it.
        a.send_to(sa, IpAddr::host(9), 2000, &[b"nope"]).unwrap();
        patch_cable(&mut a, &mut b);
        assert_eq!(b.poll(), 0);
        assert_eq!(b.stats().rx_dropped, 1);
    }

    #[test]
    fn corrupt_frames_do_not_crash_the_stack() {
        let (_a, mut b) = pair();
        b.nic.wire_deliver(vec![1, 2, 3]);
        b.nic.wire_deliver(vec![0; 64]);
        assert_eq!(b.poll(), 0);
        assert_eq!(b.stats().rx_dropped, 2);
    }

    #[test]
    fn unbound_port_drops_silently() {
        let (mut a, mut b) = pair();
        let sa = a.bind(1000).unwrap();
        a.send_to(sa, b.ip(), 4444, &[b"void"]).unwrap();
        patch_cable(&mut a, &mut b);
        // Counted as received UDP (valid packet) but no socket sees it.
        assert_eq!(b.poll(), 1);
    }
}
