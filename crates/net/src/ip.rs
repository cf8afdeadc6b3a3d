//! A minimal IP layer.
//!
//! 32-bit addresses, a protocol field, a TTL, and a 16-bit ones'-
//! complement header checksum (the real IPv4 algorithm, so corruption
//! detection is faithful).

/// An IPv4-style address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Address `10.0.hi.lo` for host `n` (16-bit host ids so fleet
    /// simulations can address thousands of hosts without aliasing).
    pub fn host(n: u16) -> IpAddr {
        IpAddr(0x0a00_0000 | n as u32)
    }
}

impl std::fmt::Display for IpAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// Transport protocol numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// UDP (17).
    Udp,
    /// Unknown protocol.
    Unknown(u8),
}

impl Proto {
    fn to_u8(self) -> u8 {
        match self {
            Proto::Udp => 17,
            Proto::Unknown(v) => v,
        }
    }

    fn from_u8(v: u8) -> Proto {
        match v {
            17 => Proto::Udp,
            other => Proto::Unknown(other),
        }
    }
}

/// An IP packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpPacket {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Transport protocol.
    pub proto: Proto,
    /// Time to live.
    pub ttl: u8,
    /// Payload.
    pub payload: Vec<u8>,
}

/// Header length in bytes: src(4) dst(4) proto(1) ttl(1) len(2) cksum(2).
pub const IP_HEADER: usize = 14;

/// RFC 1071 ones'-complement checksum over 16-bit words.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = bytes.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += u16::from_be_bytes([*last, 0]) as u32;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// An IP header: the layout lives here once. The length and checksum
/// fields are not stored: [`IpHeader::write`] derives them from the
/// packet it writes into, and [`IpHeader::parse`] checks them.
/// [`IpPacket`] is the owned form built on the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpHeader {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Transport protocol.
    pub proto: Proto,
    /// Time to live.
    pub ttl: u8,
}

impl IpHeader {
    /// Writes the header over the first [`IP_HEADER`] bytes of `packet`,
    /// whose remainder is the payload: the length field is the
    /// remainder's length and the checksum covers the written header.
    pub fn write(&self, packet: &mut [u8]) {
        let len = packet.len().saturating_sub(IP_HEADER) as u16;
        let mut h = [0u8; IP_HEADER];
        crate::put_at(&mut h, 0, &self.src.0.to_be_bytes());
        crate::put_at(&mut h, 4, &self.dst.0.to_be_bytes());
        crate::put_at(&mut h, 8, &[self.proto.to_u8(), self.ttl]);
        crate::put_at(&mut h, 10, &len.to_be_bytes());
        let ck = checksum(&h);
        crate::put_at(&mut h, 12, &ck.to_be_bytes());
        crate::put_at(packet, 0, &h);
    }

    /// Validates (length + checksum) and splits a packet into header and
    /// payload; `None` on corruption.
    pub fn parse(packet: &[u8]) -> Option<(IpHeader, &[u8])> {
        let header = packet.get(..IP_HEADER)?;
        let payload = packet.get(IP_HEADER..)?;
        // A valid header checksums to zero with the checksum field
        // included.
        if checksum(header) != 0 {
            return None;
        }
        let len = u16::from_be_bytes(crate::take_arr(header, 10)) as usize;
        if payload.len() != len {
            return None;
        }
        let [proto, ttl] = crate::take_arr(header, 8);
        let h = IpHeader {
            src: IpAddr(u32::from_be_bytes(crate::take_arr(header, 0))),
            dst: IpAddr(u32::from_be_bytes(crate::take_arr(header, 4))),
            proto: Proto::from_u8(proto),
            ttl,
        };
        Some((h, payload))
    }
}

impl IpPacket {
    /// Serializes the packet, computing the header checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = crate::with_headroom(IP_HEADER, &[&self.payload]);
        IpHeader {
            src: self.src,
            dst: self.dst,
            proto: self.proto,
            ttl: self.ttl,
        }
        .write(&mut out);
        out
    }

    /// Parses and validates (length + checksum); `None` on corruption.
    pub fn decode(bytes: &[u8]) -> Option<IpPacket> {
        let (h, payload) = IpHeader::parse(bytes)?;
        Some(IpPacket {
            src: h.src,
            dst: h.dst,
            proto: h.proto,
            ttl: h.ttl,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet() -> IpPacket {
        IpPacket {
            src: IpAddr::host(1),
            dst: IpAddr::host(2),
            proto: Proto::Udp,
            ttl: 64,
            payload: b"payload".to_vec(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = packet();
        assert_eq!(IpPacket::decode(&p.encode()), Some(p));
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut bytes = packet().encode();
        for i in 0..IP_HEADER {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert_eq!(IpPacket::decode(&corrupt), None, "flip at {i} undetected");
        }
        // Truncation.
        bytes.pop();
        assert_eq!(IpPacket::decode(&bytes), None);
    }

    #[test]
    fn checksum_reference_properties() {
        // Checksum of a block including its own checksum is zero.
        let p = packet().encode();
        assert_eq!(checksum(&p[..IP_HEADER]), 0);
        // Odd-length input is handled.
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 2, 4]));
    }

    #[test]
    fn empty_payload_ok() {
        let p = IpPacket {
            payload: vec![],
            ..packet()
        };
        assert_eq!(IpPacket::decode(&p.encode()), Some(p));
    }

    #[test]
    fn display_formats_dotted_quad() {
        assert_eq!(IpAddr::host(7).to_string(), "10.0.0.7");
    }
}
