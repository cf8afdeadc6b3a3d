//! Ethernet-style framing.

/// A MAC address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// The broadcast address.
    pub const BROADCAST: Mac = Mac([0xff; 6]);

    /// A deterministic MAC for host `n` (test/simulation convenience).
    /// Host ids are 16-bit so a simulation can address fleet-scale
    /// topologies (thousands of client hosts) without aliasing.
    pub fn host(n: u16) -> Mac {
        let [hi, lo] = n.to_be_bytes();
        Mac([0x02, 0x00, 0x00, 0x00, hi, lo])
    }
}

/// Payload type carried by a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EtherType {
    /// An IP packet.
    Ip,
    /// Anything else (dropped by the stack).
    Unknown(u16),
}

impl EtherType {
    fn to_u16(self) -> u16 {
        match self {
            EtherType::Ip => 0x0800,
            EtherType::Unknown(v) => v,
        }
    }

    fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ip,
            other => EtherType::Unknown(other),
        }
    }
}

/// Frame header length in bytes: dst(6) src(6) ethertype(2).
pub const ETH_HEADER: usize = 14;

/// A frame header: the layout lives here once. [`EthHeader::write`]
/// fills the front of a frame in place and [`EthHeader::parse`] reads
/// it off a wire slice without copying the payload; [`EthFrame`] is the
/// owned form built on the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// Payload type.
    pub ethertype: EtherType,
}

impl EthHeader {
    /// Writes the header over the first [`ETH_HEADER`] bytes of `frame`.
    pub fn write(&self, frame: &mut [u8]) {
        crate::put_at(frame, 0, &self.dst.0);
        crate::put_at(frame, 6, &self.src.0);
        crate::put_at(frame, 12, &self.ethertype.to_u16().to_be_bytes());
    }

    /// Splits wire bytes into header and payload; `None` when shorter
    /// than a header.
    pub fn parse(frame: &[u8]) -> Option<(EthHeader, &[u8])> {
        let payload = frame.get(ETH_HEADER..)?;
        let header = EthHeader {
            dst: Mac(crate::take_arr(frame, 0)),
            src: Mac(crate::take_arr(frame, 6)),
            ethertype: EtherType::from_u16(u16::from_be_bytes(crate::take_arr(frame, 12))),
        };
        Some((header, payload))
    }
}

/// An Ethernet-style frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EthFrame {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// Payload type.
    pub ethertype: EtherType,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl EthFrame {
    /// Serializes the frame to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = crate::with_headroom(ETH_HEADER, &[&self.payload]);
        EthHeader {
            dst: self.dst,
            src: self.src,
            ethertype: self.ethertype,
        }
        .write(&mut out);
        out
    }

    /// Parses wire bytes; `None` when shorter than a header.
    pub fn decode(bytes: &[u8]) -> Option<EthFrame> {
        let (h, payload) = EthHeader::parse(bytes)?;
        Some(EthFrame {
            dst: h.dst,
            src: h.src,
            ethertype: h.ethertype,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let f = EthFrame {
            dst: Mac::host(2),
            src: Mac::host(1),
            ethertype: EtherType::Ip,
            payload: vec![1, 2, 3, 4],
        };
        assert_eq!(EthFrame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn short_frames_rejected() {
        assert_eq!(EthFrame::decode(&[0u8; 13]), None);
        assert!(EthFrame::decode(&[0u8; 14]).is_some());
    }

    #[test]
    fn unknown_ethertype_preserved() {
        let f = EthFrame {
            dst: Mac::BROADCAST,
            src: Mac::host(1),
            ethertype: EtherType::Unknown(0x1234),
            payload: vec![],
        };
        let d = EthFrame::decode(&f.encode()).unwrap();
        assert_eq!(d.ethertype, EtherType::Unknown(0x1234));
    }

    #[test]
    fn parse_accepts_exactly_a_header_and_borrows_the_rest() {
        let mut rng = veros_spec::rng::SpecRng::seeded(9);
        let mut frames = vec![vec![], vec![0xff; 13], vec![0xff; 14], vec![7; 15]];
        for len in [1usize, 6, 13, 14, 15, 64, 1536] {
            frames.push((0..len).map(|_| rng.next_u64() as u8).collect());
        }
        for f in frames {
            let parsed = EthHeader::parse(&f);
            assert_eq!(parsed.is_some(), f.len() >= ETH_HEADER, "{} bytes", f.len());
            if let Some((h, payload)) = parsed {
                assert_eq!(payload, &f[ETH_HEADER..]);
                let mut rewritten = f.clone();
                rewritten[..ETH_HEADER].fill(0);
                h.write(&mut rewritten);
                assert_eq!(rewritten, f, "write is parse's inverse");
            }
        }
    }
}
