//! UDP-style datagrams.

/// A UDP datagram (ports + payload; the IP layer carries addresses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload.
    pub payload: Vec<u8>,
}

/// Header length: src(2) dst(2) len(2).
pub const UDP_HEADER: usize = 6;

/// A UDP header: the layout lives here once. The length field is not
/// stored: [`UdpHeader::write`] derives it from the datagram it writes
/// into, and [`UdpHeader::parse`] checks it. [`UdpDatagram`] is the
/// owned form built on the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Writes the header over the first [`UDP_HEADER`] bytes of
    /// `datagram`, whose remainder is the payload.
    pub fn write(&self, datagram: &mut [u8]) {
        let len = datagram.len().saturating_sub(UDP_HEADER) as u16;
        crate::put_at(datagram, 0, &self.src_port.to_be_bytes());
        crate::put_at(datagram, 2, &self.dst_port.to_be_bytes());
        crate::put_at(datagram, 4, &len.to_be_bytes());
    }

    /// Splits a datagram into header and payload; `None` on truncation
    /// or length mismatch.
    pub fn parse(datagram: &[u8]) -> Option<(UdpHeader, &[u8])> {
        let payload = datagram.get(UDP_HEADER..)?;
        let len = u16::from_be_bytes(crate::take_arr(datagram, 4)) as usize;
        if payload.len() != len {
            return None;
        }
        let h = UdpHeader {
            src_port: u16::from_be_bytes(crate::take_arr(datagram, 0)),
            dst_port: u16::from_be_bytes(crate::take_arr(datagram, 2)),
        };
        Some((h, payload))
    }
}

impl UdpDatagram {
    /// Serializes the datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = crate::with_headroom(UDP_HEADER, &[&self.payload]);
        UdpHeader {
            src_port: self.src_port,
            dst_port: self.dst_port,
        }
        .write(&mut out);
        out
    }

    /// Parses; `None` on truncation or length mismatch.
    pub fn decode(bytes: &[u8]) -> Option<UdpDatagram> {
        let (h, payload) = UdpHeader::parse(bytes)?;
        Some(UdpDatagram {
            src_port: h.src_port,
            dst_port: h.dst_port,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let d = UdpDatagram {
            src_port: 1234,
            dst_port: 80,
            payload: b"dns? never heard of it".to_vec(),
        };
        assert_eq!(UdpDatagram::decode(&d.encode()), Some(d));
    }

    #[test]
    fn bad_lengths_rejected() {
        assert_eq!(UdpDatagram::decode(&[0; 5]), None);
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: vec![9; 4],
        };
        let mut bytes = d.encode();
        bytes.push(0); // Trailing garbage.
        assert_eq!(UdpDatagram::decode(&bytes), None);
    }
}
