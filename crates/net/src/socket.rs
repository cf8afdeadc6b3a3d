//! UDP sockets.

use std::collections::{BTreeMap, VecDeque};

use crate::ip::IpAddr;

/// A socket handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u64);

/// Socket errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketError {
    /// The port is already bound.
    PortInUse,
    /// Unknown socket id.
    BadSocket,
}

/// A received datagram: source address, source port, payload.
pub type Received = (IpAddr, u16, Vec<u8>);

/// Per-socket receive-queue capacity (excess datagrams are dropped, as
/// real UDP drops on full socket buffers).
pub const RX_CAPACITY: usize = 256;

struct Socket {
    port: u16,
    rx: VecDeque<Received>,
    dropped: u64,
}

/// The socket table of one host.
#[derive(Default)]
pub struct SocketTable {
    sockets: BTreeMap<SocketId, Socket>,
    by_port: BTreeMap<u16, SocketId>,
    next: u64,
}

impl SocketTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a new socket to `port`.
    pub fn bind(&mut self, port: u16) -> Result<SocketId, SocketError> {
        if self.by_port.contains_key(&port) {
            return Err(SocketError::PortInUse);
        }
        let id = SocketId(self.next);
        self.next += 1;
        self.sockets.insert(
            id,
            Socket {
                port,
                rx: VecDeque::new(),
                dropped: 0,
            },
        );
        self.by_port.insert(port, id);
        Ok(id)
    }

    /// Closes a socket, releasing its port.
    pub fn close(&mut self, id: SocketId) -> Result<(), SocketError> {
        let s = self.sockets.remove(&id).ok_or(SocketError::BadSocket)?;
        self.by_port.remove(&s.port);
        Ok(())
    }

    /// The port a socket is bound to.
    pub fn port_of(&self, id: SocketId) -> Result<u16, SocketError> {
        Ok(self.sockets.get(&id).ok_or(SocketError::BadSocket)?.port)
    }

    /// Delivers a datagram to whichever socket owns `port` (dropped when
    /// unbound or the queue is full).
    pub fn deliver(&mut self, port: u16, from: IpAddr, src_port: u16, payload: Vec<u8>) {
        if let Some(id) = self.by_port.get(&port) {
            #[expect(
                clippy::expect_used,
                reason = "`by_port` entries are removed together with their socket in `close`, \
                          so the id is live; a miss is table corruption that must fail fast"
            )]
            let s = self.sockets.get_mut(id).expect("bound socket");
            if s.rx.len() < RX_CAPACITY {
                s.rx.push_back((from, src_port, payload));
            } else {
                s.dropped += 1;
            }
        }
    }

    /// Takes the next received datagram, if any.
    pub fn recv_from(&mut self, id: SocketId) -> Result<Option<Received>, SocketError> {
        Ok(self
            .sockets
            .get_mut(&id)
            .ok_or(SocketError::BadSocket)?
            .rx
            .pop_front())
    }

    /// Datagrams dropped on a full queue for `id`.
    pub fn dropped(&self, id: SocketId) -> Result<u64, SocketError> {
        Ok(self.sockets.get(&id).ok_or(SocketError::BadSocket)?.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_deliver() {
        let mut t = SocketTable::new();
        let s = t.bind(80).unwrap();
        t.deliver(80, IpAddr::host(9), 1234, vec![1]);
        t.deliver(81, IpAddr::host(9), 1234, vec![2]); // Unbound: dropped.
        assert_eq!(t.recv_from(s).unwrap(), Some((IpAddr::host(9), 1234, vec![1])));
        assert_eq!(t.recv_from(s).unwrap(), None);
    }

    #[test]
    fn duplicate_bind_rejected() {
        let mut t = SocketTable::new();
        t.bind(80).unwrap();
        assert_eq!(t.bind(80), Err(SocketError::PortInUse));
    }

    #[test]
    fn close_releases_port() {
        let mut t = SocketTable::new();
        let s = t.bind(80).unwrap();
        t.close(s).unwrap();
        assert!(t.bind(80).is_ok());
        assert_eq!(t.recv_from(s), Err(SocketError::BadSocket));
    }

    #[test]
    fn full_queue_drops_and_counts() {
        let mut t = SocketTable::new();
        let s = t.bind(80).unwrap();
        for i in 0..(RX_CAPACITY + 10) {
            t.deliver(80, IpAddr::host(1), 1, vec![i as u8]);
        }
        assert_eq!(t.dropped(s).unwrap(), 10);
    }
}
