//! Many-peer reliable serving over one socket.
//!
//! [`crate::rdt::RdtEndpoint`] is fixed to a single peer: its `poll`
//! consumes and drops datagrams from anyone else, so two endpoints can
//! never share a socket. A fleet node serving thousands of client hosts
//! cannot afford a socket per peer either. [`RdtDemux`] closes the gap:
//! it owns one socket, drains it once per poll, and routes each datagram
//! to a per-peer [`RdtEndpoint`] session (created on first contact, all
//! sharing the socket for transmission). Every session keeps the full
//! go-back-N spec — per-peer streams stay prefix-ordered and exactly-
//! once — while the drain cost is O(datagrams), not O(peers).
//!
//! The clock tick is O(sessions with data in flight), not O(peers)
//! either: every send goes through [`RdtDemux::send`], which files the
//! session in an ascending index list that [`RdtDemux::on_tick`] walks
//! and prunes. Ascending index is first-contact order, so retransmits
//! leave in the order a scan of the whole table would produce. A demux
//! with nothing in that list and nothing waiting for `recv` is
//! [`RdtDemux::quiescent`]: until the next datagram or send, `poll`,
//! `recv` and `on_tick` do nothing at all.

use std::collections::{HashMap, VecDeque};

use crate::ip::IpAddr;
use crate::rdt::RdtEndpoint;
use crate::socket::{SocketError, SocketId};
use crate::stack::NetStack;

/// A peer address: remote IP + remote port.
pub type Peer = (IpAddr, u16);

/// One shared socket demultiplexed into per-peer reliable sessions.
pub struct RdtDemux {
    sock: SocketId,
    /// Sessions in first-contact order (deterministic iteration).
    sessions: Vec<(Peer, RdtEndpoint)>,
    /// Peer → index into `sessions`.
    index: HashMap<Peer, usize>,
    /// Session indices with undelivered in-order messages, one entry
    /// per delivered message, so `recv` never scans the session table.
    ready: VecDeque<usize>,
    /// Session indices that may have data in flight, ascending: every
    /// session not fully acked is here (entered by `send`, pruned by
    /// `on_tick` once acked).
    active: Vec<usize>,
}

impl RdtDemux {
    /// Creates a demux serving `sock`. Every session it opens uses the
    /// go-back-N window [`crate::rdt::DEFAULT_WINDOW`].
    pub fn new(sock: SocketId) -> Self {
        Self {
            sock,
            sessions: Vec::new(),
            index: HashMap::new(),
            ready: VecDeque::new(),
            active: Vec::new(),
        }
    }

    /// Number of live sessions (peers that ever made contact or were
    /// sent to).
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session has data in flight and no delivered message
    /// waits for [`RdtDemux::recv`]: with no new datagram on the socket,
    /// `poll`, `recv` and `on_tick` would change nothing and transmit
    /// nothing.
    pub fn quiescent(&self) -> bool {
        self.ready.is_empty() && self.active.iter().all(|&i| self.sessions[i].1.fully_acked())
    }

    fn index_of(&mut self, peer: Peer) -> usize {
        if let Some(&i) = self.index.get(&peer) {
            return i;
        }
        let ep = RdtEndpoint::new(self.sock, peer);
        self.sessions.push((peer, ep));
        let i = self.sessions.len() - 1;
        self.index.insert(peer, i);
        i
    }

    /// Reliably sends `payload` to `peer`.
    pub fn send(
        &mut self,
        stack: &mut NetStack,
        now: u64,
        peer: Peer,
        payload: Vec<u8>,
    ) -> Result<(), SocketError> {
        let i = self.index_of(peer);
        if let Err(at) = self.active.binary_search(&i) {
            self.active.insert(at, i);
        }
        self.sessions[i].1.send(stack, now, payload)
    }

    /// Drains the shared socket once, routing each datagram to its
    /// peer's session. Returns how many messages became available to
    /// [`RdtDemux::recv`].
    pub fn poll(&mut self, stack: &mut NetStack, now: u64) -> Result<usize, SocketError> {
        let mut delivered = 0;
        while let Some((src, sport, data)) = stack.recv_from(self.sock)? {
            let i = self.index_of((src, sport));
            if self.sessions[i].1.on_datagram(stack, now, data)? {
                self.ready.push_back(i);
                delivered += 1;
            }
        }
        Ok(delivered)
    }

    /// Clock tick: retransmission timers for every session with data in
    /// flight, in first-contact order; fully acked sessions are never
    /// visited.
    pub fn on_tick(&mut self, stack: &mut NetStack, now: u64) -> Result<(), SocketError> {
        let sessions = &self.sessions;
        self.active.retain(|&i| !sessions[i].1.fully_acked());
        for &i in &self.active {
            self.sessions[i].1.on_tick(stack, now)?;
        }
        Ok(())
    }

    /// Takes the next delivered in-order message from any peer, in
    /// delivery order across the whole demux.
    pub fn recv(&mut self) -> Option<(Peer, Vec<u8>)> {
        while let Some(i) = self.ready.pop_front() {
            if let Some(m) = self.sessions[i].1.recv() {
                return Some((self.sessions[i].0, m));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FaultPlan, Network};

    const SERVER_PORT: u16 = 9000;
    const CLIENT_PORT: u16 = 9100;

    /// One server demux at host 0, `n` single-peer clients behind it.
    fn setup(net: &mut Network, n: u16) -> (RdtDemux, Vec<RdtEndpoint>) {
        let ss = net.host(0).bind(SERVER_PORT).unwrap();
        let server_ip = net.host(0).ip();
        let demux = RdtDemux::new(ss);
        let clients = (1..=n)
            .map(|i| {
                let cs = net.host(i as usize).bind(CLIENT_PORT).unwrap();
                RdtEndpoint::new(cs, (server_ip, SERVER_PORT))
            })
            .collect();
        (demux, clients)
    }

    fn run(
        net: &mut Network,
        demux: &mut RdtDemux,
        clients: &mut [RdtEndpoint],
        steps: u64,
    ) -> Vec<(Peer, Vec<u8>)> {
        let mut got = Vec::new();
        for now in 0..steps {
            net.step();
            demux.poll(net.host(0), now).unwrap();
            demux.on_tick(net.host(0), now).unwrap();
            for (i, c) in clients.iter_mut().enumerate() {
                c.poll(net.host(i + 1), now).unwrap();
                c.on_tick(net.host(i + 1), now).unwrap();
            }
            while let Some(m) = demux.recv() {
                got.push(m);
            }
            if clients.iter().all(|c| c.fully_acked()) {
                break;
            }
        }
        got
    }

    #[test]
    fn many_peers_share_one_socket() {
        let mut net = Network::new(5, FaultPlan::reliable(), 3);
        let (mut demux, mut clients) = setup(&mut net, 4);
        for (i, c) in clients.iter_mut().enumerate() {
            for k in 0..5u8 {
                c.send(net.host(i + 1), 0, vec![i as u8, k]).unwrap();
            }
        }
        let got = run(&mut net, &mut demux, &mut clients, 200);
        assert_eq!(got.len(), 20);
        assert_eq!(demux.sessions(), 4);
        // Per-peer streams are in order even though delivery interleaves.
        for i in 0..4u8 {
            let stream: Vec<u8> = got
                .iter()
                .filter(|(p, _)| *p == (crate::ip::IpAddr::host(i as u16 + 1), CLIENT_PORT))
                .map(|(_, m)| m[1])
                .collect();
            assert_eq!(stream, (0..5).collect::<Vec<u8>>(), "peer {i}");
        }
    }

    #[test]
    fn hostile_wire_keeps_per_peer_prefix_order() {
        for seed in 0..4u64 {
            let mut net = Network::new(4, FaultPlan::hostile(), seed);
            let (mut demux, mut clients) = setup(&mut net, 3);
            for (i, c) in clients.iter_mut().enumerate() {
                for k in 0..10u8 {
                    c.send(net.host(i + 1), 0, vec![k]).unwrap();
                }
            }
            let got = run(&mut net, &mut demux, &mut clients, 4000);
            for i in 1..=3u16 {
                let stream: Vec<u8> = got
                    .iter()
                    .filter(|(p, _)| *p == (crate::ip::IpAddr::host(i), CLIENT_PORT))
                    .map(|(_, m)| m[0])
                    .collect();
                assert_eq!(stream, (0..10).collect::<Vec<u8>>(), "seed {seed} peer {i}");
            }
        }
    }

    #[test]
    fn replies_flow_back_through_sessions() {
        let mut net = Network::new(3, FaultPlan::hostile(), 17);
        let (mut demux, mut clients) = setup(&mut net, 2);
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(net.host(i + 1), 0, vec![i as u8]).unwrap();
        }
        let mut echoed = vec![Vec::new(); 2];
        for now in 0..4000 {
            net.step();
            demux.poll(net.host(0), now).unwrap();
            while let Some((peer, m)) = demux.recv() {
                demux.send(net.host(0), now, peer, vec![m[0] + 100]).unwrap();
            }
            demux.on_tick(net.host(0), now).unwrap();
            for (i, c) in clients.iter_mut().enumerate() {
                c.poll(net.host(i + 1), now).unwrap();
                c.on_tick(net.host(i + 1), now).unwrap();
                while let Some(m) = c.recv() {
                    echoed[i].push(m[0]);
                }
            }
            if echoed.iter().enumerate().all(|(i, e)| e == &[i as u8 + 100]) {
                break;
            }
        }
        assert_eq!(echoed[0], [100]);
        assert_eq!(echoed[1], [101]);
    }

    /// The frames host 0 has queued, taken off the wire, with the host
    /// each is for.
    fn take_queued(net: &mut Network) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(f) = net.host(0).nic.wire_take_tx() {
            let dst = crate::frame::EthFrame::decode(&f).unwrap().dst;
            let host = (1..=3).find(|&i| dst == crate::frame::Mac::host(i)).unwrap();
            out.push((host as usize, f));
        }
        out
    }

    #[test]
    fn tick_retransmits_in_first_contact_order_and_quiescence_waits_for_the_last_ack() {
        let mut net = Network::new(4, FaultPlan::reliable(), 1);
        let (mut demux, mut clients) = setup(&mut net, 3);
        let peer = |i: usize| (crate::ip::IpAddr::host(i as u16), CLIENT_PORT);
        let hosts = |frames: &[(usize, Vec<u8>)]| frames.iter().map(|(h, _)| *h).collect::<Vec<_>>();
        assert!(demux.quiescent());
        // First contact in the order 3, 1, 2, acknowledged at once.
        for i in [3, 1, 2] {
            demux.send(net.host(0), 0, peer(i), vec![i as u8]).unwrap();
        }
        assert!(!demux.quiescent());
        for now in 0..2 {
            net.step();
            for (i, c) in clients.iter_mut().enumerate() {
                c.poll(net.host(i + 1), now).unwrap();
            }
            demux.poll(net.host(0), now).unwrap();
        }
        assert!(demux.quiescent());
        // Second round in another order, and the wire loses all of it.
        for i in [2, 3, 1] {
            demux.send(net.host(0), 10, peer(i), vec![i as u8]).unwrap();
        }
        assert_eq!(hosts(&take_queued(&mut net)), [2, 3, 1]);
        demux.on_tick(net.host(0), 10 + crate::rdt::DEFAULT_TIMEOUT).unwrap();
        let retransmits = take_queued(&mut net);
        assert_eq!(
            hosts(&retransmits),
            [3, 1, 2],
            "retransmits leave in first-contact order, not send order"
        );
        // Hand the retransmits over one at a time: each peer acks its own.
        for (acked, (host, frame)) in retransmits.into_iter().enumerate() {
            assert!(!demux.quiescent(), "{acked} of 3 acked");
            net.host(host).nic.wire_deliver(frame);
            net.step();
            clients[host - 1].poll(net.host(host), 20).unwrap();
            net.step();
            demux.poll(net.host(0), 20).unwrap();
        }
        assert!(demux.quiescent(), "the last ack arrived");
        demux.on_tick(net.host(0), 100).unwrap();
        assert!(take_queued(&mut net).is_empty(), "nothing left to retransmit");
    }
}
