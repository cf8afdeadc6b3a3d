//! The reliable transport: one socket, demultiplexed into per-peer
//! go-back-N sessions.
//!
//! [`RdtDemux`] owns one socket, drains it once per poll, and routes
//! each datagram to its peer's [`crate::rdt`] session. A session is
//! opened by the first send to a peer or by the first well-formed DATA
//! message from one; a datagram too short for the rdt header, of an
//! unknown type, or an ACK from a peer this demux never sent to is
//! dropped without creating any state. Every session keeps the full
//! go-back-N spec — per-peer streams stay prefix-ordered and exactly-
//! once — while the drain cost is O(datagrams), not O(peers). A fleet
//! client talks to every node through one demux, and a node serves
//! every client and peer node through one.
//!
//! A session holds no buffer while it is idle, and no delivery queue at
//! all: every in-order message goes straight into the demux's one
//! `ready` queue, which [`RdtDemux::recv`] pops, and a send whose window
//! has room goes straight onto the wire, the oldest message in flight
//! held inline; a session allocates only for a second message in flight,
//! and queues a send only while its window is full.
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
use crate::rdt::{Link, Msg, Session};
use crate::socket::{SocketError, SocketId};
use crate::stack::NetStack;

/// A peer address: remote IP + remote port.
pub type Peer = (IpAddr, u16);

/// One shared socket demultiplexed into per-peer reliable sessions.
pub struct RdtDemux {
    sock: SocketId,
    /// Sessions in first-contact order (deterministic iteration).
    sessions: Vec<(Peer, Session)>,
    /// Peer → index into `sessions`.
    index: HashMap<Peer, usize>,
    /// Delivered in-order messages from every session, in delivery
    /// order: the demux's one delivery queue, so `recv` never scans the
    /// session table.
    ready: VecDeque<(Peer, Vec<u8>)>,
    /// Session indices that may have data in flight, ascending: every
    /// session not fully acked is here (entered by `send`, pruned by
    /// `on_tick` once acked).
    active: Vec<usize>,
    retransmissions: u64,
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
            retransmissions: 0,
        }
    }

    /// Number of live sessions (peers this demux sent to, or that sent
    /// it a well-formed DATA message).
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Data messages retransmitted by go-back-N timeouts, over every
    /// session of this demux.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
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
        self.sessions.push((peer, Session::default()));
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
        let mut link = Link { stack, sock: self.sock, peer };
        self.sessions[i].1.send(&mut link, now, payload)
    }

    /// Drains the shared socket once, routing each datagram to its
    /// peer's session. Returns how many messages became available to
    /// [`RdtDemux::recv`].
    pub fn poll(&mut self, stack: &mut NetStack, now: u64) -> Result<usize, SocketError> {
        let mut delivered = 0;
        while let Some((src, sport, data)) = stack.recv_from(self.sock)? {
            let peer = (src, sport);
            let Some(msg) = Msg::parse(&data) else {
                continue; // Malformed: drop.
            };
            let i = match (self.index.get(&peer), msg) {
                (Some(&i), _) => i,
                (None, Msg::Data(_)) => self.index_of(peer),
                // Acknowledges nothing this demux sent: drop.
                (None, Msg::Ack(_)) => continue,
            };
            let mut link = Link { stack, sock: self.sock, peer };
            if let Some(message) = self.sessions[i].1.on_message(&mut link, now, msg, data)? {
                self.ready.push_back((peer, message));
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
            let (peer, session) = &mut self.sessions[i];
            let mut link = Link { stack, sock: self.sock, peer: *peer };
            self.retransmissions += session.on_tick(&mut link, now)?;
        }
        Ok(())
    }

    /// Takes the next delivered in-order message from any peer, in
    /// delivery order across the whole demux.
    pub fn recv(&mut self) -> Option<(Peer, Vec<u8>)> {
        self.ready.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::sim::{FaultPlan, Network, Rule, ScriptedWire};

    const PORT: u16 = 7000;

    fn peer(h: usize) -> Peer {
        (IpAddr::host(h as u16), PORT)
    }

    /// A demux on each of `net`'s first `n` hosts, every one on `PORT`.
    fn demuxes(net: &mut Network, n: usize) -> Vec<RdtDemux> {
        (0..n).map(|h| RdtDemux::new(net.host(h).bind(PORT).unwrap())).collect()
    }

    /// Steps the wire, then polls and ticks every demux, once per tick
    /// from 0 until every demux is quiescent or `max_steps` elapse.
    /// Returns what each host received.
    fn run(net: &mut Network, demux: &mut [RdtDemux], max_steps: u64) -> Vec<Vec<(Peer, Vec<u8>)>> {
        let mut got = vec![Vec::new(); demux.len()];
        for now in 0..max_steps {
            net.step();
            for (h, d) in demux.iter_mut().enumerate() {
                d.poll(net.host(h), now).unwrap();
                d.on_tick(net.host(h), now).unwrap();
                got[h].extend(std::iter::from_fn(|| d.recv()));
            }
            if demux.iter().all(RdtDemux::quiescent) {
                break;
            }
        }
        got
    }

    /// The messages in `got` that came from `from`, in order.
    fn stream(got: &[(Peer, Vec<u8>)], from: Peer) -> Vec<Vec<u8>> {
        got.iter().filter(|(p, _)| *p == from).map(|(_, m)| m.clone()).collect()
    }

    fn bytes(range: std::ops::Range<u8>) -> Vec<Vec<u8>> {
        range.map(|i| vec![i]).collect()
    }

    /// Sends `sent` from host 0 to host 1 over a two-host wire and runs
    /// it for at most `max_steps`: returns what host 1 received from host
    /// 0, and host 0's demux.
    fn one_way(plan: FaultPlan, seed: u64, sent: &[Vec<u8>], max_steps: u64) -> (Vec<Vec<u8>>, RdtDemux) {
        let mut net = Network::new(2, plan, seed);
        let mut d = demuxes(&mut net, 2);
        for m in sent {
            d[0].send(net.host(0), 0, peer(1), m.clone()).unwrap();
        }
        let got = run(&mut net, &mut d, max_steps);
        (stream(&got[1], peer(0)), d.swap_remove(0))
    }

    #[test]
    fn reliable_wire_in_order_delivery() {
        let sent: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i, i]).collect();
        let (got, a) = one_way(FaultPlan::reliable(), 3, &sent, 100);
        assert_eq!(got, sent);
        assert_eq!(a.retransmissions(), 0, "no loss, no retransmits");
    }

    #[test]
    fn hostile_wire_still_delivers_everything_in_order() {
        for seed in 0..8u64 {
            let (got, a) = one_way(FaultPlan::hostile(), seed, &bytes(0..30), 4000);
            assert_eq!(got, bytes(0..30), "seed {seed}");
            assert!(a.quiescent(), "seed {seed}: sender never drained");
        }
    }

    #[test]
    fn delivery_is_always_a_prefix_even_when_cut_short() {
        // Stop pumping early: whatever was delivered must be a prefix of
        // what was sent — the heart of the reliable-channel spec.
        let sent = bytes(0..40);
        let (got, _) = one_way(FaultPlan::hostile(), 11, &sent, 7);
        assert!(got.len() <= sent.len());
        assert_eq!(got[..], sent[..got.len()], "not a prefix");
    }

    #[test]
    fn retransmission_happens_under_loss() {
        let (_, a) = one_way(FaultPlan::hostile(), 5, &bytes(0..20), 4000);
        assert!(a.retransmissions() > 0, "loss must trigger retransmits");
    }

    #[test]
    fn bidirectional_traffic() {
        let mut net = Network::new(2, FaultPlan::hostile(), 9);
        let mut d = demuxes(&mut net, 2);
        for i in 0..10u8 {
            d[0].send(net.host(0), 0, peer(1), vec![i]).unwrap();
            d[1].send(net.host(1), 0, peer(0), vec![100 + i]).unwrap();
        }
        let got = run(&mut net, &mut d, 4000);
        assert_eq!(got[1], bytes(0..10).into_iter().map(|m| (peer(0), m)).collect::<Vec<_>>());
        assert_eq!(got[0], bytes(100..110).into_iter().map(|m| (peer(1), m)).collect::<Vec<_>>());
    }

    #[test]
    fn many_peers_share_one_socket() {
        let mut net = Network::new(5, FaultPlan::reliable(), 3);
        let mut d = demuxes(&mut net, 5);
        for (h, client) in d.iter_mut().enumerate().skip(1) {
            for k in 0..5u8 {
                client.send(net.host(h), 0, peer(0), vec![h as u8, k]).unwrap();
            }
        }
        let got = run(&mut net, &mut d, 200);
        assert_eq!(got[0].len(), 20);
        assert_eq!(d[0].sessions(), 4);
        // Per-peer streams are in order even though delivery interleaves.
        for h in 1..5 {
            let want: Vec<Vec<u8>> = (0..5).map(|k| vec![h as u8, k]).collect();
            assert_eq!(stream(&got[0], peer(h)), want, "peer {h}");
        }
    }

    #[test]
    fn hostile_wire_keeps_per_peer_prefix_order() {
        for seed in 0..4u64 {
            let mut net = Network::new(4, FaultPlan::hostile(), seed);
            let mut d = demuxes(&mut net, 4);
            for (h, client) in d.iter_mut().enumerate().skip(1) {
                for m in bytes(0..10) {
                    client.send(net.host(h), 0, peer(0), m).unwrap();
                }
            }
            let got = run(&mut net, &mut d, 4000);
            for h in 1..4 {
                assert_eq!(stream(&got[0], peer(h)), bytes(0..10), "seed {seed} peer {h}");
            }
        }
    }

    #[test]
    fn replies_flow_back_through_sessions() {
        let mut net = Network::new(3, FaultPlan::hostile(), 17);
        let mut d = demuxes(&mut net, 3);
        for (h, client) in d.iter_mut().enumerate().skip(1) {
            client.send(net.host(h), 0, peer(0), vec![h as u8]).unwrap();
        }
        let mut echoed = vec![Vec::new(); 3];
        for now in 0..4000 {
            net.step();
            d[0].poll(net.host(0), now).unwrap();
            while let Some((from, m)) = d[0].recv() {
                d[0].send(net.host(0), now, from, vec![m[0] + 100]).unwrap();
            }
            d[0].on_tick(net.host(0), now).unwrap();
            for (h, client) in d.iter_mut().enumerate().skip(1) {
                client.poll(net.host(h), now).unwrap();
                client.on_tick(net.host(h), now).unwrap();
                while let Some((_, m)) = client.recv() {
                    echoed[h].push(m[0]);
                }
            }
            if (1..3).all(|h| echoed[h] == [h as u8 + 100]) {
                break;
            }
        }
        assert_eq!(echoed[1], [101]);
        assert_eq!(echoed[2], [102]);
    }

    /// Whether an rdt payload is a DATA message carrying `seq`.
    fn data(seq: u64) -> impl FnMut(&[u8]) -> bool {
        move |p| matches!(Msg::parse(p), Some(Msg::Data(s)) if s == seq)
    }

    #[test]
    fn tick_retransmits_in_first_contact_order_and_quiescence_waits_for_the_last_ack() {
        // Host 0 contacts 3, 1, 2 at tick 0, acknowledged at once, and
        // sends them a second message at tick 10, in the order 2, 3, 1.
        // The wire loses those, logging the peer of each frame that
        // carries a second message as it leaves host 0, and holds the
        // retransmits for peers 1, 2, 3 until ticks 20, 25, 30: one ack
        // comes back at a time.
        let left = Rc::new(RefCell::new(Vec::new()));
        let mut rules = Vec::new();
        for (h, until) in [(1, 20), (2, 25), (3, 30)] {
            let (log, mut second) = (Rc::clone(&left), data(1));
            let logged = move |p: &[u8]| second(p) && { log.borrow_mut().push(h); true };
            rules.push(Rule::DropNth { from: 0, to: h, nth: 0, matches: Box::new(logged) });
            rules.push(Rule::Hold { from: 0, to: h, until, matches: Box::new(data(1)) });
        }
        let mut net = Network::with_wire(4, 4, ScriptedWire::new(rules));
        let mut d = demuxes(&mut net, 4);
        assert!(d[0].quiescent());
        let mut quiet = Vec::new();
        for now in 0..40 {
            let round: &[usize] = match now {
                0 => &[3, 1, 2],
                10 => &[2, 3, 1],
                _ => &[],
            };
            for &h in round {
                d[0].send(net.host(0), now, peer(h), vec![h as u8]).unwrap();
            }
            net.step();
            for (h, demux) in d.iter_mut().enumerate() {
                demux.poll(net.host(h), now).unwrap();
                demux.on_tick(net.host(h), now).unwrap();
            }
            if now == 10 + crate::rdt::DEFAULT_TIMEOUT {
                assert_eq!(d[0].retransmissions(), 3);
            }
            if d[0].quiescent() {
                quiet.push(now);
            }
        }
        assert_eq!(
            left.borrow()[..6],
            [2, 3, 1, 3, 1, 2],
            "retransmits leave in first-contact order, not send order"
        );
        // Acked at tick 1; the last of the three held retransmits is
        // acked at tick 31, after the acks of ticks 21 and 26 did not
        // make the demux quiescent.
        assert_eq!(quiet, (1..10).chain(31..40).collect::<Vec<_>>());
        let retransmitted = d[0].retransmissions();
        for now in 40..50 {
            net.step();
            d[0].on_tick(net.host(0), now).unwrap();
        }
        assert_eq!(d[0].retransmissions(), retransmitted, "nothing left to retransmit");
    }

    /// Whether an rdt payload is an ACK of everything below `n`.
    fn ack(n: u64) -> impl FnMut(&[u8]) -> bool {
        move |p| matches!(Msg::parse(p), Some(Msg::Ack(a)) if a == n)
    }

    /// `matches`, for the first frame it matches only: the original,
    /// not its retransmits.
    fn first(mut matches: impl FnMut(&[u8]) -> bool + 'static) -> crate::sim::Matcher {
        let mut seen = false;
        Box::new(move |p| matches(p) && !std::mem::replace(&mut seen, true))
    }

    #[test]
    fn frames_held_past_the_timeout_arrive_stale_and_delivery_stays_an_exactly_once_prefix() {
        // Host 0 sends twelve messages to host 1 at tick 0. The wire
        // holds the first copy of DATA 0, 3 and 9 and of the ACKs of 2
        // and 5, each past DEFAULT_TIMEOUT and each for its own time:
        // the retransmits overtake them, so each held frame lands after
        // its sender has moved on — old DATA behind the receiver's
        // window, a stale ACK behind the sender's.
        let hold = |from, until, matches| Rule::Hold { from, to: 1 - from, until, matches };
        let rules = vec![
            hold(0, 9, first(data(0))),
            hold(0, 6, first(data(3))),
            hold(0, 20, first(data(9))),
            hold(1, 15, first(ack(2))),
            hold(1, 11, first(ack(5))),
        ];
        let mut net = Network::with_wire(2, 2, ScriptedWire::new(rules));
        let mut d = demuxes(&mut net, 2);
        let sent = bytes(0..12);
        for m in &sent {
            d[0].send(net.host(0), 0, peer(1), m.clone()).unwrap();
        }
        let mut got = Vec::new();
        for now in 0..60 {
            net.step();
            for (h, demux) in d.iter_mut().enumerate() {
                demux.poll(net.host(h), now).unwrap();
                demux.on_tick(net.host(h), now).unwrap();
            }
            got.extend(std::iter::from_fn(|| d[1].recv()).map(|(_, m)| m));
            assert_eq!(got[..], sent[..got.len()], "tick {now}: not an exactly-once prefix");
            if now == 8 {
                assert!(!got.is_empty(), "the window had not moved when DATA 0 landed");
                assert!(d[0].retransmissions() > 0, "nothing was retransmitted");
            }
        }
        assert_eq!(got, sent);
        assert!(d[0].quiescent() && d[1].quiescent());
    }

    /// Sends `msg` from host `from`'s `sock` to host 0's `PORT`, around
    /// any demux.
    fn forge(net: &mut Network, from: usize, sock: SocketId, msg: &[u8]) {
        net.host(from).send_to(sock, IpAddr::host(0), PORT, &[msg]).unwrap();
    }

    #[test]
    fn an_ack_beyond_what_was_sent_acknowledges_nothing() {
        // The wire cuts hosts 0 and 1 apart for step 0.
        let cut = Rule::Partition { a: vec![0], b: vec![1], ticks: 0..1 };
        let mut net = Network::with_wire(2, 2, ScriptedWire::new(vec![cut]));
        let sock = net.host(1).bind(PORT).unwrap();
        let mut d = vec![RdtDemux::new(net.host(0).bind(PORT).unwrap()), RdtDemux::new(sock)];
        for m in bytes(0..3) {
            d[0].send(net.host(0), 0, peer(1), m).unwrap();
        }
        net.step();
        assert_eq!(net.wire_stats(), (0, 3), "the wire lost all three");
        // Then an ACK of 8 arrives from the peer.
        forge(&mut net, 1, sock, &[[2u8].as_slice(), &8u64.to_le_bytes()].concat());
        net.step();
        d[0].poll(net.host(0), 0).unwrap();
        assert!(!d[0].quiescent(), "an ACK of messages never sent emptied the window");
        // The genuine ACK still counts: the retransmits get through and drain.
        let got = run(&mut net, &mut d, 100);
        assert_eq!(stream(&got[1], peer(0)), bytes(0..3));
        assert!(d[0].quiescent(), "the real ACK was ignored");
    }

    #[test]
    fn malformed_datagrams_open_no_session() {
        let mut net = Network::new(3, FaultPlan::reliable(), 1);
        let mut d = demuxes(&mut net, 2);
        let stranger = net.host(2).bind(PORT).unwrap();
        // One byte; a DATA header one byte short; an unknown type; an
        // ACK from a peer the server never sent to.
        let ack = [[2u8].as_slice(), &1u64.to_le_bytes()].concat();
        for junk in [&[0xff][..], &[1; 8], &[9; 9], &ack] {
            forge(&mut net, 2, stranger, junk);
        }
        net.step();
        assert_eq!(d[0].poll(net.host(0), 0).unwrap(), 0);
        assert_eq!(d[0].sessions(), 0, "malformed input opened a session");
        assert!(d[0].quiescent());
        // A well-formed DATA message is first contact.
        d[1].send(net.host(1), 0, peer(0), vec![1]).unwrap();
        net.step();
        assert_eq!(d[0].poll(net.host(0), 0).unwrap(), 1);
        assert_eq!(d[0].sessions(), 1);
        assert_eq!(d[0].recv(), Some((peer(1), vec![1])));
    }
}
