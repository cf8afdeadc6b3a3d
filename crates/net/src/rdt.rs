//! Reliable data transfer: go-back-N over UDP.
//!
//! The endpoint is symmetric (each side can send and receive) with
//! per-direction go-back-N: a send window, cumulative acknowledgements,
//! and timeout-driven retransmission of the whole window on the virtual
//! clock.
//!
//! **Spec** (checked by the tests and the `veros-core` VCs): over any
//! wire behaviour — loss, duplication, reordering — the sequence of
//! messages [`RdtEndpoint::recv`] delivers is a *prefix* of the sequence
//! the peer's [`RdtEndpoint::send`] accepted, in order, without
//! duplicates; and if the wire delivers infinitely often, every sent
//! message is eventually delivered.

use std::collections::VecDeque;

use crate::ip::IpAddr;
use crate::socket::{SocketError, SocketId};
use crate::stack::NetStack;

/// Wire message types.
const MSG_DATA: u8 = 1;
const MSG_ACK: u8 = 2;

/// Default send-window size (go-back-N `N`).
pub const DEFAULT_WINDOW: usize = 8;

/// Default retransmission timeout in virtual ticks.
pub const DEFAULT_TIMEOUT: u64 = 4;

/// Events surfaced by [`RdtEndpoint::poll`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RdtEvent {
    /// A new in-order message became available via `recv`.
    Delivered,
    /// The peer acknowledged everything below `seq`.
    AckedUpTo(u64),
}

/// A reliable endpoint bound to a socket and fixed to one peer.
pub struct RdtEndpoint {
    sock: SocketId,
    peer: (IpAddr, u16),
    // Sender state.
    send_base: u64,
    next_seq: u64,
    window: usize,
    /// Unsent backlog (window full).
    backlog: VecDeque<Vec<u8>>,
    /// In-flight: (seq, payload), `send_base..next_seq`.
    unacked: VecDeque<(u64, Vec<u8>)>,
    timer_deadline: Option<u64>,
    timeout: u64,
    // Receiver state.
    expected: u64,
    delivered: VecDeque<Vec<u8>>,
    // Counters.
    retransmissions: u64,
}

/// Sends one DATA message. Borrows the socket and peer rather than the
/// endpoint, so a retransmit can walk the unacked window in place.
fn transmit_data(
    stack: &mut NetStack,
    sock: SocketId,
    peer: (IpAddr, u16),
    seq: u64,
    payload: &[u8],
) -> Result<(), SocketError> {
    let mut msg = Vec::with_capacity(9 + payload.len());
    msg.push(MSG_DATA);
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.extend_from_slice(payload);
    stack.send_to(sock, peer.0, peer.1, msg)
}

impl RdtEndpoint {
    /// Creates an endpoint talking to `peer` over `sock`.
    pub fn new(sock: SocketId, peer: (IpAddr, u16)) -> Self {
        Self {
            sock,
            peer,
            send_base: 0,
            next_seq: 0,
            window: DEFAULT_WINDOW,
            backlog: VecDeque::new(),
            unacked: VecDeque::new(),
            timer_deadline: None,
            timeout: DEFAULT_TIMEOUT,
            expected: 0,
            delivered: VecDeque::new(),
            retransmissions: 0,
        }
    }

    /// Sets the go-back-N window size.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Total retransmitted data messages (for the loss-recovery tests).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// True when everything accepted by `send` has been acknowledged.
    pub fn fully_acked(&self) -> bool {
        self.unacked.is_empty() && self.backlog.is_empty()
    }

    /// Accepts a message for reliable delivery; transmits immediately if
    /// the window allows, otherwise queues it.
    pub fn send(
        &mut self,
        stack: &mut NetStack,
        now: u64,
        payload: Vec<u8>,
    ) -> Result<(), SocketError> {
        self.backlog.push_back(payload);
        self.pump(stack, now)
    }

    /// Moves backlog into the window.
    fn pump(&mut self, stack: &mut NetStack, now: u64) -> Result<(), SocketError> {
        while self.unacked.len() < self.window {
            let Some(payload) = self.backlog.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            transmit_data(stack, self.sock, self.peer, seq, &payload)?;
            self.unacked.push_back((seq, payload));
            if self.timer_deadline.is_none() {
                self.timer_deadline = Some(now + self.timeout);
            }
        }
        if !self.backlog.is_empty() {
            crate::metrics::WINDOW_STALLS.inc();
        }
        Ok(())
    }

    fn transmit_ack(&mut self, stack: &mut NetStack) -> Result<(), SocketError> {
        let mut msg = Vec::with_capacity(9);
        msg.push(MSG_ACK);
        msg.extend_from_slice(&self.expected.to_le_bytes());
        stack.send_to(self.sock, self.peer.0, self.peer.1, msg)
    }

    /// Clock tick: retransmits the whole window on timeout (go-back-N).
    pub fn on_tick(&mut self, stack: &mut NetStack, now: u64) -> Result<(), SocketError> {
        if let Some(deadline) = self.timer_deadline {
            if now >= deadline && !self.unacked.is_empty() {
                for (seq, payload) in &self.unacked {
                    transmit_data(stack, self.sock, self.peer, *seq, payload)?;
                    self.retransmissions += 1;
                    crate::metrics::RETRANSMITS.inc();
                }
                self.timer_deadline = Some(now + self.timeout);
            }
        }
        Ok(())
    }

    /// Drains the socket, processing DATA and ACK messages. Returns the
    /// events that occurred.
    pub fn poll(&mut self, stack: &mut NetStack, now: u64) -> Result<Vec<RdtEvent>, SocketError> {
        let mut events = Vec::new();
        while let Some((src, sport, data)) = stack.recv_from(self.sock)? {
            if (src, sport) != self.peer {
                continue; // Not our peer: ignore.
            }
            self.on_datagram(stack, now, &data, &mut events)?;
        }
        Ok(events)
    }

    /// Processes one datagram already attributed to this endpoint's
    /// peer. [`RdtEndpoint::poll`] filters and calls this; a demux
    /// ([`crate::demux::RdtDemux`]) that routes one shared socket to
    /// many per-peer sessions calls it directly.
    pub fn on_datagram(
        &mut self,
        stack: &mut NetStack,
        now: u64,
        data: &[u8],
        events: &mut Vec<RdtEvent>,
    ) -> Result<(), SocketError> {
        if data.is_empty() {
            return Ok(());
        }
        match data[0] {
            MSG_DATA if data.len() >= 9 => {
                let seq = u64::from_le_bytes(crate::take_arr(data, 1));
                if seq == self.expected {
                    self.delivered.push_back(data[9..].to_vec());
                    self.expected += 1;
                    events.push(RdtEvent::Delivered);
                    // Deliver any... go-back-N receiver has no
                    // buffer: only in-order accepted.
                }
                // Always (re-)ack the cumulative frontier: acks for
                // duplicates re-synchronize a sender whose ack was
                // lost.
                self.transmit_ack(stack)?;
            }
            MSG_ACK if data.len() >= 9 => {
                let ack = u64::from_le_bytes(crate::take_arr(data, 1));
                if ack > self.send_base {
                    while self
                        .unacked
                        .front()
                        .is_some_and(|(seq, _)| *seq < ack)
                    {
                        self.unacked.pop_front();
                    }
                    self.send_base = ack;
                    self.timer_deadline = if self.unacked.is_empty() {
                        None
                    } else {
                        Some(now + self.timeout)
                    };
                    events.push(RdtEvent::AckedUpTo(ack));
                    self.pump(stack, now)?;
                }
            }
            _ => {} // Malformed: drop.
        }
        Ok(())
    }

    /// Takes the next delivered in-order message.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        self.delivered.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FaultPlan, Network};

    /// Runs two endpoints over a network until `a` has nothing left in
    /// flight or `max_steps` elapse; returns what `b` delivered.
    fn pump_until_done(
        net: &mut Network,
        a: &mut RdtEndpoint,
        b: &mut RdtEndpoint,
        max_steps: u64,
    ) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for now in 0..max_steps {
            net.step();
            a.poll(net.host(0), now).unwrap();
            b.poll(net.host(1), now).unwrap();
            a.on_tick(net.host(0), now).unwrap();
            b.on_tick(net.host(1), now).unwrap();
            while let Some(m) = b.recv() {
                out.push(m);
            }
            if a.fully_acked() {
                break;
            }
        }
        out
    }

    fn endpoints(net: &mut Network) -> (RdtEndpoint, RdtEndpoint) {
        let sa = net.host(0).bind(7000).unwrap();
        let sb = net.host(1).bind(7001).unwrap();
        let ip0 = net.host(0).ip();
        let ip1 = net.host(1).ip();
        (
            RdtEndpoint::new(sa, (ip1, 7001)),
            RdtEndpoint::new(sb, (ip0, 7000)),
        )
    }

    #[test]
    fn reliable_wire_in_order_delivery() {
        let mut net = Network::new(2, FaultPlan::reliable(), 3);
        let (mut a, mut b) = endpoints(&mut net);
        let sent: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i, i]).collect();
        for m in &sent {
            a.send(net.host(0), 0, m.clone()).unwrap();
        }
        let got = pump_until_done(&mut net, &mut a, &mut b, 100);
        assert_eq!(got, sent);
        assert_eq!(a.retransmissions(), 0, "no loss, no retransmits");
    }

    #[test]
    fn hostile_wire_still_delivers_everything_in_order() {
        for seed in 0..8u64 {
            let mut net = Network::new(2, FaultPlan::hostile(), seed);
            let (mut a, mut b) = endpoints(&mut net);
            let sent: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i]).collect();
            for m in &sent {
                a.send(net.host(0), 0, m.clone()).unwrap();
            }
            let got = pump_until_done(&mut net, &mut a, &mut b, 4000);
            assert_eq!(got, sent, "seed {seed}");
            assert!(a.fully_acked(), "seed {seed}: sender never drained");
        }
    }

    #[test]
    fn delivery_is_always_a_prefix_even_when_cut_short() {
        // Stop pumping early: whatever was delivered must be a prefix of
        // what was sent — the heart of the reliable-channel spec.
        let mut net = Network::new(2, FaultPlan::hostile(), 11);
        let (mut a, mut b) = endpoints(&mut net);
        let sent: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i]).collect();
        for m in &sent {
            a.send(net.host(0), 0, m.clone()).unwrap();
        }
        let got = pump_until_done(&mut net, &mut a, &mut b, 7);
        assert!(got.len() <= sent.len());
        assert_eq!(got[..], sent[..got.len()], "not a prefix");
    }

    #[test]
    fn retransmission_happens_under_loss() {
        let mut net = Network::new(2, FaultPlan::hostile(), 5);
        let (mut a, mut b) = endpoints(&mut net);
        for i in 0..20u8 {
            a.send(net.host(0), 0, vec![i]).unwrap();
        }
        pump_until_done(&mut net, &mut a, &mut b, 4000);
        assert!(a.retransmissions() > 0, "loss must trigger retransmits");
    }

    #[test]
    fn bidirectional_traffic() {
        let mut net = Network::new(2, FaultPlan::hostile(), 9);
        let (mut a, mut b) = endpoints(&mut net);
        for i in 0..10u8 {
            a.send(net.host(0), 0, vec![i]).unwrap();
            b.send(net.host(1), 0, vec![100 + i]).unwrap();
        }
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for now in 0..4000 {
            net.step();
            a.poll(net.host(0), now).unwrap();
            b.poll(net.host(1), now).unwrap();
            a.on_tick(net.host(0), now).unwrap();
            b.on_tick(net.host(1), now).unwrap();
            while let Some(m) = a.recv() {
                got_a.push(m[0]);
            }
            while let Some(m) = b.recv() {
                got_b.push(m[0]);
            }
            if a.fully_acked() && b.fully_acked() {
                break;
            }
        }
        assert_eq!(got_b, (0..10).collect::<Vec<u8>>());
        assert_eq!(got_a, (100..110).collect::<Vec<u8>>());
    }
}
