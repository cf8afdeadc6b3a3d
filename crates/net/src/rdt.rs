//! Reliable data transfer: go-back-N over UDP, one session per peer.
//!
//! A `Session` is this host's half of a symmetric connection with one
//! peer (each side can send and receive), with per-direction go-back-N:
//! a send window, cumulative acknowledgements, and timeout-driven
//! retransmission of the whole window on the virtual clock. Sessions
//! live only inside [`crate::demux::RdtDemux`], the transport: it owns
//! the socket and the peer table and hands each session call a `Link`
//! to its peer, so a session holds no socket, no peer address and no
//! delivery queue.
//!
//! **Spec** (checked by the tests and the `veros-core` VCs): over any
//! wire behaviour — loss, duplication, reordering, delay — the sequence of
//! messages [`crate::demux::RdtDemux::recv`] delivers from one peer is a
//! *prefix* of the sequence that peer's `send` accepted for this host,
//! in order, without duplicates; and if the wire delivers infinitely
//! often, every sent message is eventually delivered.
//!
//! A message is not copied on its way through: a DATA frame is
//! gathered straight from the window's payload behind its 9-byte header
//! (`type u8 | seq u64`) into the one buffer [`NetStack::send_to`]
//! allocates, an ACK from a stack array, and on receipt the buffer the
//! NIC received is the one the session returns, with the network and
//! rdt headers stripped in place, for the demux's one delivery queue.
//!
//! An idle session holds no buffer beyond what it once needed: a send
//! goes straight into the window when the window has room (the backlog
//! fills only while it is full), and the oldest message in flight is
//! held inline, so one that never had two in flight at once has
//! allocated nothing of its own.

use std::collections::VecDeque;

use veros_hw::nic::MAX_FRAME;
use veros_spec::wire::Reader;

use crate::demux::Peer;
use crate::socket::{SocketError, SocketId};
use crate::stack::{NetStack, HEADROOM};

/// Wire message types.
const MSG_DATA: u8 = 1;
const MSG_ACK: u8 = 2;

/// Message header length: type(1) seq(8, little-endian).
const HEADER: usize = 9;

/// The largest message one DATA frame carries: a frame is at most
/// [`MAX_FRAME`] bytes, the network headers and the rdt header
/// included. rdt does not segment, and a NIC drops a longer frame, so a
/// longer message is never delivered, however often it is retransmitted.
pub const MAX_MESSAGE: usize = MAX_FRAME - HEADROOM - HEADER;

/// Send-window size (go-back-N `N`) of every session.
pub const DEFAULT_WINDOW: usize = 8;

/// Default retransmission timeout in virtual ticks.
pub const DEFAULT_TIMEOUT: u64 = 4;

/// A well-formed rdt header. Anything else on the socket is dropped
/// before it reaches, or opens, a session.
#[derive(Clone, Copy)]
pub(crate) enum Msg {
    /// A DATA message with this sequence number.
    Data(u64),
    /// A cumulative ACK: every sequence number below this one arrived.
    Ack(u64),
}

impl Msg {
    /// Parses a datagram's header; `None` for a datagram shorter than
    /// the header or of an unknown type.
    pub(crate) fn parse(data: &[u8]) -> Option<Self> {
        let mut r = Reader::new(data);
        let (kind, seq) = (r.u8().ok()?, r.u64().ok()?);
        match kind {
            MSG_DATA => Some(Self::Data(seq)),
            MSG_ACK => Some(Self::Ack(seq)),
            _ => None,
        }
    }
}

/// Where a session's frames go: the demux's one socket, to the
/// session's peer.
pub(crate) struct Link<'a> {
    pub(crate) stack: &'a mut NetStack,
    pub(crate) sock: SocketId,
    pub(crate) peer: Peer,
}

impl Link<'_> {
    fn send(&mut self, parts: &[&[u8]]) -> Result<(), SocketError> {
        self.stack.send_to(self.sock, self.peer.0, self.peer.1, parts)
    }
}

/// One peer's go-back-N state.
#[derive(Default)]
pub(crate) struct Session {
    // Sender state.
    send_base: u64,
    next_seq: u64,
    /// Unsent backlog: filled only while the window is full.
    backlog: VecDeque<Vec<u8>>,
    /// In flight: `send_base..next_seq`.
    unacked: Window,
    timer_deadline: Option<u64>,
    // Receiver state.
    expected: u64,
}

/// The go-back-N send window: `(seq, payload)` pairs, oldest first. The
/// oldest lives inline and only the ones behind it on the heap, so a
/// session that never had two messages in flight at once — a fleet
/// client's, and a node's session serving one — holds no window buffer.
#[derive(Default)]
struct Window {
    /// `None` only when the window is empty.
    oldest: Option<(u64, Vec<u8>)>,
    rest: VecDeque<(u64, Vec<u8>)>,
}

impl Window {
    fn len(&self) -> usize {
        usize::from(self.oldest.is_some()) + self.rest.len()
    }

    fn is_empty(&self) -> bool {
        self.oldest.is_none()
    }

    fn push_back(&mut self, entry: (u64, Vec<u8>)) {
        if self.oldest.is_none() {
            self.oldest = Some(entry);
        } else {
            self.rest.push_back(entry);
        }
    }

    fn pop_front(&mut self) {
        self.oldest = self.rest.pop_front();
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, Vec<u8>)> {
        self.oldest.iter().chain(&self.rest)
    }
}

impl Session {
    /// True when everything accepted by `send` has been acknowledged.
    pub(crate) fn fully_acked(&self) -> bool {
        self.unacked.is_empty() && self.backlog.is_empty()
    }

    /// Accepts a message for reliable delivery; transmits immediately if
    /// the window allows, otherwise queues it. A message that goes
    /// straight out never touches the backlog, so a session whose window
    /// never filled holds no backlog buffer.
    pub(crate) fn send(
        &mut self,
        link: &mut Link<'_>,
        now: u64,
        payload: Vec<u8>,
    ) -> Result<(), SocketError> {
        if self.backlog.is_empty() && self.unacked.len() < DEFAULT_WINDOW {
            return self.transmit_next(link, now, payload);
        }
        self.backlog.push_back(payload);
        self.pump(link, now)
    }

    /// Transmits `payload` under the next sequence number and holds it
    /// in the window until acknowledged.
    fn transmit_next(
        &mut self,
        link: &mut Link<'_>,
        now: u64,
        payload: Vec<u8>,
    ) -> Result<(), SocketError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        link.send(&[&[MSG_DATA], &seq.to_le_bytes(), &payload])?;
        self.unacked.push_back((seq, payload));
        if self.timer_deadline.is_none() {
            self.timer_deadline = Some(now + DEFAULT_TIMEOUT);
        }
        Ok(())
    }

    /// Moves backlog into the window.
    fn pump(&mut self, link: &mut Link<'_>, now: u64) -> Result<(), SocketError> {
        while self.unacked.len() < DEFAULT_WINDOW {
            let Some(payload) = self.backlog.pop_front() else {
                break;
            };
            self.transmit_next(link, now, payload)?;
        }
        if !self.backlog.is_empty() {
            crate::metrics::WINDOW_STALLS.inc();
        }
        Ok(())
    }

    /// Clock tick: retransmits the whole window on timeout (go-back-N).
    /// Returns how many messages it retransmitted.
    pub(crate) fn on_tick(&mut self, link: &mut Link<'_>, now: u64) -> Result<u64, SocketError> {
        if self.timer_deadline.is_none_or(|deadline| now < deadline) || self.unacked.is_empty() {
            return Ok(0);
        }
        for (seq, payload) in self.unacked.iter() {
            link.send(&[&[MSG_DATA], &seq.to_le_bytes(), payload])?;
            crate::metrics::RETRANSMITS.inc();
        }
        self.timer_deadline = Some(now + DEFAULT_TIMEOUT);
        Ok(self.unacked.len() as u64)
    }

    /// Processes one datagram from this session's peer, already parsed
    /// as `msg`. The datagram is taken by value: an in-order DATA
    /// message has its header stripped in place and is returned in the
    /// buffer it arrived in, for the demux's delivery queue.
    pub(crate) fn on_message(
        &mut self,
        link: &mut Link<'_>,
        now: u64,
        msg: Msg,
        mut data: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, SocketError> {
        match msg {
            Msg::Data(seq) => {
                // A go-back-N receiver has no buffer: only the next
                // in-order message is accepted.
                let fresh = seq == self.expected;
                if fresh {
                    data.drain(..HEADER);
                    self.expected += 1;
                }
                // Always (re-)ack the cumulative frontier: acks for
                // duplicates re-synchronize a sender whose ack was
                // lost.
                link.send(&[&[MSG_ACK], &self.expected.to_le_bytes()])?;
                Ok(fresh.then_some(data))
            }
            // An ACK beyond `next_seq` covers messages this session
            // never sent; taking it would drop the real window unacked.
            Msg::Ack(ack) if ack > self.send_base && ack <= self.next_seq => {
                while self.unacked.oldest.as_ref().is_some_and(|(seq, _)| *seq < ack) {
                    self.unacked.pop_front();
                }
                self.send_base = ack;
                self.timer_deadline = if self.unacked.is_empty() {
                    None
                } else {
                    Some(now + DEFAULT_TIMEOUT)
                };
                self.pump(link, now)?;
                Ok(None)
            }
            Msg::Ack(_) => Ok(None),
        }
    }
}
