//! Deterministic membership: heartbeats in, epoch-numbered views out.
//!
//! Storage nodes send fixed-interval heartbeat datagrams to a
//! coordinator host. The coordinator declares a node dead when no
//! heartbeat arrives within a deadline, bumps the **epoch**, and
//! (re)broadcasts the new [`View`] to every storage node. Views travel
//! as plain lossy datagrams, so the coordinator resends its current one
//! every [`VIEW_EVERY`] ticks for as long as it runs, encoded once per
//! epoch. Nodes adopt any view with a higher epoch than their own, and
//! read only a copy's tag and epoch ([`View::epoch_of`]) to skip the
//! rest: the member list is decoded only from a newer view.
//! Clients do *not* depend on the coordinator: they detect dead nodes
//! by RPC timeout and recompute chains locally, so the coordinator is
//! never on the data path.
//!
//! Everything is driven by the simulation tick, so a whole
//! kill-detect-promote-sync failover is a deterministic function of
//! (seed, schedule) — exactly what the invariant sweeps need.

use std::collections::BTreeSet;

use veros_net::ip::IpAddr;
use veros_net::socket::SocketId;
use veros_net::stack::NetStack;
use veros_spec::wire::{Field, Reader, Writer};

/// Heartbeat datagram tag.
pub const TAG_HEARTBEAT: u8 = 0xB1;
/// View datagram tag.
pub const TAG_VIEW: u8 = 0xB2;

/// Ticks between node heartbeats.
pub const HEARTBEAT_EVERY: u64 = 16;
/// Ticks without a heartbeat before the coordinator declares death.
/// Several heartbeat intervals: a hostile wire loses individual frames,
/// not four in a row, so false positives stay out of the sweeps.
pub const DEATH_DEADLINE: u64 = 5 * HEARTBEAT_EVERY;
/// Ticks between coordinator view (re)broadcasts.
pub const VIEW_EVERY: u64 = 8;

/// A membership view: the epoch and the set of live storage nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotonic view number; nodes adopt strictly newer views only.
    pub epoch: u64,
    /// Live storage nodes (host ids).
    pub live: BTreeSet<u16>,
}

impl View {
    /// The epoch-0 view where `nodes` storage nodes are all live.
    pub fn initial(nodes: u16) -> Self {
        Self {
            epoch: 0,
            live: (0..nodes).collect(),
        }
    }

    /// Serializes the view into a datagram payload: tag, epoch, then
    /// the live nodes as a counted list of `u16`s.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 8 + 4 + self.live.len() * 2);
        let mut w = Writer::new(&mut out);
        w.u8(TAG_VIEW).u64(self.epoch).u32(self.live.len() as u32);
        for &n in &self.live {
            w.u16(n);
        }
        out
    }

    /// The epoch of a view datagram, read from its tag and epoch (the
    /// first 9 bytes) without decoding the member list; `None` if those
    /// are not a view's. [`View::decode`] reads its epoch here too.
    pub fn epoch_of(bytes: &[u8]) -> Option<u64> {
        let mut r = Reader::new(bytes);
        if r.u8().ok()? != TAG_VIEW {
            return None;
        }
        r.u64().ok()
    }

    /// Parses a view datagram; `None` on anything malformed.
    pub fn decode(bytes: &[u8]) -> Option<View> {
        let epoch = Self::epoch_of(bytes)?;
        // The member list follows the tag (1 byte) and the epoch (8).
        let mut r = Reader::new(bytes.get(1 + 8..)?);
        // One exact-size list, which the set's bulk build reuses.
        let live = Vec::<u16>::read(&mut r, u16::MAX as usize).ok()?.into_iter().collect();
        r.finish().ok()?;
        Some(View { epoch, live })
    }
}

/// Encodes a node's heartbeat datagram: the tag and the node's id.
pub fn heartbeat(node: u16) -> [u8; 3] {
    let [lo, hi] = node.to_le_bytes();
    [TAG_HEARTBEAT, lo, hi]
}

/// The node a heartbeat datagram names; `None` for anything else.
pub fn parse_heartbeat(bytes: &[u8]) -> Option<u16> {
    let mut r = Reader::new(bytes);
    if r.u8().ok()? != TAG_HEARTBEAT {
        return None;
    }
    let node = r.u16().ok()?;
    r.finish().ok()?;
    Some(node)
}

/// The membership coordinator: one socket, heartbeat bookkeeping, view
/// broadcast. Lives on its own host, off the data path.
pub struct Coordinator {
    sock: SocketId,
    view: View,
    /// `view.encode()`, kept for every rebroadcast of the same epoch.
    encoded: Vec<u8>,
    /// Last heartbeat tick per node (dead nodes are dropped).
    last_seen: Vec<(u16, u64)>,
    /// Storage-node control addresses the view is pushed to.
    targets: Vec<(IpAddr, u16)>,
    next_broadcast: u64,
}

impl Coordinator {
    /// Creates a coordinator over `sock` tracking `nodes` storage
    /// nodes whose control sockets listen at `targets`.
    pub fn new(sock: SocketId, nodes: u16, targets: Vec<(IpAddr, u16)>) -> Self {
        let view = View::initial(nodes);
        Self {
            sock,
            encoded: view.encode(),
            view,
            last_seen: (0..nodes).map(|n| (n, 0)).collect(),
            targets,
            next_broadcast: 0,
        }
    }

    /// The coordinator's current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// One tick: absorb heartbeats, declare the late dead, rebroadcast.
    pub fn step(&mut self, stack: &mut NetStack, now: u64) {
        while let Ok(Some((_, _, data))) = stack.recv_from(self.sock) {
            if let Some(node) = parse_heartbeat(&data) {
                if let Some(slot) = self.last_seen.iter_mut().find(|(n, _)| *n == node) {
                    slot.1 = now;
                }
            }
        }
        let mut died = false;
        self.last_seen.retain(|(node, seen)| {
            let dead = now.saturating_sub(*seen) > DEATH_DEADLINE;
            if dead {
                self.view.live.remove(node);
                died = true;
            }
            !dead
        });
        if died {
            self.view.epoch += 1;
            self.encoded = self.view.encode();
            crate::metrics::VIEW_EPOCH.inc();
            self.next_broadcast = now; // Push the new view immediately.
        }
        if now >= self.next_broadcast {
            for (ip, port) in &self.targets {
                let _ = stack.send_to(self.sock, *ip, *port, &[&self.encoded]);
            }
            self.next_broadcast = now + VIEW_EVERY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_round_trips() {
        let v = View {
            epoch: 9,
            live: [0u16, 3, 7, 1000].into_iter().collect(),
        };
        assert_eq!(View::decode(&v.encode()), Some(v.clone()));
        // Truncations and bad tags rejected.
        let full = v.encode();
        for cut in 0..full.len() {
            assert_eq!(View::decode(&full[..cut]), None, "cut {cut}");
        }
        let mut bad = full.clone();
        bad[0] = 0x77;
        assert_eq!(View::decode(&bad), None);
    }

    #[test]
    fn epoch_of_reads_what_decode_reads() {
        for epoch in [0, 1, u64::MAX] {
            for members in [0u16, 1, 8] {
                let v = View { epoch, live: (0..members).map(|n| n * 3).collect() };
                let bytes = v.encode();
                assert_eq!(View::epoch_of(&bytes), Some(epoch), "{v:?}");
                assert_eq!(View::epoch_of(&bytes), View::decode(&bytes).map(|v| v.epoch));
                for cut in 0..9 {
                    assert_eq!(View::epoch_of(&bytes[..cut]), None, "{v:?} cut {cut}");
                }
                let mut unknown = bytes.clone();
                unknown[0] = 0x77;
                assert_eq!(View::epoch_of(&unknown), None);
            }
        }
        assert_eq!(View::epoch_of(&heartbeat(7)), None);
    }

    /// The bytes a coordinator keeps are the bytes it sends, and after
    /// each death they are the new view's.
    #[test]
    fn the_coordinator_broadcasts_its_current_view_after_each_death() {
        use veros_net::sim::{FaultPlan, Network};

        let mut net = Network::new(2, FaultPlan::reliable(), 1);
        let csock = net.host(0).bind(1).expect("coordinator port");
        let target = net.host(1).bind(2).expect("target port");
        let mut c = Coordinator::new(csock, 3, vec![(IpAddr::host(1), 2)]);
        // Nodes 0, 1 and 2 were last heard from at ticks 0, 10 and 20,
        // so they die one at a time.
        c.last_seen = vec![(0, 0), (1, 10), (2, 20)];
        let mut received = Vec::new();
        for now in 0..=2 * DEATH_DEADLINE {
            c.step(net.host(0), now);
            assert_eq!(c.encoded, c.view().encode(), "tick {now}");
            net.step();
            while let Ok(Some((_, _, data))) = net.host(1).recv_from(target) {
                assert_eq!(data, c.encoded, "tick {now}");
                received.push(View::decode(&data).expect("a view"));
            }
        }
        let epochs: BTreeSet<u64> = received.iter().map(|v| v.epoch).collect();
        assert_eq!(epochs, (0..=3).collect(), "one epoch per death");
        assert_eq!(c.view(), &View { epoch: 3, live: BTreeSet::new() });
    }

    #[test]
    fn heartbeat_is_tiny_and_tagged() {
        let h = heartbeat(1001);
        assert_eq!(h.len(), 3);
        assert_eq!(h[0], TAG_HEARTBEAT);
        assert_eq!(parse_heartbeat(&h), Some(1001));
        for cut in 0..h.len() {
            assert_eq!(parse_heartbeat(&h[..cut]), None, "cut {cut}");
        }
        assert_eq!(parse_heartbeat(&[h.as_slice(), &[0]].concat()), None);
        assert_eq!(parse_heartbeat(&View::initial(1).encode()), None);
    }

    #[test]
    fn initial_view_contains_every_node() {
        let v = View::initial(5);
        assert_eq!(v.epoch, 0);
        assert_eq!(v.live.len(), 5);
    }
}
