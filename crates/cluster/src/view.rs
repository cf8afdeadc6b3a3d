//! Deterministic membership: heartbeats in, epoch-numbered views out.
//!
//! Storage nodes send fixed-interval heartbeat datagrams, each carrying
//! the node's epoch, to a coordinator host. The coordinator declares a
//! node dead when no heartbeat arrives within a deadline, bumps the
//! **epoch**, and sends the new [`View`] once to every storage node.
//! After that it answers only a heartbeat with an older epoch, a removed
//! node's too: no view travels while epochs agree, and a lost bump is
//! repaired within one heartbeat interval ([`HEARTBEAT_EVERY`] ticks).
//! Nodes adopt any view with a higher epoch than their own, and read
//! only a copy's tag and epoch ([`View::epoch_of`]) to skip the rest:
//! the member list is decoded only from a newer view.
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

/// Encodes a node's heartbeat datagram: the tag, its id, its view's epoch.
pub fn heartbeat(node: u16, epoch: u64) -> [u8; 11] {
    let mut out = [TAG_HEARTBEAT; 11];
    out[1..3].copy_from_slice(&node.to_le_bytes());
    out[3..].copy_from_slice(&epoch.to_le_bytes());
    out
}

/// The node and epoch of a heartbeat datagram; `None` for anything else.
pub fn parse_heartbeat(bytes: &[u8]) -> Option<(u16, u64)> {
    let mut r = Reader::new(bytes);
    if r.u8().ok()? != TAG_HEARTBEAT {
        return None;
    }
    let (node, epoch) = (r.u16().ok()?, r.u64().ok()?);
    r.finish().ok()?;
    Some((node, epoch))
}

/// The membership coordinator: one socket, heartbeat bookkeeping, view
/// pushes. Lives on its own host, off the data path.
pub struct Coordinator {
    sock: SocketId,
    view: View,
    /// `view.encode()`, kept for every send of the same epoch.
    encoded: Vec<u8>,
    /// Last heartbeat tick per node (dead nodes are dropped).
    last_seen: Vec<(u16, u64)>,
    /// Storage-node control addresses views are sent to, index = node id.
    targets: Vec<(IpAddr, u16)>,
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
        }
    }

    /// The coordinator's current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// One tick: absorb heartbeats, answer stale ones, declare the late dead.
    pub fn step(&mut self, stack: &mut NetStack, now: u64) {
        while let Ok(Some((_, _, data))) = stack.recv_from(self.sock) {
            let Some((node, epoch)) = parse_heartbeat(&data) else { continue };
            if let Some(slot) = self.last_seen.iter_mut().find(|(n, _)| *n == node) {
                slot.1 = now;
            }
            // Removed nodes too: a falsely suspected one learns it is out.
            let behind = self.targets.get(usize::from(node)).filter(|_| epoch < self.view.epoch);
            if let Some(&(ip, port)) = behind {
                let _ = stack.send_to(self.sock, ip, port, &[&self.encoded]);
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
            for (ip, port) in &self.targets {
                let _ = stack.send_to(self.sock, *ip, *port, &[&self.encoded]);
            }
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
        assert_eq!(View::epoch_of(&heartbeat(7, 0)), None);
    }

    /// The bytes a coordinator keeps are the bytes it sends, and after
    /// each death they are the new view's, sent once to each target.
    /// Nothing else is sent: no heartbeat asks for a view, and the
    /// initial epoch-0 view is every node's from the start.
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
                received.push(View::decode(&data).expect("a view").epoch);
            }
        }
        assert_eq!(received, [1, 2, 3], "one send per death");
        assert_eq!(c.view(), &View { epoch: 3, live: BTreeSet::new() });
    }

    #[test]
    fn heartbeat_is_tiny_and_tagged() {
        for epoch in [0, 1, u64::MAX] {
            let h = heartbeat(1001, epoch);
            assert_eq!(h.len(), 11);
            assert_eq!(h[0], TAG_HEARTBEAT);
            assert_eq!(parse_heartbeat(&h), Some((1001, epoch)));
            for cut in 0..h.len() {
                assert_eq!(parse_heartbeat(&h[..cut]), None, "epoch {epoch} cut {cut}");
            }
            assert_eq!(parse_heartbeat(&[h.as_slice(), &[0]].concat()), None, "epoch {epoch}");
            let view = View { epoch, live: [1001].into_iter().collect() };
            assert_eq!(parse_heartbeat(&view.encode()), None, "epoch {epoch}");
        }
    }

    mod on_a_scripted_wire {
        //! The coordinator in a fleet on a scripted wire: what it sends
        //! while epochs agree, and how a node that missed a view learns
        //! it.

        use super::*;
        use crate::fleet::{Fleet, FleetConfig};
        use veros_net::sim::{Rule, ScriptedWire};

        /// Node 1 is the one that misses its view; node 0 is killed.
        const BEHIND: u16 = 1;
        const VICTIM: u16 = 0;

        fn fleet(rules: Vec<Rule>) -> Fleet {
            let cfg = FleetConfig { clients: 1, ..FleetConfig::default() };
            Fleet::with_wire(cfg, ScriptedWire::new(rules))
        }

        /// The coordinator's host sends nothing but views.
        fn views_sent(f: &mut Fleet) -> u64 {
            let coord = f.nodes.len();
            f.net.host(coord).stats().tx_udp
        }

        /// Steps until the coordinator bumps its epoch; the bump's tick.
        fn run_until_bump(f: &mut Fleet) -> u64 {
            let epoch = f.coordinator.view().epoch;
            for _ in 0..2 * DEATH_DEADLINE {
                f.step();
                if f.coordinator.view().epoch > epoch {
                    return f.now() - 1;
                }
            }
            panic!("no bump by tick {}", f.now());
        }

        /// (c) While every node's epoch is the coordinator's, no view
        /// travels: none before the first death, the bump's one copy
        /// per node at it, and none after every node has adopted it.
        #[test]
        fn no_view_travels_while_epochs_agree() {
            let mut f = fleet(Vec::new());
            f.run(10 * HEARTBEAT_EVERY);
            assert_eq!(views_sent(&mut f), 0, "a view was sent before any death");
            f.kill_node(VICTIM);
            run_until_bump(&mut f);
            let nodes = f.nodes.len() as u64;
            assert_eq!(views_sent(&mut f), nodes, "the bump goes once to every node");
            f.run(10 * HEARTBEAT_EVERY);
            assert_eq!(views_sent(&mut f), nodes, "a view was resent while epochs agreed");
            for node in f.nodes.iter().filter(|n| n.id() != VICTIM) {
                assert_eq!(node.view(), f.coordinator.view(), "node {}", node.id());
            }
        }

        /// (a) The bump to one node is lost. Its next heartbeat reports
        /// the old epoch, and the coordinator answers it with the
        /// current view: the node adopts it within one heartbeat
        /// interval (and the two ticks the heartbeat and its answer
        /// take on the wire).
        #[test]
        fn a_lost_bump_is_repaired_through_the_next_heartbeat() {
            let coord = FleetConfig::default().nodes as usize;
            let drop_bump = Rule::DropNth {
                from: coord,
                to: usize::from(BEHIND),
                nth: 0,
                matches: Box::new(|p| View::epoch_of(p).is_some()),
            };
            let mut f = fleet(vec![drop_bump]);
            f.run(2 * HEARTBEAT_EVERY);
            f.kill_node(VICTIM);
            let bump = run_until_bump(&mut f);
            f.run(2);
            assert_eq!(f.nodes[usize::from(BEHIND)].view().epoch, 0, "the bump was not lost");
            let behind = |f: &Fleet| f.nodes[usize::from(BEHIND)].view() != f.coordinator.view();
            while behind(&f) && f.now() <= bump + HEARTBEAT_EVERY + 2 {
                f.step();
            }
            assert!(!behind(&f), "node {BEHIND} still behind at tick {}", f.now());
            assert!(!f.coordinator.view().live.contains(&VICTIM));
        }

        /// (b) A live node cut off from the coordinator past the death
        /// deadline is removed, and misses the bump that removes it.
        /// Once reconnected, its heartbeat reports the old epoch; the
        /// coordinator no longer tracks the node, but answers it all the
        /// same, and the node adopts a view without itself.
        #[test]
        fn a_removed_node_learns_it_is_out_through_its_heartbeat() {
            let coord = FleetConfig::default().nodes as usize;
            let until = DEATH_DEADLINE + 2 * HEARTBEAT_EVERY;
            let cut =
                Rule::Partition { a: vec![usize::from(BEHIND)], b: vec![coord], ticks: 0..until };
            let mut f = fleet(vec![cut]);
            f.run(until);
            assert_eq!(f.coordinator.view().epoch, 1);
            assert!(!f.coordinator.view().live.contains(&BEHIND), "node {BEHIND} was not removed");
            assert_eq!(f.nodes[usize::from(BEHIND)].view().epoch, 0, "the bump crossed the cut");
            f.run(HEARTBEAT_EVERY + 2);
            let view = f.nodes[usize::from(BEHIND)].view();
            assert_eq!(view, f.coordinator.view());
            assert!(!view.live.contains(&BEHIND));
            // Its epoch now agrees: nothing more is sent to it.
            let sent = views_sent(&mut f);
            f.run(4 * HEARTBEAT_EVERY);
            assert_eq!(views_sent(&mut f), sent);
        }
    }

    #[test]
    fn initial_view_contains_every_node() {
        let v = View::initial(5);
        assert_eq!(v.epoch, 0);
        assert_eq!(v.live.len(), 5);
    }
}
