//! The wire: a simulated network connecting host stacks.
//!
//! [`Network`] is the mechanism. Each step it collects the frames the
//! hosts' NICs transmitted, asks its [`Wire`] the [`Fate`] of each —
//! deliver, drop, duplicate, or hold until a later step — and delivers
//! the step's frames in the order the wire puts them. The wire is the
//! policy: the adversary the transport's reliability spec is
//! checked against, as a value. [`Network::new`] and
//! [`Network::new_fleet`] build the seeded [`RandomWire`] a
//! [`FaultPlan`] describes; [`Network::with_wire`] takes any other, such
//! as a [`ScriptedWire`]. A held frame stays on the wire and joins the
//! delivery of the step it comes due, ahead of that step's own frames,
//! so it can arrive after frames sent long after it: the delay across
//! ticks rdt's timeouts and the fleet's view changes have to survive.
//!
//! A step costs O(hosts that did something), not O(hosts). A NIC's
//! transmit queue can only be filled through [`Network::host`], so the
//! network remembers which hosts were handed out since the last step
//! and collects transmissions from those alone — **in ascending host
//! index**, whatever order they were handed out in, because the frame
//! order fixes every later decision of the wire. Likewise a stack has
//! something to demultiplex only if the wire delivered a frame to it,
//! so only those hosts are polled; [`Network::woken`] names them, which
//! is how a caller with a thousand mostly silent hosts learns whom to
//! visit.
//!
//! A frame is one buffer from the sending stack to the receiving
//! socket, and on through rdt to the one delivery queue of the
//! receiving [`crate::demux::RdtDemux`]: the network moves it from NIC
//! to NIC by value and copies it only to duplicate or broadcast it. Its
//! scratch vectors keep their capacity across steps, so a steady-state
//! step of unicast frames allocates nothing.

mod wire;

use std::collections::HashMap;

use crate::frame::{EthHeader, Mac};
use crate::ip::IpAddr;
use crate::stack::NetStack;

pub use wire::{Dst, Fate, Frame, Matcher, RandomWire, Rule, ScriptedWire, Wire};

/// Fault injection parameters (probabilities as `num/denom`): the
/// schedule sweeps' wire degrees, used as they are.
pub use veros_spec::fault::WireFaults as FaultPlan;

/// A set of indices below a fixed bound: O(1) duplicate-free insert,
/// iteration over the members only. Sized for every index at
/// construction and never grown, so bookkeeping with it allocates
/// nothing however many members it gains. The wire keeps whom it handed
/// out and whom it woke in one; `veros_cluster::fleet` keeps its busy
/// clients in another.
pub struct HostSet {
    member: Vec<bool>,
    list: Vec<usize>,
}

impl HostSet {
    /// An empty set of indices in `0..bound`.
    pub fn new(bound: usize) -> Self {
        Self {
            member: vec![false; bound],
            list: Vec::with_capacity(bound),
        }
    }

    /// Adds `i`; a member already is left where it is.
    pub fn insert(&mut self, i: usize) {
        if !self.member[i] {
            self.member[i] = true;
            self.list.push(i);
        }
    }

    /// The members, in insertion order until [`HostSet::sort`].
    pub fn list(&self) -> &[usize] {
        &self.list
    }

    /// Puts the members in ascending order.
    pub fn sort(&mut self) {
        self.list.sort_unstable();
    }

    /// Removes every member, in O(members).
    pub fn clear(&mut self) {
        for &i in &self.list {
            self.member[i] = false;
        }
        self.list.clear();
    }
}

/// The simulated network: hosts + the wire between them.
pub struct Network {
    hosts: Vec<NetStack>,
    /// Unicast delivery index: destination MAC → host index, so a step
    /// is O(frames) instead of O(frames × hosts).
    by_mac: HashMap<Mac, usize>,
    wire: Box<dyn Wire>,
    /// Steps taken: the tick the wire sees.
    steps: u64,
    /// Frames the wire holds, with the step each comes due in, in the
    /// order they were held.
    held: Vec<(u64, Frame)>,
    /// The frames the current step delivers; empty between steps, kept
    /// for its capacity.
    delivering: Vec<Frame>,
    /// Hosts handed out by [`Network::host`] since the last step: the
    /// only ones whose NIC can hold a frame to transmit.
    touched: HostSet,
    /// Hosts a frame reached in the last step, ascending.
    woken: HostSet,
    delivered_frames: u64,
    dropped_frames: u64,
}

impl Network {
    /// Creates a network of `n` hosts (host `i` gets `Mac::host(i)` and
    /// `IpAddr::host(i)`), with full neighbour tables, over the
    /// [`RandomWire`] of `plan` and `seed`. Host counts are 16-bit:
    /// fleet simulations address thousands of client hosts. This is the
    /// fleet shape with every host a hub.
    pub fn new(n: u16, plan: FaultPlan, seed: u64) -> Self {
        Self::new_fleet(n, n, plan, seed)
    }

    /// Creates a fleet-shaped network of `n` hosts where only the first
    /// `hubs` hosts (servers) need to be reachable by everyone, over the
    /// [`RandomWire`] of `plan` and `seed`. Each client host (index ≥
    /// `hubs`) learns the hub addresses and every hub learns every host,
    /// so the neighbour fill is O(n·hubs) rather than O(n²) — at a
    /// thousand clients the full fill is millions of table entries that
    /// no client-to-client path ever uses.
    pub fn new_fleet(n: u16, hubs: u16, plan: FaultPlan, seed: u64) -> Self {
        Self::with_wire(n, hubs, RandomWire::new(plan, seed))
    }

    /// [`Network::new_fleet`]'s network over `wire`.
    pub fn with_wire(n: u16, hubs: u16, wire: impl Wire + 'static) -> Self {
        let hubs = hubs.min(n);
        let mut hosts: Vec<NetStack> = (0..n)
            .map(|i| NetStack::new(Mac::host(i), IpAddr::host(i)))
            .collect();
        for i in 0..n as usize {
            for j in 0..hubs as usize {
                if i != j {
                    let (ip, mac) = (hosts[j].ip(), hosts[j].mac());
                    hosts[i].add_neighbor(ip, mac);
                    let (ip, mac) = (hosts[i].ip(), hosts[i].mac());
                    hosts[j].add_neighbor(ip, mac);
                }
            }
        }
        let by_mac = hosts.iter().enumerate().map(|(i, h)| (h.mac(), i)).collect();
        Self {
            touched: HostSet::new(hosts.len()),
            woken: HostSet::new(hosts.len()),
            hosts,
            by_mac,
            wire: Box::new(wire),
            steps: 0,
            held: Vec::new(),
            delivering: Vec::new(),
            delivered_frames: 0,
            dropped_frames: 0,
        }
    }

    /// Access a host's stack. The next step collects what the host
    /// transmitted through it.
    pub fn host(&mut self, i: usize) -> &mut NetStack {
        self.touched.insert(i);
        &mut self.hosts[i]
    }

    /// The hosts a frame reached in the last step, in ascending index:
    /// the only ones whose sockets can hold a datagram that was not
    /// there before it.
    pub fn woken(&self) -> &[usize] {
        self.woken.list()
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// `(delivered, dropped)` frame counters.
    pub fn wire_stats(&self) -> (u64, u64) {
        (self.delivered_frames, self.dropped_frames)
    }

    /// One wire step: collect transmissions and let the wire decide each
    /// one's fate, deliver the held frames that came due and the step's
    /// own, then let every stack a frame reached demultiplex.
    pub fn step(&mut self) {
        let tick = self.steps;
        self.steps += 1;
        self.woken.clear();
        self.delivering
            .extend(self.held.extract_if(.., |(due, _)| *due <= tick).map(|(_, f)| f));
        // Collect, in host-index order (see the module doc).
        self.touched.sort();
        for &i in self.touched.list() {
            while let Some(bytes) = self.hosts[i].nic.wire_take_tx() {
                let frame = Frame { src: i, dst: destination(&self.by_mac, &bytes), bytes };
                match self.wire.fate(tick, &frame) {
                    Fate::Deliver => self.delivering.push(frame),
                    Fate::Drop => {
                        self.dropped_frames += 1;
                        crate::metrics::DROPS.inc();
                    }
                    Fate::Duplicate => {
                        self.delivering.push(frame.clone());
                        self.delivering.push(frame);
                    }
                    Fate::Hold(due) if due > tick => self.held.push((due, frame)),
                    Fate::Hold(_) => self.delivering.push(frame),
                }
            }
        }
        self.touched.clear();
        self.wire.order(&mut self.delivering);
        // Deliver: a unicast frame moves into the one NIC it is for (the
        // MAC index made its host O(1) to find); only a broadcast is
        // copied, to every host, the sender's own included.
        for frame in self.delivering.drain(..) {
            match frame.dst {
                Dst::Host(i) => {
                    self.hosts[i].nic.wire_deliver(frame.bytes);
                    self.woken.insert(i);
                }
                Dst::Broadcast => {
                    for (i, h) in self.hosts.iter_mut().enumerate() {
                        h.nic.wire_deliver(frame.bytes.clone());
                        self.woken.insert(i);
                    }
                }
                Dst::Nowhere => {
                    self.dropped_frames += 1;
                    crate::metrics::DROPS.inc();
                    continue;
                }
            }
            self.delivered_frames += 1;
            crate::metrics::DELIVERED.inc();
        }
        // Demux.
        self.woken.sort();
        for &i in self.woken.list() {
            self.hosts[i].poll();
        }
    }

    /// Runs `n` wire steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// Where `frame`'s Ethernet header sends it, resolved through the
/// network's MAC index.
fn destination(by_mac: &HashMap<Mac, usize>, frame: &[u8]) -> Dst {
    match EthHeader::parse(frame) {
        Some((EthHeader { dst: Mac::BROADCAST, .. }, _)) => Dst::Broadcast,
        Some((EthHeader { dst, .. }, _)) => by_mac.get(&dst).map_or(Dst::Nowhere, |&i| Dst::Host(i)),
        None => Dst::Nowhere,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ETH_HEADER;

    #[test]
    fn reliable_wire_delivers_everything() {
        let mut net = Network::new(3, FaultPlan::reliable(), 1);
        let s0 = net.host(0).bind(100).unwrap();
        let s2 = net.host(2).bind(200).unwrap();
        let dst = net.host(2).ip();
        for i in 0..10u8 {
            net.host(0).send_to(s0, dst, 200, &[&[i]]).unwrap();
        }
        net.run(3);
        let mut got = Vec::new();
        while let Some((_, _, d)) = net.host(2).recv_from(s2).unwrap() {
            got.push(d[0]);
        }
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn hostile_wire_loses_some_but_not_all() {
        let mut net = Network::new(2, FaultPlan::hostile(), 7);
        let s0 = net.host(0).bind(100).unwrap();
        let s1 = net.host(1).bind(200).unwrap();
        let dst = net.host(1).ip();
        for i in 0..100u8 {
            net.host(0).send_to(s0, dst, 200, &[&[i]]).unwrap();
        }
        net.run(5);
        let mut got = 0;
        while net.host(1).recv_from(s1).unwrap().is_some() {
            got += 1;
        }
        assert!(got > 20, "wire ate almost everything: {got}");
        assert!(got != 100 || net.wire_stats().1 == 0, "no loss observed");
        let (_, dropped) = net.wire_stats();
        assert!(dropped > 0, "hostile plan must drop something over 100 frames");
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = |seed| {
            let mut net = Network::new(2, FaultPlan::hostile(), seed);
            let s0 = net.host(0).bind(100).unwrap();
            let s1 = net.host(1).bind(200).unwrap();
            let dst = net.host(1).ip();
            for i in 0..50u8 {
                net.host(0).send_to(s0, dst, 200, &[&[i]]).unwrap();
            }
            net.run(4);
            let mut got = Vec::new();
            while let Some((_, _, d)) = net.host(1).recv_from(s1).unwrap() {
                got.push(d[0]);
            }
            got
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    /// Host `from` sends one datagram `[tag]` to host 0's port 200.
    fn send_tagged(net: &mut Network, from: usize, tag: u8) {
        let dst = IpAddr::host(0);
        let s = net.host(from).bind(100).unwrap();
        net.host(from).send_to(s, dst, 200, &[&[tag]]).unwrap();
    }

    #[test]
    fn frames_are_collected_in_host_index_order_whatever_the_access_order() {
        let mut net = Network::new(5, FaultPlan::reliable(), 1);
        let s0 = net.host(0).bind(200).unwrap();
        for from in [3, 1, 4, 2] {
            send_tagged(&mut net, from, from as u8);
        }
        net.step();
        let mut got = Vec::new();
        while let Some((_, _, d)) = net.host(0).recv_from(s0).unwrap() {
            got.push(d[0]);
        }
        assert_eq!(got, [1, 2, 3, 4]);
    }

    #[test]
    fn a_host_never_handed_out_is_never_scanned() {
        let mut net = Network::new(3, FaultPlan::reliable(), 1);
        send_tagged(&mut net, 1, 1);
        // Behind `host()`'s back: no caller can do this, so no step has
        // to look for it.
        net.hosts[2].nic.transmit(vec![0; ETH_HEADER]);
        net.step();
        assert_eq!(net.hosts[1].nic.tx_pending(), 0, "handed out: collected");
        assert_eq!(net.hosts[2].nic.tx_pending(), 1, "never handed out: not visited");
        assert_eq!(net.wire_stats(), (1, 0));
    }

    #[test]
    fn woken_names_exactly_the_hosts_a_frame_reached() {
        // The wire holds host 5's frames for host 3 until step 6.
        let hold = Rule::Hold { from: 5, to: 3, until: 6, matches: Box::new(|_| true) };
        let mut net = Network::with_wire(6, 6, ScriptedWire::new(vec![hold]));
        assert!(net.woken().is_empty());
        let s = net.host(5).bind(100).unwrap();
        for to in [4u16, 0, 2, 4] {
            net.host(5).send_to(s, IpAddr::host(to), 200, &[&[1]]).unwrap();
        }
        net.step();
        assert_eq!(net.woken(), [0, 2, 4], "ascending, each host once");
        for i in [0, 2, 4] {
            assert_eq!(net.hosts[i].nic.rx_pending(), 0, "host {i} demultiplexed");
        }
        net.step();
        assert!(net.woken().is_empty(), "a wake lasts one step");
        // An unknown neighbour broadcasts: everyone is woken.
        net.host(5).send_to(s, IpAddr::host(77), 200, &[&[1]]).unwrap();
        net.step();
        assert_eq!(net.woken(), [0, 1, 2, 3, 4, 5]);
        // A held frame wakes its host in the step it comes due, not
        // before.
        net.host(5).send_to(s, IpAddr::host(3), 200, &[&[1]]).unwrap();
        for _ in 3..6 {
            net.step();
            assert!(net.woken().is_empty(), "held");
        }
        net.step();
        assert_eq!(net.woken(), [3]);
        assert_eq!(net.hosts[3].nic.rx_pending(), 0);
        assert_eq!(net.wire_stats(), (6, 0));
    }
}
