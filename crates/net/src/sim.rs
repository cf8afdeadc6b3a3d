//! The wire: a simulated network connecting host stacks.
//!
//! Frames move between NICs with deterministic fault injection — loss,
//! duplication, and reordering — driven by a seeded RNG. The transport's
//! reliability spec is only meaningful against this adversary.
//!
//! A step costs O(hosts that did something), not O(hosts). A NIC's
//! transmit queue can only be filled through [`Network::host`], so the
//! wire remembers which hosts were handed out since the last step and
//! collects transmissions from those alone — **in ascending host
//! index**, whatever order they were handed out in, because the frame
//! order fixes every later draw of the fault RNG. Likewise a stack has
//! something to demultiplex only if a frame reached its NIC, so only
//! those hosts are polled; [`Network::woken`] names them, which is how a
//! caller with a thousand mostly silent hosts learns whom to visit.

use std::collections::HashMap;

use veros_spec::rng::SpecRng;

use crate::frame::{Mac, ETH_HEADER};
use crate::ip::IpAddr;
use crate::stack::NetStack;

/// Fault injection parameters (probabilities as `num/denom`).
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Probability a frame is dropped.
    pub loss: (u32, u32),
    /// Probability a frame is duplicated.
    pub duplicate: (u32, u32),
    /// Shuffle in-flight frames each step.
    pub reorder: bool,
}

impl FaultPlan {
    /// A perfect wire.
    pub fn reliable() -> Self {
        Self {
            loss: (0, 1),
            duplicate: (0, 1),
            reorder: false,
        }
    }

    /// A hostile wire: 20% loss, 10% duplication, reordering.
    pub fn hostile() -> Self {
        Self {
            loss: (1, 5),
            duplicate: (1, 10),
            reorder: true,
        }
    }
}

/// A fault-schedule wire spec maps directly onto a plan — this is how
/// the `invariant::*` VC sweeps thread `veros_spec::fault` schedules
/// through the simulated network.
impl From<veros_spec::fault::WireFaults> for FaultPlan {
    fn from(w: veros_spec::fault::WireFaults) -> Self {
        Self {
            loss: w.loss,
            duplicate: w.duplicate,
            reorder: w.reorder,
        }
    }
}

/// A set of host indices: O(1) duplicate-free insert, iteration over
/// the members only. Sized for every host at construction and never
/// grown, so a step's bookkeeping allocates nothing however many hosts
/// it touches.
struct HostSet {
    member: Vec<bool>,
    list: Vec<usize>,
}

impl HostSet {
    fn new(hosts: usize) -> Self {
        Self {
            member: vec![false; hosts],
            list: Vec::with_capacity(hosts),
        }
    }

    fn insert(&mut self, i: usize) {
        if !self.member[i] {
            self.member[i] = true;
            self.list.push(i);
        }
    }

    fn clear(&mut self) {
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
    /// is O(frames) instead of O(frames × hosts). Broadcast still scans.
    by_mac: HashMap<Mac, usize>,
    plan: FaultPlan,
    rng: SpecRng,
    in_flight: Vec<Vec<u8>>,
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
    /// `IpAddr::host(i)`), with full neighbour tables. Host counts are
    /// 16-bit: fleet simulations address thousands of client hosts.
    pub fn new(n: u16, plan: FaultPlan, seed: u64) -> Self {
        let mut hosts: Vec<NetStack> = (0..n)
            .map(|i| NetStack::new(Mac::host(i), IpAddr::host(i)))
            .collect();
        for i in 0..n as usize {
            for j in 0..n as usize {
                if i != j {
                    let (ip, mac) = (hosts[j].ip(), hosts[j].mac());
                    hosts[i].add_neighbor(ip, mac);
                }
            }
        }
        Self::over(hosts, plan, seed)
    }

    /// Creates a fleet-shaped network of `n` hosts where only the first
    /// `hubs` hosts (servers) need to be reachable by everyone. Each
    /// client host (index ≥ `hubs`) learns the hub addresses and every
    /// hub learns every host, so the neighbour fill is O(n·hubs) rather
    /// than O(n²) — at a thousand clients the full fill is millions of
    /// table entries that no client-to-client path ever uses.
    pub fn new_fleet(n: u16, hubs: u16, plan: FaultPlan, seed: u64) -> Self {
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
        Self::over(hosts, plan, seed)
    }

    /// The wire over `hosts` whose neighbour tables are already filled.
    fn over(hosts: Vec<NetStack>, plan: FaultPlan, seed: u64) -> Self {
        let by_mac = hosts.iter().enumerate().map(|(i, h)| (h.mac(), i)).collect();
        Self {
            touched: HostSet::new(hosts.len()),
            woken: HostSet::new(hosts.len()),
            hosts,
            by_mac,
            plan,
            rng: SpecRng::seeded(seed),
            in_flight: Vec::new(),
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
        &self.woken.list
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// `(delivered, dropped)` frame counters.
    pub fn wire_stats(&self) -> (u64, u64) {
        (self.delivered_frames, self.dropped_frames)
    }

    /// One wire step: collect transmissions, apply faults, deliver, then
    /// let every stack a frame reached demultiplex.
    pub fn step(&mut self) {
        // Collect, in host-index order (see the module doc). A frame
        // put on a NIC's receive side by hand wakes its host like one
        // the wire delivered.
        self.woken.clear();
        self.touched.list.sort_unstable();
        for &i in &self.touched.list {
            let nic = &mut self.hosts[i].nic;
            while let Some(f) = nic.wire_take_tx() {
                self.in_flight.push(f);
            }
            if nic.rx_pending() > 0 {
                self.woken.insert(i);
            }
        }
        self.touched.clear();
        // Faults.
        let mut surviving = Vec::with_capacity(self.in_flight.len());
        for f in self.in_flight.drain(..) {
            if self.rng.chance(self.plan.loss.0, self.plan.loss.1) {
                self.dropped_frames += 1;
                crate::metrics::DROPS.inc();
                continue;
            }
            if self.rng.chance(self.plan.duplicate.0, self.plan.duplicate.1) {
                surviving.push(f.clone());
            }
            surviving.push(f);
        }
        if self.plan.reorder {
            // Fisher–Yates with the deterministic RNG.
            for i in (1..surviving.len()).rev() {
                let j = self.rng.index(i + 1);
                surviving.swap(i, j);
            }
        }
        // Deliver by destination MAC (broadcast goes everywhere except
        // the sender's own queue — we do not track sender, so everywhere).
        // Unicast resolves through the MAC index: O(1) per frame, so a
        // fleet-scale step is O(frames) rather than O(frames × hosts).
        // The frame moves into the one NIC it is for; only a broadcast
        // is copied.
        for f in surviving {
            let Some(dst) = frame_dst(&f) else {
                self.dropped_frames += 1;
                crate::metrics::DROPS.inc();
                continue;
            };
            let mut hit = false;
            if dst == Mac::BROADCAST {
                for (i, h) in self.hosts.iter_mut().enumerate() {
                    h.nic.wire_deliver(f.clone());
                    self.woken.insert(i);
                    hit = true;
                }
            } else if let Some(&i) = self.by_mac.get(&dst) {
                self.hosts[i].nic.wire_deliver(f);
                self.woken.insert(i);
                hit = true;
            }
            if hit {
                self.delivered_frames += 1;
                crate::metrics::DELIVERED.inc();
            } else {
                self.dropped_frames += 1;
                crate::metrics::DROPS.inc();
            }
        }
        // Demux.
        self.woken.list.sort_unstable();
        for &i in &self.woken.list {
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

/// The destination of a wire frame, read from its header: `Some`
/// exactly when [`crate::frame::EthFrame::decode`] accepts the frame
/// (which it does for anything at least a header long), without copying
/// the payload the way a full decode does.
fn frame_dst(frame: &[u8]) -> Option<Mac> {
    (frame.len() >= ETH_HEADER).then(|| Mac(crate::take_arr(frame, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EthFrame;

    #[test]
    fn fault_plan_from_wire_faults_preserves_every_degree() {
        let plan = FaultPlan::from(veros_spec::fault::WireFaults::hostile());
        assert_eq!(plan.loss, (1, 5));
        assert_eq!(plan.duplicate, (1, 10));
        assert!(plan.reorder);
        let calm = FaultPlan::from(veros_spec::fault::WireFaults::reliable());
        assert_eq!(calm.loss, (0, 1));
        assert!(!calm.reorder);
    }

    #[test]
    fn reliable_wire_delivers_everything() {
        let mut net = Network::new(3, FaultPlan::reliable(), 1);
        let s0 = net.host(0).bind(100).unwrap();
        let s2 = net.host(2).bind(200).unwrap();
        let dst = net.host(2).ip();
        for i in 0..10u8 {
            net.host(0).send_to(s0, dst, 200, vec![i]).unwrap();
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
            net.host(0).send_to(s0, dst, 200, vec![i]).unwrap();
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
                net.host(0).send_to(s0, dst, 200, vec![i]).unwrap();
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
        net.host(from).send_to(s, dst, 200, vec![tag]).unwrap();
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
        let mut net = Network::new(6, FaultPlan::reliable(), 1);
        assert!(net.woken().is_empty());
        let s = net.host(5).bind(100).unwrap();
        for to in [4u16, 0, 2, 4] {
            net.host(5).send_to(s, IpAddr::host(to), 200, vec![1]).unwrap();
        }
        net.step();
        assert_eq!(net.woken(), [0, 2, 4], "ascending, each host once");
        for i in [0, 2, 4] {
            assert_eq!(net.hosts[i].nic.rx_pending(), 0, "host {i} demultiplexed");
        }
        net.step();
        assert!(net.woken().is_empty(), "a wake lasts one step");
        // An unknown neighbour broadcasts: everyone is woken.
        net.host(5).send_to(s, IpAddr::host(77), 200, vec![1]).unwrap();
        net.step();
        assert_eq!(net.woken(), [0, 1, 2, 3, 4, 5]);
        // A frame put on a NIC by hand wakes its host at the next step.
        net.host(3).nic.wire_deliver(vec![0; ETH_HEADER]);
        net.step();
        assert_eq!(net.woken(), [3]);
        assert_eq!(net.hosts[3].nic.rx_pending(), 0);
    }

    #[test]
    fn frame_dst_accepts_exactly_what_decode_accepts() {
        let mut rng = SpecRng::seeded(9);
        let mut frames = vec![vec![], vec![0xff; 13], vec![0xff; 14], vec![7; 15]];
        for len in [1usize, 6, 13, 14, 15, 64, 1536] {
            frames.push((0..len).map(|_| rng.next_u64() as u8).collect());
        }
        for f in frames {
            assert_eq!(
                frame_dst(&f),
                EthFrame::decode(&f).map(|d| d.dst),
                "{} bytes",
                f.len()
            );
        }
    }
}
