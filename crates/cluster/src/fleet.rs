//! The fleet harness: N storage nodes, a coordinator, C clients, one
//! fault-injecting wire.
//!
//! Host layout: storage nodes are hosts `0..nodes`, the coordinator is
//! host `nodes`, clients are hosts `nodes + 1 ..`. The network is built
//! with [`Network::new_fleet`] so a thousand-client fleet doesn't pay a
//! quadratic neighbour fill. [`Fleet::step`] advances the whole world
//! one tick, deterministic in `(config, seed)`.
//!
//! # Who is polled each tick, and why the rest can be skipped
//!
//! A tick steps the wire and the coordinator, polls live node `i` only
//! if a frame reached its host this tick ([`Network::woken`]) or the
//! node is not [`FleetNode::quiet`], and polls client `c` only if a
//! frame reached its host or the client is not [`FleetClient::quiet`].
//! The world this produces is the one polling every live node and every
//! client would: a skipped poll is a no-op.
//!
//! Follow [`FleetNode::poll`] for a quiet node with no new datagram:
//! the control socket is empty, so no view is read; no heartbeat is due,
//! so none is sent; the data socket is empty and nothing waits in the
//! demux, so nothing is served or routed; every rdt session is fully
//! acknowledged, so the clock tick retransmits nothing. A write held
//! for a downstream ack and a shard pull in flight keep no timer: only
//! a datagram (the ack, the `SyncBlocks`, a newer view) moves them. So
//! nothing changes, nothing is sent and nothing is allocated. The two
//! terms are exactly what can end that: a datagram, or work of its own —
//! a heartbeat that came due, or a retransmission the node owes. Nodes
//! are few (hosts `0..nodes`), so each live one is asked `quiet` every
//! tick and needs no busy set.
//!
//! Follow [`FleetClient::poll`] for a quiet client with no new
//! datagram: nothing is queued and nothing is in flight, so no
//! operation starts; the socket is empty, so the demux drains nothing
//! and delivers nothing; no operation is outstanding, so nothing times
//! out or is re-issued; every rdt session is fully acknowledged, so the
//! clock tick retransmits nothing. No state changes, no frame is
//! queued, no metric moves and nothing is allocated. The two terms of
//! the rule are exactly what can end that: a datagram (the client must
//! at least re-acknowledge a duplicate), or work of its own — an
//! arrival that came due, a timeout, a backoff, or a retransmission an
//! otherwise idle client still owes because its last acknowledgement
//! was lost.
//!
//! A quiet client stays quiet until it is polled, a frame reaches it,
//! or a harness changes it (`fleet.clients[c].submit(..)`). The fleet
//! sees all three: `clients` is a [`Clients`], which hands out a
//! `&mut FleetClient` only through `clients[c]` and marks `c` busy when
//! it does, and the step keeps every client it polled that is still not
//! quiet. So every client outside the busy set is quiet, and a tick
//! visits the merge of the woken client hosts and the busy set, in
//! ascending order, instead of asking every client: O(woken + busy),
//! not O(clients). An idle tick of a 1000-client fleet sends heartbeats
//! only (no view travels while epochs agree), allocates one block per
//! frame, and takes ~0.15 µs on a shared 2-core Xeon (`cluster.idle_tick_us`).
//! A harness that steps `net` itself owns the whole
//! tick and must poll whom it woke, as `tests/common::step_all` (the
//! poll-everything stepper this one replaced, kept as the test oracle)
//! and the `e2e` bench do.
//!
//! [`Fleet::pair`] is the smallest replicated deployment — two nodes,
//! one shard, one 2-way chain — so every write goes head → tail and
//! every read is served by the tail: a parameter choice of the general
//! machinery, not a second harness.

use veros_blockstore::BlockStore;
use veros_net::ip::IpAddr;
use veros_net::sim::{FaultPlan, HostSet, Network, RandomWire, Wire};

use crate::client::{FleetClient, Op, OpResult};
use crate::node::{FleetNode, COORD_PORT, NODE_CTRL};
use crate::shard::{Chain, ShardMap};
use crate::view::Coordinator;

/// Default step budget for blocking test helpers.
pub const OP_BUDGET: u64 = 20_000;

/// Fleet geometry and environment.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Storage nodes.
    pub nodes: u16,
    /// Chain replication factor `M`.
    pub replication: usize,
    /// Shard count (keys hash into these).
    pub shards: u32,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: usize,
    /// Client hosts.
    pub clients: u16,
    /// Wire behaviour.
    pub plan: FaultPlan,
    /// Determinism seed (wire faults).
    pub seed: u64,
    /// Disk sectors per node's block store.
    pub sectors: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            nodes: 8,
            replication: 3,
            shards: 64,
            vnodes: 16,
            clients: 4,
            plan: FaultPlan::reliable(),
            seed: 1,
            sectors: 1 << 13,
        }
    }
}

/// The running fleet.
pub struct Fleet {
    /// The wire.
    pub net: Network,
    /// Storage nodes, index = host id.
    pub nodes: Vec<FleetNode>,
    /// The membership coordinator (host `nodes.len()`).
    pub coordinator: Coordinator,
    /// Clients, index `c` = host `nodes.len() + 1 + c`.
    pub clients: Clients,
    /// The shard map every participant routes by.
    pub map: ShardMap,
    alive: Vec<bool>,
    now: u64,
    /// Death ticks not yet matched with a completed client operation —
    /// the `cluster.failover.time` samples in flight.
    pending_failovers: Vec<u64>,
}

/// The fleet's clients: a slice to read, and `clients[c]` to change
/// client `c`.
///
/// Every `&mut FleetClient` it hands out marks its client busy, so
/// [`Fleet::step`] learns who may have gained work without asking each
/// client (see the module doc). The invariant it keeps with the step:
/// **every client outside the busy set is quiet**, and so idle. Reads go
/// through `Deref` to `[FleetClient]`; there is no `DerefMut` and no
/// `iter_mut`, so the mark cannot be bypassed:
///
/// ```compile_fail
/// # let mut fleet = veros_cluster::Fleet::pair(veros_net::sim::FaultPlan::reliable(), 1);
/// let every: &mut [veros_cluster::FleetClient] = &mut fleet.clients[..];
/// ```
///
/// ```compile_fail
/// # let mut fleet = veros_cluster::Fleet::pair(veros_net::sim::FaultPlan::reliable(), 1);
/// for client in fleet.clients.iter_mut() {}
/// ```
///
/// Both compile on the plain `Vec` this type replaced:
///
/// ```
/// # let mut fleet = veros_cluster::Fleet::pair(veros_net::sim::FaultPlan::reliable(), 1);
/// let mut clients: Vec<veros_cluster::FleetClient> = Vec::new();
/// let every: &mut [veros_cluster::FleetClient] = &mut clients[..];
/// for client in clients.iter_mut() {}
/// // Reads and `clients[c]` work as they did.
/// let done = fleet.clients.iter().map(|c| c.results.len()).sum::<usize>();
/// fleet.clients[0].submit(0, veros_cluster::Op::Get { key: "k".into() });
/// # assert_eq!(done, 0);
/// ```
pub struct Clients {
    all: Vec<FleetClient>,
    /// Clients that may not be quiet: each one `clients[c]` handed out
    /// mutably, and each one the last step left not quiet.
    busy: HostSet,
    /// The step's scratch: the busy set it builds for the next tick.
    next: HostSet,
}

impl Clients {
    fn new(all: Vec<FleetClient>) -> Self {
        Self {
            busy: HostSet::new(all.len()),
            next: HostSet::new(all.len()),
            all,
        }
    }

    /// Whether every client is idle: those outside the busy set are
    /// quiet, so only its members need asking.
    fn all_idle(&self) -> bool {
        self.busy.list().iter().all(|&c| self.all[c].idle())
    }
}

impl std::ops::Deref for Clients {
    type Target = [FleetClient];

    fn deref(&self) -> &[FleetClient] {
        &self.all
    }
}

impl<I: std::slice::SliceIndex<[FleetClient]>> std::ops::Index<I> for Clients {
    type Output = I::Output;

    fn index(&self, i: I) -> &I::Output {
        &self.all[i]
    }
}

impl std::ops::IndexMut<usize> for Clients {
    /// Client `c`, marked busy: whatever the caller does to it, the next
    /// [`Fleet::step`] visits it.
    fn index_mut(&mut self, c: usize) -> &mut FleetClient {
        self.busy.insert(c);
        &mut self.all[c]
    }
}

impl Fleet {
    /// Builds a fleet from `cfg`, over the [`RandomWire`] of `cfg.plan`
    /// and `cfg.seed`.
    pub fn new(cfg: FleetConfig) -> Self {
        Self::with_wire(cfg, RandomWire::new(cfg.plan, cfg.seed))
    }

    /// Builds a fleet from `cfg` over `wire`, say a
    /// [`veros_net::sim::ScriptedWire`]; `cfg.plan` and `cfg.seed` go
    /// unused.
    pub fn with_wire(cfg: FleetConfig, wire: impl Wire + 'static) -> Self {
        let n = cfg.nodes;
        let total = n + 1 + cfg.clients;
        // Hubs = nodes + coordinator; clients only ever talk to hubs.
        let mut net = Network::with_wire(total, n + 1, wire);
        let map = ShardMap::new(n, cfg.replication, cfg.shards, cfg.vnodes);
        let coord_addr = (IpAddr::host(n), COORD_PORT);
        let nodes: Vec<FleetNode> = (0..n)
            .map(|i| {
                let store = BlockStore::format(cfg.sectors);
                FleetNode::new(i, store, map.clone(), net.host(i as usize), coord_addr)
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "setup: the coordinator binds its one port on its own fresh host"
        )]
        let csock = net.host(n as usize).bind(COORD_PORT).expect("coord port");
        let targets = (0..n).map(|i| (IpAddr::host(i), NODE_CTRL)).collect();
        let coordinator = Coordinator::new(csock, n, targets);
        let clients = Clients::new(
            (0..cfg.clients)
                .map(|c| {
                    let host = n + 1 + c;
                    FleetClient::new(host, map.clone(), net.host(host as usize))
                })
                .collect(),
        );
        Self {
            net,
            nodes,
            coordinator,
            clients,
            map,
            alive: vec![true; n as usize],
            now: 0,
            pending_failovers: Vec::new(),
        }
    }

    /// A replicated pair: two nodes, one shard whose 2-way chain spans
    /// both, one client.
    pub fn pair(plan: FaultPlan, seed: u64) -> Self {
        Self::new(FleetConfig { plan, seed, ..pair_config() })
    }

    /// Current simulation tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether node `i` is still running.
    pub fn alive(&self, i: u16) -> bool {
        self.alive[i as usize]
    }

    /// Fail-stops node `i`: it no longer processes anything, its
    /// heartbeats cease, and the coordinator will eventually remove it.
    pub fn kill_node(&mut self, i: u16) {
        self.alive[i as usize] = false;
        self.pending_failovers.push(self.now);
    }

    /// One tick of the whole world: the wire, the coordinator, and the
    /// live nodes and clients that have something to do (see the module
    /// doc for why the others can be skipped).
    pub fn step(&mut self) {
        self.net.step();
        let n = self.nodes.len();
        self.coordinator.step(self.net.host(n), self.now);
        // `woken` is ascending and nodes are hosts `0..n`: one cursor
        // walks its head.
        let mut w = 0;
        for i in 0..n {
            let woken = self.net.woken().get(w) == Some(&i);
            w += usize::from(woken);
            if self.alive[i] && (woken || !self.nodes[i].quiet(self.now)) {
                self.nodes[i].poll(self.net.host(i), self.now);
            }
        }
        // Both lists are ascending: one cursor walks each. Hosts `0..=n`
        // are the nodes and the coordinator.
        let Clients { all, busy, next } = &mut self.clients;
        busy.sort();
        let mut w = self.net.woken().partition_point(|&host| host <= n);
        let mut b = 0;
        loop {
            let woken = self.net.woken().get(w).map(|&host| host - n - 1);
            let marked = busy.list().get(b).copied();
            let Some(c) = woken.into_iter().chain(marked).min() else {
                break;
            };
            w += usize::from(woken == Some(c));
            b += usize::from(marked == Some(c));
            let client = &mut all[c];
            if woken == Some(c) || !client.quiet() {
                client.poll(self.net.host(n + 1 + c), self.now);
            }
            if !client.quiet() {
                next.insert(c);
            }
        }
        busy.clear();
        std::mem::swap(busy, next);
        self.now += 1;
    }

    /// Runs `steps` ticks.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Submits `op` on client `c` now and pumps until it completes;
    /// `None` if `budget` ticks pass first.
    pub fn run_op(&mut self, c: usize, op: Op, budget: u64) -> Option<OpResult> {
        let done = self.clients[c].results.len();
        let now = self.now;
        self.clients[c].submit(now, op);
        for _ in 0..budget {
            self.step();
            if self.clients[c].results.len() > done {
                // First completion after a death is the failover sample:
                // the client rode out suspicion, the view change, and
                // promotion before this answer arrived.
                for death in self.pending_failovers.drain(..) {
                    crate::metrics::FAILOVER_TIME.record(self.now - death);
                }
                return self.clients[c].results.last().cloned();
            }
        }
        None
    }

    /// Pumps until every client is idle; false if `budget` ticks pass
    /// first.
    pub fn run_until_idle(&mut self, budget: u64) -> bool {
        for _ in 0..budget {
            if self.clients.all_idle() {
                return true;
            }
            self.step();
        }
        self.clients.all_idle()
    }

    /// The chain currently serving `key` under the coordinator's view.
    pub fn chain_for_key(&self, key: &str) -> Chain {
        self.map.chain_for_key(key, &self.coordinator.view().live)
    }
}

/// [`Fleet::pair`]'s geometry.
fn pair_config() -> FleetConfig {
    FleetConfig {
        nodes: 2,
        replication: 2,
        shards: 1,
        vnodes: 8,
        clients: 1,
        ..FleetConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_blockstore::Response;

    fn put(key: &str, data: &[u8]) -> Op {
        Op::Put { key: key.into(), data: data.to_vec() }
    }

    fn get(key: &str) -> Op {
        Op::Get { key: key.into() }
    }

    #[test]
    fn put_get_delete_across_the_fleet() {
        let mut f = Fleet::new(FleetConfig { clients: 1, ..FleetConfig::default() });
        for i in 0..12u32 {
            let key = format!("obj-{i}");
            let r = f.run_op(0, put(&key, key.as_bytes()), OP_BUDGET).expect("put completes");
            assert!(r.ok, "{:?}", r.resp);
        }
        for i in 0..12u32 {
            let key = format!("obj-{i}");
            let r = f.run_op(0, get(&key), OP_BUDGET).expect("get completes");
            assert_eq!(r.read.as_deref(), Some(key.as_bytes()), "{key}");
        }
        let r = f
            .run_op(0, Op::Delete { key: "obj-3".into() }, OP_BUDGET)
            .expect("delete completes");
        assert!(matches!(r.resp, Response::DeleteOk { .. }), "{:?}", r.resp);
        let r = f.run_op(0, get("obj-3"), OP_BUDGET).expect("get completes");
        assert!(matches!(r.resp, Response::NotFound { .. }), "{:?}", r.resp);
    }

    /// Nobody is asked `quiet()` on a quiet fleet, so the op a harness
    /// hands a client must reach the step through the mark `clients[c]`
    /// leaves: the very next step issues it.
    #[test]
    fn an_op_submitted_on_a_quiet_thousand_client_fleet_is_issued_next_step() {
        let mut f = Fleet::new(FleetConfig { clients: 1000, ..FleetConfig::default() });
        f.run(8);
        assert!(f.clients.iter().all(FleetClient::quiet));
        assert!(f.clients.busy.list().is_empty());
        let now = f.now();
        f.clients[777].submit(now, get("k"));
        f.step();
        assert_eq!(f.clients[777].backlog(), 0, "the op was taken off the queue");
        assert!(!f.clients[777].idle(), "the op is in flight");
        assert_eq!(f.clients.busy.list(), [777], "only the busy client is kept");
        assert!(f.run_until_idle(OP_BUDGET));
        let [r] = &f.clients[777].results[..] else {
            panic!("{} results", f.clients[777].results.len());
        };
        assert!(matches!(r.resp, Response::NotFound { .. }), "{:?}", r.resp);
    }

    #[test]
    fn acked_writes_reach_every_chain_member() {
        let mut f = Fleet::new(FleetConfig { clients: 1, ..FleetConfig::default() });
        let r = f.run_op(0, put("replicated", b"everywhere"), OP_BUDGET).expect("completes");
        assert!(r.ok);
        let chain = f.chain_for_key("replicated");
        assert_eq!(chain.len(), 3);
        for m in chain {
            assert_eq!(
                f.nodes[m as usize].store.get("replicated").expect("member has it").0,
                b"everywhere",
                "member {m}"
            );
        }
    }

    #[test]
    fn hostile_wire_fleet_still_serves() {
        let mut f = Fleet::new(FleetConfig {
            clients: 2,
            plan: FaultPlan::hostile(),
            seed: 9,
            ..FleetConfig::default()
        });
        for i in 0..6u32 {
            let key = format!("h-{i}");
            let r = f.run_op((i % 2) as usize, put(&key, &[i as u8; 32]), OP_BUDGET).expect("put");
            assert!(r.ok, "{:?}", r.resp);
        }
        for i in 0..6u32 {
            let key = format!("h-{i}");
            let r = f.run_op((i % 2) as usize, get(&key), OP_BUDGET).expect("get");
            assert_eq!(r.read.as_deref(), Some(&[i as u8; 32][..]), "{key}");
        }
    }

    #[test]
    fn failover_survives_loss_of_any_chain_position() {
        for victim_pos in 0..3usize {
            let mut f = Fleet::new(FleetConfig { clients: 1, ..FleetConfig::default() });
            let r = f.run_op(0, put("precious", b"acked"), OP_BUDGET).expect("put");
            assert!(r.ok);
            let chain = f.chain_for_key("precious");
            f.kill_node(chain[victim_pos]);
            let r = f.run_op(0, get("precious"), OP_BUDGET).expect("get after failover");
            assert_eq!(
                r.read.as_deref(),
                Some(&b"acked"[..]),
                "victim position {victim_pos} (node {})",
                chain[victim_pos]
            );
        }
    }

    /// Satellite: a write in flight when its head dies is retried
    /// against the promoted node and applies exactly once. A delete
    /// makes double-apply observable: the retry must come back
    /// `DeleteOk` (served from the dedup cache or applied once), never
    /// `NotFound` (re-applied after the original already deleted).
    #[test]
    fn in_flight_write_is_exactly_once_across_failover() {
        for kill_delay in [0u64, 2, 4, 8, 16] {
            let mut f = Fleet::new(FleetConfig { clients: 1, ..FleetConfig::default() });
            let r = f.run_op(0, put("victim-key", b"v1"), OP_BUDGET).expect("seed put");
            assert!(r.ok);
            let head = f.chain_for_key("victim-key")[0];
            // Submit the delete, let it travel for `kill_delay` ticks,
            // then fail-stop the head with the write in flight.
            let now = f.now();
            let done = f.clients[0].results.len();
            f.clients[0].submit(now, Op::Delete { key: "victim-key".into() });
            f.run(kill_delay);
            f.kill_node(head);
            let mut result = None;
            for _ in 0..OP_BUDGET {
                f.step();
                if f.clients[0].results.len() > done {
                    result = f.clients[0].results.last().cloned();
                    break;
                }
            }
            let r = result.expect("delete completes despite head death");
            assert!(
                matches!(r.resp, Response::DeleteOk { .. }),
                "kill_delay {kill_delay}: retried delete must be exactly-once, got {:?}",
                r.resp
            );
            // The key is gone from every surviving chain member.
            for m in f.chain_for_key("victim-key") {
                if f.alive(m) {
                    assert!(
                        f.nodes[m as usize].store.get("victim-key").is_err(),
                        "kill_delay {kill_delay}: member {m} resurrected the key"
                    );
                }
            }
        }
    }

    #[test]
    fn promoted_member_syncs_shard_and_serves_reads() {
        let mut f = Fleet::new(FleetConfig { clients: 1, ..FleetConfig::default() });
        let r = f.run_op(0, put("synced", b"payload"), OP_BUDGET).expect("put");
        assert!(r.ok);
        let old_chain = f.chain_for_key("synced");
        f.kill_node(old_chain[1]); // A mid-chain member dies.
        // Let detection, promotion, and the shard sync run.
        let r = f.run_op(0, get("synced"), OP_BUDGET).expect("get");
        assert_eq!(r.read.as_deref(), Some(&b"payload"[..]));
        f.run(2_000);
        let new_chain = f.chain_for_key("synced");
        assert_eq!(new_chain.len(), 3, "chain regained full width");
        assert!(!new_chain.contains(&old_chain[1]));
        let joined = *new_chain.last().expect("non-empty");
        assert_eq!(
            f.nodes[joined as usize].store.get("synced").expect("synced copy").0,
            b"payload",
            "new member {joined} pulled the shard"
        );
    }

    #[test]
    fn pair_reproduces_the_two_node_cluster() {
        let mut f = Fleet::pair(FaultPlan::reliable(), 5);
        assert_eq!(f.map.replication(), 2);
        assert_eq!(f.map.shards(), 1);
        let r = f.run_op(0, put("k", b"v"), OP_BUDGET).expect("put");
        assert!(r.ok);
        // Both replicas hold the block by ack time.
        for m in 0..2u16 {
            assert_eq!(f.nodes[m as usize].store.get("k").expect("replica").0, b"v");
        }
        // Killing either node leaves the data readable.
        f.kill_node(f.chain_for_key("k")[0]);
        let r = f.run_op(0, get("k"), OP_BUDGET).expect("get");
        assert_eq!(r.read.as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn pair_head_disk_crash_keeps_every_acked_block() {
        // Losing the head's whole write cache, or a random part of it,
        // loses no acknowledged block: the ack waited for the commit.
        for random in [false, true] {
            let mut f = Fleet::pair(FaultPlan::hostile(), 31);
            for i in 0..5u32 {
                let r = f
                    .run_op(0, put(&format!("blk{i}"), format!("data{i}").as_bytes()), OP_BUDGET)
                    .expect("put");
                assert!(r.ok, "{:?}", r.resp);
            }
            let head = f.chain_for_key("blk0")[0] as usize;
            let store = std::mem::replace(&mut f.nodes[head].store, BlockStore::format(64));
            let mut disk = store.into_disk();
            if random {
                disk.crash_random(&mut veros_spec::rng::SpecRng::seeded(5));
            } else {
                disk.crash_keep_prefix(0);
            }
            let recovered = BlockStore::recover(disk);
            for i in 0..5u32 {
                assert_eq!(
                    recovered.get(&format!("blk{i}")).expect("acknowledged block").0,
                    format!("data{i}").as_bytes(),
                    "random={random}"
                );
            }
        }
    }

    #[test]
    fn dead_chain_times_out_instead_of_panicking() {
        let mut f = Fleet::pair(FaultPlan::reliable(), 1);
        assert!(f.run_op(0, put("k", b"v"), OP_BUDGET).expect("put").ok);
        f.kill_node(0);
        f.kill_node(1);
        // Nobody answers: the op reports a timeout inside the budget.
        let before = f.now();
        assert!(f.run_op(0, get("k"), 500).is_none());
        assert_eq!(f.now() - before, 500);
    }

    #[test]
    fn bad_checksum_is_rejected_and_stored_nowhere() {
        use veros_blockstore::wire::block_checksum;
        use veros_blockstore::Request;
        use veros_net::demux::RdtDemux;

        let mut f = Fleet::pair(FaultPlan::reliable(), 1);
        let chain = f.chain_for_key("evil");
        // A raw session beside client 0's own: the client library always
        // computes the checksum, a buggy or malicious client need not.
        let host = f.nodes.len() + 1;
        let sock = f.net.host(host).bind(crate::node::CLIENT_PORT + 1).expect("free port");
        let mut raw = RdtDemux::new(sock);
        // Returns the response and the most writes the head ever held
        // back for a downstream ack while waiting for it.
        let mut rpc = |f: &mut Fleet, req: Request| -> (Response, usize) {
            let now = f.now();
            raw.send(f.net.host(host), now, crate::node::node_peer(chain[0]), req.encode())
                .expect("send");
            let mut held = 0;
            for _ in 0..OP_BUDGET {
                f.step();
                held = held.max(f.nodes[chain[0] as usize].pending_writes());
                let now = f.now();
                raw.poll(f.net.host(host), now).expect("poll");
                raw.on_tick(f.net.host(host), now).expect("tick");
                if let Some((_, msg)) = raw.recv() {
                    return (Response::decode(&msg).expect("decodable response"), held);
                }
            }
            panic!("no response to {req:?}");
        };
        let shard_put = |id, checksum| Request::ShardPut {
            id,
            key: "evil".into(),
            data: b"payload".to_vec(),
            checksum,
            client: 77,
            seq: 1,
        };

        let (resp, held) = rpc(&mut f, shard_put(1000, 0xbad));
        assert!(matches!(resp, Response::Error { id: 1000, .. }), "{resp:?}");
        assert_eq!(held, 0, "the head forwarded a rejected write");
        for &m in &chain {
            assert!(f.nodes[m as usize].store.get("evil").is_err(), "member {m} stored it");
        }
        // The rejection left no dedup entry: the same (client, seq) with
        // the right checksum is applied and forwarded, not answered from
        // the cache.
        let (resp, held) = rpc(&mut f, shard_put(1001, block_checksum(b"payload")));
        assert_eq!(resp, Response::PutOk { id: 1001 });
        assert_eq!(held, 1);
        for &m in &chain {
            assert_eq!(f.nodes[m as usize].store.get("evil").expect("stored").0, b"payload");
        }
    }

    #[test]
    fn overwrites_replicate_in_order() {
        let mut f = Fleet::pair(FaultPlan::hostile(), 13);
        for round in 0..4u32 {
            let r = f
                .run_op(0, put("hot-key", format!("version {round}").as_bytes()), OP_BUDGET)
                .expect("put");
            assert!(r.ok, "{:?}", r.resp);
        }
        let r = f.run_op(0, get("hot-key"), OP_BUDGET).expect("get");
        assert_eq!(r.read.as_deref(), Some(&b"version 3"[..]));
        for node in &f.nodes {
            assert_eq!(node.store.get("hot-key").expect("replica").0, b"version 3");
        }
    }

    /// The head's first forward of the pair's first put is held on the
    /// wire for 20 ticks. rdt retransmits it, the put completes, and a
    /// second put overwrites the block; when the held original lands at
    /// the tail it is discarded, so both replicas keep the second value
    /// and the first put completes exactly once.
    #[test]
    fn a_chain_forward_held_past_its_retransmit_is_discarded_when_it_lands() {
        use veros_blockstore::Request;
        use veros_net::sim::{Rule, ScriptedWire};

        let live = pair_config();
        let map = ShardMap::new(live.nodes, live.replication, live.shards, live.vnodes);
        let chain = map.chain(0, &map.all_live());
        let (head, tail) = (usize::from(chain[0]), usize::from(chain[1]));
        // An rdt DATA message (type 1, 8-byte seq) carrying a `ChainPut`:
        // the first one only.
        let mut first = true;
        let chain_put = move |p: &[u8]| {
            let forward = p.first() == Some(&1)
                && matches!(p.get(9..).and_then(Request::decode), Some(Request::ChainPut { .. }));
            forward && std::mem::take(&mut first)
        };
        const UNTIL: u64 = 22;
        let hold = Rule::Hold { from: head, to: tail, until: UNTIL, matches: Box::new(chain_put) };
        let mut f = Fleet::with_wire(pair_config(), ScriptedWire::new(vec![hold]));
        let r = f.run_op(0, put("k", b"held"), OP_BUDGET).expect("put");
        assert!(r.ok, "{:?}", r.resp);
        // Unheld, a pair's put takes 4 ticks: this one waited for the
        // head's retransmission timeout, and no longer.
        let timeout = veros_net::rdt::DEFAULT_TIMEOUT;
        assert!(r.latency() > timeout && r.completed_at < UNTIL, "{r:?}");
        let r = f.run_op(0, put("k", b"after"), OP_BUDGET).expect("put");
        assert!(r.ok && r.completed_at < UNTIL, "{r:?}");
        f.run(UNTIL + 10 - f.now());
        assert_eq!(f.clients[0].results.len(), 2, "a put completed twice");
        for node in &f.nodes {
            assert_eq!(node.store.get("k").expect("replica").0, b"after", "node {}", node.id());
        }
    }

    /// A put is refused at once when a message it becomes — the
    /// `ChainPut` the head forwards — would not fit one frame, since
    /// nothing segments it: at the bound it completes, past it the
    /// client fails it without sending anything.
    #[test]
    fn a_put_one_frame_cannot_carry_is_refused_at_once() {
        use veros_blockstore::wire::largest_put_message;
        use veros_net::rdt::MAX_MESSAGE;

        let mut f = Fleet::pair(FaultPlan::reliable(), 1);
        let client_host = f.nodes.len() + 1;
        // The largest block under a one-byte key a 2-way chain carries.
        let fits = MAX_MESSAGE - largest_put_message(1, 0, 2);
        let r = f.run_op(0, put("k", &vec![1; fits]), 2_000).expect("a put that fits completes");
        assert!(r.ok, "{:?}", r.resp);
        let sent = f.net.host(client_host).stats().tx_udp;
        for size in [fits + 1, 1_450, 1_500, 2_048, 17 << 20] {
            let r = f.run_op(0, put("k", &vec![2; size]), 2_000).expect("refused, not lost");
            assert!(!r.ok && matches!(r.resp, Response::Error { .. }), "{size}: {:?}", r.resp);
            assert_eq!(r.latency(), 0, "{size}");
        }
        assert_eq!(f.net.host(client_host).stats().tx_udp, sent, "a refused put was sent");
        for node in &f.nodes {
            assert_eq!(node.store.get("k").expect("replica").0, vec![1; fits]);
        }
    }
}
