//! The three `fleet_*` workloads: an open-loop schedule driven through
//! `veros_cluster::Fleet`, measured from outside.
//!
//! A repetition is one or more *cells*; a cell builds a fresh world
//! (fleet + direct-to-store preload + arrival schedule), steps it until
//! every scheduled operation is answered, and verifies it.
//! `fleet_read_mostly` and `fleet_write_heavy` have one cell;
//! `fleet_failover` has six (kill the head or the tail of the hottest
//! key's 2-way chain × three seeds; `README.md` says why not 3-way).
//!
//! [`World`] wraps the `Fleet` so that the same driving code runs two
//! steppers. Untraced, a tick is `Fleet::step`. Traced, a tick is the
//! bench-owned stepper: the same public pieces in `Fleet::step`'s order
//! (`Network::step`, `Coordinator::step`, every live `FleetNode::poll`,
//! every `FleetClient::poll`) with one span around each call. The
//! traced repetition must reproduce the untraced repetition's tick
//! metrics exactly — that equality, checked on every traced run, is the
//! proof that the bench-owned stepper *is* `Fleet::step`.
//!
//! Arrivals are handed to their client on the tick they are due rather
//! than all up front. The client's behaviour is identical (it never
//! looks past a queue head that is not yet due), but `FleetClient::idle`
//! then means "nothing due or in flight", which is what
//! `cluster.client_polls_useful_share` needs, and
//! `FleetClient::backlog` counts only operations the open loop has
//! fallen behind on.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

use veros_blockstore::wire::block_checksum;
use veros_blockstore::{BlockStore, Response};
use veros_cluster::workload::{self, Arrival, WorkloadConfig};
use veros_cluster::{Fleet, FleetConfig, Op, OpResult};
use veros_net::sim::FaultPlan;

use crate::alloc;
use crate::measure::{Fault, Rep, Tele, SPAN_ALLOC_CELLS};
use crate::trace::{Kind, Tracer};

/// Ticks after the last scheduled arrival before unanswered operations
/// are counted as failed.
pub const DRAIN_BUDGET: u64 = 10_000;

/// The latency limit (ticks) `fault_stalled_share` counts against.
pub const LATENCY_LIMIT: u64 = 50;

/// `fault_p99_ticks` looks at operations issued this many ticks after
/// the kill.
pub const FAULT_WINDOW: u64 = 1000;

/// One fleet workload's geometry.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Fleet geometry (its `seed` is replaced per cell).
    pub fleet: FleetConfig,
    /// Load shape (its `seed` is replaced per cell).
    pub load: WorkloadConfig,
    /// `fleet_failover`: the tick at which a member of the hottest
    /// key's chain is fail-stopped.
    pub kill_at: Option<u64>,
}

const LOSSY: FaultPlan = FaultPlan {
    loss: (1, 100),
    duplicate: (1, 200),
    reorder: false,
};

/// The geometry of a `fleet_*` workload, or `None` for any other name.
pub fn spec(workload: &str) -> Option<FleetSpec> {
    let fleet = FleetConfig {
        nodes: 8,
        replication: 3,
        shards: 64,
        vnodes: 16,
        clients: 1000,
        plan: LOSSY,
        seed: 0,
        sectors: 1 << 14,
    };
    let load = WorkloadConfig {
        client_hosts: 1000,
        keyspace: 512,
        zipf_theta: 0.99,
        read_milli: 800,
        delete_milli: 20,
        value_bytes: 128,
        ops: 12_000,
        mean_gap: 2,
        burst_every: 1000,
        burst_len: 100,
        burst_factor: 4,
        seed: 0,
    };
    match workload {
        "fleet_read_mostly" => Some(FleetSpec {
            fleet,
            load,
            kill_at: None,
        }),
        "fleet_write_heavy" => Some(FleetSpec {
            fleet: FleetConfig {
                clients: 16,
                plan: FaultPlan::reliable(),
                sectors: 1 << 18,
                ..fleet
            },
            load: WorkloadConfig {
                client_hosts: 16,
                keyspace: 1024,
                zipf_theta: 0.0,
                read_milli: 100,
                delete_milli: 0,
                // The largest round size that fits one
                // `hw::nic::MAX_FRAME` (1536) frame with its headers.
                value_bytes: 1024,
                ops: 1500,
                ..load
            },
            kill_at: None,
        }),
        "fleet_failover" => Some(FleetSpec {
            // 128 shards, not 64: a promoted member pulls a whole shard
            // in one `SyncBlocks` message, and a shard holding more
            // than one `MAX_FRAME` of blocks can never be synced (the
            // NIC drops the oversize frame, go-back-N resends it for
            // ever, and every read routed to that new tail is answered
            // `Retry` for ever). 512 keys over 64 shards put up to 14
            // keys (2.1 KiB) in a shard; over 128 shards at most 7.
            //
            // 2-way chains, not 3-way: a `ChainPut` in flight to the
            // middle member while it adopts the new view is forwarded
            // to the dead tail and never re-forwarded; the client then
            // suspects its live head for ever and is answered `Retry`
            // for ever (3 of 16 seeds wedged a client). Without a
            // middle member the race cannot happen.
            fleet: FleetConfig {
                clients: 64,
                shards: 128,
                replication: 2,
                ..fleet
            },
            load: WorkloadConfig {
                client_hosts: 64,
                read_milli: 500,
                delete_milli: 20,
                ops: 4000,
                ..load
            },
            kill_at: Some(3000),
        }),
        _ => None,
    }
}

impl FleetSpec {
    /// The same schedule on one node with replication 1 — the
    /// single-node baseline (`cluster.r1_*`); never kills anything.
    pub fn single_node(self) -> FleetSpec {
        FleetSpec {
            fleet: FleetConfig {
                nodes: 1,
                replication: 1,
                ..self.fleet
            },
            kill_at: None,
            ..self
        }
    }

    /// Keys a node stores after preload, rounded up: the population the
    /// store and fs probes are shaped to.
    pub fn per_node_population(&self) -> u32 {
        let copies =
            self.load.keyspace as usize * self.fleet.replication.min(self.fleet.nodes as usize);
        copies.div_ceil(self.fleet.nodes as usize) as u32
    }

    /// The cells of one repetition: `(wire seed, schedule seed, victim
    /// chain position)`.
    fn cells(&self, seed: u64) -> Vec<(u64, u64, Option<usize>)> {
        // `--seed` changes the schedule and wire seeds only. Wire and
        // schedule streams are decorrelated, and no two `--seed` values
        // share a schedule (seed s uses schedules 2s and 2s + 1).
        let wire = |k: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
        match self.kill_at {
            None => vec![(wire(0), 2 * seed, None)],
            Some(_) => {
                let width = self.fleet.replication.min(self.fleet.nodes as usize);
                (0..width)
                    .flat_map(|pos| (0..(6 / width as u64)).map(move |s| (pos, s)))
                    .map(|(pos, s)| (wire(1 + s), 2 * seed + s, Some(pos)))
                    .collect()
            }
        }
    }
}

/// The canonical value of `key`: what `workload::schedule` writes under
/// it, every time — `value_bytes` copies of `rank % 251`.
pub fn canonical_value(key: &str, value_bytes: usize) -> Option<Vec<u8>> {
    let rank: u32 = key.strip_prefix("ycsb-")?.parse().ok()?;
    Some(vec![(rank % 251) as u8; value_bytes.max(1)])
}

/// The hottest key of every schedule (zipf rank 0).
pub const HOT_KEY: &str = "ycsb-0";

struct Killed {
    victim: u16,
    at: u64,
    /// Shards the victim was a chain member of.
    shards: Vec<u32>,
    recovered_at: Option<u64>,
}

/// A fleet plus the bench's own clock, liveness and arrival feed.
pub struct World {
    /// The fleet under test (public: tests corrupt a store through it).
    pub fleet: Fleet,
    now: u64,
    alive: Vec<bool>,
    due: VecDeque<Arrival>,
    /// Every client's scheduled operations, in arrival order: `(tick,
    /// key, is a write)`. A client answers in that order, so whatever
    /// lies past its result count was never answered.
    planned: Vec<Vec<(u64, String, bool)>>,
    killed: Option<Killed>,
    /// True once the world has been switched to the bench-owned
    /// stepper; it stays on it (the `Fleet`'s private clock is never
    /// advanced again), recording spans only while a tracer is attached.
    bench_stepper: bool,
    tracer: Option<Tracer>,
    /// `(client polls, polls of a non-idle client, max backlog)`,
    /// counted while a tracer is attached.
    client_polls: (u64, u64, u64),
}

impl World {
    /// Builds the fleet, preloads every key straight into the stores of
    /// its chain members, and generates the arrival schedule.
    pub fn build(spec: &FleetSpec, wire_seed: u64, schedule_seed: u64) -> World {
        let mut fleet = Fleet::new(FleetConfig {
            seed: wire_seed,
            ..spec.fleet
        });
        let live = fleet.map.all_live();
        for rank in 0..spec.load.keyspace {
            let key = format!("ycsb-{rank}");
            let data = vec![(rank % 251) as u8; spec.load.value_bytes.max(1)];
            let checksum = block_checksum(&data);
            for m in fleet.map.chain_for_key(&key, &live) {
                fleet.nodes[m as usize]
                    .store
                    .put(&key, &data, checksum)
                    .expect("preload fits the node's disk");
            }
        }
        let due: VecDeque<Arrival> = workload::schedule(&WorkloadConfig {
            seed: schedule_seed,
            ..spec.load
        })
        .into();
        let mut planned = vec![Vec::new(); fleet.clients.len()];
        for a in &due {
            planned[a.client].push((a.tick, a.op.key().to_string(), a.op.is_write()));
        }
        World {
            alive: vec![true; fleet.nodes.len()],
            fleet,
            now: 0,
            due,
            planned,
            killed: None,
            bench_stepper: false,
            tracer: None,
            client_polls: (0, 0, 0),
        }
    }

    /// Switches the world to the bench-owned stepper, recording spans
    /// into `tracer`.
    pub fn trace_into(&mut self, tracer: Tracer) {
        self.bench_stepper = true;
        self.tracer = Some(tracer);
    }

    /// Detaches the tracer; the world keeps the bench-owned stepper.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Fail-stops `node`.
    pub fn kill(&mut self, node: u16) {
        self.alive[node as usize] = false;
        self.fleet.kill_node(node);
        let live = self.fleet.map.all_live();
        let shards = (0..self.fleet.map.shards())
            .filter(|s| self.fleet.map.chain(*s, &live).contains(&node))
            .collect();
        self.killed = Some(Killed {
            victim: node,
            at: self.now,
            shards,
            recovered_at: None,
        });
    }

    /// One tick: hand over the arrivals due now, then step the fleet
    /// with whichever stepper this world runs.
    pub fn step(&mut self) {
        while self.due.front().is_some_and(|a| a.tick <= self.now) {
            let a = self.due.pop_front().expect("checked front");
            self.fleet.clients[a.client].submit(a.tick, a.op);
        }
        if self.bench_stepper {
            self.bench_step();
        } else {
            self.fleet.step();
        }
        self.now += 1;
        if self
            .killed
            .as_ref()
            .is_some_and(|k| k.recovered_at.is_none())
            && self.chains_recovered()
        {
            if let Some(k) = &mut self.killed {
                k.recovered_at = Some(self.now);
            }
        }
    }

    /// `Fleet::step`, piece by piece, with a span around each call.
    fn bench_step(&mut self) {
        let World {
            fleet,
            tracer,
            alive,
            now,
            client_polls,
            ..
        } = self;
        let now = *now;
        let n = fleet.nodes.len();
        let open = |t: &mut Option<Tracer>, kind, host: usize, parent| {
            t.as_mut()
                .map_or(0, |t| t.open(kind, host as u32, now, parent))
        };
        let close = |t: &mut Option<Tracer>, id, calls| {
            if let Some(t) = t {
                t.close(id, calls);
            }
        };
        let tick = open(tracer, Kind::Tick, 0, None);
        let id = open(tracer, Kind::NetStep, 0, Some(tick));
        fleet.net.step();
        close(tracer, id, 1);
        let id = open(tracer, Kind::CoordStep, n, Some(tick));
        fleet.coordinator.step(fleet.net.host(n), now);
        close(tracer, id, 1);
        for (i, node) in fleet.nodes.iter_mut().enumerate() {
            if alive[i] {
                let id = open(tracer, Kind::NodePoll, i, Some(tick));
                node.poll(fleet.net.host(i), now);
                close(tracer, id, 1);
            }
        }
        // Runs of consecutive idle clients share one span (see
        // `trace`); a client with work gets its own.
        let mut idle_run: Option<(u32, u32)> = None;
        let (mut backlog, mut useful) = (0u64, 0u64);
        for c in 0..fleet.clients.len() {
            let host = n + 1 + c;
            backlog += fleet.clients[c].backlog() as u64;
            if fleet.clients[c].idle() {
                let (id, calls) = idle_run
                    .unwrap_or_else(|| (open(tracer, Kind::ClientPollIdle, host, Some(tick)), 0));
                fleet.clients[c].poll(fleet.net.host(host), now);
                idle_run = Some((id, calls + 1));
            } else {
                if let Some((id, calls)) = idle_run.take() {
                    close(tracer, id, calls);
                }
                let id = open(tracer, Kind::ClientPoll, host, Some(tick));
                fleet.clients[c].poll(fleet.net.host(host), now);
                close(tracer, id, 1);
                useful += 1;
            }
        }
        if let Some((id, calls)) = idle_run {
            close(tracer, id, calls);
        }
        close(tracer, tick, 1);
        if tracer.is_some() {
            client_polls.0 += fleet.clients.len() as u64;
            client_polls.1 += useful;
            client_polls.2 = client_polls.2.max(backlog);
        }
    }

    /// True once the coordinator has dropped the victim and every shard
    /// it served is back to a full-width chain whose members all report
    /// `is_ready`.
    fn chains_recovered(&self) -> bool {
        let Some(k) = &self.killed else { return true };
        let view = self.fleet.coordinator.view();
        if view.live.contains(&k.victim) {
            return false;
        }
        let width = self.fleet.map.replication().min(view.live.len());
        k.shards.iter().all(|&shard| {
            let chain = self.fleet.map.chain(shard, &view.live);
            chain.len() == width
                && chain
                    .iter()
                    .all(|&m| self.fleet.nodes[m as usize].is_ready(shard))
        })
    }

    fn completed(&self) -> usize {
        self.fleet.clients.iter().map(|c| c.results.len()).sum()
    }

    /// Steps (untimed) until nothing is queued, in flight or held for a
    /// downstream ack and any failover has finished, then a little
    /// longer so trailing acks land. `Err` says what was still unsettled
    /// when `budget` ticks had passed.
    pub fn quiesce(&mut self, budget: u64) -> Result<(), String> {
        for _ in 0..budget {
            if self.unsettled().is_none() {
                for _ in 0..64 {
                    self.step();
                }
                return Ok(());
            }
            self.step();
        }
        match self.unsettled() {
            None => Ok(()),
            Some(what) => Err(format!(
                "no quiescence {budget} ticks after the schedule ended: {what}"
            )),
        }
    }

    fn unsettled(&self) -> Option<String> {
        let busy = self.fleet.clients.iter().filter(|c| !c.idle()).count();
        let held: usize = (0..self.fleet.nodes.len())
            .filter(|i| self.alive[*i])
            .map(|i| self.fleet.nodes[i].pending_writes())
            .sum();
        if busy > 0 {
            Some(format!(
                "{busy} clients still have work queued or in flight"
            ))
        } else if held > 0 {
            Some(format!("{held} writes are still held for a downstream ack"))
        } else if !self.chains_recovered() {
            Some("the victim's shards are not back to ready full-width chains".into())
        } else {
            None
        }
    }
}

/// The correctness gate. Every `GetOk` payload equals the key's
/// canonical value and passes `block_checksum`; with no deletes in the
/// mix every answered get is `GetOk`; and at quiescence all live chain
/// members agree on every key. `unacked` holds the keys with a write
/// that was refused or never answered: chain replication promises
/// agreement for acknowledged writes only, so those keys are exempt
/// from the agreement check (the operations themselves are counted as
/// failed, never as wrong).
pub fn verify(
    world: &World,
    spec: &FleetSpec,
    results: &[OpResult],
    unacked: &BTreeSet<String>,
) -> Result<(), String> {
    let value_bytes = spec.load.value_bytes;
    for r in results.iter().filter(|r| r.ok) {
        if let Op::Get { key } = &r.op {
            match &r.resp {
                Response::GetOk { data, checksum, .. } => {
                    if block_checksum(data) != *checksum {
                        return Err(format!("get {key}: payload fails block_checksum"));
                    }
                    if Some(data) != canonical_value(key, value_bytes).as_ref() {
                        return Err(format!(
                            "get {key}: payload is not the key's canonical value"
                        ));
                    }
                }
                Response::NotFound { .. } if spec.load.delete_milli > 0 => {}
                other => return Err(format!("get {key}: unexpected {other:?}")),
            }
        }
    }
    let live: BTreeSet<u16> = world.fleet.coordinator.view().live.clone();
    for rank in 0..spec.load.keyspace {
        let key = format!("ycsb-{rank}");
        if unacked.contains(&key) {
            continue;
        }
        let mut seen: Option<(u16, Option<Vec<u8>>)> = None;
        for m in world.fleet.map.chain_for_key(&key, &live) {
            if !world.alive[m as usize] {
                continue;
            }
            let copy = match world.fleet.nodes[m as usize].store.get(&key) {
                Ok((data, checksum)) => {
                    if block_checksum(&data) != checksum
                        || Some(&data) != canonical_value(&key, value_bytes).as_ref()
                    {
                        return Err(format!("node {m} stores a wrong value for {key}"));
                    }
                    Some(data)
                }
                Err(veros_blockstore::store::StoreError::NotFound) => None,
                Err(e) => return Err(format!("node {m} cannot read {key}: {e}")),
            };
            match &seen {
                Some((first, other)) if *other != copy => {
                    return Err(format!(
                        "chain members {first} and {m} disagree on {key} at quiescence"
                    ));
                }
                Some(_) => {}
                None => seen = Some((m, copy)),
            }
        }
    }
    Ok(())
}

/// Sector writes and flushes of every node's disk so far. Consumes the
/// stores (each is swapped for an empty one), so only call it on a
/// world that is finished.
fn take_disk_stats(world: &mut World) -> (u64, u64) {
    world.fleet.nodes.iter_mut().fold((0, 0), |(w, f), node| {
        let store = std::mem::replace(&mut node.store, BlockStore::format(1));
        let (writes, flushes) = store.into_disk().stats();
        (w + writes, f + flushes)
    })
}

/// Runs one repetition (every cell) of `spec` at `seed`; `traced`
/// selects the bench-owned stepper and fills the trace-only fields.
pub fn run_rep(spec: &FleetSpec, seed: u64, traced: bool) -> Result<Rep, String> {
    run_rep_with(spec, seed, traced, |_| {})
}

/// [`run_rep`] with a hook that runs on each cell's world after the
/// measured phase and before verification (tests corrupt a store here
/// to prove the correctness gate trips).
pub fn run_rep_with(
    spec: &FleetSpec,
    seed: u64,
    traced: bool,
    mut before_verify: impl FnMut(&mut World),
) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut fault: Option<Fault> = None;
    let (mut disk_preload, mut disk_end) = ((0u64, 0u64), (0u64, 0u64));
    let cells = spec.cells(seed);
    // One span store for the whole repetition, sized from the schedule
    // (ticks x calls per tick, plus a few spans per operation).
    let span_room = cells.len()
        * (2 * spec.load.ops
            * spec.load.mean_gap.max(1) as usize
            * (spec.fleet.nodes as usize + 4)
            + 8 * spec.load.ops);
    let mut tracer = traced.then(|| Tracer::with_capacity(span_room));
    let lag0 = veros_cluster::metrics::REPLICATION_LAG.snapshot();
    for (wire_seed, schedule_seed, victim_pos) in cells {
        let t_setup = Instant::now();
        let mut world = World::build(spec, wire_seed, schedule_seed);
        rep.setup_s += t_setup.elapsed().as_secs_f64();
        let total = world.due.len();
        let last_arrival = world.due.back().map_or(0, |a| a.tick);
        if let Some(t) = tracer.take() {
            // What preload alone wrote to the disks: a second, scratch
            // build, consumed for its device counters.
            let (w, f) = take_disk_stats(&mut World::build(spec, wire_seed, schedule_seed));
            disk_preload = (disk_preload.0 + w, disk_preload.1 + f);
            world.trace_into(t);
        }
        let victim = victim_pos.map(|pos| {
            let chain = world.fleet.chain_for_key(HOT_KEY);
            chain[pos.min(chain.len() - 1)]
        });
        let epoch0 = world.fleet.coordinator.view().epoch;
        let own0 = world
            .tracer
            .as_ref()
            .map_or(alloc::Counts::default(), Tracer::own_allocs);

        let buckets0 = SPAN_ALLOC_CELLS.map(|(b, ..)| alloc::bucket(b));
        let (tele0, alloc0, t0) = (Tele::read(), alloc::total(), Instant::now());
        loop {
            if spec.kill_at == Some(world.now()) {
                if let Some(v) = victim {
                    world.kill(v);
                }
            }
            world.step();
            let past = world.now() > last_arrival;
            if past && world.completed() == total && world.chains_recovered() {
                break;
            }
            if world.now() > last_arrival + DRAIN_BUDGET {
                break;
            }
        }
        rep.host_ns += t0.elapsed().as_nanos() as u64;
        let own = world
            .tracer
            .as_ref()
            .map_or(alloc::Counts::default(), Tracer::own_allocs);
        let allocs = alloc::total().since(alloc0).since(own.since(own0));
        rep.allocs = rep.allocs.plus(allocs);
        rep.tele = rep.tele.plus(Tele::read().since(tele0));
        for (i, (b, ..)) in SPAN_ALLOC_CELLS.into_iter().enumerate() {
            rep.span_allocs[i] = rep.span_allocs[i].plus(alloc::bucket(b).since(buckets0[i]));
        }
        rep.ticks += world.now();
        rep.view_epochs += world.fleet.coordinator.view().epoch - epoch0;
        tracer = world.take_tracer();

        let results: Vec<OpResult> = world
            .fleet
            .clients
            .iter()
            .flat_map(|c| c.results.iter().cloned())
            .collect();
        // Scheduled arrival ticks of the operations nobody answered,
        // and the keys whose last write is not known to have landed.
        let mut unanswered = Vec::new();
        let mut unacked: BTreeSet<String> = results
            .iter()
            .filter(|r| !r.ok && r.op.is_write())
            .map(|r| r.op.key().to_string())
            .collect();
        for (client, plan) in world.fleet.clients.iter().zip(&world.planned) {
            for (tick, key, is_write) in &plan[client.results.len().min(plan.len())..] {
                unanswered.push(*tick);
                if *is_write {
                    unacked.insert(key.clone());
                }
            }
        }
        rep.attempted += total as u64;
        rep.failed += (total - results.iter().filter(|r| r.ok).count()) as u64;
        for r in results.iter().filter(|r| r.ok) {
            match &r.op {
                Op::Get { .. } => rep.get_ticks.push(r.latency()),
                Op::Put { data, .. } => {
                    rep.put_ticks.push(r.latency());
                    rep.user_bytes += data.len() as u64;
                }
                Op::Delete { .. } => {}
            }
        }
        if let Some(k) = &world.killed {
            let cell = fault_of(k, &results, &unanswered, last_arrival);
            let worst = fault.get_or_insert(cell);
            worst.p99_ticks = worst.p99_ticks.max(cell.p99_ticks);
            worst.stalled_ppm = worst.stalled_ppm.max(cell.stalled_ppm);
            worst.recovery_ticks = worst.recovery_ticks.max(cell.recovery_ticks);
        }

        // Untimed from here on: settle, then the correctness gate. A
        // world with unanswered operations never settles (the client is
        // still retrying); it just gets time for trailing acks.
        if unanswered.is_empty() {
            world.quiesce(DRAIN_BUDGET)?;
        } else {
            for _ in 0..256 {
                world.step();
            }
        }
        before_verify(&mut world);
        verify(&world, spec, &results, &unacked)?;
        if traced {
            let (w, f) = take_disk_stats(&mut world);
            disk_end = (disk_end.0 + w, disk_end.1 + f);
            rep.client_polls.0 += world.client_polls.0;
            rep.client_polls.1 += world.client_polls.1;
            rep.client_polls.2 = rep.client_polls.2.max(world.client_polls.2);
        }
    }
    rep.fault = fault;
    rep.replication_lag_p99 = veros_cluster::metrics::REPLICATION_LAG
        .snapshot()
        .diff(&lag0)
        .p99;
    if traced {
        rep.disk = Some((disk_end.0 - disk_preload.0, disk_end.1 - disk_preload.1));
    }
    rep.tracer = tracer;
    Ok(rep)
}

/// The fault sheet of one cell. Requests due during the outage are
/// counted: an operation that failed or was never answered reads as the
/// whole drain budget and misses the latency limit.
fn fault_of(k: &Killed, results: &[OpResult], unanswered: &[u64], last_arrival: u64) -> Fault {
    let in_window = |tick: &u64| (k.at..k.at + FAULT_WINDOW).contains(tick);
    let window: Vec<u64> = results
        .iter()
        .filter(|r| in_window(&r.issued_at))
        .map(|r| if r.ok { r.latency() } else { DRAIN_BUDGET })
        .chain(
            unanswered
                .iter()
                .filter(|t| in_window(t))
                .map(|_| DRAIN_BUDGET),
        )
        .collect();
    let total = results.len() + unanswered.len();
    let stalled = unanswered.len()
        + results
            .iter()
            .filter(|r| !r.ok || r.latency() > LATENCY_LIMIT)
            .count();
    Fault {
        p99_ticks: crate::stats::percentile(&window, 99),
        stalled_ppm: (stalled as u64 * 1_000_000) / total.max(1) as u64,
        recovery_ticks: k
            .recovered_at
            .map_or(last_arrival + DRAIN_BUDGET - k.at, |t| t - k.at),
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::measure::check_identical;

    /// A fleet small enough for `cargo test`, shaped like `base`.
    pub fn tiny(base: &str) -> FleetSpec {
        let s = spec(base).expect("known workload");
        FleetSpec {
            fleet: FleetConfig {
                nodes: 4,
                shards: 16,
                vnodes: 8,
                clients: 12,
                sectors: 1 << 12,
                ..s.fleet
            },
            load: WorkloadConfig {
                client_hosts: 12,
                keyspace: 24,
                ops: 160,
                ..s.load
            },
            // The opening burst window delivers most of a 160-op schedule
            // within ~80 ticks; kill while arrivals are still coming.
            kill_at: s.kill_at.map(|_| 40),
        }
    }

    #[test]
    fn every_fleet_workload_completes_and_verifies_at_a_tiny_geometry() {
        let _world = crate::world_lock();
        for name in ["fleet_read_mostly", "fleet_write_heavy", "fleet_failover"] {
            let spec = tiny(name);
            let rep = run_rep(&spec, 11, false).unwrap_or_else(|e| panic!("{name}: {e}"));
            let cells = if spec.kill_at.is_some() { 6 } else { 1 };
            assert_eq!(rep.attempted, 160 * cells, "{name}");
            assert_eq!(rep.failed, 0, "{name}");
            assert!(
                rep.host_ns > 0 && rep.setup_s > 0.0 && rep.ticks > 0,
                "{name}"
            );
            assert!(
                !rep.put_ticks.is_empty() && !rep.get_ticks.is_empty(),
                "{name}"
            );
            assert_eq!(rep.fault.is_some(), spec.kill_at.is_some(), "{name}");
            if let Some(f) = rep.fault {
                assert!(
                    f.recovery_ticks > 0 && f.recovery_ticks < DRAIN_BUDGET,
                    "{name}: {f:?}"
                );
                assert!(
                    rep.view_epochs >= 6,
                    "{name}: every cell's kill advanced the view: {} {f:?}",
                    rep.view_epochs
                );
            }
            if veros_telemetry::enabled() {
                assert!(rep.tele.wal_bytes > 0 && rep.tele.delivered > 0, "{name}");
            }
        }
    }

    #[test]
    fn traced_stepper_reproduces_fleet_step_tick_for_tick() {
        let _world = crate::world_lock();
        for name in ["fleet_read_mostly", "fleet_failover"] {
            let spec = tiny(name);
            let plain = run_rep(&spec, 5, false).expect("untraced");
            let traced = run_rep(&spec, 5, true).expect("traced");
            check_identical(name, &plain, &traced).expect("bench stepper == Fleet::step");
            let t = traced.tracer.as_ref().expect("spans kept");
            let (_, ticks) = t.total(Kind::Tick);
            assert!(ticks > 0 && t.total(Kind::NodePoll).1 >= ticks, "{name}");
            let (polls, useful, _) = traced.client_polls;
            assert_eq!(
                polls,
                traced.ticks * 12,
                "{name}: every client polled every tick"
            );
            assert!(useful > 0 && useful < polls, "{name}");
            assert!(traced.disk.is_some_and(|(w, f)| w > 0 && f > 0), "{name}");
        }
    }

    #[test]
    fn a_corrupted_read_trips_the_correctness_gate() {
        let _world = crate::world_lock();
        let spec = tiny("fleet_write_heavy");
        // Overwrite one replica of the hot key with a well-formed but
        // wrong block: the checksum passes, the canonical-value and
        // chain-agreement checks must not.
        let err = run_rep_with(&spec, 11, false, |world| {
            let m = world.fleet.chain_for_key(HOT_KEY)[0] as usize;
            let wrong = vec![0xEE; 8];
            world.fleet.nodes[m]
                .store
                .put(HOT_KEY, &wrong, block_checksum(&wrong))
                .expect("put");
        })
        .err()
        .expect("a wrong stored value must fail the repetition");
        assert!(err.contains(HOT_KEY), "{err}");
        // And a wrong payload handed back to a client is caught too.
        let mut world = World::build(&spec, 1, 1);
        let bad = OpResult {
            host: 0,
            op: Op::Get {
                key: HOT_KEY.into(),
            },
            issued_at: 0,
            completed_at: 1,
            retries: 0,
            ok: true,
            read: Some(vec![1, 2, 3]),
            resp: Response::GetOk {
                id: 0,
                data: vec![1, 2, 3],
                checksum: block_checksum(&[1, 2, 3]),
            },
        };
        world.quiesce(100).expect("an untouched world is quiescent");
        let err = verify(&world, &spec, &[bad], &BTreeSet::new()).expect_err("wrong payload");
        assert!(err.contains("canonical"), "{err}");
    }

    #[test]
    fn canonical_values_and_cells_follow_the_spec() {
        assert_eq!(canonical_value("ycsb-252", 4), Some(vec![1; 4]));
        assert_eq!(canonical_value("other", 4), None);
        let s = spec("fleet_failover").expect("spec");
        let cells = s.cells(11);
        assert_eq!(cells.len(), 6);
        assert_eq!(
            cells.iter().filter(|c| c.2 == Some(0)).count(),
            3,
            "2-way chains: head x 3 seeds"
        );
        assert_eq!(
            cells.iter().filter(|c| c.2 == Some(1)).count(),
            3,
            "and tail x 3 seeds"
        );
        assert_eq!(spec("fleet_read_mostly").expect("spec").cells(11).len(), 1);
        assert_ne!(
            s.cells(11)[0].0,
            s.cells(12)[0].0,
            "--seed moves the wire seed"
        );
        assert_eq!(
            spec("fleet_write_heavy")
                .expect("spec")
                .per_node_population(),
            384
        );
        assert_eq!(s.single_node().per_node_population(), 512);
        assert!(spec("kernel_fileio").is_none());
    }
}
