//! The fleet client: shard-aware routing with local failover.
//!
//! A client computes chains from the same [`ShardMap`] the nodes use:
//! writes go to the head, reads to the tail (the member every
//! acknowledged write has reached). The client does *not* consume
//! coordinator views — it suspects nodes dead on RPC timeout, recomputes
//! the chain without them, and re-issues; a `Retry` response (node
//! mid-sync or with a lagging view) re-issues after a short backoff
//! without suspecting anyone. Writes keep their per-client sequence
//! number across retries, so re-issues against a promoted head are
//! deduplicated server-side — exactly-once, measured end to end.
//!
//! Operations are submitted with a *scheduled arrival tick* and queue
//! open-loop: latency is measured from the arrival, not from when the
//! client got around to sending, so queueing delay under load is part
//! of the number (the YCSB convention for open-loop generators).

use std::collections::{BTreeSet, VecDeque};

use veros_blockstore::wire::block_checksum;
use veros_blockstore::{Request, Response};
use veros_net::demux::RdtDemux;
use veros_net::stack::NetStack;

use crate::metrics;
use crate::node::{node_peer, CLIENT_PORT};
use crate::shard::ShardMap;

/// Ticks one attempt may be outstanding before the target is suspected
/// dead and the operation re-routed.
pub const OP_TIMEOUT: u64 = 150;
/// Ticks to back off after a `Retry` response before re-issuing.
pub const RETRY_BACKOFF: u64 = 12;

/// One client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Store `data` under `key`.
    Put {
        /// Block key.
        key: String,
        /// Block contents.
        data: Vec<u8>,
    },
    /// Delete `key`.
    Delete {
        /// Block key.
        key: String,
    },
    /// Read `key`.
    Get {
        /// Block key.
        key: String,
    },
}

impl Op {
    /// The key the operation targets.
    pub fn key(&self) -> &str {
        match self {
            Op::Put { key, .. } | Op::Delete { key } | Op::Get { key } => key,
        }
    }

    /// Whether the operation mutates state.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Get { .. })
    }
}

/// A finished operation, with open-loop timing.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// The client host that ran it.
    pub host: u16,
    /// The operation (owns the key and any written data).
    pub op: Op,
    /// Scheduled arrival tick (latency baseline).
    pub issued_at: u64,
    /// Tick the final response arrived.
    pub completed_at: u64,
    /// Re-issues (timeouts and `Retry` responses).
    pub retries: u32,
    /// Terminal success (`PutOk`/`DeleteOk`/`NotFound`, or a `GetOk`
    /// whose data matches its checksum).
    pub ok: bool,
    /// `GetOk` payload, checksum-verified.
    pub read: Option<Vec<u8>>,
    /// The terminal response, for assertions that need its exact kind
    /// (e.g. a retried delete must come back `DeleteOk` from the dedup
    /// cache, not `NotFound` from a double apply).
    pub resp: Response,
}

impl OpResult {
    /// Open-loop latency in ticks (arrival to completion).
    pub fn latency(&self) -> u64 {
        self.completed_at.saturating_sub(self.issued_at)
    }
}

struct Inflight {
    /// The op's request, built once: the op's key and data moved in, the
    /// per-client write sequence (dedup key) constant across retries,
    /// and the current attempt's request id (fresh per attempt).
    req: Request,
    /// The shard the op's key belongs to.
    shard: u32,
    arrival: u64,
    target: u16,
    deadline: u64,
    /// `Some(tick)`: waiting out a `Retry` backoff until that tick.
    backoff_until: Option<u64>,
    retries: u32,
}

impl Op {
    /// The request that issues this op for `client`: the key and data
    /// move in, and the checksum is computed here, once per op. Each
    /// attempt restamps only the id.
    fn into_request(self, client: u64, seq: u64) -> Request {
        match self {
            Op::Put { key, data } => Request::ShardPut {
                id: 0,
                key,
                checksum: block_checksum(&data),
                data,
                client,
                seq,
            },
            Op::Delete { key } => Request::ShardDelete { id: 0, key, client, seq },
            Op::Get { key } => Request::Get { id: 0, key },
        }
    }

    /// The op [`Op::into_request`] built `req` from: the key and data
    /// move back.
    #[expect(
        clippy::unreachable,
        reason = "an in-flight request is only ever built by `Op::into_request`"
    )]
    fn from_request(req: Request) -> Op {
        match req {
            Request::ShardPut { key, data, .. } => Op::Put { key, data },
            Request::ShardDelete { key, .. } => Op::Delete { key },
            Request::Get { key, .. } => Op::Get { key },
            other => unreachable!("a client never issues {other:?}"),
        }
    }
}

/// One simulated client host.
pub struct FleetClient {
    host: u16,
    demux: RdtDemux,
    map: ShardMap,
    /// The nodes this client believes live: all but those it suspects
    /// dead on timeout evidence (not gossip). Kept, not rebuilt per
    /// attempt.
    live: BTreeSet<u16>,
    queue: VecDeque<(u64, Op)>,
    inflight: Option<Inflight>,
    next_seq: u64,
    next_id: u64,
    /// Finished operations, in completion order (drained by harnesses).
    pub results: Vec<OpResult>,
}

impl FleetClient {
    /// Creates the client for network host `host`, binding its socket
    /// on `stack`.
    pub fn new(host: u16, map: ShardMap, stack: &mut NetStack) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "setup: a client host binds its one port on its own fresh stack"
        )]
        let sock = stack.bind(CLIENT_PORT).expect("client port");
        Self {
            host,
            demux: RdtDemux::new(sock),
            live: map.all_live(),
            map,
            queue: VecDeque::new(),
            inflight: None,
            next_seq: 1,
            // Ids embed the host so they are unique fleet-wide — the
            // nodes' response/request disambiguation relies on it.
            next_id: (host as u64) << 32,
            results: Vec::new(),
        }
    }

    /// Queues `op` to be issued at tick `arrival` (open-loop).
    pub fn submit(&mut self, arrival: u64, op: Op) {
        self.queue.push_back((arrival, op));
    }

    /// True when nothing is queued or outstanding.
    pub fn idle(&self) -> bool {
        self.inflight.is_none() && self.queue.is_empty()
    }

    /// True when a [`FleetClient::poll`] with no new datagram on the
    /// socket would do nothing: the client is idle and every message it
    /// ever sent is acknowledged. An idle client whose last
    /// acknowledgement was lost is *not* quiet — it still owes the wire
    /// a retransmission.
    pub fn quiet(&self) -> bool {
        self.idle() && self.demux.quiescent()
    }

    /// Queued (not yet issued) operations.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Sends the current in-flight op to the chain computed under the
    /// client's believed live set. Writes target the head, reads the
    /// tail.
    fn issue(&mut self, stack: &mut NetStack, now: u64) {
        if self.live.is_empty() {
            // Everyone suspected: suspicions must be wrong — restart.
            self.live = self.map.all_live();
        }
        let Some(infl) = &mut self.inflight else {
            return;
        };
        let chain = self.map.chain(infl.shard, &self.live);
        let Some(target) = (if matches!(infl.req, Request::Get { .. }) {
            chain.last()
        } else {
            chain.first()
        }) else {
            return; // No live nodes at all; the timeout path retries.
        };
        infl.target = *target;
        infl.req.set_id(self.next_id);
        self.next_id += 1;
        infl.deadline = now + OP_TIMEOUT;
        infl.backoff_until = None;
        let _ = self.demux.send(stack, now, node_peer(infl.target), infl.req.encode());
    }

    /// One poll round: start due work, absorb responses, drive retries.
    pub fn poll(&mut self, stack: &mut NetStack, now: u64) {
        if self.inflight.is_none() {
            if let Some((arrival, op)) = self.queue.pop_front_if(|(arrival, _)| *arrival <= now) {
                let seq = if op.is_write() {
                    let s = self.next_seq;
                    self.next_seq += 1;
                    s
                } else {
                    0
                };
                self.inflight = Some(Inflight {
                    shard: self.map.shard_of(op.key()),
                    req: op.into_request(self.host as u64, seq),
                    arrival,
                    target: 0,
                    deadline: 0,
                    backoff_until: None,
                    retries: 0,
                });
                self.issue(stack, now);
            }
        }
        let _ = self.demux.poll(stack, now);
        while let Some((_, msg)) = self.demux.recv() {
            let Some(resp) = Response::decode(&msg) else {
                continue;
            };
            let Some(infl) = &mut self.inflight else {
                continue; // Late duplicate of a finished op.
            };
            if resp.id() != infl.req.id() {
                continue; // Response to an abandoned attempt.
            }
            match resp {
                Response::Retry { .. } => {
                    infl.retries += 1;
                    metrics::OPS_RETRIED.inc();
                    infl.backoff_until = Some(now + RETRY_BACKOFF);
                    infl.deadline = now + OP_TIMEOUT + RETRY_BACKOFF;
                }
                resp => {
                    let (ok, read) = match &resp {
                        Response::PutOk { .. }
                        | Response::DeleteOk { .. }
                        | Response::NotFound { .. } => (true, None),
                        Response::GetOk { data, checksum, .. } if block_checksum(data) == *checksum => {
                            (true, Some(data.clone()))
                        }
                        Response::GetOk { .. } => {
                            veros_blockstore::metrics::CHECKSUM_FAILURES.inc();
                            (false, None)
                        }
                        _ => (false, None),
                    };
                    let Some(infl) = self.inflight.take() else {
                        continue;
                    };
                    metrics::OPS_COMPLETED.inc();
                    self.results.push(OpResult {
                        host: self.host,
                        op: Op::from_request(infl.req),
                        issued_at: infl.arrival,
                        completed_at: now,
                        retries: infl.retries,
                        ok,
                        read,
                        resp,
                    });
                }
            }
        }
        let reissue = match &self.inflight {
            Some(infl) => match infl.backoff_until {
                Some(t) => now >= t,
                None if now >= infl.deadline => {
                    // No answer inside the budget: suspect the target.
                    self.live.remove(&infl.target);
                    true
                }
                None => false,
            },
            None => false,
        };
        if reissue {
            if let Some(infl) = &mut self.inflight {
                if infl.backoff_until.is_none() {
                    infl.retries += 1;
                    metrics::OPS_RETRIED.inc();
                }
            }
            self.issue(stack, now);
        }
        let _ = self.demux.on_tick(stack, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_expose_key_and_kind() {
        let p = Op::Put { key: "k".into(), data: vec![1] };
        assert_eq!(p.key(), "k");
        assert!(p.is_write());
        let g = Op::Get { key: "g".into() };
        assert!(!g.is_write());
        assert!(Op::Delete { key: "d".into() }.is_write());
    }

    #[test]
    fn latency_measures_from_scheduled_arrival() {
        let r = OpResult {
            host: 9,
            op: Op::Get { key: "k".into() },
            issued_at: 100,
            completed_at: 190,
            retries: 0,
            ok: true,
            read: None,
            resp: Response::NotFound { id: 0 },
        };
        assert_eq!(r.latency(), 90);
    }

    /// A `GetOk` whose data does not match its checksum completes the
    /// get as failed, like `Error`, and counts as corruption at the
    /// client boundary. A stand-in node on host 0 answers the client's
    /// `Get` with a well-formed `GetOk`, its checksum right or off by
    /// one bit.
    #[test]
    fn a_get_ok_failing_its_checksum_is_a_failed_read() {
        use crate::node::NODE_SERVE;
        use veros_net::sim::{FaultPlan, Network};

        for corrupt in [false, true] {
            let mut net = Network::new(2, FaultPlan::reliable(), 1);
            let mut node = RdtDemux::new(net.host(0).bind(NODE_SERVE).expect("node port"));
            let mut client = FleetClient::new(1, ShardMap::new(1, 1, 1, 8), net.host(1));
            client.submit(0, Op::Get { key: "k".into() });
            let failures = veros_blockstore::metrics::CHECKSUM_FAILURES.get();
            for now in 0..20 {
                client.poll(net.host(1), now);
                node.poll(net.host(0), now).expect("node poll");
                while let Some((peer, msg)) = node.recv() {
                    let id = Request::decode(&msg).expect("a request").id();
                    let data = b"block".to_vec();
                    let checksum = block_checksum(&data) ^ u64::from(corrupt);
                    let resp = Response::GetOk { id, data, checksum }.encode();
                    node.send(net.host(0), now, peer, resp).expect("node send");
                }
                node.on_tick(net.host(0), now).expect("node tick");
                net.step();
            }
            let [r] = &client.results[..] else {
                panic!("corrupt {corrupt}: {} results", client.results.len());
            };
            assert!(matches!(r.resp, Response::GetOk { .. }), "{:?}", r.resp);
            assert_eq!(r.ok, !corrupt);
            assert_eq!(r.read.as_deref(), (!corrupt).then_some(&b"block"[..]));
            if corrupt && veros_telemetry::enabled() {
                assert!(veros_blockstore::metrics::CHECKSUM_FAILURES.get() > failures);
            }
        }
    }
}
