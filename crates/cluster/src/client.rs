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
    /// Terminal success (`PutOk`/`DeleteOk`/`GetOk`/`NotFound`).
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
    op: Op,
    arrival: u64,
    /// Per-client write sequence — constant across retries (dedup key).
    seq: u64,
    /// Current attempt's request id (fresh per attempt).
    id: u64,
    target: u16,
    deadline: u64,
    /// `Some(tick)`: waiting out a `Retry` backoff until that tick.
    backoff_until: Option<u64>,
    retries: u32,
}

/// One simulated client host.
pub struct FleetClient {
    host: u16,
    demux: RdtDemux,
    map: ShardMap,
    /// Locally suspected-dead nodes (timeout evidence, not gossip).
    dead: BTreeSet<u16>,
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
        let sock = stack.bind(CLIENT_PORT).expect("client port");
        Self {
            host,
            demux: RdtDemux::new(sock),
            map,
            dead: BTreeSet::new(),
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

    /// The live set as this client believes it (all minus suspected).
    fn believed_live(&mut self) -> BTreeSet<u16> {
        let live: BTreeSet<u16> = (0..self.map.nodes())
            .filter(|n| !self.dead.contains(n))
            .collect();
        if live.is_empty() {
            // Everyone suspected: suspicions must be wrong — restart.
            self.dead.clear();
            return (0..self.map.nodes()).collect();
        }
        live
    }

    /// Sends the current in-flight op to the chain computed under the
    /// client's believed live set. Writes target the head, reads the
    /// tail.
    fn issue(&mut self, stack: &mut NetStack, now: u64) {
        let live = self.believed_live();
        let Some(infl) = &mut self.inflight else {
            return;
        };
        let chain = self.map.chain_for_key(infl.op.key(), &live);
        let Some(target) = (if infl.op.is_write() {
            chain.first()
        } else {
            chain.last()
        }) else {
            return; // No live nodes at all; the timeout path retries.
        };
        infl.target = *target;
        infl.id = self.next_id;
        self.next_id += 1;
        infl.deadline = now + OP_TIMEOUT;
        infl.backoff_until = None;
        let req = match &infl.op {
            Op::Put { key, data } => Request::ShardPut {
                id: infl.id,
                key: key.clone(),
                data: data.clone(),
                checksum: block_checksum(data),
                client: self.host as u64,
                seq: infl.seq,
            },
            Op::Delete { key } => Request::ShardDelete {
                id: infl.id,
                key: key.clone(),
                client: self.host as u64,
                seq: infl.seq,
            },
            Op::Get { key } => Request::Get { id: infl.id, key: key.clone() },
        };
        let _ = self.demux.send(stack, now, node_peer(infl.target), req.encode());
    }

    /// One poll round: start due work, absorb responses, drive retries.
    pub fn poll(&mut self, stack: &mut NetStack, now: u64) {
        if self.inflight.is_none() {
            if let Some(&(arrival, _)) = self.queue.front() {
                if arrival <= now {
                    let (arrival, op) = self.queue.pop_front().expect("checked front");
                    let seq = if op.is_write() {
                        let s = self.next_seq;
                        self.next_seq += 1;
                        s
                    } else {
                        0
                    };
                    self.inflight = Some(Inflight {
                        op,
                        arrival,
                        seq,
                        id: 0,
                        target: 0,
                        deadline: 0,
                        backoff_until: None,
                        retries: 0,
                    });
                    self.issue(stack, now);
                }
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
            if resp.id() != infl.id {
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
                        Response::GetOk { data, .. } => (true, Some(data.clone())),
                        _ => (false, None),
                    };
                    let infl = self.inflight.take().expect("checked above");
                    metrics::OPS_COMPLETED.inc();
                    self.results.push(OpResult {
                        host: self.host,
                        op: infl.op,
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
                    self.dead.insert(infl.target);
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
}
