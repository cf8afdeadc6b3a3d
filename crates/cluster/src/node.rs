//! The fleet storage node: shard serving, chain replication, failover.
//!
//! One node serves every shard it is a chain member of, over a single
//! [`RdtDemux`] socket shared by clients and peer nodes. The write path
//! is chain replication: the head applies locally, forwards a
//! `ChainPut`/`ChainDelete` carrying the remaining chain to its
//! successor, and releases the client response only when the successor
//! acks — so **an acknowledged write has been applied by every chain
//! member**, and the loss of any single node cannot lose it. Reads are
//! served by any ready chain member (clients route them to the tail).
//!
//! Exactly-once across failover: every fleet write carries a
//! `(client, seq)` identity; each node keeps the latest applied
//! sequence and response per client, so a retry against a promoted head
//! is answered from the dedup cache instead of double-applied — and if
//! the original write is still in flight down the chain, the retry
//! *re-arms* the held response rather than acking early.
//!
//! Failover: nodes adopt epoch-numbered [`View`]s from the coordinator.
//! On a view change a node re-forwards writes whose downstream died and
//! pulls whole shards (`SyncShard`) for chains it newly joined, serving
//! `Retry` for those shards until the sync lands. Writes applied while
//! a sync is in flight shadow the sync's stale entries.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use veros_blockstore::store::StoreError;
use veros_blockstore::wire::peek_id;
use veros_blockstore::{BlockStore, Request, Response};
use veros_net::demux::{Peer, RdtDemux};
use veros_net::ip::IpAddr;
use veros_net::socket::SocketId;
use veros_net::stack::NetStack;

use crate::metrics;
use crate::shard::ShardMap;
use crate::view::{heartbeat, View, HEARTBEAT_EVERY};

/// Port every fleet node serves the data plane on (clients and peers).
pub const NODE_SERVE: u16 = 4000;
/// Port the coordinator listens on (heartbeats in, views out).
pub const COORD_PORT: u16 = 4001;
/// Port each node's control socket uses (heartbeats out, views in).
pub const NODE_CTRL: u16 = 4002;
/// Port fleet clients bind their demux socket on.
pub const CLIENT_PORT: u16 = 4003;

/// The data-plane address of fleet node `n`.
pub fn node_peer(n: u16) -> Peer {
    (IpAddr::host(n), NODE_SERVE)
}

/// A write held back until the downstream chain ack arrives.
struct Pending {
    /// Chain member the forward went to (ack source).
    downstream: u16,
    /// Request id the forward carries (echoed by the ack).
    id: u64,
    /// Write identity, for retry re-arming.
    client: u64,
    seq: u64,
    /// Where the release goes (client for the head, upstream node
    /// otherwise).
    upstream: Peer,
    /// The response to release.
    resp: Response,
    /// The forwarded request, kept for re-forwarding around deaths.
    fwd: Request,
    /// Tick the forward was first sent (replication-lag metric).
    sent_at: u64,
}

/// One storage node of the fleet.
pub struct FleetNode {
    id: u16,
    /// The local storage engine (public for invariant checks).
    pub store: BlockStore,
    map: ShardMap,
    demux: RdtDemux,
    ctrl: SocketId,
    coord: Peer,
    view: View,
    /// Shards this node is a chain member of, and whether their data is
    /// complete (false while a `SyncShard` pull is in flight).
    ready: BTreeMap<u32, bool>,
    /// Exactly-once cache: client → (latest applied seq, its response).
    dedup: HashMap<u64, (u64, Response)>,
    pending: Vec<Pending>,
    /// In-flight shard pulls: sync request id → shard.
    syncing: BTreeMap<u64, u32>,
    /// Keys written while a sync was in flight — newer than whatever
    /// the sync returns, so its stale entries must not resurrect them.
    touched: BTreeSet<(u32, String)>,
    next_sync: u64,
    next_heartbeat: u64,
}

/// Clones `resp` with its echoed request id replaced (dedup replays
/// answer a *new* request id with a cached response).
fn rewrite_id(resp: &Response, id: u64) -> Response {
    let mut out = resp.clone();
    match &mut out {
        Response::PutOk { id: i }
        | Response::GetOk { id: i, .. }
        | Response::NotFound { id: i }
        | Response::DeleteOk { id: i }
        | Response::Error { id: i, .. }
        | Response::Retry { id: i }
        | Response::SyncBlocks { id: i, .. } => *i = id,
    }
    out
}

impl FleetNode {
    /// Creates node `id` over `store`, binding its data and control
    /// sockets on `stack`. The node starts ready for every shard it
    /// owns under the full initial view.
    pub fn new(id: u16, store: BlockStore, map: ShardMap, stack: &mut NetStack, coord: Peer) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "setup: a node binds its two distinct ports on its own fresh stack"
        )]
        let (data, ctrl) = (
            stack.bind(NODE_SERVE).expect("node data port"),
            stack.bind(NODE_CTRL).expect("node ctrl port"),
        );
        let view = View::initial(map.nodes());
        let mut ready = BTreeMap::new();
        for shard in 0..map.shards() {
            if map.chain(shard, &view.live).contains(&id) {
                ready.insert(shard, true);
            }
        }
        Self {
            id,
            store,
            map,
            demux: RdtDemux::new(data),
            ctrl,
            coord,
            view,
            ready,
            dedup: HashMap::new(),
            pending: Vec::new(),
            syncing: BTreeMap::new(),
            touched: BTreeSet::new(),
            // Sync ids live in their own (high-bit) id space so they can
            // never collide with client request ids.
            next_sync: (1 << 63) | ((id as u64) << 32),
            next_heartbeat: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The membership view the node currently acts under.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether `shard`'s local data is complete (always false for
    /// shards this node is no chain member of).
    pub fn is_ready(&self, shard: u32) -> bool {
        self.ready.get(&shard).copied().unwrap_or(false)
    }

    /// Writes held back waiting for downstream acks.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// One poll round: control plane (views in, heartbeat out), then
    /// data plane (serve requests, route acks, drive timers).
    pub fn poll(&mut self, stack: &mut NetStack, now: u64) {
        while let Ok(Some((_, _, data))) = stack.recv_from(self.ctrl) {
            if let Some(v) = View::decode(&data) {
                self.adopt(stack, now, v);
            }
        }
        if now >= self.next_heartbeat {
            let _ = stack.send_to(self.ctrl, self.coord.0, self.coord.1, &[&heartbeat(self.id)]);
            self.next_heartbeat = now + HEARTBEAT_EVERY;
        }
        let _ = self.demux.poll(stack, now);
        while let Some((peer, msg)) = self.demux.recv() {
            self.dispatch(stack, now, peer, &msg);
        }
        let _ = self.demux.on_tick(stack, now);
    }

    /// Routes one delivered message. Peer-node traffic mixes requests
    /// and responses on one session; ids are globally unique (clients
    /// embed their host, sync ids use the high bit), so a message that
    /// matches in-flight response state *is* that response.
    ///
    /// Both kinds lead with the request id ([`peek_id`]), and the two
    /// response handlers act only on an id in `syncing` or `pending`. So
    /// a message is parsed as a response only when its id is one of
    /// those, and every other message is parsed once, as a request —
    /// request and response tags overlap, and parsing a `Get` as a
    /// `GetOk` would allocate its key before failing.
    fn dispatch(&mut self, stack: &mut NetStack, now: u64, peer: Peer, msg: &[u8]) {
        let id = peek_id(msg);
        let awaited = id.is_some_and(|id| {
            self.syncing.contains_key(&id) || self.pending.iter().any(|p| p.id == id)
        });
        let resp = if awaited { Response::decode(msg) } else { None };
        if let Some(resp) = resp {
            if self.on_sync_blocks(&resp) {
                return;
            }
            if self.on_chain_ack(stack, now, peer, &resp) {
                return;
            }
        }
        if let Some(req) = Request::decode(msg) {
            self.handle_request(stack, now, peer, req);
        }
    }

    /// Applies an arrived `SyncBlocks`; true if it matched a pull.
    fn on_sync_blocks(&mut self, resp: &Response) -> bool {
        let Response::SyncBlocks { id, blocks } = resp else {
            return false;
        };
        let Some(shard) = self.syncing.remove(id) else {
            return false;
        };
        for (key, data, checksum) in blocks {
            // A write applied mid-sync is newer than the sync's copy.
            if self.touched.contains(&(shard, key.clone())) {
                continue;
            }
            let _ = self.store.put(key, data, *checksum);
        }
        self.touched.retain(|(s, _)| *s != shard);
        self.ready.insert(shard, true);
        metrics::SHARD_SYNCS.inc();
        true
    }

    /// Releases a held write if `resp` is its downstream ack; true if
    /// it was.
    fn on_chain_ack(&mut self, stack: &mut NetStack, now: u64, peer: Peer, resp: &Response) -> bool {
        let Some(pos) = self
            .pending
            .iter()
            .position(|p| node_peer(p.downstream) == peer && p.id == resp.id())
        else {
            return false;
        };
        let p = self.pending.remove(pos);
        // A downstream failure overrides the held success.
        let out = match resp {
            Response::Error { .. } => rewrite_id(resp, p.resp.id()),
            _ => p.resp,
        };
        if p.upstream.1 != NODE_SERVE {
            metrics::REPLICATION_LAG.record(now.saturating_sub(p.sent_at));
        }
        let _ = self.demux.send(stack, now, p.upstream, out.encode());
        true
    }

    fn handle_request(&mut self, stack: &mut NetStack, now: u64, peer: Peer, req: Request) {
        metrics::node_served(self.id);
        match req {
            Request::ShardPut { id, key, data, checksum, client, seq } => {
                self.head_write(stack, now, peer, id, key, Some((data, checksum)), client, seq);
            }
            Request::ShardDelete { id, key, client, seq } => {
                self.head_write(stack, now, peer, id, key, None, client, seq);
            }
            Request::ChainPut { id, key, data, checksum, client, seq, rest, .. } => {
                self.chain_write(stack, now, peer, id, key, Some((data, checksum)), client, seq, rest);
            }
            Request::ChainDelete { id, key, client, seq, rest, .. } => {
                self.chain_write(stack, now, peer, id, key, None, client, seq, rest);
            }
            Request::Get { id, key } => {
                let shard = self.map.shard_of(&key);
                let chain = self.map.chain(shard, &self.view.live);
                let reply = if !chain.contains(&self.id) || !self.is_ready(shard) {
                    Response::Retry { id }.encode()
                } else {
                    match self.store.get_reply(id, &key) {
                        Ok(reply) => reply,
                        Err(StoreError::NotFound) => Response::NotFound { id }.encode(),
                        Err(e) => Response::Error { id, reason: e.to_string() }.encode(),
                    }
                };
                let _ = self.demux.send(stack, now, peer, reply);
            }
            Request::SyncShard { id, shard } => {
                let blocks: Vec<(String, Vec<u8>, u64)> = self
                    .store
                    .list()
                    .into_iter()
                    .filter(|k| self.map.shard_of(k) == shard)
                    .filter_map(|k| self.store.get(&k).ok().map(|(d, c)| (k, d, c)))
                    .collect();
                let resp = Response::SyncBlocks { id, blocks };
                let _ = self.demux.send(stack, now, peer, resp.encode());
            }
        }
    }

    /// A client write arriving at (what the client believes is) the
    /// shard's chain head.
    #[allow(clippy::too_many_arguments)]
    fn head_write(
        &mut self,
        stack: &mut NetStack,
        now: u64,
        peer: Peer,
        id: u64,
        key: String,
        payload: Option<(Vec<u8>, u64)>,
        client: u64,
        seq: u64,
    ) {
        let shard = self.map.shard_of(&key);
        let chain = self.map.chain(shard, &self.view.live);
        if chain.first() != Some(&self.id) || !self.is_ready(shard) {
            // Not the head under *this node's* view (stale client
            // routing, or our own view lags), or mid-sync: ask the
            // client to try again rather than serving a split brain.
            let resp = Response::Retry { id };
            let _ = self.demux.send(stack, now, peer, resp.encode());
            return;
        }
        // Exactly-once: a retry of an applied write must not re-apply.
        if let Some(&(done_seq, ref done_resp)) = self.dedup.get(&client) {
            if seq <= done_seq {
                metrics::DEDUP_HITS.inc();
                let resp = if seq == done_seq {
                    rewrite_id(done_resp, id)
                } else {
                    // Acknowledged history from before the cached op.
                    match payload {
                        Some(_) => Response::PutOk { id },
                        None => Response::DeleteOk { id },
                    }
                };
                // If the original is still working its way down the
                // chain, re-arm the held release instead of acking a
                // write the tail may not have yet.
                if let Some(p) = self
                    .pending
                    .iter_mut()
                    .find(|p| p.client == client && p.seq == seq)
                {
                    p.upstream = peer;
                    p.resp = resp;
                } else {
                    let _ = self.demux.send(stack, now, peer, resp.encode());
                }
                return;
            }
        }
        let resp = match self.apply(&key, &payload, id) {
            Ok(r) => r,
            Err(r) => {
                // Rejected writes (bad checksum) don't replicate and
                // don't enter the dedup history.
                let _ = self.demux.send(stack, now, peer, r.encode());
                return;
            }
        };
        self.dedup.insert(client, (seq, resp.clone()));
        self.touch(shard, &key);
        let rest = &chain[1..];
        if rest.is_empty() {
            let _ = self.demux.send(stack, now, peer, resp.encode());
            return;
        }
        let fwd = match &payload {
            Some((data, checksum)) => Request::ChainPut {
                id,
                key,
                data: data.clone(),
                checksum: *checksum,
                client,
                seq,
                epoch: self.view.epoch,
                rest: rest[1..].to_vec(),
            },
            None => Request::ChainDelete {
                id,
                key,
                client,
                seq,
                epoch: self.view.epoch,
                rest: rest[1..].to_vec(),
            },
        };
        let _ = self.demux.send(stack, now, node_peer(rest[0]), fwd.encode());
        self.pending.push(Pending {
            downstream: rest[0],
            id,
            client,
            seq,
            upstream: peer,
            resp,
            fwd,
            sent_at: now,
        });
    }

    /// A write forwarded down the chain by the upstream member.
    #[allow(clippy::too_many_arguments)]
    fn chain_write(
        &mut self,
        stack: &mut NetStack,
        now: u64,
        peer: Peer,
        id: u64,
        key: String,
        payload: Option<(Vec<u8>, u64)>,
        client: u64,
        seq: u64,
        rest: Vec<u16>,
    ) {
        let shard = self.map.shard_of(&key);
        let duplicate = matches!(self.dedup.get(&client), Some(&(done, _)) if seq <= done);
        let resp = if duplicate {
            // Already applied (a re-forward after a view change, or a
            // chain suffix shared with the old chain): don't re-apply,
            // but keep forwarding and acking so the chain completes.
            metrics::DEDUP_HITS.inc();
            match payload {
                Some(_) => Response::PutOk { id },
                None => Response::DeleteOk { id },
            }
        } else {
            match self.apply(&key, &payload, id) {
                Ok(r) | Err(r) => r,
            }
        };
        if !duplicate && !matches!(resp, Response::Error { .. }) {
            self.dedup.insert(client, (seq, resp.clone()));
            self.touch(shard, &key);
        }
        if rest.is_empty() || matches!(resp, Response::Error { .. }) {
            // Tail (or a failed apply): ack upstream now.
            let _ = self.demux.send(stack, now, peer, resp.encode());
            return;
        }
        let fwd = match &payload {
            Some((data, checksum)) => Request::ChainPut {
                id,
                key,
                data: data.clone(),
                checksum: *checksum,
                client,
                seq,
                epoch: self.view.epoch,
                rest: rest[1..].to_vec(),
            },
            None => Request::ChainDelete {
                id,
                key,
                client,
                seq,
                epoch: self.view.epoch,
                rest: rest[1..].to_vec(),
            },
        };
        let _ = self.demux.send(stack, now, node_peer(rest[0]), fwd.encode());
        self.pending.push(Pending {
            downstream: rest[0],
            id,
            client,
            seq,
            upstream: peer,
            resp,
            fwd,
            sent_at: now,
        });
    }

    /// Applies one write to the local store. `Ok` responses enter the
    /// dedup history and replicate; `Err` responses are terminal.
    fn apply(
        &mut self,
        key: &str,
        payload: &Option<(Vec<u8>, u64)>,
        id: u64,
    ) -> Result<Response, Response> {
        match payload {
            Some((data, checksum)) => match self.store.put(key, data, *checksum) {
                Ok(()) => Ok(Response::PutOk { id }),
                Err(e) => Err(Response::Error { id, reason: e.to_string() }),
            },
            None => match self.store.delete(key) {
                // Deleting an absent key is consistent across replicas:
                // report NotFound but keep the chain going.
                Ok(()) => Ok(Response::DeleteOk { id }),
                Err(StoreError::NotFound) => Ok(Response::NotFound { id }),
                Err(e) => Err(Response::Error { id, reason: e.to_string() }),
            },
        }
    }

    /// Records `key` as written while any sync of its shard is in
    /// flight on this node.
    fn touch(&mut self, shard: u32, key: &str) {
        if self.syncing.values().any(|&s| s == shard) {
            self.touched.insert((shard, key.to_string()));
        }
    }

    /// Adopts a strictly newer membership view: re-forward held writes
    /// around dead downstreams, start syncs for newly joined chains.
    fn adopt(&mut self, stack: &mut NetStack, now: u64, v: View) {
        if v.epoch <= self.view.epoch {
            return;
        }
        let old = std::mem::replace(&mut self.view, v);
        // Held writes whose downstream died: recompute the chain and
        // either re-forward past the victim or, if this node became the
        // tail, release the ack — the write is fully replicated among
        // the survivors.
        let mut i = 0;
        while i < self.pending.len() {
            if self.view.live.contains(&self.pending[i].downstream) {
                i += 1;
                continue;
            }
            let mut p = self.pending.remove(i);
            let key = match &p.fwd {
                Request::ChainPut { key, .. } | Request::ChainDelete { key, .. } => key.clone(),
                _ => continue,
            };
            let chain = self.map.chain_for_key(&key, &self.view.live);
            let after_self: Vec<u16> = match chain.iter().position(|&n| n == self.id) {
                Some(k) => chain[k + 1..].to_vec(),
                None => Vec::new(),
            };
            if after_self.is_empty() {
                if p.upstream.1 != NODE_SERVE {
                    metrics::REPLICATION_LAG.record(now.saturating_sub(p.sent_at));
                }
                let _ = self.demux.send(stack, now, p.upstream, p.resp.encode());
                continue;
            }
            match &mut p.fwd {
                Request::ChainPut { rest, epoch, .. } | Request::ChainDelete { rest, epoch, .. } => {
                    *rest = after_self[1..].to_vec();
                    *epoch = self.view.epoch;
                }
                _ => {}
            }
            p.downstream = after_self[0];
            let _ = self.demux.send(stack, now, node_peer(p.downstream), p.fwd.encode());
            self.pending.insert(i, p);
            i += 1;
        }
        // Chains this node just joined: serve Retry until a surviving
        // member's shard snapshot lands.
        for shard in 0..self.map.shards() {
            let chain = self.map.chain(shard, &self.view.live);
            if !chain.contains(&self.id) {
                self.ready.remove(&shard);
                continue;
            }
            if self.map.chain(shard, &old.live).contains(&self.id) {
                continue; // Already a member; data already complete.
            }
            self.ready.insert(shard, false);
            match chain.iter().find(|&&n| n != self.id) {
                Some(&src) => {
                    let id = self.next_sync;
                    self.next_sync += 1;
                    self.syncing.insert(id, shard);
                    let req = Request::SyncShard { id, shard };
                    let _ = self.demux.send(stack, now, node_peer(src), req.encode());
                }
                // Sole survivor: nothing to pull from.
                None => {
                    self.ready.insert(shard, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_id_touches_only_the_id() {
        let r = Response::GetOk { id: 7, data: vec![1, 2], checksum: 9 };
        match rewrite_id(&r, 42) {
            Response::GetOk { id, data, checksum } => {
                assert_eq!(id, 42);
                assert_eq!(data, vec![1, 2]);
                assert_eq!(checksum, 9);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(rewrite_id(&Response::Retry { id: 1 }, 5), Response::Retry { id: 5 });
    }

    #[test]
    fn node_peer_addresses_the_data_port() {
        assert_eq!(node_peer(3), (IpAddr::host(3), NODE_SERVE));
    }
}
