//! The block-store protocol.
//!
//! Length-free tagged encoding (the transport delivers whole messages).
//! Every message round-trips; corrupted tags decode to `None` rather
//! than panicking. Data integrity is end-to-end: `ShardPut` carries the
//! client-computed checksum, every chain member verifies it before
//! storing, and `GetOk` carries the stored checksum, which the client
//! verifies before it accepts the data. The checksum is
//! [`veros_spec::checksum::checksum64`]: any change confined to one
//! aligned 8-byte word of a block is always caught.
//!
//! Tags are stable wire bytes. Request tags 1, 3 and 4 and response
//! tag 5 belonged to the retired standalone protocol and stay
//! unassigned: they decode to `None` like any other unknown tag.

use veros_spec::checksum::checksum64;

/// A request from client to node, or from a chain member to its
/// successor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Fetch a block.
    Get {
        /// Request id.
        id: u64,
        /// Block key.
        key: String,
    },
    /// Store a block in a sharded fleet (client → chain head). Carries
    /// the client's identity and per-client sequence number so every
    /// chain node can deduplicate retries — exactly-once across
    /// failover.
    ShardPut {
        /// Request id (echoed in the response).
        id: u64,
        /// Block key.
        key: String,
        /// Block contents.
        data: Vec<u8>,
        /// Client-computed checksum of `data`.
        checksum: u64,
        /// Issuing client host id.
        client: u64,
        /// Per-client write sequence number (dedup key).
        seq: u64,
    },
    /// Delete a block in a sharded fleet (client → chain head).
    ShardDelete {
        /// Request id.
        id: u64,
        /// Block key.
        key: String,
        /// Issuing client host id.
        client: u64,
        /// Per-client write sequence number (dedup key).
        seq: u64,
    },
    /// A put forwarded down a replication chain (node → successor).
    /// `rest` is the chain after the receiver; the receiver applies,
    /// forwards to `rest[0]` (if any), and acks upstream only after its
    /// successor acks — the chain-replication ack rule.
    ChainPut {
        /// Request id (echoed in the ack).
        id: u64,
        /// Block key.
        key: String,
        /// Block contents.
        data: Vec<u8>,
        /// Client-computed checksum of `data`.
        checksum: u64,
        /// Originating client host id (dedup).
        client: u64,
        /// Per-client sequence number (dedup).
        seq: u64,
        /// Membership epoch the head forwarded under.
        epoch: u64,
        /// Chain members after the receiver (host ids).
        rest: Vec<u16>,
    },
    /// A delete forwarded down a replication chain.
    ChainDelete {
        /// Request id.
        id: u64,
        /// Block key.
        key: String,
        /// Originating client host id (dedup).
        client: u64,
        /// Per-client sequence number (dedup).
        seq: u64,
        /// Membership epoch the head forwarded under.
        epoch: u64,
        /// Chain members after the receiver (host ids).
        rest: Vec<u16>,
    },
    /// Pull every block of one shard (promoted/new chain member →
    /// surviving replica), so the chain regains full width after a
    /// failure.
    SyncShard {
        /// Request id.
        id: u64,
        /// Shard index in the fleet's shard map.
        shard: u32,
    },
}

/// A response from node to client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Block stored on every chain member.
    PutOk {
        /// Echoed request id.
        id: u64,
    },
    /// Block contents with stored checksum.
    GetOk {
        /// Echoed request id.
        id: u64,
        /// The block.
        data: Vec<u8>,
        /// Stored checksum.
        checksum: u64,
    },
    /// Key not present.
    NotFound {
        /// Echoed request id.
        id: u64,
    },
    /// Deletion done.
    DeleteOk {
        /// Echoed request id.
        id: u64,
    },
    /// The request was rejected (bad checksum, storage failure).
    Error {
        /// Echoed request id.
        id: u64,
        /// Why.
        reason: String,
    },
    /// The node cannot serve this request *right now* (mid-failover
    /// shard sync, or the key moved under a newer membership view).
    /// The client should refresh its view and retry — unlike `Error`,
    /// nothing is wrong with the request itself.
    Retry {
        /// Echoed request id.
        id: u64,
    },
    /// One shard's blocks (`key`, `data`, stored checksum), the answer
    /// to [`Request::SyncShard`].
    SyncBlocks {
        /// Echoed request id.
        id: u64,
        /// The shard's blocks.
        blocks: Vec<(String, Vec<u8>, u64)>,
    },
}

/// Computes the protocol checksum of a block.
pub fn block_checksum(data: &[u8]) -> u64 {
    checksum64(data)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_hosts(out: &mut Vec<u8>, hosts: &[u16]) {
    out.extend_from_slice(&(hosts.len() as u32).to_le_bytes());
    for h in hosts {
        out.extend_from_slice(&h.to_le_bytes());
    }
}

struct Reader<'a>(&'a [u8], usize);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() - self.1 < n {
            return None;
        }
        let s = &self.0[self.1..self.1 + n];
        self.1 += n;
        Some(s)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A chain-member list: bounded at 64 hosts (replication factors
    /// are single digits; anything bigger is malformed).
    fn hosts(&mut self) -> Option<Vec<u16>> {
        let n = self.u32()? as usize;
        if n > 64 {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(u16::from_le_bytes(self.take(2)?.try_into().ok()?));
        }
        Some(out)
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize;
        if len > (1 << 24) {
            return None;
        }
        Some(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    fn done(&self) -> bool {
        self.1 == self.0.len()
    }
}

impl Request {
    /// Serializes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Get { id, key } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(&mut out, key);
            }
            Request::ShardPut {
                id,
                key,
                data,
                checksum,
                client,
                seq,
            } => {
                out.push(5);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(&mut out, key);
                put_bytes(&mut out, data);
                out.extend_from_slice(&checksum.to_le_bytes());
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Request::ShardDelete { id, key, client, seq } => {
                out.push(6);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(&mut out, key);
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Request::ChainPut {
                id,
                key,
                data,
                checksum,
                client,
                seq,
                epoch,
                rest,
            } => {
                out.push(7);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(&mut out, key);
                put_bytes(&mut out, data);
                out.extend_from_slice(&checksum.to_le_bytes());
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                put_hosts(&mut out, rest);
            }
            Request::ChainDelete {
                id,
                key,
                client,
                seq,
                epoch,
                rest,
            } => {
                out.push(8);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(&mut out, key);
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                put_hosts(&mut out, rest);
            }
            Request::SyncShard { id, shard } => {
                out.push(9);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
            }
        }
        out
    }

    /// Parses a request; `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Request> {
        let mut r = Reader(bytes, 1);
        let req = match bytes.first()? {
            2 => Request::Get {
                id: r.u64()?,
                key: r.string()?,
            },
            5 => Request::ShardPut {
                id: r.u64()?,
                key: r.string()?,
                data: r.bytes()?,
                checksum: r.u64()?,
                client: r.u64()?,
                seq: r.u64()?,
            },
            6 => Request::ShardDelete {
                id: r.u64()?,
                key: r.string()?,
                client: r.u64()?,
                seq: r.u64()?,
            },
            7 => Request::ChainPut {
                id: r.u64()?,
                key: r.string()?,
                data: r.bytes()?,
                checksum: r.u64()?,
                client: r.u64()?,
                seq: r.u64()?,
                epoch: r.u64()?,
                rest: r.hosts()?,
            },
            8 => Request::ChainDelete {
                id: r.u64()?,
                key: r.string()?,
                client: r.u64()?,
                seq: r.u64()?,
                epoch: r.u64()?,
                rest: r.hosts()?,
            },
            9 => Request::SyncShard {
                id: r.u64()?,
                shard: r.u32()?,
            },
            _ => return None,
        };
        r.done().then_some(req)
    }

    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Get { id, .. }
            | Request::ShardPut { id, .. }
            | Request::ShardDelete { id, .. }
            | Request::ChainPut { id, .. }
            | Request::ChainDelete { id, .. }
            | Request::SyncShard { id, .. } => *id,
        }
    }
}

impl Response {
    /// Serializes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::PutOk { id } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Response::GetOk { id, data, checksum } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                put_bytes(&mut out, data);
                out.extend_from_slice(&checksum.to_le_bytes());
            }
            Response::NotFound { id } => {
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Response::DeleteOk { id } => {
                out.push(4);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Response::Error { id, reason } => {
                out.push(6);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(&mut out, reason);
            }
            Response::Retry { id } => {
                out.push(7);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Response::SyncBlocks { id, blocks } => {
                out.push(8);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                for (key, data, checksum) in blocks {
                    put_str(&mut out, key);
                    put_bytes(&mut out, data);
                    out.extend_from_slice(&checksum.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses a response; `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Response> {
        let mut r = Reader(bytes, 1);
        let resp = match bytes.first()? {
            1 => Response::PutOk { id: r.u64()? },
            2 => Response::GetOk {
                id: r.u64()?,
                data: r.bytes()?,
                checksum: r.u64()?,
            },
            3 => Response::NotFound { id: r.u64()? },
            4 => Response::DeleteOk { id: r.u64()? },
            6 => Response::Error {
                id: r.u64()?,
                reason: r.string()?,
            },
            7 => Response::Retry { id: r.u64()? },
            8 => {
                let id = r.u64()?;
                let n = u32::from_le_bytes(r.take(4)?.try_into().ok()?) as usize;
                if n > (1 << 16) {
                    return None;
                }
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push((r.string()?, r.bytes()?, r.u64()?));
                }
                Response::SyncBlocks { id, blocks }
            }
            _ => return None,
        };
        r.done().then_some(resp)
    }

    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::PutOk { id }
            | Response::GetOk { id, .. }
            | Response::NotFound { id }
            | Response::DeleteOk { id }
            | Response::Error { id, .. }
            | Response::Retry { id }
            | Response::SyncBlocks { id, .. } => *id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Get { id: 10, key: "k".into() },
            Request::ShardPut {
                id: 11,
                key: "obj".into(),
                data: vec![9; 32],
                checksum: block_checksum(&[9; 32]),
                client: 1003,
                seq: 42,
            },
            Request::ShardDelete {
                id: 12,
                key: "obj".into(),
                client: 1003,
                seq: 43,
            },
            Request::ChainPut {
                id: 13,
                key: "obj".into(),
                data: vec![7; 8],
                checksum: block_checksum(&[7; 8]),
                client: 1003,
                seq: 44,
                epoch: 2,
                rest: vec![4, 6],
            },
            Request::ChainDelete {
                id: 14,
                key: "obj".into(),
                client: 1003,
                seq: 45,
                epoch: 2,
                rest: vec![],
            },
            Request::SyncShard { id: 15, shard: 37 },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()), Some(r.clone()));
            assert!(r.id() >= 10);
            // Truncations never decode.
            let full = r.encode();
            for cut in 1..full.len() {
                assert_eq!(Request::decode(&full[..cut]), None, "{r:?} cut {cut}");
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::PutOk { id: 1 },
            Response::GetOk {
                id: 2,
                data: b"xyz".to_vec(),
                checksum: 99,
            },
            Response::NotFound { id: 3 },
            Response::DeleteOk { id: 4 },
            Response::Error {
                id: 6,
                reason: "bad checksum".into(),
            },
            Response::Retry { id: 21 },
            Response::SyncBlocks {
                id: 22,
                blocks: vec![
                    ("a".into(), vec![1, 2], block_checksum(&[1, 2])),
                    ("b".into(), vec![], block_checksum(&[])),
                ],
            },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()), Some(r.clone()));
        }
    }

    /// Request and response tags overlap (2, 6, 7 and 8 are both), and
    /// a fleet node receives both kinds on one peer session. It tries
    /// `Response::decode` only on a message whose id it awaits a
    /// response for, and a response it acts on is consumed. That never
    /// swallows a request, because no request encoding parses as a
    /// response: swept here over every variant with empty, short and
    /// long keys and data, chain lengths up to the decoder's bound, and
    /// edge-value ids, clients and sequence numbers.
    #[test]
    fn no_request_parses_as_a_response() {
        let keys = ["", "k", "ab", "abc", "abcd", "ycsb-123", "\u{0}\u{0}\u{0}"];
        let datas = [vec![], vec![0], vec![0; 3], vec![0xff; 8], vec![7; 1024]];
        let numbers = [0u64, 1, 3, 1003, 1 << 32, (1 << 63) | (5 << 32), u64::MAX];
        let rests = [vec![], vec![0], vec![1, 2], vec![0; 3], vec![0; 64]];
        let mut reqs = Vec::new();
        for &n in &numbers {
            reqs.push(Request::SyncShard { id: n, shard: n as u32 });
            for key in keys {
                let key = key.to_string();
                reqs.push(Request::Get { id: n, key: key.clone() });
                reqs.push(Request::ShardDelete { id: n, key: key.clone(), client: n, seq: n });
                for rest in &rests {
                    reqs.push(Request::ChainDelete {
                        id: n,
                        key: key.clone(),
                        client: n,
                        seq: 0,
                        epoch: n,
                        rest: rest.clone(),
                    });
                }
                for data in &datas {
                    let checksum = block_checksum(data);
                    reqs.push(Request::ShardPut {
                        id: n,
                        key: key.clone(),
                        data: data.clone(),
                        checksum,
                        client: n,
                        seq: n,
                    });
                    reqs.push(Request::ChainPut {
                        id: n,
                        key: key.clone(),
                        data: data.clone(),
                        checksum,
                        client: 0,
                        seq: n,
                        epoch: 1,
                        rest: vec![n as u16],
                    });
                }
            }
        }
        for r in reqs {
            assert_eq!(Response::decode(&r.encode()), None, "{r:?}");
        }
    }

    #[test]
    fn malformed_input_rejected_not_panicking() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[99, 0, 0]), None);
        assert_eq!(Response::decode(&[2, 1]), None);
    }

    /// Well-formed messages of the retired standalone protocol (request
    /// tags 1 `Put`, 3 `Delete`, 4 `List`; response tag 5 `Keys`) take
    /// the malformed-input path.
    #[test]
    fn retired_tags_do_not_decode() {
        let id = 7u64.to_le_bytes();
        let mut put = vec![1];
        put.extend_from_slice(&id);
        put_str(&mut put, "k");
        put_bytes(&mut put, &[1, 2, 3]);
        put.extend_from_slice(&block_checksum(&[1, 2, 3]).to_le_bytes());
        put.push(1);
        let mut delete = vec![3];
        delete.extend_from_slice(&id);
        put_str(&mut delete, "k");
        delete.push(1);
        let mut list = vec![4];
        list.extend_from_slice(&id);
        for legacy in [put, delete, list] {
            assert_eq!(Request::decode(&legacy), None, "tag {}", legacy[0]);
        }
        let mut keys = vec![5];
        keys.extend_from_slice(&id);
        keys.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut keys, "k");
        assert_eq!(Response::decode(&keys), None);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Request::Get { id: 3, key: "k".into() }.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), None);
    }

    #[test]
    fn oversized_chain_rejected() {
        let mut bytes = Request::ChainDelete {
            id: 1,
            key: "k".into(),
            client: 1,
            seq: 1,
            epoch: 1,
            rest: vec![0; 64],
        }
        .encode();
        assert!(Request::decode(&bytes).is_some());
        // Patch the host count to 65: over the bound, rejected.
        let count_at = bytes.len() - 64 * 2 - 4;
        bytes[count_at..count_at + 4].copy_from_slice(&65u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(Request::decode(&bytes), None);
    }
}
