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
//! Every message is one allocation: `encode` adds up the message's
//! encoded size first and allocates exactly that, so no message grows
//! by doubling on its way out. A `GetOk` read from a file is no
//! exception: [`Response::encode_get_ok`], which `encode` also uses,
//! lets the store read the block straight into its slot of the reply.
//! Decoding never reserves more than the input can hold.
//!
//! Tags are stable wire bytes. Request tags 1, 3 and 4 and response
//! tag 5 belonged to the retired standalone protocol and stay
//! unassigned: they decode to `None` like any other unknown tag.

use std::convert::Infallible;

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

/// Starts a message: one allocation of exactly its encoded size, the
/// tag and the id (every message leads with both) already written, and
/// `body` more bytes to come.
fn message(tag: u8, id: u64, body: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + body);
    out.push(tag);
    out.extend_from_slice(&id.to_le_bytes());
    out
}

/// Encoded size of a length-prefixed string or byte run.
fn run_len(b: &[u8]) -> usize {
    4 + b.len()
}

/// Encoded size of a chain-member list.
fn hosts_len(hosts: &[u16]) -> usize {
    4 + 2 * hosts.len()
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

/// The fewest bytes one `SyncBlocks` entry encodes to: an empty key and
/// an empty block (two length prefixes) and the checksum.
const MIN_SYNC_BLOCK: usize = 4 + 4 + 8;

struct Reader<'a>(&'a [u8], usize);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
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

    fn remaining(&self) -> usize {
        self.0.len() - self.1
    }

    fn done(&self) -> bool {
        self.1 == self.0.len()
    }
}

impl Request {
    /// Serializes the request into one exact-size allocation.
    pub fn encode(&self) -> Vec<u8> {
        let out = match self {
            Request::Get { id, key } => {
                let mut out = message(2, *id, run_len(key.as_bytes()));
                put_str(&mut out, key);
                out
            }
            Request::ShardPut {
                id,
                key,
                data,
                checksum,
                client,
                seq,
            } => {
                let mut out = message(5, *id, run_len(key.as_bytes()) + run_len(data) + 3 * 8);
                put_str(&mut out, key);
                put_bytes(&mut out, data);
                out.extend_from_slice(&checksum.to_le_bytes());
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out
            }
            Request::ShardDelete { id, key, client, seq } => {
                let mut out = message(6, *id, run_len(key.as_bytes()) + 2 * 8);
                put_str(&mut out, key);
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out
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
                let body = run_len(key.as_bytes()) + run_len(data) + 4 * 8 + hosts_len(rest);
                let mut out = message(7, *id, body);
                put_str(&mut out, key);
                put_bytes(&mut out, data);
                out.extend_from_slice(&checksum.to_le_bytes());
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                put_hosts(&mut out, rest);
                out
            }
            Request::ChainDelete {
                id,
                key,
                client,
                seq,
                epoch,
                rest,
            } => {
                let mut out = message(8, *id, run_len(key.as_bytes()) + 3 * 8 + hosts_len(rest));
                put_str(&mut out, key);
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                put_hosts(&mut out, rest);
                out
            }
            Request::SyncShard { id, shard } => {
                let mut out = message(9, *id, 4);
                out.extend_from_slice(&shard.to_le_bytes());
                out
            }
        };
        debug_assert_eq!(out.len(), out.capacity(), "miscounted {self:?}");
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

    /// Restamps the request id (a client's next attempt at the same op).
    pub fn set_id(&mut self, new: u64) {
        match self {
            Request::Get { id, .. }
            | Request::ShardPut { id, .. }
            | Request::ShardDelete { id, .. }
            | Request::ChainPut { id, .. }
            | Request::ChainDelete { id, .. }
            | Request::SyncShard { id, .. } => *id = new,
        }
    }
}

impl Response {
    /// Serializes the response into one exact-size allocation.
    pub fn encode(&self) -> Vec<u8> {
        let out = match self {
            Response::PutOk { id } => message(1, *id, 0),
            Response::GetOk { id, data, checksum } => {
                let Ok(out) = Response::encode_get_ok(*id, data.len(), |slot| {
                    slot.copy_from_slice(data);
                    Ok::<_, Infallible>(*checksum)
                });
                out
            }
            Response::NotFound { id } => message(3, *id, 0),
            Response::DeleteOk { id } => message(4, *id, 0),
            Response::Error { id, reason } => {
                let mut out = message(6, *id, run_len(reason.as_bytes()));
                put_str(&mut out, reason);
                out
            }
            Response::Retry { id } => message(7, *id, 0),
            Response::SyncBlocks { id, blocks } => {
                let body: usize = blocks
                    .iter()
                    .map(|(key, data, _)| run_len(key.as_bytes()) + run_len(data) + 8)
                    .sum();
                let mut out = message(8, *id, 4 + body);
                out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                for (key, data, checksum) in blocks {
                    put_str(&mut out, key);
                    put_bytes(&mut out, data);
                    out.extend_from_slice(&checksum.to_le_bytes());
                }
                out
            }
        };
        debug_assert_eq!(out.len(), out.capacity(), "miscounted {self:?}");
        out
    }

    /// Writes a `GetOk` answering request `id` with a `len`-byte block:
    /// the one writer of `GetOk` bytes, whether the block is in memory
    /// ([`Response::encode`]) or still in a file
    /// ([`crate::BlockStore::get_reply`]). `fill` writes the block into
    /// its slot of the message and returns the checksum to send; the
    /// message is one exact-size allocation, and `fill`'s error aborts
    /// it.
    pub fn encode_get_ok<E>(
        id: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<u64, E>,
    ) -> Result<Vec<u8>, E> {
        // Length prefix, block, checksum.
        let mut out = message(2, id, 4 + len + 8);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        let start = out.len();
        out.resize(start + len, 0);
        let checksum = fill(&mut out[start..])?;
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
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
                // Reserve only what the rest of the message can hold:
                // a block takes at least its two length prefixes and
                // its checksum.
                let mut blocks = Vec::with_capacity(n.min(r.remaining() / MIN_SYNC_BLOCK));
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
        // The bytes themselves: an encoder that changed the format in
        // step with its decoder would still round-trip.
        let put = Request::ShardPut {
            id: 11,
            key: "ab".into(),
            data: vec![9; 3],
            checksum: 0x0807_0605_0403_0201,
            client: 1003,
            seq: 42,
        };
        #[rustfmt::skip]
        let golden = [
            5,                       // tag
            11, 0, 0, 0, 0, 0, 0, 0, // id
            2, 0, 0, 0, b'a', b'b',  // key
            3, 0, 0, 0, 9, 9, 9,     // block
            1, 2, 3, 4, 5, 6, 7, 8,  // checksum
            0xeb, 3, 0, 0, 0, 0, 0, 0, // client (1003)
            42, 0, 0, 0, 0, 0, 0, 0, // seq
        ];
        assert_eq!(put.encode(), golden);
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()), Some(r.clone()));
            assert!(r.id() >= 10);
            // Truncations never decode.
            let full = r.encode();
            assert_eq!(full.capacity(), full.len(), "{r:?} is one exact-size allocation");
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
            let full = r.encode();
            assert_eq!(full.capacity(), full.len(), "{r:?} is one exact-size allocation");
            assert_eq!(Response::decode(&full), Some(r.clone()));
        }
        // The bytes themselves: an encoder that changed the format in
        // step with its decoder would still round-trip.
        let get_ok = Response::GetOk { id: 2, data: b"xyz".to_vec(), checksum: 99 };
        #[rustfmt::skip]
        let golden = [
            2,                      // tag
            2, 0, 0, 0, 0, 0, 0, 0, // id
            3, 0, 0, 0,             // block length
            b'x', b'y', b'z',       // block
            99, 0, 0, 0, 0, 0, 0, 0, // checksum
        ];
        assert_eq!(get_ok.encode(), golden);
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
        // A `SyncBlocks` header claiming the most blocks the decoder
        // takes, with none behind it.
        let mut header = vec![8];
        header.extend_from_slice(&7u64.to_le_bytes());
        header.extend_from_slice(&(1u32 << 16).to_le_bytes());
        assert_eq!(Response::decode(&header), None);
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
