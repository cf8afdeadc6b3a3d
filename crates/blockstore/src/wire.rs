//! The block-store protocol.
//!
//! Length-free tagged encoding (the transport delivers whole messages),
//! written and read with [`veros_spec::wire`], the codec the
//! marshalling obligation checks. Every message round-trips; corrupted
//! tags decode to `None` rather than panicking. Data integrity is
//! end-to-end: `ShardPut` carries the client-computed checksum, every
//! chain member verifies it before storing, and `GetOk` carries the
//! stored checksum, which the client verifies before it accepts the
//! data. The checksum is [`veros_spec::checksum::checksum64`]: any
//! change confined to one aligned 8-byte word of a block is always
//! caught.
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
use veros_spec::wire::{field_len, Reader, WireError, Writer};

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

/// Longest chain-member list a message carries (replication factors
/// are single digits; anything bigger is malformed).
const MAX_HOSTS: usize = 64;

/// Most blocks one `SyncBlocks` carries.
const MAX_SYNC_BLOCKS: usize = 1 << 16;

/// The fewest bytes one `SyncBlocks` entry encodes to: an empty key and
/// an empty block (two length prefixes) and the checksum.
const MIN_SYNC_BLOCK: usize = field_len(0) + field_len(0) + 8;

/// Encodes a message: one allocation of exactly its encoded size, the
/// tag and the id (every message leads with both), then `body` more
/// bytes written by `fill`.
fn message(tag: u8, id: u64, body: usize, fill: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + body);
    fill(Writer::new(&mut out).u8(tag).u64(id));
    out
}

/// Encoded body size of a `ShardPut` of a `key`-byte key and a
/// `data`-byte block.
const fn shard_put_body(key: usize, data: usize) -> usize {
    field_len(key) + field_len(data) + 3 * 8
}

/// Encoded body size of a `ChainPut` of a `key`-byte key and a
/// `data`-byte block naming `rest` chain members: a `ShardPut`'s, the
/// epoch and the member list.
const fn chain_put_body(key: usize, data: usize, rest: usize) -> usize {
    shard_put_body(key, data) + 8 + field_len(2 * rest)
}

/// Encoded size of the largest message a put of a `key`-byte key and a
/// `data`-byte block becomes on a chain of `chain` members: its
/// `ShardPut` on a chain of one, else the `ChainPut` the head forwards,
/// which names the `chain - 2` members after its receiver.
pub const fn largest_put_message(key: usize, data: usize, chain: usize) -> usize {
    let body = if chain < 2 {
        shard_put_body(key, data)
    } else {
        chain_put_body(key, data, chain - 2)
    };
    1 + 8 + body
}

/// Encoded size of a chain-member list: a count, then two bytes a host.
fn hosts_len(hosts: &[u16]) -> usize {
    field_len(2 * hosts.len())
}

/// The request id of an encoded request or response (every message
/// leads with its tag and id), read without decoding the rest.
pub fn peek_id(bytes: &[u8]) -> Option<u64> {
    let mut r = Reader::new(bytes);
    r.u8().ok()?;
    r.u64().ok()
}

/// Decodes a whole message with `read`, which returns `None` for an
/// unknown tag; `None` as well if `read` fails or bytes remain.
fn decode_whole<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<Option<T>, WireError>,
) -> Option<T> {
    let mut r = Reader::new(bytes);
    let msg = read(&mut r).ok()??;
    r.finish().ok()?;
    Some(msg)
}

impl Request {
    /// Serializes the request into one exact-size allocation.
    pub fn encode(&self) -> Vec<u8> {
        let out = match self {
            Request::Get { id, key } => message(2, *id, field_len(key.len()), |w| {
                w.str(key);
            }),
            Request::ShardPut {
                id,
                key,
                data,
                checksum,
                client,
                seq,
            } => message(5, *id, shard_put_body(key.len(), data.len()), |w| {
                w.str(key).bytes(data).u64(*checksum).u64(*client).u64(*seq);
            }),
            Request::ShardDelete { id, key, client, seq } => {
                message(6, *id, field_len(key.len()) + 2 * 8, |w| {
                    w.str(key).u64(*client).u64(*seq);
                })
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
                message(7, *id, chain_put_body(key.len(), data.len(), rest.len()), |w| {
                    w.str(key).bytes(data).u64(*checksum).u64(*client).u64(*seq);
                    w.u64(*epoch).u16s(rest);
                })
            }
            Request::ChainDelete {
                id,
                key,
                client,
                seq,
                epoch,
                rest,
            } => message(8, *id, field_len(key.len()) + 3 * 8 + hosts_len(rest), |w| {
                w.str(key).u64(*client).u64(*seq).u64(*epoch).u16s(rest);
            }),
            Request::SyncShard { id, shard } => message(9, *id, 4, |w| {
                w.u32(*shard);
            }),
        };
        debug_assert_eq!(out.len(), out.capacity(), "miscounted {self:?}");
        out
    }

    /// Parses a request; `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Request> {
        decode_whole(bytes, |r| {
            Ok(Some(match r.u8()? {
                2 => Request::Get {
                    id: r.u64()?,
                    key: r.str()?,
                },
                5 => Request::ShardPut {
                    id: r.u64()?,
                    key: r.str()?,
                    data: r.bytes()?,
                    checksum: r.u64()?,
                    client: r.u64()?,
                    seq: r.u64()?,
                },
                6 => Request::ShardDelete {
                    id: r.u64()?,
                    key: r.str()?,
                    client: r.u64()?,
                    seq: r.u64()?,
                },
                7 => Request::ChainPut {
                    id: r.u64()?,
                    key: r.str()?,
                    data: r.bytes()?,
                    checksum: r.u64()?,
                    client: r.u64()?,
                    seq: r.u64()?,
                    epoch: r.u64()?,
                    rest: r.u16s(MAX_HOSTS)?,
                },
                8 => Request::ChainDelete {
                    id: r.u64()?,
                    key: r.str()?,
                    client: r.u64()?,
                    seq: r.u64()?,
                    epoch: r.u64()?,
                    rest: r.u16s(MAX_HOSTS)?,
                },
                9 => Request::SyncShard {
                    id: r.u64()?,
                    shard: r.u32()?,
                },
                _ => return Ok(None),
            }))
        })
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
            Response::PutOk { id } => message(1, *id, 0, |_| ()),
            Response::GetOk { id, data, checksum } => {
                let Ok(out) = Response::encode_get_ok(*id, data.len(), |slot| {
                    slot.copy_from_slice(data);
                    Ok::<_, Infallible>(*checksum)
                });
                out
            }
            Response::NotFound { id } => message(3, *id, 0, |_| ()),
            Response::DeleteOk { id } => message(4, *id, 0, |_| ()),
            Response::Error { id, reason } => message(6, *id, field_len(reason.len()), |w| {
                w.str(reason);
            }),
            Response::Retry { id } => message(7, *id, 0, |_| ()),
            Response::SyncBlocks { id, blocks } => {
                let body: usize = blocks
                    .iter()
                    .map(|(key, data, _)| field_len(key.len()) + field_len(data.len()) + 8)
                    .sum();
                message(8, *id, 4 + body, |w| {
                    w.u32(blocks.len() as u32);
                    for (key, data, checksum) in blocks {
                        w.str(key).bytes(data).u64(*checksum);
                    }
                })
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
        // Length-prefixed block, then checksum.
        let mut out = Vec::with_capacity(1 + 8 + field_len(len) + 8);
        let mut w = Writer::new(&mut out);
        let checksum = fill(w.u8(2).u64(id).bytes_slot(len))?;
        w.u64(checksum);
        Ok(out)
    }

    /// Parses a response; `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Response> {
        decode_whole(bytes, |r| {
            Ok(Some(match r.u8()? {
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
                    reason: r.str()?,
                },
                7 => Response::Retry { id: r.u64()? },
                8 => {
                    let id = r.u64()?;
                    let n = r.u32()? as usize;
                    if n > MAX_SYNC_BLOCKS {
                        return Err(WireError::LengthOverflow);
                    }
                    // Reserve only what the rest of the message can hold.
                    let mut blocks = Vec::with_capacity(n.min(r.remaining() / MIN_SYNC_BLOCK));
                    for _ in 0..n {
                        blocks.push((r.str()?, r.bytes()?, r.u64()?));
                    }
                    Response::SyncBlocks { id, blocks }
                }
                _ => return Ok(None),
            }))
        })
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

    /// One request of every variant.
    fn requests() -> [Request; 6] {
        [
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
        ]
    }

    /// One response of every variant.
    fn responses() -> [Response; 7] {
        [
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
        ]
    }

    #[test]
    fn largest_put_message_is_what_a_put_encodes_to() {
        let [_, shard_put, _, chain_put, ..] = requests();
        assert_eq!(largest_put_message(3, 32, 1), shard_put.encode().len());
        // The forward to the second of four members names two more.
        assert_eq!(largest_put_message(3, 8, 4), chain_put.encode().len());
    }

    #[test]
    fn peek_id_reads_every_message_id() {
        for r in requests() {
            assert_eq!(peek_id(&r.encode()), Some(r.id()), "{r:?}");
        }
        for r in responses() {
            assert_eq!(peek_id(&r.encode()), Some(r.id()), "{r:?}");
        }
        assert_eq!(peek_id(&[2, 1, 0, 0, 0, 0, 0, 0]), None, "an id one byte short");
    }

    #[test]
    fn requests_round_trip() {
        for r in requests() {
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
        for r in responses() {
            let full = r.encode();
            assert_eq!(full.capacity(), full.len(), "{r:?} is one exact-size allocation");
            assert_eq!(Response::decode(&full), Some(r.clone()));
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
        for r in requests() {
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
        let mut put = Vec::new();
        Writer::new(&mut put).u8(1).u64(7).str("k").bytes(&[1, 2, 3]);
        Writer::new(&mut put).u64(block_checksum(&[1, 2, 3])).u8(1);
        let mut delete = Vec::new();
        Writer::new(&mut delete).u8(3).u64(7).str("k").u8(1);
        let mut list = Vec::new();
        Writer::new(&mut list).u8(4).u64(7);
        for legacy in [put, delete, list] {
            assert_eq!(Request::decode(&legacy), None, "tag {}", legacy[0]);
        }
        let mut keys = Vec::new();
        Writer::new(&mut keys).u8(5).u64(7).u32(1).str("k");
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
