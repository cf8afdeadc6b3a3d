//! The block-store protocol.
//!
//! Length-free tagged encoding (the transport delivers whole messages),
//! declared as two [`veros_spec::wire_messages!`] tables, one for
//! requests and one for responses: each row is a message's variant, its
//! tag and its fields in wire order, and the table generates the enum,
//! the exact `encoded_len`, `encode` and `decode`, the id accessors
//! (every message leads with its tag and id; `peek_id` reads the id
//! without decoding the rest), and the samples and random draws the
//! tests and the marshalling obligation check. Every message
//! round-trips; corrupted tags decode to `None` rather than panicking.
//! Data integrity is end-to-end: `ShardPut` carries the
//! client-computed checksum, every chain member verifies it before
//! storing, and `GetOk` carries the stored checksum, which the client
//! verifies before it accepts the data. The checksum is
//! [`veros_spec::checksum::checksum64`]: any change confined to one
//! aligned 8-byte word of a block is always caught.
//!
//! Every message is one allocation: `encode` adds up the message's
//! encoded size first and allocates exactly that, so no message grows
//! by doubling on its way out. A `GetOk` read from a file has a second
//! writer, [`Response::encode_get_ok`], which lets the store read the
//! block straight into its slot of the reply; a test ties its bytes to
//! the table's.
//!
//! Decoding is borrowed first. Each table's one decoder is its borrowed
//! twin's `decode_ref` ([`RequestRef`], [`ResponseRef`]): a key is
//! validated in place, a block is a slice of the message and a list a
//! validated run of it, so a decode allocates nothing. An owned
//! `decode` is that decode followed by `to_owned`, which copies only a
//! message that parsed whole; so no decode reserves more than the input
//! holds. A node serves a `Get` from the borrowed request, and a client
//! keeps a delivered `GetOk`'s block in the message's own buffer
//! ([`Response::get_ok_in`]).
//!
//! Tags are stable wire bytes. Request tags 1, 3 and 4 and response
//! tag 5 belonged to the retired standalone protocol and stay
//! unassigned: no row declares them, so they decode to `None` like any
//! other unknown tag.

use veros_spec::checksum::checksum64;
use veros_spec::wire::{field_len, Field, Writer};

veros_spec::wire_messages! {
    /// A request from client to node, or from a chain member to its
    /// successor.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Request {
        /// A [`Request`] whose key, block and chain are borrowed.
        borrowed RequestRef<'a>
        header {
            /// Request id (echoed in the response).
            id: u64
        }
        /// Fetch a block.
        Get = 2 {
            /// Block key.
            key: String,
        },
        /// Store a block in a sharded fleet (client → chain head).
        /// Carries the client's identity and per-client sequence number
        /// so every chain node can deduplicate retries — exactly-once
        /// across failover.
        ShardPut = 5 {
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
        ShardDelete = 6 {
            /// Block key.
            key: String,
            /// Issuing client host id.
            client: u64,
            /// Per-client write sequence number (dedup key).
            seq: u64,
        },
        /// A put forwarded down a replication chain (node → successor).
        /// `rest` is the chain after the receiver; the receiver applies,
        /// forwards to `rest[0]` (if any), and acks upstream only after
        /// its successor acks — the chain-replication ack rule.
        ChainPut = 7 {
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
            rest: Vec<u16> [max MAX_HOSTS],
        },
        /// A delete forwarded down a replication chain.
        ChainDelete = 8 {
            /// Block key.
            key: String,
            /// Originating client host id (dedup).
            client: u64,
            /// Per-client sequence number (dedup).
            seq: u64,
            /// Membership epoch the head forwarded under.
            epoch: u64,
            /// Chain members after the receiver (host ids).
            rest: Vec<u16> [max MAX_HOSTS],
        },
        /// Pull every block of one shard (promoted/new chain member →
        /// surviving replica), so the chain regains full width after a
        /// failure.
        SyncShard = 9 {
            /// Shard index in the fleet's shard map.
            shard: u32,
        },
    }
}

veros_spec::wire_messages! {
    /// A response from node to client.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Response {
        /// A [`Response`] whose block, reason and blocks are borrowed.
        borrowed ResponseRef<'a>
        header {
            /// Echoed request id.
            id: u64
        }
        /// Block stored on every chain member.
        PutOk = 1 {},
        /// Block contents with stored checksum.
        GetOk = 2 {
            /// The block.
            data: Vec<u8>,
            /// Stored checksum.
            checksum: u64,
        },
        /// Key not present.
        NotFound = 3 {},
        /// Deletion done.
        DeleteOk = 4 {},
        /// The request was rejected (bad checksum, storage failure).
        Error = 6 {
            /// Why.
            reason: String,
        },
        /// The node cannot serve this request *right now* (mid-failover
        /// shard sync, or the key moved under a newer membership view).
        /// The client should refresh its view and retry — unlike
        /// `Error`, nothing is wrong with the request itself.
        Retry = 7 {},
        /// One shard's blocks (`key`, `data`, stored checksum), the
        /// answer to [`Request::SyncShard`].
        SyncBlocks = 8 {
            /// The shard's blocks, at most 65 536.
            blocks: Vec<(String, Vec<u8>, u64)> [max 1 << 16],
        },
    }
}

/// Computes the protocol checksum of a block.
pub fn block_checksum(data: &[u8]) -> u64 {
    checksum64(data)
}

/// Longest chain-member list a message carries (replication factors
/// are single digits; anything bigger is malformed).
const MAX_HOSTS: usize = 64;

/// Encoded size of the largest message a put of a `key`-byte key and a
/// `data`-byte block becomes on a chain of `chain` members: its
/// `ShardPut` on a chain of one, else the `ChainPut` the head forwards,
/// which names the `chain - 2` members after its receiver. Measured on
/// the table's own `encoded_len` of the message with an empty key,
/// block and member list, none of which allocates.
pub fn largest_put_message(key: usize, data: usize, chain: usize) -> usize {
    let (id, checksum, client, seq, epoch) = (0, 0, 0, 0, 0);
    let (k, d) = (String::new(), Vec::new());
    let empty = if chain < 2 {
        Request::ShardPut { id, key: k, data: d, checksum, client, seq }
    } else {
        Request::ChainPut { id, key: k, data: d, checksum, client, seq, epoch, rest: Vec::new() }
    };
    empty.encoded_len() + key + data + chain.saturating_sub(2) * <u16 as Field>::MIN_LEN
}

impl Response {
    /// Writes a `GetOk` answering request `id` with a `len`-byte block,
    /// the bytes [`Response::encode`] gives a `GetOk`, for a block still
    /// in a file ([`crate::BlockStore::get_reply`]): `fill` writes the
    /// block into its slot of the message and returns the checksum to
    /// send; the message is one exact-size allocation, and `fill`'s
    /// error aborts it.
    pub fn encode_get_ok<E>(
        id: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<u64, E>,
    ) -> Result<Vec<u8>, E> {
        // Tag, id, length-prefixed block, then checksum.
        let mut out = Vec::with_capacity(1 + 8 + field_len(len) + 8);
        let mut w = Writer::new(&mut out);
        let checksum = fill(w.u8(2).u64(id).bytes_slot(len))?;
        w.u64(checksum);
        Ok(out)
    }

    /// The `GetOk { id, data, checksum }` that `msg` encodes, its block
    /// kept in `msg`'s own buffer: the tag, id and length before the
    /// block and the checksum after it are cut off in place, so taking
    /// the block out of a delivered reply copies and allocates nothing.
    /// `msg` must be such a `GetOk`, as [`ResponseRef::decode_ref`]
    /// parsed it.
    pub fn get_ok_in(mut msg: Vec<u8>, id: u64, checksum: u64) -> Response {
        // Tag and id, then the block's length prefix; the checksum last.
        const HEAD: usize = 1 + 8 + 4;
        msg.truncate(msg.len().saturating_sub(8));
        msg.drain(..HEAD.min(msg.len()));
        Response::GetOk { id, data: msg, checksum }
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use super::*;
    use veros_spec::rng::SpecRng;

    #[test]
    fn largest_put_message_is_what_a_put_encodes_to() {
        for r in Request::samples() {
            let (key, data, chain) = match &r {
                Request::ShardPut { key, data, .. } => (key, data, 1),
                // The forward to a chain's second member names the rest.
                Request::ChainPut { key, data, rest, .. } => (key, data, rest.len() + 2),
                _ => continue,
            };
            assert_eq!(largest_put_message(key.len(), data.len(), chain), r.encode().len(), "{r:?}");
        }
    }

    /// Every sample and 256 random draws of each table round-trip in
    /// one exact-size allocation; no truncation (the empty input
    /// included) and no encoding with a trailing byte decodes — the
    /// latter is what keeps a response parse from reading a prefix of
    /// a request. Requests and responses share the header, so one
    /// `peek_id` reads the id of either kind.
    #[test]
    fn messages_round_trip() {
        let mut rng = SpecRng::seeded(21);
        let drawn: Vec<Request> = (0..256).map(|_| Request::arbitrary(&mut rng)).collect();
        for r in Request::samples().into_iter().chain(drawn) {
            let mut full = r.encode();
            assert_eq!((full.capacity(), Request::decode(&full)), (full.len(), Some(r.clone())));
            assert_eq!(Request::peek_id(&full), Some(r.id()));
            assert!((0..full.len()).all(|cut| Request::decode(&full[..cut]).is_none()), "{r:?}");
            full.push(0);
            assert_eq!(Request::decode(&full), None, "{r:?} with a trailing byte");
        }
        let drawn: Vec<Response> = (0..256).map(|_| Response::arbitrary(&mut rng)).collect();
        for r in Response::samples().into_iter().chain(drawn) {
            let mut full = r.encode();
            assert_eq!((full.capacity(), Response::decode(&full)), (full.len(), Some(r.clone())));
            assert_eq!(Request::peek_id(&full), Some(r.id()));
            assert!((0..full.len()).all(|cut| Response::decode(&full[..cut]).is_none()), "{r:?}");
            full.push(0);
            assert_eq!(Response::decode(&full), None, "{r:?} with a trailing byte");
        }
        assert_eq!(Request::peek_id(&[2, 1, 0, 0, 0, 0, 0, 0]), None, "an id one byte short");
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

    /// The store's in-place writer and the table write the same `GetOk`.
    #[test]
    fn encode_get_ok_writes_the_tables_get_ok() {
        let samples = Response::samples();
        for r in &samples {
            let Response::GetOk { id, data, checksum } = r else {
                continue;
            };
            let Ok(bytes) = Response::encode_get_ok(*id, data.len(), |slot| {
                slot.copy_from_slice(data);
                Ok::<_, Infallible>(*checksum)
            });
            assert_eq!((bytes.capacity(), &bytes), (bytes.len(), &r.encode()), "{r:?}");
        }
        assert!(samples.iter().filter(|r| matches!(r, Response::GetOk { .. })).count() > 1);
    }

    /// A delivered `GetOk` gives up its block in the buffer it came in.
    #[test]
    fn get_ok_in_keeps_the_block_where_it_arrived() {
        for r in Response::samples() {
            let Response::GetOk { id, checksum, .. } = r else {
                continue;
            };
            let msg = r.encode();
            let (at, capacity) = (msg.as_ptr(), msg.capacity());
            let kept = Response::get_ok_in(msg, id, checksum);
            let Response::GetOk { data, .. } = &kept else {
                unreachable!("get_ok_in builds a GetOk");
            };
            assert_eq!((data.as_ptr(), data.capacity()), (at, capacity), "{r:?}");
            assert_eq!(kept, r);
        }
    }

    /// `r` with its key, block and chain (those of them it has) swapped
    /// for the given edges.
    fn with_edges(mut r: Request, k: &str, d: &[u8], h: &[u16]) -> Request {
        match &mut r {
            Request::Get { key, .. } | Request::ShardDelete { key, .. } => *key = k.into(),
            Request::ShardPut { key, data, .. } => (*key, *data) = (k.into(), d.to_vec()),
            Request::ChainPut { key, data, rest, .. } => {
                (*key, *data, *rest) = (k.into(), d.to_vec(), h.to_vec());
            }
            Request::ChainDelete { key, rest, .. } => (*key, *rest) = (k.into(), h.to_vec()),
            _ => {}
        }
        r
    }

    /// Request and response tags overlap (2, 6, 7 and 8 are both), and
    /// a fleet node receives both kinds on one peer session. It tries
    /// `Response::decode` only on a message whose id it awaits a
    /// response for, and a response it acts on is consumed. That never
    /// swallows a request, because no request encoding parses as a
    /// response: swept here over every request sample (edge-value ids,
    /// clients, sequence numbers and shards) crossed with every key,
    /// block and chain edge — empty, short and long keys and blocks,
    /// and chains up to the decoder's bound.
    #[test]
    fn no_request_parses_as_a_response() {
        let keys = String::edges(usize::MAX);
        let datas = Vec::<u8>::edges(usize::MAX);
        let chains = Vec::<u16>::edges(MAX_HOSTS);
        assert!(chains.iter().any(|c| c.len() == MAX_HOSTS), "a chain at the bound");
        let mut swept = 0;
        for r in Request::samples() {
            for key in &keys {
                for data in &datas {
                    for chain in &chains {
                        let r = with_edges(r.clone(), key, data, chain);
                        assert_eq!(Response::decode(&r.encode()), None, "{r:?}");
                        swept += 1;
                    }
                }
            }
        }
        assert!(swept > 5_000, "{swept} requests swept");
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
