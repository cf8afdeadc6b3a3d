//! Decoding hostile input allocates no more than a small multiple of
//! its length, and decoding it borrowed allocates nothing at all —
//! asserted on exact allocation counts, for every sample of every
//! message table (blockstore requests and responses, journal
//! operations), so a new row is covered the moment it is declared.
//!
//! The inputs are each sample's truncations and its single-byte
//! corruptions (each byte XORed with `0x01`, `0x80` and `0xff`, which
//! turn a small length or count into a huge one). The table's one
//! decoder borrows: it validates a string in place and a list item by
//! item, and copies nothing. The owned decode copies fields out only
//! once the whole message has parsed, so what it allocates is bounded by
//! the input, not by what a prefix claims. Its own test binary with a
//! single `#[test]`: see `counting_alloc`.

mod counting_alloc;

use std::hint::black_box;

use counting_alloc::{allocated_by, Allocated};
use veros_blockstore::wire::{RequestRef, ResponseRef};
use veros_blockstore::{Request, Response};
use veros_fs::journal::FsOpRef;
use veros_fs::FsOp;

/// Bytes a decode may allocate per input byte. A `SyncBlocks` entry is
/// at least 16 bytes on the wire and 56 in memory (two heap handles and
/// a checksum), so its list reserves at most 3.5 bytes an input byte;
/// the strings and blocks it then copies add at most one more.
const BYTES_PER_INPUT_BYTE: u64 = 5;

/// One table's codec, owned and borrowed.
struct Table<M> {
    samples: Vec<M>,
    encode: fn(&M) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<M>,
    /// The borrowed decode, which borrows from its input: whether it
    /// parsed.
    parses_borrowed: fn(&[u8]) -> bool,
}

/// Decodes every truncation and corruption of every encoding in the
/// table's samples, owned and borrowed, checking what each decode
/// allocated.
fn check_table<M>(table: Table<M>) {
    let check = |input: &[u8]| {
        let mut out = None;
        let cost = allocated_by(|| out = (table.decode)(input));
        let allowed = BYTES_PER_INPUT_BYTE * input.len() as u64;
        assert!(cost.bytes <= allowed, "{input:?} allocated {cost:?}, allowed {allowed} bytes");
        let mut parsed = false;
        let cost = allocated_by(|| parsed = black_box((table.parses_borrowed)(black_box(input))));
        assert_eq!(cost, Allocated { blocks: 0, bytes: 0 }, "{input:?} decoded borrowed");
        assert_eq!(parsed, out.is_some(), "{input:?}: the owned decode is the borrowed one");
    };
    for m in &table.samples {
        let mut bytes = (table.encode)(m);
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                bytes[at] ^= mask;
                check(&bytes);
                bytes[at] ^= mask;
            }
        }
    }
}

#[test]
fn decoding_allocates_at_most_a_small_multiple_of_the_input() {
    check_table(Table {
        samples: Request::samples(),
        encode: Request::encode,
        decode: Request::decode,
        parses_borrowed: |input| RequestRef::decode_ref(input).is_some(),
    });
    check_table(Table {
        samples: Response::samples(),
        encode: Response::encode,
        decode: Response::decode,
        parses_borrowed: |input| ResponseRef::decode_ref(input).is_some(),
    });
    check_table(Table {
        samples: FsOp::samples(),
        encode: FsOp::encode,
        decode: FsOp::decode,
        parses_borrowed: |input| FsOpRef::decode_ref(input).is_some(),
    });
}
