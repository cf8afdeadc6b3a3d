//! Decoding hostile input allocates no more than a small multiple of
//! its length — asserted on exact allocation counts, for every sample
//! of every message table (blockstore requests and responses, journal
//! operations), so a new row is covered the moment it is declared.
//!
//! The inputs are each sample's truncations and its single-byte
//! corruptions (each byte XORed with `0x01`, `0x80` and `0xff`, which
//! turn a small length or count into a huge one). A decoder reserves a
//! list only for the items the input left can hold and copies a string
//! or block only once its bytes are all there, so what a decode
//! allocates is bounded by the input, not by what a prefix claims. Its
//! own test binary with a single `#[test]`: see `counting_alloc`.

mod counting_alloc;

use counting_alloc::allocated_by;
use veros_blockstore::{Request, Response};
use veros_fs::FsOp;

/// Bytes a decode may allocate per input byte. A `SyncBlocks` entry is
/// at least 16 bytes on the wire and 56 in memory (two heap handles and
/// a checksum), so its list reserves at most 3.5 bytes an input byte;
/// the strings and blocks it then copies add at most one more.
const BYTES_PER_INPUT_BYTE: u64 = 5;

/// Decodes every truncation and corruption of every encoding in
/// `samples` with `decode`, checking what each decode allocated.
fn check_table<M>(samples: Vec<M>, encode: fn(&M) -> Vec<u8>, decode: fn(&[u8]) -> Option<M>) {
    let check = |input: &[u8]| {
        let mut out = None;
        let cost = allocated_by(|| out = decode(input));
        drop(out);
        let allowed = BYTES_PER_INPUT_BYTE * input.len() as u64;
        assert!(cost.bytes <= allowed, "{input:?} allocated {cost:?}, allowed {allowed} bytes");
    };
    for m in &samples {
        let mut bytes = encode(m);
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
    check_table(Request::samples(), Request::encode, Request::decode);
    check_table(Response::samples(), Response::encode, Response::decode);
    check_table(FsOp::samples(), FsOp::encode, FsOp::decode);
}
