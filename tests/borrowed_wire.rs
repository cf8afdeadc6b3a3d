//! Every `wire_messages!` table's borrowed twin encodes exactly the
//! message its owned row decodes back: over every sample and 256 seeded
//! random draws of the blockstore `Request` and `Response` tables and
//! the journal's `FsOp`, the twin's `encoded_len` is the length it
//! writes, its bytes are the owned message's `encode`, and they decode
//! to the owned message.
//!
//! An owned message writes through its twin, so comparing the two
//! encoders alone would pass a twin that drops a field; the decoder,
//! which stays owned and is written field by field from the row, is what
//! catches it.

use veros_blockstore::wire::{Request, Response};
use veros_fs::journal::FsOp;
use veros_spec::rng::SpecRng;
use veros_spec::wire::Writer;

/// Checks every sample and 256 draws of `$table` seeded with `$seed`;
/// evaluates to the number of messages checked.
macro_rules! twin_encodes_as_owned {
    ($table:ident, $seed:expr) => {{
        let mut rng = SpecRng::seeded($seed);
        let drawn: Vec<$table> = (0..256).map(|_| $table::arbitrary(&mut rng)).collect();
        let messages: Vec<$table> = $table::samples().into_iter().chain(drawn).collect();
        for m in &messages {
            let twin = m.borrowed();
            let mut bytes = Vec::new();
            twin.write(&mut Writer::new(&mut bytes));
            assert_eq!(twin.encoded_len(), bytes.len(), "{m:?}: the twin's length");
            assert_eq!((m.encoded_len(), &bytes), (bytes.len(), &m.encode()), "{m:?}");
            assert_eq!($table::decode(&bytes).as_ref(), Some(m), "{m:?}: the twin's bytes");
        }
        messages.len()
    }};
}

#[test]
fn every_request_twin_encodes_its_request() {
    assert!(twin_encodes_as_owned!(Request, 55) > 256);
}

#[test]
fn every_response_twin_encodes_its_response() {
    assert!(twin_encodes_as_owned!(Response, 56) > 256);
}

#[test]
fn every_fs_op_twin_encodes_its_op() {
    assert!(twin_encodes_as_owned!(FsOp, 57) > 256);
}
