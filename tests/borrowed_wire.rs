//! Every `wire_messages!` table's borrowed twin encodes and decodes
//! exactly its owned message: over every sample and 256 seeded random
//! draws of the blockstore `Request` and `Response` tables and the
//! journal's `FsOp`, the twin's `encoded_len` is the length it writes,
//! its bytes are the owned message's `encode`, they decode borrowed to
//! the message's twin and owned to the message, and the decoded twin
//! (whose lists are runs of the input) writes the same bytes again.
//!
//! Both owned directions go through the twin: an owned message writes
//! through its twin and decodes as its twin's `decode_ref` then
//! `to_owned`. So these checks do not compare two codecs written apart:
//! a change the twin makes to both directions in step (a field left
//! out, moved, or written in another form) can round-trip here. What
//! catches it is `tests/wire_golden.rs`, a literal image of every
//! blockstore row, and `tests/journal_golden.rs`, the journal's pinned
//! record bytes.

use veros_blockstore::wire::{Request, RequestRef, Response, ResponseRef};
use veros_fs::journal::{FsOp, FsOpRef};
use veros_spec::rng::SpecRng;
use veros_spec::wire::Writer;

/// Checks every sample and 256 draws of `$table`, whose twin is
/// `$twin`, seeded with `$seed`; evaluates to the number of messages
/// checked.
macro_rules! twin_codes_as_owned {
    ($table:ident, $twin:ident, $seed:expr) => {{
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
            let decoded = $twin::decode_ref(&bytes);
            assert_eq!(decoded, Some(twin), "{m:?}: decoded borrowed");
            assert_eq!(decoded.map($twin::to_owned).as_ref(), Some(m), "{m:?}: made owned");
            let mut again = Vec::new();
            if let Some(decoded) = decoded {
                decoded.write(&mut Writer::new(&mut again));
                assert_eq!(decoded.encoded_len(), again.len(), "{m:?}: the decoded twin's length");
            }
            assert_eq!(again, bytes, "{m:?}: the decoded twin's bytes");
        }
        messages.len()
    }};
}

#[test]
fn every_request_twin_encodes_its_request() {
    assert!(twin_codes_as_owned!(Request, RequestRef, 55) > 256);
}

#[test]
fn every_response_twin_encodes_its_response() {
    assert!(twin_codes_as_owned!(Response, ResponseRef, 56) > 256);
}

#[test]
fn every_fs_op_twin_encodes_its_op() {
    assert!(twin_codes_as_owned!(FsOp, FsOpRef, 57) > 256);
}
