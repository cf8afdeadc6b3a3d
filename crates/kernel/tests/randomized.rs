//! Randomized tests of the syscall marshalling layer — the §3
//! marshalling obligation, driven by the in-tree deterministic
//! [`SpecRng`] (formerly proptest-based).

use veros_kernel::syscall::{abi, SysError, Syscall};
use veros_spec::rng::SpecRng;
use veros_spec::wire::{Reader, Writer};

const CASES: usize = 512;

/// Every well-formed syscall round-trips through the register ABI.
#[test]
fn regs_round_trip() {
    let mut rng = SpecRng::for_obligation("kernel::tests::regs_round_trip");
    for _ in 0..CASES {
        let call = Syscall::arbitrary(&mut rng);
        let regs = abi::encode_regs(&call);
        assert_eq!(abi::decode_regs(&regs), Ok(call));
    }
}

/// Decoding arbitrary registers never panics; when it succeeds,
/// re-encoding reproduces a decodable value (decode is a partial inverse
/// of encode).
#[test]
fn decode_total_and_stable() {
    let mut rng = SpecRng::for_obligation("kernel::tests::decode_total_and_stable");
    for _ in 0..CASES {
        let mut regs = [0u64; 6];
        for r in &mut regs {
            // Bias the opcode register toward the table's numbers (and a
            // few past them) so a useful fraction of draws decode.
            *r = if rng.chance(1, 2) { rng.below(abi::MAX_NR + 8) } else { rng.next_u64() };
        }
        if let Ok(call) = abi::decode_regs(&regs) {
            let re = abi::encode_regs(&call);
            assert_eq!(abi::decode_regs(&re), Ok(call));
        }
    }
}

/// Return values round-trip, and decode of arbitrary pairs never panics.
#[test]
fn rets_round_trip() {
    let mut rng = SpecRng::for_obligation("kernel::tests::rets_round_trip");
    for _ in 0..CASES {
        let ret = if rng.chance(1, 2) {
            Ok(rng.next_u64())
        } else {
            Err(*rng.choose(SysError::ALL))
        };
        let (s, v) = abi::encode_ret(ret);
        assert_eq!(abi::decode_ret(s, v), Ok(ret));
    }
}

/// The byte-level codec (`veros_spec::wire`): bytes and strings survive arbitrary
/// content, and truncated input is always an error (never a panic, never
/// a bogus success for scalar-prefix payloads).
#[test]
fn marshal_bytes_round_trip() {
    let mut rng = SpecRng::for_obligation("kernel::tests::marshal_bytes_round_trip");
    for _ in 0..CASES {
        let mut data = vec![0u8; rng.index(256)];
        rng.fill(&mut data);
        // Random unicode-ish string: a mix of ASCII and multi-byte chars.
        let s: String = (0..rng.index(24))
            .map(|_| {
                char::from_u32(rng.below(0xd7ff) as u32).unwrap_or('\u{fffd}')
            })
            .collect();
        let mut wire = Vec::new();
        Writer::new(&mut wire).bytes(&data).str(&s).u64(data.len() as u64);
        let mut d = Reader::new(&wire);
        assert_eq!(d.bytes().expect("bytes decode"), data);
        assert_eq!(d.str().expect("str decodes"), s);
        assert_eq!(d.u64().expect("u64 decodes"), data.len() as u64);
        d.finish().expect("fully consumed");
        // Any strict prefix fails to decode fully.
        if !wire.is_empty() {
            let mut d = Reader::new(&wire[..wire.len() - 1]);
            let r = d.bytes().and_then(|_| d.str()).and_then(|_| d.u64());
            assert!(r.is_err());
        }
    }
}
