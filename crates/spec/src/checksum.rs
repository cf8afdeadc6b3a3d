//! The integrity checksum: one function for every stored or transmitted
//! byte string whose corruption must be detected — blockstore blocks
//! (client put, each chain member's verify, the read path) and journal
//! records.
//!
//! It reads eight bytes per round instead of one. The state is seeded
//! with the input length; each round absorbs one little-endian word,
//! `h = ((h ^ w) * K).rotate_left(29)`, the last word zero-padded; a
//! murmur3-style xor-shift-multiply finalizer ends it. What that buys:
//!
//! * **Any change confined to one word changes the 64-bit value.** For a
//!   fixed state, `w ↦ (h ^ w) * K` is a bijection (K is odd), and so is
//!   every later round as a function of the state, and the finalizer.
//!   So two inputs of the same length that differ in one word — in
//!   particular by any burst of flipped bits within 8 aligned bytes —
//!   never collide.
//! * **Appending zero bytes changes the value.** Zero padding alone
//!   would make `"ab"` and `"ab\0"` the same words; the length in the
//!   seed tells them apart.
//! * **The low 32 bits see every bit.** A multiply only carries a
//!   difference upwards, so a plain word hash truncated to 32 bits
//!   misses every flip in bytes 4–7 of a word. The finalizer folds the
//!   high half into the low half before [`checksum32`] keeps it.
//!
//! It is an error-detecting code, not a MAC: nothing here resists an
//! adversary who chooses the bytes. [`crate::rng::fnv1a`] is not an
//! integrity checksum; it stays byte-serial and frozen because it
//! derives seeds and places keys.

/// Odd round multiplier (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Initial state before the length is folded in (π's fraction bits).
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// One round: absorb word `w` into state `h`.
fn round(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(K).rotate_left(29)
}

/// murmur3's `fmix64`: a bijection in which every input bit reaches
/// every output bit.
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The 64-bit integrity checksum of `bytes`.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = SEED ^ (bytes.len() as u64).wrapping_mul(K);
    for w in words {
        h = round(h, u64::from_le_bytes(*w));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = round(h, u64::from_le_bytes(last));
    }
    finalize(h)
}

/// The 32-bit form a journal record stores: the low half of
/// [`checksum64`].
pub fn checksum32(bytes: &[u8]) -> u32 {
    checksum64(bytes) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SpecRng;

    /// Random inputs of every length 0..=72 (every tail length, up to
    /// nine words) plus a 1 KiB block and a 1 032-byte record.
    fn inputs() -> impl Iterator<Item = Vec<u8>> {
        let mut rng = SpecRng::seeded(0x5eed);
        (0..=72).chain([1024, 1032]).map(move |len| {
            let mut v = vec![0u8; len];
            rng.fill(&mut v);
            v
        })
    }

    /// Every single-bit flip at every offset changes the 64-bit value,
    /// the journal's 32-bit form and the high half too: the finalizer
    /// spreads a one-bit difference over the whole word. A word hash
    /// truncated to `u32` misses flips in bytes 4–7 of a word; without the
    /// finalizer a flip in bits 35–63 of the last word moves only the
    /// rotated product's low 29 bits, which the high half does not see.
    #[test]
    fn every_single_bit_flip_changes_both_halves() {
        for mut v in inputs() {
            let (high, low) = (checksum64(&v) >> 32, checksum32(&v));
            for bit in 0..v.len() * 8 {
                v[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum32(&v), low, "len {} bit {bit}: 32-bit form", v.len());
                assert_ne!(checksum64(&v) >> 32, high, "len {} bit {bit}: high half", v.len());
                v[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn appending_a_zero_byte_changes_the_value() {
        for v in inputs() {
            let mut longer = v.clone();
            longer.push(0);
            assert_ne!(checksum64(&longer), checksum64(&v), "len {}", v.len());
            assert_ne!(checksum32(&longer), checksum32(&v), "len {}", v.len());
        }
    }

    /// A word-aligned change of all eight bytes is still one word.
    #[test]
    fn a_changed_word_changes_the_value() {
        let mut rng = SpecRng::seeded(8);
        for v in inputs() {
            for at in (0..v.len()).step_by(8) {
                let mut w = v.clone();
                let end = (at + 8).min(w.len());
                rng.fill(&mut w[at..end]);
                if w != v {
                    assert_ne!(checksum64(&w), checksum64(&v), "len {} word at {at}", v.len());
                }
            }
        }
    }

    #[test]
    fn reference_vectors_pin_the_function() {
        assert_eq!(checksum64(b""), 0x7acd_bb98_b134_4213);
        assert_eq!(checksum64(b"veros"), 0x17e5_1405_7a56_3956);
        let block: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(checksum64(&block), 0x8f20_392f_2889_7723);
        assert_eq!(checksum32(&block), 0x2889_7723);
    }
}
