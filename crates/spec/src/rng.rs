//! Deterministic randomness for randomized verification conditions.
//!
//! Obligations that cannot be discharged exhaustively (e.g. round-trip
//! checks over 64-bit values) are checked on a deterministic pseudo-random
//! sample. Determinism matters: a VC report must be reproducible run to
//! run, like a proof. All randomized checks in the workspace draw from
//! [`SpecRng`] seeded with a fixed per-obligation seed.
//!
//! The generator is an in-tree xoshiro256++ (public domain, Blackman &
//! Vigna) seeded through SplitMix64, so the workspace needs no external
//! randomness crate and the stream is stable across toolchains.

/// A deterministic RNG for specification checks.
///
/// xoshiro256++ state; the all-zero state is unreachable because the
/// SplitMix64 seeding never produces four zero words.
pub struct SpecRng {
    s: [u64; 4],
}

impl SpecRng {
    /// Creates an RNG from a fixed seed. Each obligation should use its
    /// own seed (conventionally a hash of its name) so adding obligations
    /// does not perturb existing ones.
    pub fn seeded(seed: u64) -> Self {
        // SplitMix64: the recommended way to expand a 64-bit seed into
        // xoshiro state (it cannot produce the forbidden all-zero state
        // for all four outputs).
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Creates an RNG seeded from an obligation name.
    pub fn for_obligation(name: &str) -> Self {
        Self::seeded(fnv1a(name.as_bytes()))
    }

    /// Uniform `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the distribution
    /// is exactly uniform.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SpecRng::below bound must be nonzero");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`. `bound` must be nonzero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli trial with probability `num/denom`.
    pub fn chance(&mut self, num: u32, denom: u32) -> bool {
        self.below(denom as u64) < num as u64
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Chooses a random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics when `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }
}

/// FNV-1a hash. Frozen, because it has two roles whose outputs are
/// pinned throughout the workspace: it derives every VC and fault-sweep
/// seed from a name ([`SpecRng::for_obligation`],
/// [`crate::FaultSchedule::sweep`]), and it places every key and shard
/// on the fleet's consistent-hash ring. Changing it reshuffles both. It
/// is not an integrity checksum: that is [`crate::checksum`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SpecRng::seeded(42);
        let mut b = SpecRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn obligation_names_give_distinct_streams() {
        let a = SpecRng::for_obligation("pt::map::inv").next_u64();
        let b = SpecRng::for_obligation("pt::unmap::inv").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SpecRng::seeded(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn below_reaches_every_residue() {
        let mut r = SpecRng::seeded(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut r = SpecRng::seeded(3);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "13 zero bytes is vanishingly unlikely");
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        // Known vector: "a".
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
