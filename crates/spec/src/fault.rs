//! Fault schedules: seeded *enumeration* of adversarial environments.
//!
//! The end-to-end invariants in `INVARIANTS.md` are not checked against a
//! single lucky seed — each invariant VC sweeps a deterministic family of
//! [`FaultSchedule`]s produced by [`FaultSchedule::sweep`]. A schedule
//! bundles every fault axis the stack knows how to inject:
//!
//! * **wire faults** ([`WireFaults`]): packet loss, duplication and
//!   reordering degrees for `net::sim`;
//! * **a crash point** (`crash_milli`): *where* in the run the crash
//!   lands, expressed as a fraction of a family-defined extent (cached
//!   disk writes for the journal, consumed SQEs for the ring, acked ops
//!   for the blockstore) so one schedule shape covers every subsystem;
//! * **a torn write** (`torn_bytes`): how many bytes of the first
//!   post-crash-boundary sector write still reach the platter.
//!
//! The sweep walks a small lattice — crash tier × wire tier × torn/clean
//! — with seed-derived jitter, so `sweep(f, s, n)` is reproducible while
//! still covering the corners (crash-at-zero, crash-at-end, hostile wire,
//! torn journal record) for every `n ≥ 8`.

use crate::rng::{fnv1a, SpecRng};

/// Wire fault degrees for a simulated network: `net::sim::FaultPlan` is
/// this type, so a schedule's wire drives the simulator as it is.
/// `loss`/`duplicate` are probabilities `(num, denom)`; `(0, 1)`
/// disables the axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireFaults {
    /// Per-frame drop probability.
    pub loss: (u32, u32),
    /// Per-frame duplication probability.
    pub duplicate: (u32, u32),
    /// Whether in-flight frames may be delivered out of order.
    pub reorder: bool,
}

impl WireFaults {
    /// A perfect wire: no loss, no duplication, in-order.
    pub fn reliable() -> Self {
        Self { loss: (0, 1), duplicate: (0, 1), reorder: false }
    }

    /// A mildly faulty wire: 1/20 loss, 1/40 duplication, in-order.
    pub fn mild() -> Self {
        Self { loss: (1, 20), duplicate: (1, 40), reorder: false }
    }

    /// An adversarial wire: 1/5 loss, 1/10 duplication, reordering.
    pub fn hostile() -> Self {
        Self { loss: (1, 5), duplicate: (1, 10), reorder: true }
    }

    /// True if any frame can be dropped.
    pub fn lossy(&self) -> bool {
        self.loss.0 > 0
    }
}

/// One point in a fault-schedule sweep. Families interpret the fields
/// they care about and ignore the rest (a pure-memory invariant ignores
/// `wire`; a crash-free transport invariant ignores `crash_milli`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Position of this schedule in its sweep (0-based).
    pub ordinal: usize,
    /// Derived RNG seed: drives workload shapes and `net::sim` frames.
    pub seed: u64,
    /// Wire behaviour for any network segment in the run.
    pub wire: WireFaults,
    /// Crash position in thousandths of the family's extent
    /// (0 = crash before anything volatile survives, 1000 = crash after
    /// everything). The unit is family-defined; see [`Self::crash_point`].
    pub crash_milli: u32,
    /// `Some(n)`: the first write past the crash boundary lands torn,
    /// with only its first `n` bytes reaching stable storage.
    pub torn_bytes: Option<usize>,
    /// Multi-node victim selector: which member of a replication chain
    /// this schedule kills, mapped onto a concrete chain by
    /// [`Self::victim_of`]. The sweep walks it with the ordinal, so any
    /// `chain_len` consecutive schedules kill every chain position at
    /// least once — "loss of any single chain node" is covered, not
    /// sampled.
    pub victim: u32,
}

impl FaultSchedule {
    /// Maps the schedule's crash fraction onto a concrete extent
    /// (`0..=extent`), e.g. the number of cached disk writes to keep.
    pub fn crash_point(&self, extent: usize) -> usize {
        (extent * self.crash_milli as usize) / 1000
    }

    /// Maps the victim selector onto a chain of `chain_len` replicas:
    /// the position (0 = head, `chain_len - 1` = tail) this schedule's
    /// crash should take down.
    pub fn victim_of(&self, chain_len: usize) -> usize {
        self.victim as usize % chain_len.max(1)
    }

    /// Deterministically enumerates `count` schedules for an invariant
    /// family. Equal `(family, family_seed, count)` always yields the
    /// same vector; distinct families get decorrelated jitter.
    pub fn sweep(family: &str, family_seed: u64, count: usize) -> Vec<FaultSchedule> {
        let mut rng = SpecRng::seeded(fnv1a(family.as_bytes()) ^ family_seed.rotate_left(17));
        const CRASH_TIERS: [u32; 5] = [0, 250, 500, 750, 1000];
        (0..count)
            .map(|ordinal| {
                let wire = match ordinal % 4 {
                    0 => WireFaults::reliable(),
                    1 => WireFaults::mild(),
                    // Two hostile tiers out of four: the adversarial wire
                    // is where transport invariants earn their keep.
                    _ => WireFaults::hostile(),
                };
                let base = CRASH_TIERS[ordinal % CRASH_TIERS.len()];
                // Jitter interior tiers by up to ±125‰ so sweeps don't
                // only probe round fractions; keep the 0/1000 corners
                // exact (crash-before-anything and crash-after-all are
                // the boundary cases every family must include).
                let crash_milli = if base == 0 || base == 1000 {
                    base
                } else {
                    base - 125 + rng.below(251) as u32
                };
                let torn_bytes = if ordinal % 3 == 2 {
                    Some(1 + rng.index(511))
                } else {
                    None
                };
                FaultSchedule {
                    ordinal,
                    seed: rng.next_u64(),
                    wire,
                    crash_milli,
                    torn_bytes,
                    victim: ordinal as u32,
                }
            })
            .collect()
    }

    /// Human-readable one-liner for violation messages.
    pub fn describe(&self) -> String {
        let torn = match self.torn_bytes {
            Some(n) => format!(", torn {n}B"),
            None => String::new(),
        };
        format!(
            "schedule #{} (seed {:#018x}, loss {}/{}, dup {}/{}, reorder {}, crash @{}‰{}, victim {})",
            self.ordinal,
            self.seed,
            self.wire.loss.0,
            self.wire.loss.1,
            self.wire.duplicate.0,
            self.wire.duplicate.1,
            self.wire.reorder,
            self.crash_milli,
            torn,
            self.victim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic() {
        let a = FaultSchedule::sweep("durability", 3, 12);
        let b = FaultSchedule::sweep("durability", 3, 12);
        assert_eq!(a, b);
        assert_ne!(
            a,
            FaultSchedule::sweep("fs_journal", 3, 12),
            "families must decorrelate"
        );
        assert_ne!(
            a,
            FaultSchedule::sweep("durability", 4, 12),
            "seeds must decorrelate"
        );
    }

    #[test]
    fn sweep_of_eight_covers_the_lattice_corners() {
        let s = FaultSchedule::sweep("any", 0, 8);
        assert_eq!(s.len(), 8);
        assert!(s.iter().any(|f| f.crash_milli == 0), "crash-at-zero corner");
        assert!(s.iter().any(|f| f.crash_milli >= 750), "late-crash corner");
        assert!(s.iter().any(|f| f.wire == WireFaults::reliable()));
        assert!(s.iter().any(|f| f.wire == WireFaults::hostile()));
        assert!(s.iter().any(|f| f.torn_bytes.is_some()), "torn-write corner");
        assert!(s.iter().any(|f| f.torn_bytes.is_none()));
    }

    #[test]
    fn torn_bytes_stay_inside_a_sector() {
        for f in FaultSchedule::sweep("bounds", 9, 64) {
            if let Some(n) = f.torn_bytes {
                assert!((1..512).contains(&n), "{}", f.describe());
            }
            assert!(f.crash_milli <= 1000);
            assert!(f.crash_point(100) <= 100);
        }
    }

    #[test]
    fn victims_cover_every_chain_position() {
        // Any chain the stack uses (M ≤ 8) has every position killed at
        // least once by an 8-schedule sweep, and every window of M
        // consecutive ordinals covers all M positions.
        let s = FaultSchedule::sweep("victims", 5, 8);
        for chain_len in 1..=8usize {
            let hit: std::collections::BTreeSet<usize> =
                s.iter().take(chain_len).map(|f| f.victim_of(chain_len)).collect();
            assert_eq!(hit.len(), chain_len, "chain of {chain_len}");
        }
        // Degenerate chain length never panics.
        assert_eq!(s[3].victim_of(0), 0);
    }

    #[test]
    fn crash_point_maps_the_corners_exactly() {
        let s = FaultSchedule::sweep("corners", 1, 10);
        let zero = s.iter().find(|f| f.crash_milli == 0).unwrap();
        assert_eq!(zero.crash_point(37), 0);
        let full = s.iter().find(|f| f.crash_milli == 1000).unwrap();
        assert_eq!(full.crash_point(37), 37);
    }

    #[test]
    fn describe_mentions_the_fault_axes() {
        let s = &FaultSchedule::sweep("desc", 2, 3)[2];
        let d = s.describe();
        assert!(d.contains("seed"), "{d}");
        assert!(d.contains("crash"), "{d}");
        assert!(d.contains("torn"), "{d}");
    }
}
