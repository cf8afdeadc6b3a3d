//! Simulated block device with a volatile write cache and crash injection.
//!
//! The filesystem's crash-safety spec ("committed operations survive a
//! crash") is only meaningful against a disk model in which un-flushed
//! writes can be lost, and lost *out of order* — real drives reorder
//! cached writes. [`SimDisk`] therefore keeps a persistent array plus an
//! ordered cache of pending sector writes; a crash keeps an arbitrary
//! subset of the cache chosen by the injected RNG (or a prefix, for
//! deterministic tests), and `flush` creates a barrier by draining it.

use veros_spec::rng::SpecRng;

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;

/// Errors from disk operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// Sector index beyond the device capacity.
    OutOfRange {
        /// The offending sector.
        sector: u64,
    },
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::OutOfRange { sector } => write!(f, "sector {sector} out of range"),
        }
    }
}

/// A pending (cached, not yet durable) sector write.
#[derive(Clone)]
struct Pending {
    sector: u64,
    data: Stored,
}

/// A sector's contents without its trailing zeroes. Journal records are
/// zero-padded to whole sectors (a commit record is 13 bytes of 512),
/// so what the disk keeps resident is about what was written to it; an
/// all-zero sector is the empty box and owns no memory at all.
type Stored = Box<[u8]>;

fn trim(data: &[u8; SECTOR_SIZE]) -> Stored {
    let len = data.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
    data[..len].into()
}

fn expand(stored: &[u8], buf: &mut [u8; SECTOR_SIZE]) {
    let (head, tail) = buf.split_at_mut(stored.len());
    head.copy_from_slice(stored);
    tail.fill(0);
}

/// The durable slot for `sector` (which `write` already bounded by the
/// capacity), growing the table up to it.
fn slot(table: &mut Vec<Stored>, sector: u64) -> &mut Stored {
    let i = sector as usize;
    if table.len() <= i {
        table.resize_with(i + 1, Stored::default);
    }
    &mut table[i]
}

/// A simulated disk.
pub struct SimDisk {
    sectors: u64,
    /// Durable contents, grown to the highest sector ever made durable:
    /// a disk costs memory for what was written to it, not for its
    /// capacity. A sector past the end reads as zeroes.
    persistent: Vec<Stored>,
    cache: Vec<Pending>,
    writes: u64,
    flushes: u64,
}

impl SimDisk {
    /// Creates a disk with `sectors` zeroed sectors.
    pub fn new(sectors: u64) -> Self {
        Self {
            sectors,
            persistent: Vec::new(),
            cache: Vec::new(),
            writes: 0,
            flushes: 0,
        }
    }

    /// Device capacity in sectors.
    pub fn sectors(&self) -> u64 {
        self.sectors
    }

    /// Reads a sector. Reads observe the cache (the drive returns the
    /// latest written data whether or not it is durable yet).
    pub fn read(&self, sector: u64, buf: &mut [u8; SECTOR_SIZE]) -> Result<(), DiskError> {
        self.check(sector)?;
        // Latest cached write wins.
        let cached = self.cache.iter().rev().find(|p| p.sector == sector);
        let stored = cached.map(|p| &p.data).or_else(|| self.persistent.get(sector as usize));
        expand(stored.map_or(&[], |s| &s[..]), buf);
        Ok(())
    }

    /// Writes a sector into the volatile cache.
    pub fn write(&mut self, sector: u64, data: &[u8; SECTOR_SIZE]) -> Result<(), DiskError> {
        self.check(sector)?;
        self.writes += 1;
        self.cache.push(Pending {
            sector,
            data: trim(data),
        });
        Ok(())
    }

    /// Flush barrier: makes every cached write durable, in order.
    pub fn flush(&mut self) {
        self.flushes += 1;
        for p in self.cache.drain(..) {
            *slot(&mut self.persistent, p.sector) = p.data;
        }
    }

    /// Number of cached (not yet durable) writes.
    pub fn dirty(&self) -> usize {
        self.cache.len()
    }

    /// `(writes, flushes)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.writes, self.flushes)
    }

    /// Crash keeping only the first `n` cached writes (deterministic).
    pub fn crash_keep_prefix(&mut self, n: usize) {
        for p in self.cache.drain(..).take(n) {
            *slot(&mut self.persistent, p.sector) = p.data;
        }
    }

    /// Crash keeping the first `keep` cached writes whole and the next
    /// one *torn*: only its first `tear_bytes` bytes reach the platter,
    /// the rest of that sector keeping whatever was durable before (or
    /// zeroes for a never-written sector). Everything later is lost.
    /// Models a power cut mid-sector — the failure the journal's record
    /// checksums exist to detect.
    pub fn crash_torn(&mut self, keep: usize, tear_bytes: usize) {
        let tear_bytes = tear_bytes.min(SECTOR_SIZE);
        for (i, p) in self.cache.drain(..).take(keep.saturating_add(1)).enumerate() {
            let durable = slot(&mut self.persistent, p.sector);
            if i < keep {
                *durable = p.data;
            } else {
                let (mut merged, mut torn) = ([0u8; SECTOR_SIZE], [0u8; SECTOR_SIZE]);
                expand(durable, &mut merged);
                expand(&p.data, &mut torn);
                merged[..tear_bytes].copy_from_slice(&torn[..tear_bytes]);
                *durable = trim(&merged);
            }
        }
    }

    /// Crash keeping an arbitrary subset of cached writes, in order —
    /// modelling drive-internal reordering at sector granularity. Later
    /// kept writes to the same sector still win (ordering per sector is
    /// preserved, which matches single-queue drives).
    pub fn crash_random(&mut self, rng: &mut SpecRng) {
        for p in self.cache.drain(..) {
            if rng.chance(1, 2) {
                *slot(&mut self.persistent, p.sector) = p.data;
            }
        }
    }

    fn check(&self, sector: u64) -> Result<(), DiskError> {
        if sector < self.sectors {
            Ok(())
        } else {
            Err(DiskError::OutOfRange { sector })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(byte: u8) -> [u8; SECTOR_SIZE] {
        [byte; SECTOR_SIZE]
    }

    #[test]
    fn read_sees_cached_write() {
        let mut d = SimDisk::new(8);
        d.write(3, &sec(7)).unwrap();
        let mut buf = sec(0);
        d.read(3, &mut buf).unwrap();
        assert_eq!(buf, sec(7));
        assert_eq!(d.dirty(), 1);
    }

    #[test]
    fn unflushed_write_lost_on_crash() {
        let mut d = SimDisk::new(8);
        d.write(3, &sec(7)).unwrap();
        d.crash_keep_prefix(0);
        let mut buf = sec(1);
        d.read(3, &mut buf).unwrap();
        assert_eq!(buf, sec(0), "write was volatile");
    }

    #[test]
    fn flushed_write_survives_crash() {
        let mut d = SimDisk::new(8);
        d.write(3, &sec(7)).unwrap();
        d.flush();
        d.crash_keep_prefix(0);
        let mut buf = sec(0);
        d.read(3, &mut buf).unwrap();
        assert_eq!(buf, sec(7));
        assert_eq!(d.dirty(), 0);
    }

    #[test]
    fn prefix_crash_keeps_only_early_writes() {
        let mut d = SimDisk::new(8);
        d.write(1, &sec(1)).unwrap();
        d.write(2, &sec(2)).unwrap();
        d.write(3, &sec(3)).unwrap();
        d.crash_keep_prefix(2);
        let mut buf = sec(0);
        d.read(1, &mut buf).unwrap();
        assert_eq!(buf, sec(1));
        d.read(2, &mut buf).unwrap();
        assert_eq!(buf, sec(2));
        d.read(3, &mut buf).unwrap();
        assert_eq!(buf, sec(0));
    }

    #[test]
    fn latest_cached_write_wins_reads() {
        let mut d = SimDisk::new(4);
        d.write(0, &sec(1)).unwrap();
        d.write(0, &sec(2)).unwrap();
        let mut buf = sec(9);
        d.read(0, &mut buf).unwrap();
        assert_eq!(buf, sec(2));
    }

    #[test]
    fn random_crash_keeps_subset() {
        let mut d = SimDisk::new(16);
        for s in 0..16 {
            d.write(s, &sec(s as u8 + 1)).unwrap();
        }
        let mut rng = SpecRng::seeded(99);
        d.crash_random(&mut rng);
        let mut survived = 0;
        for s in 0..16 {
            let mut buf = sec(0);
            d.read(s, &mut buf).unwrap();
            if buf == sec(s as u8 + 1) {
                survived += 1;
            } else {
                assert_eq!(buf, sec(0), "must be old or new, never torn");
            }
        }
        assert!(survived > 0 && survived < 16, "seed 99 keeps a strict subset");
    }

    #[test]
    fn torn_crash_keeps_prefix_then_tears_one_sector() {
        let mut d = SimDisk::new(8);
        d.write(5, &sec(9)).unwrap();
        d.flush(); // old durable content for the torn sector
        d.write(1, &sec(1)).unwrap();
        d.write(5, &sec(2)).unwrap();
        d.write(3, &sec(3)).unwrap();
        d.crash_torn(1, 100);
        let mut buf = sec(0);
        d.read(1, &mut buf).unwrap();
        assert_eq!(buf, sec(1), "prefix write is whole");
        d.read(5, &mut buf).unwrap();
        assert_eq!(&buf[..100], &[2u8; 100][..], "torn head holds new bytes");
        assert_eq!(&buf[100..], &[9u8; 412][..], "torn tail holds old bytes");
        d.read(3, &mut buf).unwrap();
        assert_eq!(buf, sec(0), "writes past the torn one are lost");
        assert_eq!(d.dirty(), 0);
    }

    #[test]
    fn torn_crash_on_fresh_sector_zero_fills_the_tail() {
        let mut d = SimDisk::new(4);
        d.write(2, &sec(7)).unwrap();
        d.crash_torn(0, 8);
        let mut buf = sec(1);
        d.read(2, &mut buf).unwrap();
        assert_eq!(&buf[..8], &[7u8; 8][..]);
        assert_eq!(&buf[8..], &[0u8; 504][..]);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut d = SimDisk::new(2);
        assert!(d.write(2, &sec(0)).is_err());
        let mut buf = sec(0);
        assert_eq!(d.read(9, &mut buf), Err(DiskError::OutOfRange { sector: 9 }));
    }

    #[test]
    fn capacity_costs_nothing_until_written() {
        // Range is decided by `sectors()`, never by how far the durable
        // table happens to have grown.
        let mut d = SimDisk::new(1 << 40);
        assert!(d.persistent.is_empty());
        let mut buf = sec(1);
        d.read((1 << 40) - 1, &mut buf).unwrap();
        assert_eq!(buf, sec(0), "a never-written sector in range reads as zeroes");
        assert_eq!(d.read(1 << 40, &mut buf), Err(DiskError::OutOfRange { sector: 1 << 40 }));
        assert_eq!(d.write(1 << 40, &sec(1)), Err(DiskError::OutOfRange { sector: 1 << 40 }));
        d.write(5, &sec(5)).unwrap();
        d.write(9, &sec(9)).unwrap();
        assert!(d.persistent.is_empty(), "cached writes are not durable yet");
        d.crash_keep_prefix(1);
        assert_eq!(d.persistent.len(), 6, "grown to the high-water durable sector only");
        d.read(4, &mut buf).unwrap();
        assert_eq!(buf, sec(0), "a hole below the high-water mark");
        d.read(9, &mut buf).unwrap();
        assert_eq!(buf, sec(0), "the lost write left no slot behind");
        assert_eq!(d.stats(), (2, 0));
    }

    #[test]
    fn trailing_zeroes_are_not_stored_and_read_back() {
        let mut d = SimDisk::new(4);
        let mut padded = sec(0);
        padded[..3].copy_from_slice(&[7, 0, 7]);
        d.write(0, &padded).unwrap();
        d.write(1, &sec(8)).unwrap();
        d.flush();
        assert_eq!(d.persistent[0].len(), 3, "interior zero kept, padding dropped");
        d.write(1, &sec(0)).unwrap(); // zeroes over data: must read as zeroes
        let mut buf = sec(9);
        d.read(1, &mut buf).unwrap();
        assert_eq!(buf, sec(0));
        d.flush();
        d.read(1, &mut buf).unwrap();
        assert_eq!(buf, sec(0));
        d.read(0, &mut buf).unwrap();
        assert_eq!(buf, padded);
    }

    #[test]
    fn torn_crash_beyond_the_durable_table_merges_over_zeroes() {
        let mut d = SimDisk::new(64);
        d.write(1, &sec(1)).unwrap();
        d.flush();
        d.write(40, &sec(4)).unwrap();
        d.write(50, &sec(5)).unwrap();
        d.crash_torn(0, 3);
        let mut buf = sec(9);
        d.read(40, &mut buf).unwrap();
        assert_eq!((&buf[..3], &buf[3..]), (&[4u8; 3][..], &[0u8; 509][..]));
        assert_eq!(d.persistent.len(), 41, "the write past the torn one grew nothing");
    }
}
