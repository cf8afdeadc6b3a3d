//! Persistence: a write-ahead operation journal on the simulated disk.
//!
//! The journal is *logical*: each filesystem mutation is serialized as a
//! record, records are grouped into transactions, and a transaction
//! becomes durable when its commit record reaches the disk's persistent
//! area (a flush barrier). Recovery scans the journal and replays
//! exactly the committed transactions into a fresh [`MemFs`] — the
//! crash-safety spec is therefore: *after any crash, the recovered state
//! equals the in-memory state at some committed transaction boundary at
//! or after the last acknowledged commit*.
//!
//! Record wire format (little-endian, zero-padded to whole sectors):
//! `MAGIC u32 | kind u8 | len u32 | payload(len bytes) | checksum u32` —
//! the payload framed by the same marshalling discipline as the syscall
//! layer, the checksum over it so torn sectors are detected rather than
//! misparsed.
//!
//! A mutation runs *validate → journal → apply*: the operation is
//! checked against the live tree without touching it, its record is
//! appended, and only then is the tree mutated in place — by a step
//! that cannot fail, because the check already resolved everything it
//! needs. A rejected operation (invalid, or `NoSpace` from a full
//! journal) therefore leaves tree, journal position and disk exactly as
//! they were, and the cost of an accepted one is proportional to the
//! bytes it writes, not to the size of the tree.

use veros_hw::{SimDisk, SECTOR_SIZE};

use crate::memfs::{Checked, FsError, MemFs};
use crate::path::Path;

/// A journaled filesystem mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsOp {
    /// Create an empty file.
    Create(String),
    /// Create a directory.
    Mkdir(String),
    /// Remove a file.
    Unlink(String),
    /// Remove an empty directory.
    Rmdir(String),
    /// Write bytes at an offset.
    WriteAt(String, u64, Vec<u8>),
    /// Truncate to a length.
    Truncate(String, u64),
}

impl FsOp {
    /// Validates the operation against `fs` without mutating it: the
    /// error it would fail with, or the resolved mutation that
    /// [`MemFs::apply_checked`] then performs infallibly.
    fn check(&self, fs: &MemFs) -> Result<Checked<'_>, FsError> {
        match self {
            FsOp::Create(p) => fs.check_create(&parse(p)?),
            FsOp::Mkdir(p) => fs.check_mkdir(&parse(p)?),
            FsOp::Unlink(p) => fs.check_unlink(&parse(p)?),
            FsOp::Rmdir(p) => fs.check_rmdir(&parse(p)?),
            FsOp::WriteAt(p, off, data) => fs.check_write(fs.lookup(&parse(p)?)?, *off, data),
            FsOp::Truncate(p, len) => fs.check_truncate(fs.lookup(&parse(p)?)?, *len),
        }
    }

    /// Applies the operation to a filesystem.
    pub fn apply(&self, fs: &mut MemFs) -> Result<(), FsError> {
        let checked = self.check(fs)?;
        fs.apply_checked(checked);
        Ok(())
    }

    /// Bytes [`FsOp::encode_into`] appends — known without encoding, so
    /// a transaction's journal space can be reserved up front.
    fn encoded_len(&self) -> usize {
        // tag u8, then `len u32 | bytes` per string/blob and 8 per u64.
        match self {
            FsOp::Create(p) | FsOp::Mkdir(p) | FsOp::Unlink(p) | FsOp::Rmdir(p) => 1 + 4 + p.len(),
            FsOp::WriteAt(p, _, data) => 1 + 4 + p.len() + 8 + 4 + data.len(),
            FsOp::Truncate(p, _) => 1 + 4 + p.len() + 8,
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut e = wire::Encoder::new(buf);
        match self {
            FsOp::Create(p) => {
                e.u8(1).str(p);
            }
            FsOp::Mkdir(p) => {
                e.u8(2).str(p);
            }
            FsOp::Unlink(p) => {
                e.u8(3).str(p);
            }
            FsOp::Rmdir(p) => {
                e.u8(4).str(p);
            }
            FsOp::WriteAt(p, off, data) => {
                e.u8(5).str(p).u64(*off).bytes(data);
            }
            FsOp::Truncate(p, len) => {
                e.u8(6).str(p).u64(*len);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<FsOp> {
        let mut d = wire::Decoder::new(bytes);
        let op = match d.u8().ok()? {
            1 => FsOp::Create(d.str().ok()?),
            2 => FsOp::Mkdir(d.str().ok()?),
            3 => FsOp::Unlink(d.str().ok()?),
            4 => FsOp::Rmdir(d.str().ok()?),
            5 => FsOp::WriteAt(d.str().ok()?, d.u64().ok()?, d.bytes().ok()?),
            6 => FsOp::Truncate(d.str().ok()?, d.u64().ok()?),
            _ => return None,
        };
        d.finish().ok()?;
        Some(op)
    }
}

fn parse(p: &str) -> Result<Path, FsError> {
    Path::parse(p).map_err(|_| FsError::NotFound)
}

/// Minimal standalone wire helpers (the fs crate must not depend on the
/// kernel crate, so the tiny encoder is duplicated here with the same
/// format; the cross-implementation round-trip is itself a test).
mod wire {
    /// Appends to a caller-owned buffer (the journal's record buffer).
    pub struct Encoder<'a> {
        buf: &'a mut Vec<u8>,
    }

    impl<'a> Encoder<'a> {
        pub fn new(buf: &'a mut Vec<u8>) -> Self {
            Self { buf }
        }
        pub fn u8(&mut self, v: u8) -> &mut Self {
            self.buf.push(v);
            self
        }
        pub fn u64(&mut self, v: u64) -> &mut Self {
            self.buf.extend_from_slice(&v.to_le_bytes());
            self
        }
        pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
            self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(v);
            self
        }
        pub fn str(&mut self, v: &str) -> &mut Self {
            self.bytes(v.as_bytes())
        }
    }

    pub struct Decoder<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Decoder<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }
        fn take(&mut self, n: usize) -> Result<&'a [u8], ()> {
            if self.buf.len() - self.pos < n {
                return Err(());
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }
        pub fn u8(&mut self) -> Result<u8, ()> {
            Ok(self.take(1)?[0])
        }
        /// Reads exactly `N` bytes into an array; the element-wise copy
        /// cannot fail and a short buffer already errored in `take`.
        fn array<const N: usize>(&mut self) -> Result<[u8; N], ()> {
            let s = self.take(N)?;
            let mut out = [0u8; N];
            for (d, b) in out.iter_mut().zip(s) {
                *d = *b;
            }
            Ok(out)
        }
        pub fn u64(&mut self) -> Result<u64, ()> {
            Ok(u64::from_le_bytes(self.array()?))
        }
        pub fn bytes(&mut self) -> Result<Vec<u8>, ()> {
            let len = u32::from_le_bytes(self.array::<4>()?) as usize;
            if len > (1 << 24) {
                return Err(());
            }
            Ok(self.take(len)?.to_vec())
        }
        pub fn str(&mut self) -> Result<String, ()> {
            String::from_utf8(self.bytes()?).map_err(|_| ())
        }
        pub fn finish(self) -> Result<(), ()> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(())
            }
        }
    }
}

const MAGIC: u32 = 0x7665_4a4e; // "veJN"
const KIND_OP: u8 = 1;
const KIND_COMMIT: u8 = 2;
/// Record framing around the payload: `MAGIC u32 | kind u8 | len u32`
/// before it, `checksum u32` after.
const HEADER: usize = 9;
const TRAILER: usize = 4;

/// Sectors a record carrying `payload_len` bytes occupies.
fn record_sectors(payload_len: usize) -> u64 {
    (HEADER + payload_len + TRAILER).div_ceil(SECTOR_SIZE) as u64
}

/// FNV-1a checksum (matches `veros_spec::rng::fnv1a` truncated to u32).
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A journaled filesystem: a [`MemFs`] whose mutations reach a disk
/// journal before being acknowledged.
pub struct JournaledFs {
    /// The live in-memory state (reads are served from here).
    pub fs: MemFs,
    disk: SimDisk,
    /// Next journal byte offset on disk.
    write_pos: u64,
    /// The record being written, sector-padded; reused so an append
    /// encodes straight into it and allocates nothing in steady state.
    record: Vec<u8>,
    journaling: bool,
    /// Whether `commit` issues the flush barrier. Always true in real
    /// use; switched off only by the `invariant::fs_journal` ablation to
    /// prove the barrier is load-bearing.
    commit_barriers: bool,
    /// Operations this instance replayed at recovery (0 for a freshly
    /// formatted filesystem) — the instance-exact companion to the
    /// process-global [`crate::metrics::JOURNAL_REPLAYED`] counter.
    pub replayed_ops: u64,
}

/// Journal area size in sectors (the journal is the whole disk in this
/// model; a production FS would wrap and checkpoint).
fn journal_sectors(disk: &SimDisk) -> u64 {
    disk.sectors()
}

impl JournaledFs {
    /// Creates a fresh journaled filesystem on `disk`.
    pub fn format(disk: SimDisk) -> Self {
        Self {
            fs: MemFs::new(),
            disk,
            write_pos: 0,
            record: Vec::new(),
            journaling: true,
            commit_barriers: true,
            replayed_ops: 0,
        }
    }

    /// Enables/disables the commit flush barrier. Disabling it breaks
    /// the durability contract on purpose: commit records linger in the
    /// volatile write cache, so a crash can lose *acknowledged*
    /// transactions. Exists solely as the fault-injected site for the
    /// `invariant::fs_journal::*` anti-vacuity regression test.
    pub fn set_commit_barriers(&mut self, on: bool) {
        self.commit_barriers = on;
    }

    /// Creates a filesystem with journaling disabled — the ablation
    /// configuration whose crash behaviour the negative tests
    /// demonstrate to be broken.
    pub fn format_unjournaled(disk: SimDisk) -> Self {
        let mut s = Self::format(disk);
        s.journaling = false;
        s
    }

    /// Applies an operation in the current transaction: validate,
    /// journal (WAL rule), then mutate the in-memory state. On `Err`
    /// neither the state nor the disk has changed.
    pub fn apply(&mut self, op: FsOp) -> Result<(), FsError> {
        self.apply_op(&op)
    }

    fn apply_op(&mut self, op: &FsOp) -> Result<(), FsError> {
        // Validate against the live state first: failed operations must
        // not reach the journal (replay would diverge). The check
        // resolves everything the mutation needs, so once the record is
        // written the in-place apply has no way to fail.
        let checked = op.check(&self.fs)?;
        if self.journaling {
            self.append_record(KIND_OP, Some(op))?;
        }
        self.fs.apply_checked(checked);
        Ok(())
    }

    /// Runs `ops` as one committed transaction. Journal space for every
    /// record *and* the commit record is reserved before the first is
    /// written: a transaction that does not fit fails with `NoSpace`
    /// having changed neither memory nor disk, so it cannot leave a
    /// half-applied prefix for a later commit to seal. Ops are validated
    /// in order, each against the state its predecessors left; an
    /// invalid op stops the transaction there, uncommitted, exactly as
    /// the same sequence of [`JournaledFs::apply`] calls would.
    pub fn transact(&mut self, ops: &[FsOp]) -> Result<(), FsError> {
        if self.journaling {
            let need = record_sectors(0)
                + ops.iter().map(|op| record_sectors(op.encoded_len())).sum::<u64>();
            if self.write_pos / SECTOR_SIZE as u64 + need > journal_sectors(&self.disk) {
                return Err(FsError::NoSpace);
            }
        }
        for op in ops {
            self.apply_op(op)?;
        }
        self.commit()
    }

    /// Commits the current transaction: a commit record plus a flush
    /// barrier. After `commit` returns, the transaction survives any
    /// crash.
    pub fn commit(&mut self) -> Result<(), FsError> {
        if self.journaling {
            self.append_record(KIND_COMMIT, None)?;
            if self.commit_barriers {
                self.disk.flush();
            }
            crate::metrics::JOURNAL_COMMITS.inc();
        }
        Ok(())
    }

    /// The underlying device, read-only (counters, capacity, sectors).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Consumes the filesystem, returning the disk (for crash tests).
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// Recovers from `disk`: replays exactly the committed transactions.
    pub fn recover(disk: SimDisk) -> Self {
        let mut fs = MemFs::new();
        let mut pos = 0u64;
        let mut txn_ops: Vec<FsOp> = Vec::new();
        let mut committed_end = 0u64;
        let mut replayed = 0u64;
        'scan: while let Some((kind, payload, next)) = read_record(&disk, pos) {
            match kind {
                KIND_OP => {
                    if let Some(op) = FsOp::decode(&payload) {
                        txn_ops.push(op);
                    } else {
                        break 'scan; // Corrupt payload: end of valid journal.
                    }
                }
                KIND_COMMIT => {
                    replayed += txn_ops.len() as u64;
                    for op in txn_ops.drain(..) {
                        // Replay of a committed op cannot fail: it
                        // succeeded against this exact state before
                        // being journaled.
                        // lint: allow(panic-freedom) — see above; a
                        // replay failure means the journal invariant
                        // broke and recovery must not silently produce
                        // a wrong tree.
                        op.apply(&mut fs).expect("committed op replays");
                    }
                    committed_end = next;
                }
                _ => break 'scan,
            }
            pos = next;
        }
        if replayed > 0 {
            crate::metrics::JOURNAL_REPLAYED.add(replayed);
        }
        Self {
            fs,
            disk,
            // New records go after the last committed record; trailing
            // uncommitted records are discarded (overwritten).
            write_pos: committed_end,
            record: Vec::new(),
            journaling: true,
            commit_barriers: true,
            replayed_ops: replayed,
        }
    }

    /// Appends one record — `op`'s encoding, or the empty payload of a
    /// commit record — at `write_pos`.
    fn append_record(&mut self, kind: u8, op: Option<&FsOp>) -> Result<(), FsError> {
        // Record = MAGIC | kind | len | payload | checksum, padded to
        // sector boundaries.
        let payload_len = op.map_or(0, FsOp::encoded_len);
        let sectors = record_sectors(payload_len);
        let first = self.write_pos / SECTOR_SIZE as u64;
        if first + sectors > journal_sectors(&self.disk) {
            return Err(FsError::NoSpace);
        }
        let rec = &mut self.record;
        rec.clear();
        rec.extend_from_slice(&MAGIC.to_le_bytes());
        rec.push(kind);
        rec.extend_from_slice(&(payload_len as u32).to_le_bytes());
        if let Some(op) = op {
            op.encode_into(rec);
        }
        debug_assert_eq!(rec.len(), HEADER + payload_len, "encoded_len matches encode_into");
        let sum = checksum(&rec[HEADER..]);
        rec.extend_from_slice(&sum.to_le_bytes());
        rec.resize(sectors as usize * SECTOR_SIZE, 0);
        for (sector, data) in (first..).zip(rec.as_chunks::<SECTOR_SIZE>().0) {
            self.disk.write(sector, data).map_err(|_| FsError::NoSpace)?;
        }
        self.write_pos = (first + sectors) * SECTOR_SIZE as u64;
        crate::metrics::WAL_BYTES.add(sectors * SECTOR_SIZE as u64);
        Ok(())
    }
}


/// Reads a little-endian `u32` at `off`; the caller guarantees the four
/// bytes exist (all call sites index into fixed-size sector buffers).
fn le_u32_at(buf: &[u8], off: usize) -> u32 {
    let mut w = [0u8; 4];
    for (d, b) in w.iter_mut().zip(buf.iter().skip(off)) {
        *d = *b;
    }
    u32::from_le_bytes(w)
}

fn read_record(disk: &SimDisk, pos: u64) -> Option<(u8, Vec<u8>, u64)> {
    let first = pos / SECTOR_SIZE as u64;
    if first >= disk.sectors() {
        return None;
    }
    let mut sector = [0u8; SECTOR_SIZE];
    disk.read(first, &mut sector).ok()?;
    if le_u32_at(&sector, 0) != MAGIC {
        return None;
    }
    let kind = sector[4];
    let len = le_u32_at(&sector, 5) as usize;
    if len > (1 << 24) {
        return None;
    }
    let sectors = record_sectors(len);
    if first + sectors > disk.sectors() {
        return None;
    }
    let mut raw = vec![0u8; (sectors as usize) * SECTOR_SIZE];
    raw[..SECTOR_SIZE].copy_from_slice(&sector);
    for s in 1..sectors {
        let mut buf = [0u8; SECTOR_SIZE];
        disk.read(first + s, &mut buf).ok()?;
        raw[(s as usize) * SECTOR_SIZE..(s as usize + 1) * SECTOR_SIZE].copy_from_slice(&buf);
    }
    let payload = raw[HEADER..HEADER + len].to_vec();
    let want = le_u32_at(&raw, HEADER + len);
    if checksum(&payload) != want {
        return None; // Torn record.
    }
    Some((kind, payload, (first + sectors) * SECTOR_SIZE as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_spec::rng::SpecRng;

    fn ops_round_trip(op: FsOp) {
        let mut bytes = Vec::new();
        op.encode_into(&mut bytes);
        assert_eq!(bytes.len(), op.encoded_len());
        assert_eq!(FsOp::decode(&bytes), Some(op));
    }

    #[test]
    fn all_op_kinds_encode_round_trip() {
        ops_round_trip(FsOp::Create("/a".into()));
        ops_round_trip(FsOp::Mkdir("/d".into()));
        ops_round_trip(FsOp::Unlink("/a".into()));
        ops_round_trip(FsOp::Rmdir("/d".into()));
        ops_round_trip(FsOp::WriteAt("/a".into(), 42, vec![1, 2, 3]));
        ops_round_trip(FsOp::Truncate("/a".into(), 7));
        assert_eq!(FsOp::decode(&[9, 0]), None);
    }

    /// The journal's on-disk bytes are a format other builds must be
    /// able to recover from: 12 ops in 3 transactions, all six kinds,
    /// one record of three sectors and one of two. The digest was taken
    /// from the implementation that built each record in a fresh
    /// `Vec`, before records were encoded in place.
    #[test]
    fn wal_bytes_are_pinned() {
        let big: Vec<u8> = (0..1200u32).map(|i| (i * 7 + 3) as u8).collect();
        let txns: [Vec<FsOp>; 3] = [
            vec![
                FsOp::Mkdir("/d".into()),
                FsOp::Create("/d/f".into()),
                FsOp::WriteAt("/d/f".into(), 0, big.clone()),
                FsOp::Create("/g".into()),
            ],
            vec![
                FsOp::WriteAt("/g".into(), 5, b"hello".to_vec()),
                FsOp::Truncate("/d/f".into(), 700),
                FsOp::Mkdir("/e".into()),
                FsOp::Create("/e/x".into()),
            ],
            vec![
                FsOp::Unlink("/g".into()),
                FsOp::Unlink("/e/x".into()),
                FsOp::Rmdir("/e".into()),
                FsOp::WriteAt("/d/f".into(), 3, big[..600].to_vec()),
            ],
        ];
        let mut jfs = JournaledFs::format(SimDisk::new(64));
        for ops in txns {
            for op in ops {
                jfs.apply(op).unwrap();
            }
            jfs.commit().unwrap();
        }
        let disk = jfs.into_disk();
        assert_eq!(disk.stats(), (18, 3), "7 + 5 + 6 sectors, one barrier per commit");
        // Two sectors past the last record: still zero.
        let mut image = Vec::new();
        for sector in 0..20 {
            let mut buf = [0u8; SECTOR_SIZE];
            disk.read(sector, &mut buf).unwrap();
            image.extend_from_slice(&buf);
        }
        assert_eq!(veros_spec::rng::fnv1a(&image), 1890173362970270622);
    }

    /// The all-or-nothing rule (INVARIANTS.md §3): a transaction whose
    /// records plus commit record do not fit is refused before the
    /// first record is written, whatever prefix of it would have fitted.
    #[test]
    fn transaction_without_room_for_its_commit_changes_nothing() {
        let txn = [
            FsOp::Truncate("/f".into(), 0),
            FsOp::WriteAt("/f".into(), 0, vec![9; 1024]),
        ];
        // 2 + 5 sectors are taken; the transaction needs 1 + 3 + 1.
        for (sectors, fits) in [(8, false), (9, false), (11, false), (12, true)] {
            let mut jfs = JournaledFs::format(SimDisk::new(sectors));
            jfs.transact(&[FsOp::Create("/g".into())]).unwrap();
            jfs.transact(&[FsOp::Create("/f".into()), FsOp::WriteAt("/f".into(), 0, vec![1; 1024])])
                .unwrap();
            let before = (jfs.fs.clone(), jfs.write_pos, jfs.disk.stats());
            let got = jfs.transact(&txn);
            assert_eq!(got.is_ok(), fits, "{sectors} sectors: {got:?}");
            if !fits {
                assert_eq!(got, Err(FsError::NoSpace));
                assert_eq!((jfs.fs.clone(), jfs.write_pos, jfs.disk.stats()), before);
                // A later transaction that does fit seals nothing stale.
                let small = jfs.transact(&[FsOp::Unlink("/g".into())]);
                assert_eq!(small.is_ok(), sectors >= 9);
            }
            let live = jfs.fs.clone();
            assert_eq!(JournaledFs::recover(jfs.into_disk()).fs, live);
        }
    }

    #[test]
    fn committed_data_survives_crash() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Create("/f".into())).unwrap();
        jfs.apply(FsOp::WriteAt("/f".into(), 0, b"durable".to_vec())).unwrap();
        jfs.commit().unwrap();
        let mut disk = jfs.into_disk();
        disk.crash_keep_prefix(0); // Lose everything not flushed.
        let recovered = JournaledFs::recover(disk);
        assert_eq!(
            recovered.fs.read_file(&Path::parse("/f").unwrap()).unwrap(),
            b"durable"
        );
    }

    #[test]
    fn uncommitted_transaction_vanishes_atomically() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Create("/a".into())).unwrap();
        jfs.commit().unwrap();
        // Second txn: applied in memory, never committed.
        jfs.apply(FsOp::Create("/b".into())).unwrap();
        jfs.apply(FsOp::WriteAt("/a".into(), 0, b"xx".to_vec())).unwrap();
        let mut disk = jfs.into_disk();
        disk.crash_keep_prefix(usize::MAX); // Even if records hit disk...
        let recovered = JournaledFs::recover(disk);
        // ...no commit record, so the whole txn is absent.
        assert!(recovered.fs.lookup(&Path::parse("/a").unwrap()).is_ok());
        assert!(recovered.fs.lookup(&Path::parse("/b").unwrap()).is_err());
        assert_eq!(recovered.fs.read_file(&Path::parse("/a").unwrap()).unwrap(), b"");
    }

    #[test]
    fn unjournaled_fs_loses_committed_data() {
        // The ablation: without the journal, "commit" is a no-op and a
        // crash erases acknowledged data — demonstrating the journal is
        // load-bearing, not decorative.
        let mut ufs = JournaledFs::format_unjournaled(SimDisk::new(256));
        ufs.apply(FsOp::Create("/f".into())).unwrap();
        ufs.commit().unwrap();
        let mut disk = ufs.into_disk();
        disk.crash_keep_prefix(0);
        let recovered = JournaledFs::recover(disk);
        assert!(
            recovered.fs.lookup(&Path::parse("/f").unwrap()).is_err(),
            "without a journal the committed file is gone"
        );
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Mkdir("/d".into())).unwrap();
        jfs.apply(FsOp::Create("/d/f".into())).unwrap();
        jfs.commit().unwrap();
        let disk = jfs.into_disk();
        let r1 = JournaledFs::recover(disk);
        let fs1 = r1.fs.clone();
        let r2 = JournaledFs::recover(r1.into_disk());
        assert_eq!(fs1, r2.fs);
    }

    #[test]
    fn writes_after_recovery_continue_the_journal() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Create("/a".into())).unwrap();
        jfs.commit().unwrap();
        let mut jfs = JournaledFs::recover(jfs.into_disk());
        jfs.apply(FsOp::Create("/b".into())).unwrap();
        jfs.commit().unwrap();
        let recovered = JournaledFs::recover(jfs.into_disk());
        assert!(recovered.fs.lookup(&Path::parse("/a").unwrap()).is_ok());
        assert!(recovered.fs.lookup(&Path::parse("/b").unwrap()).is_ok());
    }

    #[test]
    fn random_crash_recovers_to_a_committed_boundary() {
        // The crash-safety spec, checked over random histories and
        // random crash points: the recovered state must equal the
        // in-memory state at some transaction boundary ≥ the last
        // acknowledged commit.
        for seed in 0..10u64 {
            let mut rng = SpecRng::seeded(seed);
            let mut jfs = JournaledFs::format(SimDisk::new(1024));
            // States at committed boundaries.
            let mut boundaries = vec![MemFs::new()];
            let mut last_acked = 0usize;
            for i in 0..30 {
                let f = format!("/f{}", rng.below(5));
                let op = match rng.below(3) {
                    0 => FsOp::Create(f),
                    1 => FsOp::WriteAt(f, rng.below(64), vec![rng.below(256) as u8; 8]),
                    _ => FsOp::Unlink(f),
                };
                let _ = jfs.apply(op); // Failures fine (e.g. Create dup).
                if i % 5 == 4 {
                    jfs.commit().unwrap();
                    boundaries.push(jfs.fs.clone());
                    last_acked = boundaries.len() - 1;
                }
            }
            // Uncommitted tail beyond the last ack.
            let _ = jfs.apply(FsOp::Create("/tail".into()));
            let mut disk = jfs.into_disk();
            disk.crash_random(&mut rng);
            let recovered = JournaledFs::recover(disk);
            assert!(
                boundaries[last_acked..].contains(&recovered.fs)
                    || boundaries.contains(&recovered.fs),
                "seed {seed}: recovered state is not a committed boundary"
            );
        }
    }
}
