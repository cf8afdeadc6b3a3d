//! Persistence: a write-ahead operation journal on the simulated disk.
//!
//! The journal is *logical*: each filesystem mutation is serialized as
//! an operation, and a transaction is written as **one record** holding
//! all of its operations. Recovery replays, in order, every record that
//! parses and whose checksum holds into a fresh [`MemFs`], and stops at
//! the first that does not. The crash-safety spec is therefore: *after
//! any crash, the recovered state is C, the state at the last commit
//! that returned; or, if a commit was in flight (its barrier had not
//! returned), C′, the state after it — exactly when its whole record
//! reached the platter*.
//!
//! Record format (little-endian, zero-padded to whole sectors):
//! `MAGIC u32 | len u32 | op₁ … opₙ | checksum u32` — `len` bytes of
//! operations packed back to back, and one checksum over `len` and the
//! operations. An operation's format is its row of the [`FsOp`] table
//! ([`veros_spec::wire_messages!`]): its tag, then its fields written
//! with [`veros_spec::wire`] (the codec the marshalling obligation
//! checks); the table also generates the exact `encoded_len` that
//! staging reserves journal space with. The row has one encoder and one
//! decoder, on its borrowed twin [`FsOpRef`] (`&str` path, `&[u8]`
//! data): an owned [`FsOp`] encodes by borrowing itself, and recovery
//! decodes owned ops, each one the twin's decode made owned.
//! Because of the checksum, a
//! record of which the drive kept only some sectors, or a torn one, is
//! detected rather than misparsed. The checksum is the 32-bit form of
//! the workspace's integrity checksum,
//! [`veros_spec::checksum::checksum32`]: a single-bit flip changes it
//! (pinned at every offset of inputs of 0–72, 1 024 and 1 032 bytes),
//! and the 64-bit value it is cut from changes whenever the damage stays
//! within one aligned 8-byte word.
//!
//! A mutation runs *validate → stage → apply*: the operation is checked
//! against the live tree without touching it, encoded into the open
//! transaction's record in memory (or refused with `NoSpace` if that
//! record would no longer fit the journal), and only then is the tree
//! mutated in place — by a step that cannot fail, because the check
//! already resolved everything it needs. A rejected operation (invalid,
//! or `NoSpace`) therefore leaves tree, staged record and disk exactly
//! as they were, and the cost of an accepted one is proportional to the
//! bytes it writes, not to the size of the tree. [`JournaledFs::commit`]
//! writes the staged record's sectors in one go and then issues the
//! flush barrier; nothing uncommitted ever reaches the disk.
//!
//! A transaction ([`JournaledFs::transact`]) is validated, staged and
//! applied from borrowed ops: its paths are validated in place as
//! [`Path`]s and its data is copied only into the record and the file,
//! so it allocates nothing but what the disk keeps. Each op's path is
//! resolved by one walk of the tree, and an op on the path the previous
//! op of the transaction named starts from that walk instead
//! ([`JournaledFs::transact_on`] lets the caller's own existence check
//! be that walk, and [`JournaledFs::open`] a lookup that may create).
//! The crash-safety argument is about record bytes, and these are the
//! bytes an owned op writes.
//!
//! Why that is crash-safe. The in-memory tree is always the replay of
//! the committed records followed by the staged operations. A drive may
//! persist any subset of the sectors written since the last barrier
//! (`SimDisk::crash_random`), so durability cannot rest on one sector
//! landing after another — nothing orders them. It rests on the
//! checksum: one checksum covers the whole transaction, so a record
//! replays only if every one of its sectors landed, whichever subset
//! the drive kept. Past the recovery frontier there can only be pieces
//! of a record that did not land whole (every earlier commit of that
//! life returned from its barrier), and the next commit overwrites them;
//! without a wrapping log no stale *complete* record sits at the
//! frontier, so the header carries no generation stamp. (The argument
//! assumes a payload sector is not itself a well-formed record: data
//! crafted to be one, exposed at the frontier by a partly landed
//! record, would replay — the stamp a wrapping log needs closes that
//! too.)

use veros_hw::{SimDisk, SECTOR_SIZE};
use veros_spec::checksum::checksum32;
use veros_spec::wire::{Reader, Writer, MAX_FIELD};

use crate::inode::Ino;
use crate::memfs::{Checked, Entry, FsError, MemFs};
use crate::path::Path;

veros_spec::wire_messages! {
    /// A journaled filesystem mutation. Each row is one operation's
    /// record format: its tag, then its fields in wire order.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum FsOp {
        /// An [`FsOp`] whose path and data are borrowed: what a
        /// transaction validates, stages and applies.
        borrowed FsOpRef<'a>
        /// Create an empty file.
        Create = 1 (path: String),
        /// Create a directory.
        Mkdir = 2 (path: String),
        /// Remove a file.
        Unlink = 3 (path: String),
        /// Remove an empty directory.
        Rmdir = 4 (path: String),
        /// Write bytes at an offset.
        WriteAt = 5 (path: String, offset: u64, data: Vec<u8>),
        /// Truncate to a length.
        Truncate = 6 (path: String, len: u64),
    }
}

impl FsOp {
    /// Applies the operation to a filesystem.
    pub fn apply(&self, fs: &mut MemFs) -> Result<(), FsError> {
        let op = self.borrowed();
        let checked = op.check(fs, fs.entry(&op.path()?)?)?;
        fs.apply_checked(checked);
        Ok(())
    }

    /// Decodes operations packed back to back, as a record holds them;
    /// `None` unless `bytes` is exactly a sequence of whole operations.
    fn decode_all(bytes: &[u8]) -> Option<Vec<FsOp>> {
        let mut d = Reader::new(bytes);
        let mut ops = Vec::new();
        while d.remaining() > 0 {
            ops.push(FsOp::read(&mut d).ok()?);
        }
        Some(ops)
    }
}

impl<'a> FsOpRef<'a> {
    /// The path the operation names, validated; an invalid one names
    /// nothing (`NotFound`).
    fn path(self) -> Result<Path<'a>, FsError> {
        let (FsOpRef::Create(p)
        | FsOpRef::Mkdir(p)
        | FsOpRef::Unlink(p)
        | FsOpRef::Rmdir(p)
        | FsOpRef::WriteAt(p, ..)
        | FsOpRef::Truncate(p, ..)) = self;
        Path::parse(p).map_err(|_| FsError::NotFound)
    }

    /// Validates the operation against `fs`, whose walk to the
    /// operation's path gave `at`, without mutating it: the error it
    /// would fail with, or the resolved mutation that
    /// [`MemFs::apply_checked`] then performs infallibly.
    fn check(self, fs: &MemFs, at: Entry<'a>) -> Result<Checked<'a>, FsError> {
        let file = |at: Entry<'_>| at.ino().ok_or(FsError::NotFound);
        match self {
            FsOpRef::Create(_) => fs.check_create(at),
            FsOpRef::Mkdir(_) => fs.check_mkdir(at),
            FsOpRef::Unlink(_) => fs.check_unlink(at),
            FsOpRef::Rmdir(_) => fs.check_rmdir(at),
            FsOpRef::WriteAt(_, off, data) => fs.check_write(file(at)?, off, data),
            FsOpRef::Truncate(_, len) => fs.check_truncate(file(at)?, len),
        }
    }
}

/// The last path a transaction resolved and what it names now: the next
/// op on the same path starts from it instead of walking the tree again.
/// Only an op on that very path has changed the tree since (an op
/// creates, removes or writes its own entry and nothing on the way to
/// it), so the entry is still exact once it names what that op left.
type Resolved<'a> = Option<(Path<'a>, Entry<'a>)>;

const MAGIC: u32 = 0x7665_4a4e; // "veJN"
/// Record framing around the operations: `MAGIC u32 | len u32` before
/// them, `checksum u32` after.
const HEADER: usize = 8;
const TRAILER: usize = 4;
/// Largest `len` recovery reads back (the same bound the codec puts on
/// one length-prefixed field), so staging refuses a transaction past it.
const MAX_OPS_LEN: usize = MAX_FIELD;

/// Sectors a record carrying `ops_len` bytes of operations occupies.
fn record_sectors(ops_len: usize) -> u64 {
    (HEADER + ops_len + TRAILER).div_ceil(SECTOR_SIZE) as u64
}

/// A journaled filesystem: a [`MemFs`] whose mutations reach a disk
/// journal before being acknowledged.
pub struct JournaledFs {
    /// The live in-memory state (reads are served from here): the replay
    /// of the committed records followed by the staged operations.
    pub fs: MemFs,
    disk: SimDisk,
    /// Next journal byte offset on disk (always a sector boundary).
    write_pos: u64,
    /// The open transaction's record — header, then every operation
    /// staged since the last commit; empty when nothing is staged.
    /// Reused so staging encodes straight into it and allocates nothing
    /// in steady state.
    record: Vec<u8>,
    journaling: bool,
    /// Whether `commit` issues the flush barrier. Always true in real
    /// use; see [`JournaledFs::set_commit_barriers`].
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
    /// the durability contract on purpose: committed records linger in
    /// the volatile write cache, so a crash can lose *acknowledged*
    /// transactions — the fault-injected site of the
    /// `invariant::fs_journal::*` anti-vacuity regression test. Switched
    /// off for one commit only, it models a commit whose barrier has not
    /// returned: the power is cut after the record's sectors were handed
    /// to the drive and before it made them durable, which is how the
    /// crash tests put a transaction in flight.
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

    /// Applies an operation in the current transaction: validate, stage
    /// it in the transaction's record (WAL rule), then mutate the
    /// in-memory state. On `Err` neither the state, the staged record
    /// nor the disk has changed.
    pub fn apply(&mut self, op: FsOp) -> Result<(), FsError> {
        self.apply_op(op.borrowed(), &mut None)
    }

    /// [`JournaledFs::apply`] of a borrowed op, resolving its path from
    /// `last` when that is the path the previous op resolved.
    fn apply_op<'a>(&mut self, op: FsOpRef<'a>, last: &mut Resolved<'a>) -> Result<(), FsError> {
        let path = op.path()?;
        let at = match *last {
            Some((p, at)) if p == path => at,
            _ => self.fs.entry(&path)?,
        };
        // Validate against the live state first: failed operations must
        // not reach the journal (replay would diverge). The check
        // resolves everything the mutation needs, so once the op is
        // staged the in-place apply has no way to fail.
        let checked = op.check(&self.fs, at)?;
        if self.journaling {
            let ops_len = self.staged() + op.encoded_len();
            if !self.fits(ops_len) {
                return Err(FsError::NoSpace);
            }
            if self.record.is_empty() {
                Writer::new(&mut self.record).u32(MAGIC).u32(0); // `len`, sealed by `commit`
            }
            op.write(&mut Writer::new(&mut self.record));
            debug_assert_eq!(self.record.len(), HEADER + ops_len, "encoded_len is exact");
        }
        let ino = self.fs.apply_checked(checked);
        let removed = matches!(op, FsOpRef::Unlink(_) | FsOpRef::Rmdir(_));
        *last = Some((path, at.naming((!removed).then_some(ino))));
        Ok(())
    }

    /// Bytes of operations staged in the open transaction's record.
    fn staged(&self) -> usize {
        self.record.len().saturating_sub(HEADER)
    }

    /// Whether a record holding `ops_len` bytes of operations fits the
    /// journal after `write_pos` and is one recovery will read back.
    fn fits(&self, ops_len: usize) -> bool {
        let first = self.write_pos / SECTOR_SIZE as u64;
        ops_len <= MAX_OPS_LEN && first + record_sectors(ops_len) <= journal_sectors(&self.disk)
    }

    /// Runs `ops` as one committed transaction. Room for its record —
    /// whatever is already staged plus every op of `ops` — is reserved
    /// before the first op is staged: a transaction that does not fit
    /// fails with `NoSpace` having changed neither memory nor disk, so it
    /// cannot leave a half-applied prefix for a later commit to seal.
    /// Ops are validated in order, each against the state its
    /// predecessors left; an invalid op stops the transaction there,
    /// uncommitted, exactly as the same sequence of
    /// [`JournaledFs::apply`] calls would. The ops are staged from the
    /// caller's bytes: nothing of them is copied but into the record.
    pub fn transact(&mut self, ops: &[FsOpRef<'_>]) -> Result<(), FsError> {
        self.run(ops, None).map(drop)
    }

    /// Runs, as [`JournaledFs::transact`] does, the transaction `build`
    /// makes for `path` from whether it names anything. `path` is
    /// resolved once, for `build` and for every op that names it.
    pub fn transact_on<'a, const N: usize>(
        &mut self,
        path: Path<'a>,
        build: impl FnOnce(bool) -> [FsOpRef<'a>; N],
    ) -> Result<(), FsError> {
        let at = self.fs.entry(&path);
        let ops = build(at.is_ok_and(|at| at.ino().is_some()));
        self.run(&ops, at.ok().map(|at| (path, at))).map(drop)
    }

    /// The inode `path` names, or, when it names nothing and `create` is
    /// set, the one a committed `Create` made from the same walk: the
    /// tree is walked once. Fails as a lookup, or that `Create`, would.
    pub fn open(&mut self, path: Path<'_>, create: bool) -> Result<Ino, FsError> {
        let at = match self.fs.entry(&path) {
            Ok(at) if at.ino().is_some() || !create => return at.ino().ok_or(FsError::NotFound),
            Err(e) if e != FsError::NotFound || !create => return Err(e),
            // Nothing there, or no parent (the `Create` then fails as it would on its own).
            at => at.ok().map(|at| (path, at)),
        };
        let created = self.run(&[FsOpRef::Create(path.as_str())], at)?;
        created.and_then(|(_, at)| at.ino()).ok_or(FsError::NotFound)
    }

    /// Runs `ops` as one transaction from `last`; answers what `last` is after it.
    fn run<'a>(&mut self, ops: &[FsOpRef<'a>], mut last: Resolved<'a>) -> Result<Resolved<'a>, FsError> {
        if self.journaling {
            let ops_len = self.staged() + ops.iter().map(FsOpRef::encoded_len).sum::<usize>();
            if !self.fits(ops_len) {
                return Err(FsError::NoSpace);
            }
        }
        for &op in ops {
            self.apply_op(op, &mut last)?;
        }
        self.commit()?;
        Ok(last)
    }

    /// Commits the current transaction: its record's sectors, then a
    /// flush barrier. After `commit` returns, the transaction survives
    /// any crash. With nothing staged there is no record to write, but
    /// the barrier is still issued (and the commit counted).
    pub fn commit(&mut self) -> Result<(), FsError> {
        if self.journaling {
            if !self.record.is_empty() {
                self.write_record()?;
            }
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

    /// Recovers from `disk`: replays every record that reached the disk
    /// whole, up to the first that did not.
    pub fn recover(disk: SimDisk) -> Self {
        let mut fs = MemFs::new();
        let mut pos = 0u64;
        let mut replayed = 0u64;
        while let Some((ops, next)) = read_record(&disk, pos) {
            replayed += ops.len() as u64;
            for op in ops {
                // Replay of a committed op cannot fail: it succeeded
                // against this exact state before being journaled.
                #[expect(
                    clippy::expect_used,
                    reason = "see above; a replay failure means the journal invariant broke \
                              and recovery must not silently produce a wrong tree"
                )]
                op.apply(&mut fs).expect("committed op replays");
            }
            pos = next;
        }
        if replayed > 0 {
            crate::metrics::JOURNAL_REPLAYED.add(replayed);
        }
        Self {
            fs,
            disk,
            // New records go at the recovery frontier; whatever lies
            // past it never landed whole and is overwritten.
            write_pos: pos,
            record: Vec::new(),
            journaling: true,
            commit_barriers: true,
            replayed_ops: replayed,
        }
    }

    /// Seals the staged record — `len`, checksum, zero padding — and
    /// writes its sectors at `write_pos`. Staging reserved the room, so
    /// no write can run off the disk.
    fn write_record(&mut self) -> Result<(), FsError> {
        let rec = &mut self.record;
        let ops_len = rec.len() - HEADER;
        let sectors = record_sectors(ops_len);
        let first = self.write_pos / SECTOR_SIZE as u64;
        rec[4..HEADER].copy_from_slice(&(ops_len as u32).to_le_bytes());
        let sum = checksum32(&rec[4..]);
        rec.extend_from_slice(&sum.to_le_bytes());
        rec.resize(sectors as usize * SECTOR_SIZE, 0);
        for (sector, data) in (first..).zip(rec.as_chunks::<SECTOR_SIZE>().0) {
            self.disk.write(sector, data).map_err(|_| FsError::NoSpace)?;
        }
        rec.clear();
        self.write_pos = (first + sectors) * SECTOR_SIZE as u64;
        crate::metrics::WAL_BYTES.add(sectors * SECTOR_SIZE as u64);
        Ok(())
    }
}

/// The record at byte offset `pos` — its operations and the offset
/// after it — if it parses and its checksum holds; `None` marks the end
/// of the journal (never written, landed in part, or torn).
fn read_record(disk: &SimDisk, pos: u64) -> Option<(Vec<FsOp>, u64)> {
    let first = pos / SECTOR_SIZE as u64;
    let mut head = [0u8; SECTOR_SIZE];
    disk.read(first, &mut head).ok()?;
    let mut r = Reader::new(&head);
    if r.u32().ok()? != MAGIC {
        return None;
    }
    let len = r.u32().ok()? as usize;
    if len > MAX_OPS_LEN {
        return None;
    }
    let sectors = record_sectors(len);
    if first + sectors > disk.sectors() {
        return None;
    }
    let mut raw = vec![0u8; sectors as usize * SECTOR_SIZE];
    for (sector, buf) in (first..).zip(raw.as_chunks_mut::<SECTOR_SIZE>().0) {
        disk.read(sector, buf).ok()?;
    }
    if checksum32(raw.get(4..HEADER + len)?) != Reader::new(raw.get(HEADER + len..)?).u32().ok()? {
        return None;
    }
    let ops = FsOp::decode_all(raw.get(HEADER..HEADER + len)?)?;
    Some((ops, (first + sectors) * SECTOR_SIZE as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_spec::checksum::checksum64;
    use veros_spec::rng::SpecRng;

    #[test]
    fn all_op_kinds_encode_round_trip() {
        for op in FsOp::samples() {
            let bytes = op.encode();
            assert_eq!(bytes.len(), op.encoded_len());
            assert_eq!(FsOp::decode_all(&bytes), Some(vec![op]));
        }
        assert_eq!(FsOp::decode_all(&[9, 0]), None);
    }

    /// A record's operations sit back to back: the sequence decodes
    /// whole, and a truncated last operation fails the record.
    #[test]
    fn packed_ops_decode_as_a_sequence() {
        let ops = vec![FsOp::Create("/a".into()), FsOp::WriteAt("/a".into(), 1, vec![5; 9])];
        let bytes: Vec<u8> = ops.iter().flat_map(FsOp::encode).collect();
        assert_eq!(FsOp::decode_all(&bytes), Some(ops));
        assert_eq!(FsOp::decode_all(&bytes[..bytes.len() - 1]), None);
    }

    /// The journal's on-disk bytes: 12 ops in 3 transactions, all six
    /// kinds, one record per transaction. With `HEADER + TRAILER` = 12
    /// bytes of framing the records carry 7 + 9 + 1221 + 7 = 1244,
    /// 24 + 17 + 7 + 9 = 57 and 7 + 9 + 7 + 621 = 644 bytes of ops, so
    /// they take 1256 → 3, 69 → 1 and 656 → 2 sectors: 6 writes and one
    /// barrier per commit.
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
        assert_eq!(disk.stats(), (6, 3), "3 + 1 + 2 sectors, one barrier per commit");
        // Two sectors past the last record: still zero.
        let mut image = Vec::new();
        for sector in 0..8 {
            let mut buf = [0u8; SECTOR_SIZE];
            disk.read(sector, &mut buf).unwrap();
            image.extend_from_slice(&buf);
        }
        // The three headers: MAGIC, then `len`, at sectors 0, 3 and 4.
        let records = [(0, 1244u32), (3, 57), (4, 644)];
        for (sector, len) in records {
            let head = &image[sector * SECTOR_SIZE..][..HEADER];
            assert_eq!(head, [MAGIC.to_le_bytes(), len.to_le_bytes()].concat());
        }
        // With the three 4-byte checksum fields zeroed, the image is the
        // one the byte-serial FNV-1a journal wrote: only those 12 bytes
        // depend on the checksum function.
        let mut masked = image.clone();
        for (sector, len) in records {
            masked[sector * SECTOR_SIZE + HEADER + len as usize..][..TRAILER].fill(0);
        }
        assert_eq!(checksum64(&masked), 0x3bdd_4e02_e257_839d);
        assert_eq!(checksum64(&image), 0x98c2_3282_e414_3d83);
    }

    /// A commit with nothing staged writes no record, but it is still a
    /// commit: the barrier is issued.
    #[test]
    fn an_empty_commit_writes_nothing_and_still_flushes() {
        let mut jfs = JournaledFs::format(SimDisk::new(8));
        jfs.commit().unwrap();
        jfs.transact(&[]).unwrap();
        assert_eq!(jfs.disk().stats(), (0, 2));
        assert_eq!(JournaledFs::recover(jfs.into_disk()).fs, MemFs::new());
    }

    /// `open` answers what a lookup would, and creates (one committed
    /// `Create`, the record `transact` would write) only a file that is
    /// missing and asked for.
    #[test]
    fn open_looks_up_or_creates_as_lookup_and_transact_would() {
        let p = |s| Path::parse(s).unwrap();
        let mut jfs = JournaledFs::format(SimDisk::new(16));
        jfs.transact(&[FsOpRef::Mkdir("/d"), FsOpRef::Create("/d/f")]).unwrap();
        let stats = jfs.disk().stats();
        assert_eq!(jfs.open(p("/d/f"), true), jfs.fs.lookup(&p("/d/f")));
        assert_eq!(jfs.open(p("/d"), false), jfs.fs.lookup(&p("/d")));
        assert_eq!(jfs.open(p("/d/g"), false), Err(FsError::NotFound));
        assert_eq!(jfs.open(p("/x/g"), true), Err(FsError::NotFound));
        assert_eq!(jfs.open(p("/d/f/g"), true), Err(FsError::NotADirectory));
        assert_eq!(jfs.disk().stats(), stats, "nothing created, nothing committed");
        let created = jfs.open(p("/d/g"), true).unwrap();
        assert_eq!(jfs.fs.lookup(&p("/d/g")), Ok(created));
        assert_eq!(jfs.disk().stats(), (stats.0 + 1, stats.1 + 1), "one record, one barrier");
        let mut twin = JournaledFs::format(SimDisk::new(16));
        twin.transact(&[FsOpRef::Mkdir("/d"), FsOpRef::Create("/d/f")]).unwrap();
        twin.transact(&[FsOpRef::Create("/d/g")]).unwrap();
        assert_eq!(
            JournaledFs::recover(jfs.into_disk()).fs,
            JournaledFs::recover(twin.into_disk()).fs
        );
    }

    /// The all-or-nothing rule (INVARIANTS.md §3): a transaction whose
    /// record does not fit is refused before anything is staged,
    /// whatever prefix of it would have fitted.
    #[test]
    fn transaction_without_room_for_its_commit_changes_nothing() {
        let data = [9; 1024];
        let txn = [FsOpRef::Truncate("/f", 0), FsOpRef::WriteAt("/f", 0, &data)];
        // Taken: `Create /g` (7 bytes of ops → 1 sector) and `Create /f`
        // + 1 KiB `WriteAt` (7 + 1043 → 3 sectors), 4 in all. The
        // transaction needs 15 + 1043 → 3 sectors, so it fits from 7;
        // `Unlink /g` (7 → 1 sector) from 5.
        for (sectors, fits) in [(4, false), (5, false), (6, false), (7, true)] {
            let mut jfs = JournaledFs::format(SimDisk::new(sectors));
            jfs.transact(&[FsOpRef::Create("/g")]).unwrap();
            jfs.transact(&[FsOpRef::Create("/f"), FsOpRef::WriteAt("/f", 0, &[1; 1024])]).unwrap();
            let before = (jfs.fs.clone(), jfs.write_pos, jfs.disk.stats());
            let got = jfs.transact(&txn);
            assert_eq!(got.is_ok(), fits, "{sectors} sectors: {got:?}");
            if !fits {
                assert_eq!(got, Err(FsError::NoSpace));
                assert_eq!((jfs.fs.clone(), jfs.write_pos, jfs.disk.stats()), before);
                assert!(jfs.record.is_empty(), "nothing staged");
                // A later transaction that does fit seals nothing stale.
                let small = jfs.transact(&[FsOpRef::Unlink("/g")]);
                assert_eq!(small.is_ok(), sectors >= 5);
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
        assert_eq!(disk.dirty(), 0, "staged ops never reach the drive");
        disk.crash_keep_prefix(usize::MAX); // Even a crash that keeps all...
        let recovered = JournaledFs::recover(disk);
        // ...has no record of the txn, so it is wholly absent.
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

    /// Every sector as a read sees it: before a crash, what was written
    /// (the cache wins); after it, what reached the platter.
    fn platter(disk: &SimDisk) -> Vec<u8> {
        let mut image = vec![0u8; disk.sectors() as usize * SECTOR_SIZE];
        for (sector, buf) in (0..).zip(image.as_chunks_mut::<SECTOR_SIZE>().0) {
            disk.read(sector, buf).unwrap();
        }
        image
    }

    /// The crash-safety spec over random histories, with a commit in
    /// flight: the last transaction is committed with its barrier
    /// withheld and the drive keeps a random subset of its two sectors.
    /// Recovery gives C, the state at the last acknowledged commit, or
    /// C′, the state after the in-flight one — C′ exactly when its
    /// whole record reached the platter — and never an op staged after
    /// it. Both outcomes must occur, or the test proves nothing.
    #[test]
    fn random_crash_recovers_to_a_committed_boundary() {
        let mut outcomes = [0u32; 2];
        for seed in 0..32u64 {
            let mut rng = SpecRng::seeded(seed);
            let mut jfs = JournaledFs::format(SimDisk::new(64));
            let mut acked = MemFs::new();
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
                    acked = jfs.fs.clone();
                }
            }
            // In flight: 7 + 620 bytes of ops, a 2-sector record.
            let _ = jfs.apply(FsOp::Create("/tail".into()));
            jfs.set_commit_barriers(false);
            jfs.transact(&[FsOpRef::WriteAt("/tail", 0, &[seed as u8; 600])]).unwrap();
            let in_flight = jfs.fs.clone();
            // Staged after it and never committed.
            jfs.apply(FsOp::Create("/staged".into())).unwrap();
            let mut disk = jfs.into_disk();
            assert_eq!(disk.dirty(), 2, "seed {seed}: the in-flight record is all that is cached");
            let written = platter(&disk);
            disk.crash_random(&mut rng);
            let landed = platter(&disk) == written;
            let recovered = JournaledFs::recover(disk).fs;
            let want = if landed { &in_flight } else { &acked };
            assert!(recovered == *want, "seed {seed}: landed {landed}, recovered another state");
            outcomes[landed as usize] += 1;
        }
        assert!(outcomes.iter().all(|&n| n > 0), "C and C′ both exercised: {outcomes:?}");
    }

    /// Two lives, the second ending with a commit in flight. With a
    /// record per op plus a commit record, life 1's uncommitted `/b` and
    /// `/c` records persisted past the recovery frontier; life 2's
    /// 600-byte write (2 sectors) rewrote their sectors and put its
    /// commit sector after them; and a drive that kept the commit sector
    /// but neither write sector handed recovery `/b`, `/c` and a commit
    /// to seal them — 9 of these 64 seeds. Now nothing uncommitted is
    /// written and a record replays only whole: C or C′ on every seed.
    #[test]
    fn a_second_crash_never_replays_an_uncommitted_tail() {
        for seed in 0..64u64 {
            // Life 1: `/a` committed; `/b`, `/c` applied, never
            // committed, and the crash keeps all the drive had cached.
            let mut jfs = JournaledFs::format(SimDisk::new(64));
            jfs.transact(&[FsOpRef::Create("/a")]).unwrap();
            jfs.apply(FsOp::Create("/b".into())).unwrap();
            jfs.apply(FsOp::Create("/c".into())).unwrap();
            let mut disk = jfs.into_disk();
            disk.crash_keep_prefix(usize::MAX);
            // Life 2: one transaction, power cut before its barrier
            // returns.
            let mut jfs = JournaledFs::recover(disk);
            let acked = jfs.fs.clone();
            jfs.set_commit_barriers(false);
            jfs.transact(&[FsOpRef::WriteAt("/a", 0, &[7; 600])]).unwrap();
            let in_flight = jfs.fs.clone();
            let mut disk = jfs.into_disk();
            disk.crash_random(&mut SpecRng::seeded(seed));
            let fs = JournaledFs::recover(disk).fs;
            assert!(fs == acked || fs == in_flight, "seed {seed}: recovered a state no commit made");
        }
    }
}
