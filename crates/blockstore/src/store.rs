//! The local storage engine.
//!
//! Blocks live as files in the journaled filesystem: key `k` maps to the
//! file `/b_<hex(k)>` whose first 8 bytes are the stored checksum and the
//! rest the block data. Every mutation is one committed journal
//! transaction, so the engine inherits the journal's crash-safety spec:
//! acknowledged puts and deletes survive any crash.

use veros_fs::journal::{FsOp, JournaledFs};
use veros_fs::{FsError, Path};
use veros_hw::SimDisk;

use crate::wire::{block_checksum, Response};

/// Storage errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The provided checksum did not match the data.
    ChecksumMismatch,
    /// The stored block failed its checksum on read (corruption).
    Corrupt,
    /// No such key.
    NotFound,
    /// The filesystem rejected the operation.
    Fs(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::ChecksumMismatch => f.write_str("checksum mismatch"),
            StoreError::Corrupt => f.write_str("stored block corrupt"),
            StoreError::NotFound => f.write_str("no such key"),
            StoreError::Fs(e) => write!(f, "filesystem: {e}"),
        }
    }
}

/// The storage engine.
pub struct BlockStore {
    fs: JournaledFs,
}

fn key_path(key: &str) -> String {
    // Hex-encode so arbitrary keys are always valid single-component
    // paths.
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut path = String::with_capacity(3 + 2 * key.len());
    path.push_str("/b_");
    for b in key.bytes() {
        path.push(HEX[(b >> 4) as usize] as char);
        path.push(HEX[(b & 0xf) as usize] as char);
    }
    path
}

fn path_key(path: &str) -> Option<String> {
    let hex = path.strip_prefix("/b_")?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for i in (0..hex.len()).step_by(2) {
        bytes.push(u8::from_str_radix(&hex[i..i + 2], 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

impl BlockStore {
    /// Creates an empty store on a fresh disk of `sectors`.
    pub fn format(sectors: u64) -> Self {
        Self {
            fs: JournaledFs::format(SimDisk::new(sectors)),
        }
    }

    /// Recovers a store from a (possibly crashed) disk.
    pub fn recover(disk: SimDisk) -> Self {
        Self {
            fs: JournaledFs::recover(disk),
        }
    }

    /// Consumes the store, returning the disk (crash testing).
    pub fn into_disk(self) -> SimDisk {
        self.fs.into_disk()
    }

    /// Stores a block, verifying the client checksum first. One
    /// committed transaction: after `Ok`, the block survives crashes;
    /// after `Err`, the previous value (if any) is still the stored one.
    pub fn put(&mut self, key: &str, data: &[u8], checksum: u64) -> Result<(), StoreError> {
        let _latency = crate::metrics::PUT_LATENCY.timer();
        if block_checksum(data) != checksum {
            crate::metrics::CHECKSUM_FAILURES.inc();
            return Err(StoreError::ChecksumMismatch);
        }
        let path = key_path(key);
        #[expect(
            clippy::expect_used,
            reason = "`key_path` hex-encodes the key into one valid path component"
        )]
        let exists = self
            .fs
            .fs
            .lookup(&Path::parse(&path).expect("hex path"))
            .is_ok();
        let reset = if exists {
            FsOp::Truncate(path.clone(), 0)
        } else {
            FsOp::Create(path.clone())
        };
        let mut payload = Vec::with_capacity(8 + data.len());
        payload.extend_from_slice(&checksum.to_le_bytes());
        payload.extend_from_slice(data);
        self.fs
            .transact(&[reset, FsOp::WriteAt(path, 0, payload)])
            .map_err(|e| StoreError::Fs(e.to_string()))
    }

    /// Fetches a block and its stored checksum, verifying integrity.
    pub fn get(&self, key: &str) -> Result<(Vec<u8>, u64), StoreError> {
        self.read(key, |len, fill| {
            let mut data = vec![0; len];
            let checksum = fill(&mut data)?;
            Ok((data, checksum))
        })
    }

    /// The encoded `GetOk` answering request `id` with the block under
    /// `key`: the block is read from its file straight into the reply
    /// and verified there, so the reply is the read's one allocation
    /// besides the file's path.
    pub fn get_reply(&self, id: u64, key: &str) -> Result<Vec<u8>, StoreError> {
        self.read(key, |len, fill| Response::encode_get_ok(id, len, fill))
    }

    /// Looks up the block under `key` and hands its length to `build`,
    /// with a `fill` that reads the block into a slot of that length,
    /// verifies it there against the stored checksum and returns that
    /// checksum. The checksum prefix and the block go straight into
    /// their final homes: one copy of the block, not file -> scratch ->
    /// result.
    fn read<T>(
        &self,
        key: &str,
        build: impl FnOnce(usize, &dyn Fn(&mut [u8]) -> Result<u64, StoreError>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let _latency = crate::metrics::GET_LATENCY.timer();
        #[expect(
            clippy::expect_used,
            reason = "`key_path` hex-encodes the key into one valid path component"
        )]
        let path = Path::from_string(key_path(key)).expect("hex path");
        let fs = &self.fs.fs;
        let ino = fs.lookup(&path).map_err(|_| StoreError::NotFound)?;
        let len = fs.len_of(ino).map_err(|_| StoreError::NotFound)?;
        if len < 8 {
            return Err(StoreError::Corrupt);
        }
        build(len as usize - 8, &|data| {
            let mut prefix = [0u8; 8];
            fs.read_at(ino, 0, &mut prefix).map_err(|_| StoreError::NotFound)?;
            fs.read_at(ino, 8, data).map_err(|_| StoreError::NotFound)?;
            let checksum = u64::from_le_bytes(prefix);
            if block_checksum(data) != checksum {
                crate::metrics::CHECKSUM_FAILURES.inc();
                return Err(StoreError::Corrupt);
            }
            Ok(checksum)
        })
    }

    /// Deletes a block (committed transaction).
    pub fn delete(&mut self, key: &str) -> Result<(), StoreError> {
        let _latency = crate::metrics::DELETE_LATENCY.timer();
        let path = key_path(key);
        self.fs.transact(&[FsOp::Unlink(path)]).map_err(|e| match e {
            FsError::NoSpace => StoreError::Fs(e.to_string()),
            _ => StoreError::NotFound,
        })
    }

    /// All keys, sorted.
    pub fn list(&self) -> Vec<String> {
        #[expect(
            clippy::expect_used,
            reason = "the root directory exists in every formatted or recovered store"
        )]
        let mut keys: Vec<String> = self
            .fs
            .fs
            .readdir(&Path::root())
            .expect("root exists")
            .iter()
            .filter_map(|name| path_key(&format!("/{name}")))
            .collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip_with_checksums() {
        let mut s = BlockStore::format(4096);
        let data = b"the quick brown block".to_vec();
        let ck = block_checksum(&data);
        s.put("obj/1", &data, ck).unwrap();
        let (got, got_ck) = s.get("obj/1").unwrap();
        assert_eq!(got, data);
        assert_eq!(got_ck, ck);
        // Read straight into a reply: the same bytes as encoding it.
        let reply = Response::GetOk { id: 5, data, checksum: ck }.encode();
        assert_eq!(s.get_reply(5, "obj/1"), Ok(reply));
        assert_eq!(s.get_reply(5, "absent"), Err(StoreError::NotFound));
    }

    /// Runs `op` and asserts it ticked `blockstore.checksum_failures`
    /// (telemetry builds only). The counter is process-global and other
    /// tests may tick it in parallel, so the check is "advanced by at
    /// least one", not an exact delta.
    fn ticks_checksum_failures(op: impl FnOnce()) {
        let before = crate::metrics::CHECKSUM_FAILURES.get();
        op();
        if veros_telemetry::enabled() {
            assert!(crate::metrics::CHECKSUM_FAILURES.get() > before);
        }
    }

    #[test]
    fn wrong_checksum_rejected_before_storing() {
        let mut s = BlockStore::format(4096);
        ticks_checksum_failures(|| {
            assert_eq!(
                s.put("k", b"data", 12345),
                Err(StoreError::ChecksumMismatch)
            )
        });
        assert_eq!(s.get("k"), Err(StoreError::NotFound));
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut s = BlockStore::format(4096);
        s.put("k", b"longer first version", block_checksum(b"longer first version"))
            .unwrap();
        s.put("k", b"v2", block_checksum(b"v2")).unwrap();
        assert_eq!(s.get("k").unwrap().0, b"v2");
    }

    #[test]
    fn delete_then_not_found() {
        let mut s = BlockStore::format(4096);
        s.put("k", b"x", block_checksum(b"x")).unwrap();
        s.delete("k").unwrap();
        assert_eq!(s.get("k"), Err(StoreError::NotFound));
        assert_eq!(s.delete("k"), Err(StoreError::NotFound));
    }

    #[test]
    fn list_returns_original_keys() {
        let mut s = BlockStore::format(4096);
        for k in ["zeta", "alpha", "weird/key with spaces", "ütf8"] {
            s.put(k, b"v", block_checksum(b"v")).unwrap();
        }
        assert_eq!(
            s.list(),
            vec!["alpha", "weird/key with spaces", "zeta", "ütf8"]
        );
    }

    #[test]
    fn acknowledged_puts_survive_crashes() {
        let mut s = BlockStore::format(8192);
        s.put("durable", b"yes", block_checksum(b"yes")).unwrap();
        let mut disk = s.into_disk();
        disk.crash_keep_prefix(0); // Drop all unflushed writes.
        let s = BlockStore::recover(disk);
        assert_eq!(s.get("durable").unwrap().0, b"yes");
    }

    /// A put that does not fit the journal must fail whole. Before
    /// transactions reserved their space, an overwrite whose 1-sector
    /// `Truncate` record fitted and whose 3-sector `WriteAt` did not
    /// left the key truncated in memory and an open transaction on
    /// disk, which the next small commit (the delete below) sealed: the
    /// acknowledged value was gone for good.
    ///
    /// Every disk size must both land a put and refuse one: the first
    /// 1 KiB put is a 3-sector record and the 1-byte "other" 1 more, so
    /// 3 sectors land round 0 and refuse round 1; each later round takes
    /// 3, so 4 + 3 × 7 = 25 would land all eight and 24 is the top.
    #[test]
    fn a_put_refused_for_space_never_damages_the_acknowledged_value() {
        for sectors in 3..25 {
            let mut s = BlockStore::format(sectors);
            let mut acked = None;
            let mut refused = false;
            for round in 0..8 {
                let v = vec![round; 1024];
                match s.put("k", &v, block_checksum(&v)) {
                    Ok(()) => acked = Some(v),
                    Err(e) => {
                        assert_eq!(e, StoreError::Fs(FsError::NoSpace.to_string()));
                        refused = true;
                    }
                }
                if round == 0 {
                    let _ = s.put("other", b"x", block_checksum(b"x"));
                }
            }
            assert!(acked.is_some() && refused, "{sectors} sectors: one put lands, one is refused");
            let stored = |s: &BlockStore| s.get("k").ok().map(|(data, _)| data);
            assert_eq!(stored(&s), acked, "{sectors} sectors: live value after a refused put");
            // A small transaction that still fits commits whatever the
            // journal holds; it must not hold half a put.
            let _ = s.delete("other");
            assert_eq!(stored(&s), acked, "{sectors} sectors: live value after the delete");
            let s = BlockStore::recover(s.into_disk());
            assert_eq!(stored(&s), acked, "{sectors} sectors: recovered value");
        }
    }

    /// A store mutation is one journal record and one barrier. The
    /// record is 8 bytes of header + 4 of checksum around the ops,
    /// whose paths are the 5-byte `/b_6b`: a 1 KiB overwrite is
    /// `Truncate` (18) + `WriteAt` of 8 + 1024 bytes (1054) → 1084 bytes,
    /// 3 sectors; a 128 B one is 18 + 158 → 188 bytes and an `Unlink`
    /// 10 → 22 bytes, 1 sector each.
    #[test]
    fn a_put_or_delete_costs_one_record_and_one_barrier() {
        fn cost(s: &mut BlockStore, op: impl FnOnce(&mut BlockStore)) -> (u64, u64) {
            let (writes, flushes) = s.fs.disk().stats();
            op(s);
            let (w, f) = s.fs.disk().stats();
            (w - writes, f - flushes)
        }
        let put = |len: usize| {
            move |s: &mut BlockStore| {
                let v = vec![1; len];
                s.put("k", &v, block_checksum(&v)).unwrap();
            }
        };
        let mut s = BlockStore::format(64);
        put(1024)(&mut s);
        assert_eq!(cost(&mut s, put(1024)), (3, 1), "1 KiB overwrite");
        assert_eq!(cost(&mut s, put(128)), (1, 1), "128 B overwrite");
        assert_eq!(cost(&mut s, |s| s.delete("k").unwrap()), (1, 1), "delete");
    }

    #[test]
    fn corruption_is_detected_on_read() {
        let mut s = BlockStore::format(4096);
        s.put("k", b"data", block_checksum(b"data")).unwrap();
        // Corrupt the stored file behind the store's back.
        let path = Path::parse(&key_path("k")).unwrap();
        let ino = s.fs.fs.lookup(&path).unwrap();
        s.fs.fs.write_at(ino, 9, b"X").unwrap();
        ticks_checksum_failures(|| assert_eq!(s.get("k"), Err(StoreError::Corrupt)));
        ticks_checksum_failures(|| assert_eq!(s.get_reply(1, "k"), Err(StoreError::Corrupt)));
    }
}
