//! The journal's on-disk bytes for what its two users write, pinned.
//!
//! A block store's puts and deletes and the kernel's file syscalls are
//! the journal's callers; whatever their ops are built from in memory,
//! the records they leave must stay byte for byte these. The test runs
//! a fixed sequence — a new key, its overwrite, an empty block, the
//! largest block one frame carries (1 439 B under a 1-byte key), a long
//! key, a delete and a re-put, then kernel-style `Create`, `WriteAt`
//! and `Unlink` transactions on the same disk — and pins a digest of
//! every durable sector, the number of records, the disk's write and
//! barrier counts, and that recovery rebuilds the live tree.

use veros_blockstore::wire::block_checksum;
use veros_blockstore::BlockStore;
use veros_fs::journal::{FsOp, JournaledFs};
use veros_hw::{SimDisk, SECTOR_SIZE};
use veros_spec::checksum::checksum64;

const SECTORS: u64 = 64;

/// A deterministic `len`-byte block.
fn block(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32).map(|i| (i * 31 + salt * 7) as u8).collect()
}

fn put(store: &mut BlockStore, key: &str, data: &[u8]) {
    store.put(key, data, block_checksum(data)).expect("the put fits the disk");
}

/// Every sector as the platter holds it.
fn image(disk: &SimDisk) -> Vec<u8> {
    let mut image = vec![0u8; disk.sectors() as usize * SECTOR_SIZE];
    for (sector, buf) in (0..).zip(image.as_chunks_mut::<SECTOR_SIZE>().0) {
        disk.read(sector, buf).expect("in range");
    }
    image
}

/// Records from the start of the journal: each is `"veJN" | len u32`,
/// `len` bytes of ops and a 4-byte checksum, zero-padded to sectors.
fn records(image: &[u8]) -> usize {
    let (mut at, mut n) = (0, 0);
    while image[at..].starts_with(b"NJev") {
        let len = u32::from_le_bytes(image[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        at += (8 + len + 4).div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
        n += 1;
    }
    assert!(image[at..].iter().all(|&b| b == 0), "nothing past the last record");
    n
}

#[test]
fn block_store_and_kernel_records_have_their_pinned_bytes() {
    let long_key = "long key / grüße ".repeat(12);
    let mut store = BlockStore::format(SECTORS);
    put(&mut store, "alpha", &block(1024, 1));
    put(&mut store, "alpha", &block(1024, 2));
    put(&mut store, "empty", &[]);
    put(&mut store, "k", &block(1439, 3));
    put(&mut store, &long_key, &block(100, 4));
    store.delete("alpha").expect("stored");
    put(&mut store, "alpha", &block(512, 5));

    // The kernel's syscalls on the same journal: `open(create)` is one
    // `Create`, `write` one `WriteAt` at the descriptor's offset,
    // `unlink` one `Unlink` — each its own committed transaction.
    let mut jfs = JournaledFs::recover(store.into_disk());
    let file = || "/data.bin".to_string();
    let txns = [
        vec![FsOp::Create(file())],
        vec![FsOp::WriteAt(file(), 0, block(700, 6))],
        vec![FsOp::WriteAt(file(), 700, block(9, 7))],
        vec![FsOp::Create("/tmp".into()), FsOp::WriteAt("/tmp".into(), 0, block(3, 8))],
        vec![FsOp::Unlink("/tmp".into())],
        // The block store's "empty" (`/b_` + its hex), unlinked.
        vec![FsOp::Unlink("/b_656d707479".into())],
    ];
    for txn in txns {
        for op in txn {
            jfs.apply(op).expect("valid op");
        }
        jfs.commit().expect("fits");
    }
    let live = jfs.fs.clone();
    let disk = jfs.into_disk();
    assert_eq!(disk.dirty(), 0, "every commit's barrier returned");
    assert_eq!(disk.stats(), (23, 13), "sector writes and barriers");

    let image = image(&disk);
    assert_eq!(records(&image), 13, "one record per transaction");
    assert_eq!(checksum64(&image), 0x618b_b3d4_a0bb_0168, "the durable sectors");

    let recovered = JournaledFs::recover(disk);
    assert_eq!(recovered.fs, live);
    let store = BlockStore::recover(recovered.into_disk());
    assert_eq!(store.get("k").map(|(data, _)| data), Ok(block(1439, 3)));
    assert_eq!(store.get(&long_key).map(|(data, _)| data), Ok(block(100, 4)));
    assert_eq!(store.get("alpha").map(|(data, _)| data), Ok(block(512, 5)));
    assert_eq!(store.list(), ["alpha", "k", long_key.as_str()]);
}
