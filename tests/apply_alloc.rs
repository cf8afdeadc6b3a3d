//! A durable write costs memory in proportion to the bytes it writes,
//! not to how much the filesystem or the store already holds — asserted
//! on exact allocation counts, so the result is the same on every host
//! and every run (no clock involved).
//!
//! This is the guard that keeps a validate-by-cloning
//! `JournaledFs::apply` from coming back: cloning a tree of 1024 one-KiB
//! files is a megabyte per operation. A block-store put and a
//! transaction's `WriteAt` are pinned exactly: they allocate the disk's
//! sector boxes and nothing else, so a copied path or payload, or a path
//! parsed into a new string, fails it. Its own test binary with a single
//! `#[test]`: see `counting_alloc`.

mod counting_alloc;

use counting_alloc::{allocated_by, Allocated};
use veros_blockstore::wire::block_checksum;
use veros_blockstore::BlockStore;
use veros_fs::journal::{FsOp, FsOpRef, JournaledFs};
use veros_hw::SimDisk;

const VALUE: usize = 1024;

/// Mean bytes allocated by each call of `op`, over `n` calls. Averaging
/// absorbs the amortised doubling of the disk's sector table.
fn bytes_per_call(n: usize, mut op: impl FnMut(usize)) -> u64 {
    allocated_by(|| (0..n).for_each(&mut op)).bytes / n as u64
}

/// `apply(WriteAt 1 KiB)` + `commit` with `population` files present.
fn journal_write_bytes(population: usize) -> u64 {
    let path = |i: usize| format!("/f{i:05}");
    let mut jfs = JournaledFs::format(SimDisk::new(1 << 16));
    for i in 0..population {
        jfs.apply(FsOp::Create(path(i))).expect("create");
        jfs.apply(FsOp::WriteAt(path(i), 0, vec![1; VALUE]))
            .expect("fill");
        jfs.commit().expect("commit");
    }
    // Built up front: the caller's copy of the value is not apply's cost.
    let mut ops: Vec<FsOp> = (0..256)
        .map(|i| FsOp::WriteAt(path(i % population), 0, vec![i as u8; VALUE]))
        .collect();
    bytes_per_call(ops.len(), |_| {
        jfs.apply(ops.pop().expect("one op per call"))
            .expect("overwrite");
        jfs.commit().expect("commit");
    })
}

/// What each of 64 `BlockStore::put` overwrites of 1 KiB allocates with
/// `keys` keys stored.
fn store_puts(keys: usize) -> Vec<Allocated> {
    let key = |i: usize| format!("key-{i:06}");
    let value = vec![7u8; VALUE];
    let sum = block_checksum(&value);
    let mut store = BlockStore::format(1 << 16);
    for i in 0..keys {
        store.put(&key(i), &value, sum).expect("populate");
    }
    let targets: Vec<String> = (0..64).map(|i| key(i * 5 % keys)).collect();
    targets
        .iter()
        .map(|k| allocated_by(|| store.put(k, &value, sum).expect("overwrite")))
        .collect()
}

/// What each of 16 `transact([WriteAt(/f00001, 0, 1 KiB)])` overwrites
/// allocates on a journal of 24 files of 1 KiB.
fn transact_writes() -> Vec<Allocated> {
    let mut jfs = JournaledFs::format(SimDisk::new(1 << 12));
    let path = |i: usize| format!("/f{i:05}");
    let value = vec![3u8; VALUE];
    for i in 0..24 {
        let file = path(i);
        jfs.transact(&[FsOpRef::Create(&file), FsOpRef::WriteAt(&file, 0, &value)]).expect("fill");
    }
    let file = path(1);
    (0..16)
        .map(|_| {
            allocated_by(|| jfs.transact(&[FsOpRef::WriteAt(&file, 0, &value)]).expect("write"))
        })
        .collect()
}

#[test]
fn a_durable_write_allocates_for_its_bytes_not_for_the_population() {
    let (few, many) = (journal_write_bytes(16), journal_write_bytes(1024));
    assert!(
        many < 2 * few,
        "{many} B per write with 1024 files against {few} B with 16: apply scales with the tree"
    );
    // A 1 KiB overwrite's record is `Truncate` (36 bytes: the path
    // `/b_6b65792d…` is 23) and `WriteAt` of checksum ++ block (1 072)
    // in 12 bytes of framing: 1 120 bytes, 3 sectors. The disk keeps a
    // box per sector, trimmed of trailing zeroes (two whole sectors and
    // the third's 96 bytes). That is all a put allocates: its path,
    // payload and ops are staged from buffers the store reuses, and its
    // file is resolved once. (The disk's table of durable sectors grows
    // by doubling, one reallocation per power of two: the 384 puts fill
    // sectors up to 1 152 and the 64 measured ones write 1 152–1 343,
    // all within one capacity of 2 048, as the 16 writes below write
    // sectors 72–119 within 128.)
    let puts = store_puts(384);
    for (i, put) in puts.iter().enumerate() {
        assert_eq!(
            (put.blocks, put.bytes),
            (3, 1120),
            "overwrite {i} at 384 keys: one block per sector of its record, nothing else"
        );
    }
    // A `WriteAt` staged through `transact` from borrowed bytes: 1 + 11
    // (`/f00001`) + 8 + 1 028 = 1 048 bytes of op, 1 060 of record, 3
    // sectors, and nothing else.
    for (i, write) in transact_writes().iter().enumerate() {
        assert_eq!(
            (write.blocks, write.bytes),
            (3, 1060),
            "transact {i}: one block per sector of its record, nothing else"
        );
    }
    eprintln!("apply+commit: {few} B at 16 files, {many} B at 1024; put: 3 blocks at 384 keys");
}
