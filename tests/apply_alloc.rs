//! A durable write costs memory in proportion to the bytes it writes,
//! not to how much the filesystem or the store already holds — asserted
//! on exact allocation counts, so the result is the same on every host
//! and every run (no clock involved).
//!
//! This is the guard that keeps a validate-by-cloning
//! `JournaledFs::apply` from coming back: cloning a tree of 1024 one-KiB
//! files is a megabyte per operation. Its own test binary with a single
//! `#[test]`: see `counting_alloc`.

mod counting_alloc;

use counting_alloc::bytes_allocated_by;
use veros_blockstore::wire::block_checksum;
use veros_blockstore::BlockStore;
use veros_fs::journal::{FsOp, JournaledFs};
use veros_hw::SimDisk;

const VALUE: usize = 1024;

/// Mean bytes allocated by each call of `op`, over `n` calls. Averaging
/// absorbs the amortised doubling of the disk's sector table.
fn bytes_per_call(n: usize, mut op: impl FnMut(usize)) -> u64 {
    bytes_allocated_by(|| (0..n).for_each(&mut op)) / n as u64
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

/// `BlockStore::put` of 1 KiB with `keys` keys stored.
fn store_put_bytes(keys: usize) -> u64 {
    let key = |i: usize| format!("key-{i:06}");
    let value = vec![7u8; VALUE];
    let sum = block_checksum(&value);
    let mut store = BlockStore::format(1 << 16);
    for i in 0..keys {
        store.put(&key(i), &value, sum).expect("populate");
    }
    let targets: Vec<String> = (0..64).map(|i| key(i * 5 % keys)).collect();
    bytes_per_call(targets.len(), |i| {
        store.put(&targets[i], &value, sum).expect("overwrite")
    })
}

#[test]
fn a_durable_write_allocates_for_its_bytes_not_for_the_population() {
    let (few, many) = (journal_write_bytes(16), journal_write_bytes(1024));
    assert!(
        many < 2 * few,
        "{many} B per write with 1024 files against {few} B with 16: apply scales with the tree"
    );
    let put = store_put_bytes(384);
    assert!(
        put < 8 * 1024,
        "{put} B allocated per 1 KiB put at 384 keys"
    );
    eprintln!("apply+commit: {few} B at 16 files, {many} B at 1024; put: {put} B at 384 keys");
}
