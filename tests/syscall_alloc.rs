//! The syscall contract copies user memory once and keeps no page list:
//! on a booted kernel driven through `ulib` over a ring, as the
//! `kernel_fileio` workload drives it, each operation allocates exactly
//! what it hands back or what the disk keeps. Exact allocation counts,
//! so the result is the same on every host and every run.
//!
//! - A chained `open_read_close` of 1 KiB allocates 2 blocks: the fd's
//!   kept path and the `Vec` the call returns. The read goes from the
//!   file straight into the process's pages; a copy of it on the way,
//!   or a list of the pages it lands in, fails this.
//! - `open(create)` of an existing file, a 1 KiB `write` and `close`
//!   allocate 5: the fd's path, the write's one copy of the user buffer
//!   (the journal stages contiguous bytes) and the record's 3 disk
//!   sectors. Staging the path or the data in user memory allocates
//!   nothing.
//! - Mapping 8 pages, writing a word to each, reading one back and
//!   unmapping them allocates nothing: a zeroed frame's storage is
//!   reused, and a word is read into the stack.
//!
//! Its own test binary with a single `#[test]`: see `counting_alloc`.

mod counting_alloc;

use counting_alloc::{allocated_by, Allocated};
use veros_kernel::syscall::Syscall;
use veros_kernel::{Kernel, KernelConfig};
use veros_ulib::{Ctx, RingExec, UFile};

/// Where the process stages paths and data.
const SCRATCH: u64 = 0x200_0000;
/// Where the map/touch/unmap operation maps its pages.
const MAP_VA: u64 = 0x4000_0000;
const PAGE: u64 = 4096;
const PAGES: u64 = 8;
const VALUE: usize = 1024;
const PATH: &str = "/f00007";

fn put(ctx: &mut Ctx<'_>, value: &[u8]) {
    let f = UFile::open(ctx, SCRATCH, PATH, true).expect("open");
    assert_eq!(f.write(ctx, SCRATCH, value), Ok(value.len() as u64));
    f.close(ctx).expect("close");
}

fn get(ctx: &mut Ctx<'_>) -> Vec<u8> {
    UFile::open_read_close(ctx, SCRATCH, PATH, VALUE as u64).expect("open_read_close")
}

fn map_touch_unmap(ctx: &mut Ctx<'_>, stamp: u32) {
    ctx.sys(Syscall::Map { va: MAP_VA, pages: PAGES, writable: true }).expect("map");
    for p in 0..PAGES {
        ctx.write_u32(MAP_VA + p * PAGE, stamp).expect("touch");
    }
    assert_eq!(ctx.read_u32(MAP_VA + (PAGES - 1) * PAGE), Ok(stamp));
    ctx.sys(Syscall::Unmap { va: MAP_VA, pages: PAGES }).expect("unmap");
}

#[test]
fn a_syscall_op_allocates_only_what_it_returns_or_the_disk_keeps() {
    let mut kernel = Kernel::boot(KernelConfig::default()).expect("boot");
    let owner = (kernel.init_pid, kernel.init_tid);
    kernel
        .syscall(owner, Syscall::Map { va: SCRATCH, pages: 2, writable: true })
        .expect("map scratch");
    let mut ring = RingExec::new(64, owner);
    let mut ctx = Ctx { kernel: &mut kernel, ring: Some(&mut ring), pid: owner.0, tid: owner.1 };
    // Warm-up: the ring's, the tables' and the spare list's first
    // allocations, and the file to overwrite. The disk's table of
    // durable sectors grows by doubling: the first put writes sectors
    // 0–3 (`Create`, then the 3-sector `WriteAt`), each later one 3 more,
    // so the 11 warm-up puts end at sector 33 and the 4 measured ones
    // write 34–45, all within one capacity of 64.
    for i in 0..11u8 {
        put(&mut ctx, &[i; VALUE]);
        assert_eq!(get(&mut ctx), [i; VALUE]);
        map_touch_unmap(&mut ctx, u32::from(i));
    }
    for round in 0..4u8 {
        let value = [100 + round; VALUE];
        let put_cost = allocated_by(|| put(&mut ctx, &value));
        let mut data = Vec::new();
        let get_cost = allocated_by(|| data = get(&mut ctx));
        assert_eq!(data, value);
        let map_cost = allocated_by(|| map_touch_unmap(&mut ctx, u32::from(round)));
        // The fd's path (`/f00007`, 7 bytes) and the returned 1 KiB.
        assert_eq!(
            get_cost,
            Allocated { blocks: 2, bytes: 1031 },
            "round {round}: a chained get copies the file or its pages' list again"
        );
        // The path, the one copy of the 1 KiB buffer, and the record:
        // `WriteAt` of 1 + (4 + 7) + 8 + (4 + 1 024) = 1 048 bytes in 12
        // of framing, 1 060 over 3 sectors, which the disk keeps trimmed
        // of trailing zeroes.
        assert_eq!(
            put_cost,
            Allocated { blocks: 5, bytes: 2091 },
            "round {round}: a put copies its path or data again, or lists its pages"
        );
        assert_eq!(
            map_cost,
            Allocated { blocks: 0, bytes: 0 },
            "round {round}: a frame's storage is freed and made again, or a word read \
             allocates"
        );
    }
}
