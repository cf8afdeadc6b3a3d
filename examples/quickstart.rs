//! Quickstart: boot the kernel, run a program against the verified
//! contract.
//!
//! This is the paper's pitch in one file: an application written against
//! the `Sys` interface, with every syscall's ensures clause *checked*
//! against the abstract specification while it runs.
//!
//! Run: `cargo run --example quickstart`

use veros::core::Sys;
use veros::kernel::{Kernel, KernelConfig, Syscall};

fn main() {
    // Boot: memory management, scheduler, journaled filesystem, one
    // init process.
    let mut kernel = Kernel::boot(KernelConfig::default()).expect("boot");
    let caller = (kernel.init_pid, kernel.init_tid);
    println!("booted: init pid {:?}, tid {:?}", caller.0, caller.1);

    // The Sys handle: every call is checked against the high-level spec
    // (the §3 contract).
    let mut sys = Sys::new(&mut kernel, caller);

    // Map memory — the virtual-memory part of the execution model.
    sys.call(Syscall::Map {
        va: 0x10_0000,
        pages: 4,
        writable: true,
    })
    .expect("contract")
    .expect("map");
    println!("mapped 4 pages at 0x100000 (checked against the abstract memory)");

    // Stores and loads go through the page table; the audit compares
    // them against the abstract memory map.
    sys.mem_write(0x10_0000, b"/greeting.txt").expect("store");

    // Files: create, write, read back — `read` is the paper's worked
    // example, checked against read_spec.
    let fd = sys
        .call(Syscall::Open {
            path_ptr: 0x10_0000,
            path_len: 13,
            create: true,
        })
        .expect("contract")
        .expect("open") as u32;
    sys.mem_write(0x10_1000, b"hello from the verified stack\n")
        .expect("store");
    sys.call(Syscall::Write {
        fd,
        buf_ptr: 0x10_1000,
        buf_len: 30,
    })
    .expect("contract")
    .expect("write");
    sys.call(Syscall::Seek { fd, offset: 0 }).expect("contract").expect("seek");
    let (n, data) = sys.read(fd, 0x10_2000, 64).expect("contract").expect("read");
    println!("read {n} bytes: {:?}", String::from_utf8_lossy(&data));

    // Processes: spawn a child, let it exit, reap it.
    let child = sys.call(Syscall::Spawn).expect("contract").expect("spawn");
    println!("spawned child pid {child}");
    // (Drive the child directly through the kernel: it exits with 42 —
    // `sys`'s borrow of the kernel ended at its last use above.)
    let child_tid = kernel
        .processes()
        .get(veros::kernel::Pid(child))
        .expect("child")
        .threads[0];
    kernel
        .syscall((veros::kernel::Pid(child), child_tid), Syscall::Exit { code: 42 })
        .expect("exit");
    let mut sys = Sys::new(&mut kernel, caller);
    let code = sys
        .call(Syscall::Wait { pid: child })
        .expect("contract")
        .expect("wait");
    println!("child exited with {code}");

    // The view is the whole abstract state; print a summary.
    let view = sys.view();
    println!(
        "final abstract state: {} process(es), {} file(s), clock {}",
        view.procs.len(),
        view.fs.len(),
        view.clock
    );
    println!("every operation above was audited against the §3 contract ✓");
}
