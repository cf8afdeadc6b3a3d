//! Cross-crate integration: the whole stack exercised together, kernel
//! to application, with every `Sys` call checked against its contract.

use veros::core::Sys;
use veros::kernel::syscall::SysError;
use veros::kernel::{Kernel, KernelConfig, Pid, Syscall};

fn boot() -> (Kernel, (Pid, veros::kernel::Tid)) {
    let k = Kernel::boot(KernelConfig::default()).expect("boot");
    let c = (k.init_pid, k.init_tid);
    (k, c)
}

#[test]
fn audited_application_session() {
    let (mut kernel, c) = boot();
    let mut sys = Sys::new(&mut kernel, c);

    // Memory.
    sys.call(Syscall::Map { va: 0x20_0000, pages: 8, writable: true })
        .unwrap()
        .unwrap();
    sys.mem_write(0x20_0000, b"/journal.log").unwrap();

    // Files: build up content across multiple writes and partial reads.
    let fd = sys
        .call(Syscall::Open { path_ptr: 0x20_0000, path_len: 12, create: true })
        .unwrap()
        .unwrap() as u32;
    for i in 0..10u8 {
        let line = format!("entry {i:02}\n");
        sys.mem_write(0x20_1000, line.as_bytes()).unwrap();
        sys.call(Syscall::Write { fd, buf_ptr: 0x20_1000, buf_len: line.len() as u64 })
            .unwrap()
            .unwrap();
    }
    sys.call(Syscall::Seek { fd, offset: 0 }).unwrap().unwrap();
    let (n, data) = sys.read(fd, 0x20_2000, 1000).unwrap().unwrap();
    assert_eq!(n, 90);
    assert!(String::from_utf8(data).unwrap().starts_with("entry 00\n"));

    // The view agrees with a replay of the spec.
    let view = sys.view();
    assert_eq!(view.fs["/journal.log"].len(), 90);
}

#[test]
fn multi_process_isolation() {
    let (mut kernel, c) = boot();
    let child = Pid(kernel.syscall(c, Syscall::Spawn).unwrap());
    let ct = (child, kernel.processes().get(child).unwrap().threads[0]);

    // Both processes map the same virtual address; writes do not leak
    // across address spaces (the virtualized-memory half of the model).
    kernel
        .syscall(c, Syscall::Map { va: 0x30_0000, pages: 1, writable: true })
        .unwrap();
    kernel
        .syscall(ct, Syscall::Map { va: 0x30_0000, pages: 1, writable: true })
        .unwrap();
    kernel.write_user(c.0, 0x30_0000, b"parent data").unwrap();
    kernel.write_user(child, 0x30_0000, b"child stuff").unwrap();
    assert_eq!(kernel.read_user(c.0, 0x30_0000, 11).unwrap(), b"parent data");
    assert_eq!(kernel.read_user(child, 0x30_0000, 11).unwrap(), b"child stuff");

    // Integrity claim of the paper: "no allowed behavior of a process
    // can corrupt the state of an unrelated process" — the child's exit
    // leaves the parent's memory intact.
    kernel.syscall(ct, Syscall::Exit { code: 0 }).unwrap();
    assert_eq!(kernel.read_user(c.0, 0x30_0000, 11).unwrap(), b"parent data");
}

#[test]
fn file_data_round_trips_through_crash_at_kernel_level() {
    let (mut kernel, c) = boot();
    kernel
        .syscall(c, Syscall::Map { va: 0x40_0000, pages: 2, writable: true })
        .unwrap();
    kernel.write_user(c.0, 0x40_0000, b"/state").unwrap();
    let fd = kernel
        .syscall(c, Syscall::Open { path_ptr: 0x40_0000, path_len: 6, create: true })
        .unwrap() as u32;
    kernel.write_user(c.0, 0x40_1000, b"survives").unwrap();
    kernel
        .syscall(c, Syscall::Write { fd, buf_ptr: 0x40_1000, buf_len: 8 })
        .unwrap();

    // Crash the disk under the kernel, then recover the filesystem.
    let fs = std::mem::replace(
        &mut kernel.fs,
        veros::fs::JournaledFs::format(veros::hw::SimDisk::new(16)),
    );
    let mut disk = fs.into_disk();
    disk.crash_keep_prefix(0);
    let recovered = veros::fs::JournaledFs::recover(disk);
    assert_eq!(
        recovered
            .fs
            .read_file(&veros::fs::Path::parse("/state").unwrap())
            .unwrap(),
        b"survives"
    );
}

#[test]
fn refinement_holds_on_fresh_seeds() {
    // Seeds deliberately different from the crate-internal tests.
    for seed in [1000, 2000, 3000] {
        let stats = veros::core::theorem::refinement_run(seed, 250, 20).expect("refinement");
        assert!(stats.ops > 0);
    }
}

#[test]
fn error_contract_is_stable_across_the_abi() {
    let (mut kernel, c) = boot();
    // Errors chosen to traverse every layer: ABI decode, page table,
    // process table, filesystem.
    let cases: Vec<(Syscall, SysError)> = vec![
        (Syscall::Unmap { va: 0x50_0000, pages: 1 }, SysError::NotMapped),
        (Syscall::Read { fd: 7, buf_ptr: 0, buf_len: 1 }, SysError::BadFd),
        (Syscall::Wait { pid: 424242 }, SysError::NoSuchProcess),
        (
            Syscall::Open { path_ptr: 0xbad_0000, path_len: 3, create: true },
            SysError::BadAddress,
        ),
        (Syscall::Map { va: 1, pages: 1, writable: false }, SysError::Invalid),
    ];
    for (call, want) in cases {
        let regs = veros::kernel::syscall::abi::encode_regs(&call);
        let (status, value) = kernel.syscall_regs(c, regs);
        let got = veros::kernel::syscall::abi::decode_ret(status, value).unwrap();
        assert_eq!(got, Err(want), "{call:?}");
    }
}
