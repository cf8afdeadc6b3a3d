//! The register ABI, pinned byte for byte.
//!
//! The round-trip tests pass under any consistent renumbering of the
//! syscalls or of the error codes; this file does not. It lists one
//! literal call per `Syscall` variant with its literal register image,
//! every `SysError` with its literal code, and the fd slot that chained
//! SQEs patch. A change here is an ABI break.

use veros_kernel::syscall::abi::{self, Regs, FD_REG};
use veros_kernel::syscall::{SysError, Syscall};

const GOLDEN_CALLS: [(Syscall, Regs); 16] = [
    (Syscall::Spawn, [1, 0, 0, 0, 0, 0]),
    (Syscall::Exit { code: -7 }, [2, 0xffff_fff9, 0, 0, 0, 0]),
    (Syscall::Wait { pid: 42 }, [3, 42, 0, 0, 0, 0]),
    (
        Syscall::Map { va: 0x7fff_0000, pages: 16, writable: true },
        [4, 0x7fff_0000, 16, 1, 0, 0],
    ),
    (Syscall::Unmap { va: 0x7fff_0000, pages: 16 }, [5, 0x7fff_0000, 16, 0, 0, 0]),
    (
        Syscall::Open { path_ptr: 0x1000, path_len: 9, create: false },
        [6, 0x1000, 9, 0, 0, 0],
    ),
    (
        Syscall::Read { fd: 3, buf_ptr: 0x2000, buf_len: 4096 },
        [7, 3, 0x2000, 4096, 0, 0],
    ),
    (
        Syscall::Write { fd: u32::MAX, buf_ptr: 0x3000, buf_len: 1 },
        [8, 0xffff_ffff, 0x3000, 1, 0, 0],
    ),
    (Syscall::Seek { fd: 5, offset: u64::MAX }, [9, 5, u64::MAX, 0, 0, 0]),
    (Syscall::Close { fd: 6 }, [10, 6, 0, 0, 0, 0]),
    (Syscall::Unlink { path_ptr: 0x1000, path_len: 9 }, [11, 0x1000, 9, 0, 0, 0]),
    (Syscall::FutexWait { va: 0x5000, expected: 7 }, [12, 0x5000, 7, 0, 0, 0]),
    (Syscall::FutexWake { va: 0x5000, count: 2 }, [13, 0x5000, 2, 0, 0, 0]),
    (Syscall::ThreadSpawn { affinity_plus_one: 3 }, [14, 3, 0, 0, 0, 0]),
    (Syscall::Yield, [15, 0, 0, 0, 0, 0]),
    (Syscall::ClockRead, [16, 0, 0, 0, 0, 0]),
];

const GOLDEN_ERRORS: [(SysError, u32); 17] = [
    (SysError::BadAddress, 1),
    (SysError::BadFd, 2),
    (SysError::NoSuchPath, 3),
    (SysError::AlreadyExists, 4),
    (SysError::NoMem, 5),
    (SysError::NoSuchProcess, 6),
    (SysError::NotAChild, 7),
    (SysError::StillRunning, 8),
    (SysError::WouldBlock, 9),
    (SysError::AlreadyMapped, 10),
    (SysError::NotMapped, 11),
    (SysError::Invalid, 12),
    (SysError::IsDirectory, 13),
    (SysError::NotDirectory, 14),
    (SysError::BadSyscall, 15),
    (SysError::NoSpace, 16),
    (SysError::Cancelled, 17),
];

#[test]
fn every_variant_has_its_literal_register_image() {
    for (call, regs) in GOLDEN_CALLS {
        assert_eq!(abi::encode_regs(&call), regs, "encode {call:?}");
        assert_eq!(abi::decode_regs(&regs), Ok(call), "decode {regs:?}");
    }
    let numbers: Vec<u64> = GOLDEN_CALLS.iter().map(|(_, regs)| regs[0]).collect();
    assert_eq!(numbers, (1..=16).collect::<Vec<u64>>(), "one variant per number");
}

#[test]
fn every_error_has_its_literal_code() {
    for (err, code) in GOLDEN_ERRORS {
        assert_eq!(err as u32, code, "{err:?}");
        assert_eq!(SysError::from_code(code), Some(err), "code {code}");
        assert_eq!(abi::encode_ret(Err(err)), (u64::from(code), 0), "{err:?}");
        assert_eq!(abi::decode_ret(u64::from(code), 0), Ok(Err(err)), "code {code}");
    }
    assert_eq!(SysError::from_code(0), None);
    assert_eq!(abi::encode_ret(Ok(0x1234)), (0, 0x1234));
}

#[test]
fn fd_reg_is_the_fd_slot_of_every_fd_call() {
    const FD: u32 = 0x5eed;
    let fd_calls = [
        Syscall::Read { fd: FD, buf_ptr: 0x2000, buf_len: 64 },
        Syscall::Write { fd: FD, buf_ptr: 0x3000, buf_len: 64 },
        Syscall::Seek { fd: FD, offset: 12 },
        Syscall::Close { fd: FD },
    ];
    for call in fd_calls {
        let mut regs = abi::encode_regs(&call);
        assert_eq!(regs[usize::from(FD_REG)], u64::from(FD), "{call:?}");
        abi::substitute_reg(&mut regs, FD_REG, 9).unwrap();
        let patched = abi::decode_regs(&regs).unwrap();
        assert_eq!(abi::encode_regs(&patched)[usize::from(FD_REG)], 9, "{call:?}");
        assert_eq!(regs[0], abi::encode_regs(&call)[0], "{call:?} kept its number");
    }
}
