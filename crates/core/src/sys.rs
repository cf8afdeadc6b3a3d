//! The `Sys` handle — the verified application's interface to the OS.
//!
//! §3 shows the shape: `pub fn read(sys: &mut Sys, ...) requires ...
//! ensures read_spec(old(sys).view(), sys.view(), ...)`. Verus erases
//! those clauses after proving them; here they are *checked*: every
//! operation snapshots `view()` before and after, predicts the
//! transition with the abstract spec, and asserts both the return value
//! and the entire post-view match. There is no unchecked mode — an
//! unchecked `Sys` would only be a second copy of ulib's trap path — so
//! an application written against `Sys` runs against exactly the
//! contract the paper proposes.
//!
//! `&mut Sys` in every signature is the data-race-freedom obligation
//! discharged by Rust's ownership, as the paper argues: "the mutable
//! reference to buffer is guaranteed to be unique by the type system".

use veros_kernel::syscall::{abi, SysError, SysRet, Syscall};
use veros_kernel::{Kernel, Pid, Tid};

use crate::sys_spec::SysState;
use crate::view::view;

/// The system handle for one calling thread.
pub struct Sys<'k> {
    kernel: &'k mut Kernel,
    caller: (Pid, Tid),
}

/// A contract violation: a call whose requires or ensures clause failed.
#[derive(Debug)]
pub struct ContractViolation {
    /// The operation that violated its ensures clause.
    pub call: String,
    /// What diverged.
    pub detail: String,
}

impl std::fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated its contract: {}", self.call, self.detail)
    }
}

impl<'k> Sys<'k> {
    /// Wraps a kernel for `caller`. Every call checks its requires and
    /// ensures clauses against the abstract spec.
    pub fn new(kernel: &'k mut Kernel, caller: (Pid, Tid)) -> Self {
        Self { kernel, caller }
    }

    /// The caller identity.
    pub fn caller(&self) -> (Pid, Tid) {
        self.caller
    }

    /// The abstract view of the system (the paper's `sys.view()`).
    pub fn view(&self) -> SysState {
        view(self.kernel)
    }

    /// Performs `call` through the register ABI, checking the contract.
    pub fn call(&mut self, call: Syscall) -> Result<SysRet, ContractViolation> {
        // requires: the calling thread must exist and be runnable —
        // otherwise the transition is not enabled.
        let pre = self.view();
        let caller_ids = (self.caller.0 .0, self.caller.1 .0);
        let runnable = pre.runnable();
        if !runnable.contains(&caller_ids) {
            return Err(ContractViolation {
                call: format!("{call:?}"),
                detail: format!("caller {caller_ids:?} is not runnable in the pre-state"),
            });
        }
        // Predict with the spec.
        let mut predicted = pre.clone();
        let want_ret = predicted.syscall(caller_ids, &call);
        // Execute on the kernel via the full ABI.
        let regs = abi::encode_regs(&call);
        let (status, value) = self.kernel.syscall_regs(self.caller, regs);
        let got_ret = abi::decode_ret(status, value).expect("well-formed return");
        if got_ret != want_ret {
            return Err(ContractViolation {
                call: format!("{call:?}"),
                detail: format!("returned {got_ret:?}, spec says {want_ret:?}"),
            });
        }
        let post = self.view();
        if post != predicted {
            return Err(ContractViolation {
                call: format!("{call:?}"),
                detail: diff_summary(&predicted, &post),
            });
        }
        Ok(got_ret)
    }

    /// The paper's worked example: `read` with its ensures clause.
    ///
    /// Returns `(read_len, data)`, additionally checking the literal
    /// `read_spec` predicate over the fd fragment of the views.
    pub fn read(
        &mut self,
        fd: u32,
        buf_ptr: u64,
        buf_len: u64,
    ) -> Result<Result<(u64, Vec<u8>), SysError>, ContractViolation> {
        let pre = self.view();
        let ret = self.call(Syscall::Read {
            fd,
            buf_ptr,
            buf_len,
        })?;
        let read_len = match ret {
            Ok(n) => n,
            Err(e) => return Ok(Err(e)),
        };
        let data = self
            .kernel
            .read_user(self.caller.0, buf_ptr, read_len)
            .expect("buffer was just written");
        let post = self.view();
        if !crate::obligations::read_ensures(&pre, &post, self.caller.0 .0, fd, &data, read_len) {
            return Err(ContractViolation {
                call: format!("read(fd={fd})"),
                detail: "read_spec rejected the transition".into(),
            });
        }
        Ok(Ok((read_len, data)))
    }

    /// Direct user-memory load through the execution model, checked
    /// against the abstract memory.
    pub fn mem_read(&mut self, va: u64, len: u64) -> Result<Vec<u8>, SysError> {
        let got = self.kernel.read_user(self.caller.0, va, len);
        let want = self.view().mem_read(self.caller.0 .0, va, len);
        assert_eq!(got, want, "execution-model load diverged from the spec");
        got
    }

    /// Direct user-memory store through the execution model, checked
    /// against the abstract memory.
    pub fn mem_write(&mut self, va: u64, data: &[u8]) -> Result<(), SysError> {
        let mut spec = self.view();
        let want = spec.mem_write(self.caller.0 .0, va, data);
        let got = self.kernel.write_user(self.caller.0, va, data);
        assert_eq!(got, want, "execution-model store result diverged");
        assert_eq!(self.view(), spec, "execution-model store state diverged");
        got
    }
}

/// A short human-readable summary of where two views diverge (used by
/// the contract checker and the refinement driver).
pub fn diff_summary(want: &SysState, got: &SysState) -> String {
    if want.procs != got.procs {
        for (pid, wp) in &want.procs {
            match got.procs.get(pid) {
                None => return format!("process {pid} missing from post-view"),
                Some(gp) if gp != wp => {
                    if wp.mem != gp.mem {
                        return format!("process {pid}: memory diverged");
                    }
                    if wp.fds != gp.fds {
                        return format!(
                            "process {pid}: fds diverged (want {:?}, got {:?})",
                            wp.fds, gp.fds
                        );
                    }
                    if wp.threads != gp.threads {
                        return format!(
                            "process {pid}: threads diverged (want {:?}, got {:?})",
                            wp.threads, gp.threads
                        );
                    }
                    return format!("process {pid} diverged");
                }
                _ => {}
            }
        }
        return "post-view has extra processes".into();
    }
    if want.fs != got.fs {
        return "filesystem diverged".into();
    }
    if want.futexes != got.futexes {
        return format!(
            "futex queues diverged (want {:?}, got {:?})",
            want.futexes, got.futexes
        );
    }
    "counter/clock state diverged".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_kernel::KernelConfig;

    fn booted() -> (Kernel, (Pid, Tid)) {
        let k = Kernel::boot(KernelConfig::default()).unwrap();
        let c = (k.init_pid, k.init_tid);
        (k, c)
    }

    #[test]
    fn audited_calls_pass_their_contracts() {
        let (mut k, c) = booted();
        let mut sys = Sys::new(&mut k, c);
        sys.call(Syscall::Map {
            va: 0x4000,
            pages: 2,
            writable: true,
        })
        .unwrap()
        .unwrap();
        sys.mem_write(0x4000, b"/file").unwrap();
        let fd = sys
            .call(Syscall::Open {
                path_ptr: 0x4000,
                path_len: 5,
                create: true,
            })
            .unwrap()
            .unwrap() as u32;
        sys.mem_write(0x4100, b"contract checked").unwrap();
        sys.call(Syscall::Write {
            fd,
            buf_ptr: 0x4100,
            buf_len: 16,
        })
        .unwrap()
        .unwrap();
        sys.call(Syscall::Seek { fd, offset: 9 }).unwrap().unwrap();
        let (n, data) = sys.read(fd, 0x4200, 100).unwrap().unwrap();
        assert_eq!(n, 7);
        assert_eq!(data, b"checked");
        sys.call(Syscall::Close { fd }).unwrap().unwrap();
    }

    #[test]
    fn error_paths_match_the_spec_too() {
        let (mut k, c) = booted();
        let mut sys = Sys::new(&mut k, c);
        assert_eq!(
            sys.call(Syscall::Unmap { va: 0x4000, pages: 1 }).unwrap(),
            Err(SysError::NotMapped)
        );
        assert_eq!(
            sys.call(Syscall::Read { fd: 42, buf_ptr: 0, buf_len: 1 }).unwrap(),
            Err(SysError::BadFd)
        );
        assert_eq!(
            sys.call(Syscall::Wait { pid: 999 }).unwrap(),
            Err(SysError::NoSuchProcess)
        );
    }

    #[test]
    fn spawn_and_lifecycle_audited() {
        let (mut k, c) = booted();
        let mut sys = Sys::new(&mut k, c);
        let child = sys.call(Syscall::Spawn).unwrap().unwrap();
        assert_eq!(
            sys.call(Syscall::Wait { pid: child }).unwrap(),
            Err(SysError::StillRunning)
        );
        // The caller is now blocked; issuing another call from it must
        // be rejected by the *requires* clause.
        let err = sys.call(Syscall::Yield).unwrap_err();
        assert!(err.detail.contains("not runnable"), "{err}");
    }
}
