//! The composed kernel: every service behind one syscall interface.
//!
//! [`Kernel`] owns the machine (physical memory + MMU + TLB), the buddy
//! allocator, the process and thread tables, the scheduler, the futex
//! table, and the journaled filesystem, and exposes the typed syscall
//! interface of [`crate::syscall::Syscall`]. This is the object whose
//! behaviour the `veros-core` `Sys` specification abstracts; the §3
//! obligations appear here concretely:
//!
//! * **marshalling** — [`Kernel::syscall_regs`] goes through the
//!   register ABI, so every syscall exercised through it round-trips the
//!   encoder/decoder;
//! * **mapping** — user buffers are reached exclusively via
//!   [`Kernel::read_user`]/[`Kernel::write_user`], which translate
//!   through the process page table with permission checks;
//! * **data-race freedom** — the kernel object is `&mut self` per
//!   syscall (ownership guarantees exclusivity), and the audit layer in
//!   `veros-core` additionally tracks buffer access intervals.

use std::collections::BTreeMap;

use veros_fs::journal::FsOp;
use veros_fs::{JournaledFs, OpenFiles, Path};
use veros_hw::{Machine, PAddr, SimDisk, VAddr, VirtualClock, PAGE_4K};

use crate::frame_alloc::BuddyAllocator;
use crate::futex::{FutexKey, FutexTable, WaitOutcome};
use crate::process::{Pid, ProcError, ProcessTable};
use crate::scheduler::Scheduler;
use crate::syscall::{abi, SysError, SysRet, Syscall};
use crate::thread::{BlockReason, Tid};
use crate::vspace::{PtKind, VSpace};

/// Kernel construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Physical memory size in 4 KiB frames.
    pub frames: usize,
    /// Number of cores the scheduler manages.
    pub cores: usize,
    /// Disk size in sectors (journal space).
    pub disk_sectors: u64,
    /// Which page-table implementation backs address spaces.
    pub pt_kind: PtKind,
    /// TLB capacity of the machine.
    pub tlb_entries: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            frames: 4096,
            cores: 2,
            disk_sectors: 4096,
            pt_kind: PtKind::Verified,
            tlb_entries: 64,
        }
    }
}

/// Top-level kernel errors (construction/run-loop level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// Not enough physical memory for the kernel itself.
    OutOfMemory,
}

/// Per-process kernel-side file descriptor entry.
#[derive(Clone, Debug)]
struct FdEntry {
    handle: veros_fs::file::Handle,
    path: String,
}

/// The kernel.
pub struct Kernel {
    /// The machine: physical memory, TLB, CR3.
    pub machine: Machine,
    alloc: BuddyAllocator,
    procs: ProcessTable,
    /// The scheduler (public for the run loop and the spec checks).
    pub sched: Scheduler,
    futexes: FutexTable,
    /// The journaled filesystem (public for inspection in tests).
    pub fs: JournaledFs,
    open_files: OpenFiles,
    fd_tables: BTreeMap<Pid, BTreeMap<u32, FdEntry>>,
    vspaces: BTreeMap<Pid, VSpace>,
    /// The virtual clock, advanced by the run loop.
    pub clock: VirtualClock,
    pt_kind: PtKind,
    /// The init process.
    pub init_pid: Pid,
    /// The init process's first thread.
    pub init_tid: Tid,
}

impl Kernel {
    /// Boots a kernel: initializes memory management, the filesystem,
    /// and an init process with one thread.
    pub fn boot(config: KernelConfig) -> Result<Self, KernelError> {
        let machine = Machine::new(config.frames, config.tlb_entries);
        // Frames 0..64 are kernel-reserved (as NrOS reserves low memory);
        // the buddy allocator manages the rest.
        let managed = config.frames.checked_sub(64).ok_or(KernelError::OutOfMemory)?;
        if managed < 64 {
            return Err(KernelError::OutOfMemory);
        }
        let alloc = BuddyAllocator::new(PAddr(64 * PAGE_4K), managed);
        let mut kernel = Self {
            machine,
            alloc,
            procs: ProcessTable::new(),
            sched: Scheduler::new(config.cores),
            futexes: FutexTable::new(),
            fs: JournaledFs::format(SimDisk::new(config.disk_sectors)),
            open_files: OpenFiles::new(),
            fd_tables: BTreeMap::new(),
            vspaces: BTreeMap::new(),
            clock: VirtualClock::new(),
            pt_kind: config.pt_kind,
            init_pid: Pid(0),
            init_tid: Tid(0),
        };
        let (pid, tid) = kernel.spawn_process(None).map_err(|_| KernelError::OutOfMemory)?;
        kernel.init_pid = pid;
        kernel.init_tid = tid;
        Ok(kernel)
    }

    /// The process table (read-only).
    pub fn processes(&self) -> &ProcessTable {
        &self.procs
    }

    /// A process's address space, for inspection.
    pub fn vspace(&self, pid: Pid) -> Option<&VSpace> {
        self.vspaces.get(&pid)
    }

    fn spawn_process(&mut self, parent: Option<Pid>) -> Result<(Pid, Tid), SysError> {
        let pid = self.procs.spawn(parent);
        let vspace = VSpace::new(&mut self.machine.mem, &mut self.alloc, self.pt_kind)
            .map_err(|_| SysError::NoMem)?;
        self.vspaces.insert(pid, vspace);
        self.fd_tables.insert(pid, BTreeMap::new());
        let tid = self
            .sched
            .spawn_thread(pid, None)
            // lint: allow(panic-freedom) — model invariant: spawning
            // with no affinity cannot be rejected by the scheduler.
            .expect("affinity None is always valid");
        // lint: allow(panic-freedom) — the process was inserted alive
        // two statements above; failure here is a kernel-model bug that
        // must surface loudly, not be mapped to a user error.
        self.procs.add_thread(pid, tid).expect("fresh process is alive");
        Ok((pid, tid))
    }

    // --- user memory (the mapping obligation) ---------------------------

    /// Reads `len` bytes at `ptr` in `pid`'s address space.
    ///
    /// Every page of the range must resolve through the page table with
    /// user permission; the data is then read from the physical frames
    /// the page table names — this is the paper's "mapping obligation":
    /// the kernel reaches the buffer exactly where the process's page
    /// table says it lives.
    pub fn read_user(&self, pid: Pid, ptr: u64, len: u64) -> Result<Vec<u8>, SysError> {
        if len > (1 << 24) {
            return Err(SysError::Invalid);
        }
        let vspace = self.vspaces.get(&pid).ok_or(SysError::NoSuchProcess)?;
        let mut out = vec![0u8; len as usize];
        let mut off = 0u64;
        while off < len {
            let va = VAddr(ptr.checked_add(off).ok_or(SysError::BadAddress)?);
            let r = vspace
                .resolve(&self.machine.mem, va)
                .map_err(|_| SysError::BadAddress)?;
            if !r.flags.user {
                return Err(SysError::BadAddress);
            }
            let in_page = r.size.bytes() - (va.0 - r.base.0);
            let chunk = in_page.min(len - off);
            self.machine.mem.read_bytes(
                r.pa,
                &mut out[off as usize..(off + chunk) as usize],
            );
            off += chunk;
        }
        Ok(out)
    }

    /// Writes `data` at `ptr` in `pid`'s address space (requires
    /// user-writable mappings for the whole range; no partial writes).
    pub fn write_user(&mut self, pid: Pid, ptr: u64, data: &[u8]) -> Result<(), SysError> {
        let vspace = self.vspaces.get(&pid).ok_or(SysError::NoSuchProcess)?;
        // Translate every page first so a fault cannot tear the write.
        let mut chunks: Vec<(PAddr, usize, usize)> = Vec::new();
        let mut off = 0usize;
        while off < data.len() {
            let va = VAddr(
                ptr.checked_add(off as u64).ok_or(SysError::BadAddress)?,
            );
            let r = vspace
                .resolve(&self.machine.mem, va)
                .map_err(|_| SysError::BadAddress)?;
            if !r.flags.user || !r.flags.writable {
                return Err(SysError::BadAddress);
            }
            let in_page = (r.size.bytes() - (va.0 - r.base.0)) as usize;
            let chunk = in_page.min(data.len() - off);
            chunks.push((r.pa, off, chunk));
            off += chunk;
        }
        for (pa, off, chunk) in chunks {
            self.machine.mem.write_bytes(pa, &data[off..off + chunk]);
        }
        Ok(())
    }

    // --- syscall dispatch ------------------------------------------------

    /// Full ABI path: registers in, `(status, value)` registers out.
    pub fn syscall_regs(&mut self, caller: (Pid, Tid), regs: abi::Regs) -> (u64, u64) {
        let ret = match abi::decode_regs(&regs) {
            Ok(call) => self.syscall(caller, call),
            Err(e) => Err(e),
        };
        abi::encode_ret(ret)
    }

    /// Typed syscall dispatch.
    pub fn syscall(&mut self, caller: (Pid, Tid), call: Syscall) -> SysRet {
        let variant = crate::metrics::syscall_index(&call);
        let _latency = crate::metrics::SYSCALL_LATENCY[variant].timer();
        let ret = self.syscall_inner(caller, call);
        crate::metrics::SYSCALL_TRACE.record(variant as u64, u64::from(ret.is_ok()));
        ret
    }

    /// Typed dispatch without the per-call latency timer and trace
    /// record. Semantically identical to [`Kernel::syscall`]; batched
    /// entry paths (the uring engine) use it and account their cost at
    /// batch granularity instead, which is the modelled analogue of
    /// io_uring amortizing per-syscall entry overhead.
    pub fn syscall_batched(&mut self, caller: (Pid, Tid), call: Syscall) -> SysRet {
        self.syscall_inner(caller, call)
    }

    /// The dispatch body, separated so [`Kernel::syscall`] can wrap it
    /// with latency and trace instrumentation.
    fn syscall_inner(&mut self, caller: (Pid, Tid), call: Syscall) -> SysRet {
        let (pid, tid) = caller;
        match call {
            Syscall::Spawn => {
                let (child, _tid) = self.spawn_process(Some(pid))?;
                Ok(child.0)
            }
            Syscall::Exit { code } => {
                self.do_exit(pid, code)?;
                Ok(0)
            }
            Syscall::Wait { pid: child } => match self.procs.try_wait(pid, Pid(child)) {
                Ok(code) => Ok(code as u32 as u64),
                Err(ProcError::StillRunning) => {
                    // Block the caller until the child exits; the caller
                    // retries the syscall after being woken.
                    self.block_thread(tid, BlockReason::Wait(Pid(child)));
                    Err(SysError::StillRunning)
                }
                Err(ProcError::NotAChild) => Err(SysError::NotAChild),
                Err(_) => Err(SysError::NoSuchProcess),
            },
            Syscall::Map { va, pages, writable } => self.do_map(pid, va, pages, writable),
            Syscall::Unmap { va, pages } => self.do_unmap(pid, va, pages),
            Syscall::Open {
                path_ptr,
                path_len,
                create,
            } => self.do_open(pid, path_ptr, path_len, create),
            Syscall::Read { fd, buf_ptr, buf_len } => self.do_read(pid, fd, buf_ptr, buf_len),
            Syscall::Write { fd, buf_ptr, buf_len } => self.do_write(pid, fd, buf_ptr, buf_len),
            Syscall::Seek { fd, offset } => {
                let entry = self.fd_entry(pid, fd)?;
                let handle = entry.handle;
                self.open_files.seek(handle, offset).map_err(|_| SysError::BadFd)?;
                Ok(offset)
            }
            Syscall::Close { fd } => {
                let table = self.fd_tables.get_mut(&pid).ok_or(SysError::NoSuchProcess)?;
                let entry = table.remove(&fd).ok_or(SysError::BadFd)?;
                self.open_files.close(entry.handle).map_err(|_| SysError::BadFd)?;
                Ok(0)
            }
            Syscall::Unlink { path_ptr, path_len } => {
                let path = self.read_user_path(pid, path_ptr, path_len)?;
                self.fs
                    .transact(&[FsOp::Unlink(path.as_str().to_string())])
                    .map_err(fs_err)?;
                Ok(0)
            }
            Syscall::FutexWait { va, expected } => self.do_futex_wait(pid, tid, va, expected),
            Syscall::FutexWake { va, count } => {
                let woken = self.futexes.wake(FutexKey { pid, va }, count as usize);
                let n = woken.len() as u64;
                for t in woken {
                    // lint: allow(panic-freedom) — the futex table only
                    // holds threads this kernel blocked; a miss is a
                    // model bug the refinement tests must catch.
                    self.sched.unblock(t).expect("futex waiters are blocked");
                }
                Ok(n)
            }
            Syscall::ThreadSpawn { affinity_plus_one } => {
                let affinity = match affinity_plus_one {
                    0 => None,
                    n => Some((n - 1) as usize),
                };
                let new_tid = self
                    .sched
                    .spawn_thread(pid, affinity)
                    .map_err(|_| SysError::Invalid)?;
                self.procs.add_thread(pid, new_tid).map_err(|_| SysError::NoSuchProcess)?;
                Ok(new_tid.0)
            }
            Syscall::Yield => Ok(0),
            Syscall::ClockRead => Ok(self.clock.now()),
        }
    }

    fn fd_entry(&self, pid: Pid, fd: u32) -> Result<&FdEntry, SysError> {
        self.fd_tables
            .get(&pid)
            .ok_or(SysError::NoSuchProcess)?
            .get(&fd)
            .ok_or(SysError::BadFd)
    }

    fn read_user_path(&self, pid: Pid, ptr: u64, len: u64) -> Result<Path, SysError> {
        let bytes = self.read_user(pid, ptr, len)?;
        let s = std::str::from_utf8(&bytes).map_err(|_| SysError::Invalid)?;
        Path::parse(s).map_err(|_| SysError::Invalid)
    }

    fn do_exit(&mut self, pid: Pid, code: i32) -> Result<(), SysError> {
        let tids = self.procs.exit(pid, code).map_err(|_| SysError::NoSuchProcess)?;
        for t in tids {
            // lint: allow(panic-freedom) — `procs.exit` returned only
            // live tids of this process; an unknown tid is a model bug.
            self.sched.exit_thread(t).expect("live thread");
            self.futexes.remove_waiter(t);
        }
        // Close all fds.
        if let Some(table) = self.fd_tables.remove(&pid) {
            for (_fd, entry) in table {
                let _ = self.open_files.close(entry.handle);
            }
        }
        // Free the address space.
        if let Some(vspace) = self.vspaces.remove(&pid) {
            vspace.destroy(&mut self.machine.mem, &mut self.alloc);
        }
        // Wake any parent blocked in wait on us.
        let waiters = self
            .sched
            .blocked_threads(|r| matches!(r, BlockReason::Wait(p) if *p == pid));
        for w in waiters {
            // lint: allow(panic-freedom) — `blocked_threads` selected
            // exactly the blocked ones; failure is a model bug.
            self.sched.unblock(w).expect("blocked");
        }
        Ok(())
    }

    fn do_map(&mut self, pid: Pid, va: u64, pages: u64, writable: bool) -> SysRet {
        if pages == 0 || pages > 1 << 16 || !va.is_multiple_of(PAGE_4K) {
            return Err(SysError::Invalid);
        }
        let vspace = self.vspaces.get_mut(&pid).ok_or(SysError::NoSuchProcess)?;
        let flags = veros_pagetable::MapFlags {
            writable,
            user: true,
            nx: true,
        };
        let mut mapped = Vec::new();
        for i in 0..pages {
            let page_va = VAddr(va + i * PAGE_4K);
            match vspace.map_new(&mut self.machine.mem, &mut self.alloc, page_va, flags) {
                Ok(_) => mapped.push(page_va),
                Err(e) => {
                    // Roll back everything mapped so far.
                    for done in mapped {
                        vspace
                            .unmap(&mut self.machine.mem, &mut self.alloc, done)
                            // lint: allow(panic-freedom) — rollback of
                            // addresses mapped in this very loop; the
                            // page table cannot have lost them.
                            .expect("just mapped");
                        self.machine.tlb.invlpg(done);
                    }
                    return Err(match e {
                        veros_pagetable::PtError::AlreadyMapped => SysError::AlreadyMapped,
                        veros_pagetable::PtError::OutOfMemory => SysError::NoMem,
                        _ => SysError::Invalid,
                    });
                }
            }
        }
        Ok(va)
    }

    fn do_unmap(&mut self, pid: Pid, va: u64, pages: u64) -> SysRet {
        if pages == 0 || !va.is_multiple_of(PAGE_4K) {
            return Err(SysError::Invalid);
        }
        let vspace = self.vspaces.get_mut(&pid).ok_or(SysError::NoSuchProcess)?;
        // Validate all pages first: unmap is all-or-nothing.
        for i in 0..pages {
            if vspace
                .resolve(&self.machine.mem, VAddr(va + i * PAGE_4K))
                .is_err()
            {
                return Err(SysError::NotMapped);
            }
        }
        for i in 0..pages {
            let page_va = VAddr(va + i * PAGE_4K);
            vspace
                .unmap(&mut self.machine.mem, &mut self.alloc, page_va)
                .map_err(|_| SysError::NotMapped)?;
            // TLB shootdown — the coherence obligation.
            self.machine.tlb.invlpg(page_va);
        }
        Ok(0)
    }

    fn do_open(&mut self, pid: Pid, path_ptr: u64, path_len: u64, create: bool) -> SysRet {
        let path = self.read_user_path(pid, path_ptr, path_len)?;
        let ino = match self.fs.fs.lookup(&path) {
            Ok(ino) => ino,
            Err(veros_fs::FsError::NotFound) if create => {
                self.fs
                    .transact(&[FsOp::Create(path.as_str().to_string())])
                    .map_err(fs_err)?;
                self.fs.fs.lookup(&path).map_err(fs_err)?
            }
            Err(e) => return Err(fs_err(e)),
        };
        // Only regular files are openable.
        self.fs.fs.len_of(ino).map_err(fs_err)?;
        let handle = self.open_files.open(ino);
        let proc_fds = self.fd_tables.get_mut(&pid).ok_or(SysError::NoSuchProcess)?;
        let proc_entry = self.procs.get_mut(pid).map_err(|_| SysError::NoSuchProcess)?;
        let fd = proc_entry.next_fd;
        proc_entry.next_fd += 1;
        proc_fds.insert(
            fd,
            FdEntry {
                handle,
                path: path.as_str().to_string(),
            },
        );
        Ok(fd as u64)
    }

    fn do_read(&mut self, pid: Pid, fd: u32, buf_ptr: u64, buf_len: u64) -> SysRet {
        let handle = self.fd_entry(pid, fd)?.handle;
        let offset_before = self.open_files.get(handle).ok_or(SysError::BadFd)?.offset;
        let result = self
            .open_files
            .read(&self.fs.fs, handle, buf_len)
            .map_err(fs_err)?;
        if let Err(e) = self.write_user(pid, buf_ptr, &result.data) {
            // A failed delivery must not consume the file offset (the
            // abstract spec's read transition fires atomically or not at
            // all).
            self.open_files
                .seek(handle, offset_before)
                // lint: allow(panic-freedom) — restoring the offset of a
                // handle we just read through; it cannot have vanished.
                .expect("handle exists");
            return Err(e);
        }
        Ok(result.len)
    }

    fn do_write(&mut self, pid: Pid, fd: u32, buf_ptr: u64, buf_len: u64) -> SysRet {
        let data = self.read_user(pid, buf_ptr, buf_len)?;
        let entry = self.fd_entry(pid, fd)?;
        let (handle, path) = (entry.handle, entry.path.clone());
        let offset = self
            .open_files
            .get(handle)
            .ok_or(SysError::BadFd)?
            .offset;
        let len = data.len() as u64;
        self.fs
            .transact(&[FsOp::WriteAt(path, offset, data)])
            .map_err(fs_err)?;
        self.open_files
            .seek(handle, offset + len)
            .map_err(|_| SysError::BadFd)?;
        Ok(len)
    }

    fn do_futex_wait(&mut self, pid: Pid, tid: Tid, va: u64, expected: u32) -> SysRet {
        // Read the futex word through the page table — atomically with
        // respect to wakes because the whole kernel transition holds
        // `&mut self`.
        let bytes = self.read_user(pid, va, 4)?;
        let mut word = [0u8; 4];
        for (d, b) in word.iter_mut().zip(&bytes) {
            *d = *b;
        }
        let current = u32::from_le_bytes(word);
        match self
            .futexes
            .wait(FutexKey { pid, va }, tid, current, expected)
        {
            WaitOutcome::Enqueued => {
                self.block_thread(tid, BlockReason::Futex(va));
                Ok(0)
            }
            WaitOutcome::ValueMismatch => Err(SysError::WouldBlock),
        }
    }

    fn block_thread(&mut self, tid: Tid, reason: BlockReason) {
        // The thread may or may not be the one "on core" in the model;
        // block it wherever it is.
        if let Some(t) = self.sched.thread(tid) {
            if let crate::thread::ThreadState::Running { core } = t.state {
                self.sched
                    .block_current(core, reason)
                    // lint: allow(panic-freedom) — we just observed the
                    // thread running on `core` under `&mut self`.
                    .expect("current thread");
                return;
            }
        }
        // Ready thread blocking itself (model-level convenience): mark
        // blocked directly via a schedule-block round.
        // This path is used by the cooperative runner where "running" is
        // implicit.
        if let Some(t) = self.sched.thread(tid) {
            if t.is_ready() {
                // Briefly run it on core 0's slot semantics: directly
                // set blocked state through the public API by scheduling
                // is disproportionate; the scheduler exposes exit/unblock
                // only, so emulate with internal helper.
                self.sched.force_block(tid, reason);
            }
        }
    }

    /// The next pid the process table will assign (for the abstract
    /// view's identifier prediction).
    pub fn next_pid_hint(&self) -> u64 {
        self.procs.next_pid_hint()
    }

    /// The next tid the scheduler will assign.
    pub fn next_tid_hint(&self) -> u64 {
        self.sched.next_tid_hint()
    }

    /// The futex wait queues as `((pid, va), fifo-of-tids)` — exposed for
    /// the abstract `view()` in `veros-core`.
    pub fn futex_view(&self) -> Vec<((u64, u64), Vec<u64>)> {
        self.futexes.queues_view()
    }

    /// The fd table of a process as `(fd, path, offset)` triples — the
    /// raw material of the abstract `view()` in `veros-core`.
    pub fn fd_view(&self, pid: Pid) -> Vec<(u32, String, u64)> {
        let Some(table) = self.fd_tables.get(&pid) else {
            return Vec::new();
        };
        table
            .iter()
            .map(|(fd, entry)| {
                let offset = self
                    .open_files
                    .get(entry.handle)
                    .map(|o| o.offset)
                    .unwrap_or(0);
                (*fd, entry.path.clone(), offset)
            })
            .collect()
    }

    /// Terminates a single thread (returning `code` if it was the last
    /// one, making the process a zombie with that code).
    pub fn thread_exit(&mut self, pid: Pid, tid: Tid, code: i32) -> Result<(), SysError> {
        self.sched.exit_thread(tid).map_err(|_| SysError::Invalid)?;
        self.futexes.remove_waiter(tid);
        self.procs
            .remove_thread(pid, tid, code)
            .map_err(|_| SysError::NoSuchProcess)?;
        // If that was the last thread, release process resources and
        // wake waiters, as in a full exit.
        if matches!(
            self.procs.get(pid).map(|p| p.state),
            Ok(crate::process::ProcessState::Zombie { .. })
        ) {
            if let Some(table) = self.fd_tables.remove(&pid) {
                for (_fd, entry) in table {
                    let _ = self.open_files.close(entry.handle);
                }
            }
            if let Some(vspace) = self.vspaces.remove(&pid) {
                vspace.destroy(&mut self.machine.mem, &mut self.alloc);
            }
            let waiters = self
                .sched
                .blocked_threads(|r| matches!(r, BlockReason::Wait(p) if *p == pid));
            for w in waiters {
                // lint: allow(panic-freedom) — `blocked_threads`
                // selected exactly the blocked ones; see do_exit.
                self.sched.unblock(w).expect("blocked");
            }
        }
        Ok(())
    }

    /// Advances virtual time by one tick on `core`; reschedules when the
    /// timeslice expired. Returns the thread now running.
    pub fn timer_tick(&mut self, core: usize) -> Option<Tid> {
        self.clock.tick();
        let expired = self.sched.tick(core).unwrap_or(true);
        if expired {
            self.sched.schedule(core).ok().flatten()
        } else {
            self.sched.running_on(core)
        }
    }
}

fn fs_err(e: veros_fs::FsError) -> SysError {
    match e {
        veros_fs::FsError::NotFound => SysError::NoSuchPath,
        veros_fs::FsError::AlreadyExists => SysError::AlreadyExists,
        veros_fs::FsError::NotADirectory => SysError::NotDirectory,
        veros_fs::FsError::IsADirectory => SysError::IsDirectory,
        veros_fs::FsError::NotEmpty => SysError::Invalid,
        veros_fs::FsError::NoSpace => SysError::NoSpace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> Kernel {
        Kernel::boot(KernelConfig::default()).expect("boot")
    }

    fn caller(k: &Kernel) -> (Pid, Tid) {
        (k.init_pid, k.init_tid)
    }

    /// Maps a page and writes `data` into it via the user path.
    fn put_buf(k: &mut Kernel, pid: Pid, va: u64, data: &[u8]) {
        let c = (pid, k.procs.get(pid).unwrap().threads[0]);
        k.syscall(
            c,
            Syscall::Map {
                va,
                pages: data.len().div_ceil(PAGE_4K as usize).max(1) as u64,
                writable: true,
            },
        )
        .expect("map");
        k.write_user(pid, va, data).expect("write_user");
    }

    #[test]
    fn boot_creates_init() {
        let k = boot();
        assert_eq!(k.processes().len(), 1);
        assert!(k.vspace(k.init_pid).is_some());
    }

    #[test]
    fn map_write_read_user_round_trip() {
        let mut k = boot();
        let c = caller(&k);
        k.syscall(c, Syscall::Map { va: 0x10_0000, pages: 2, writable: true })
            .unwrap();
        k.write_user(c.0, 0x10_0ffc, b"span the page boundary").unwrap();
        let back = k.read_user(c.0, 0x10_0ffc, 22).unwrap();
        assert_eq!(back, b"span the page boundary");
    }

    #[test]
    fn map_conflicts_and_rollback() {
        let mut k = boot();
        let c = caller(&k);
        k.syscall(c, Syscall::Map { va: 0x10_1000, pages: 1, writable: true })
            .unwrap();
        // Overlapping range: second page collides, first page of the
        // failed request must be rolled back.
        let r = k.syscall(c, Syscall::Map { va: 0x10_0000, pages: 2, writable: true });
        assert_eq!(r, Err(SysError::AlreadyMapped));
        assert!(k.read_user(c.0, 0x10_0000, 1).is_err(), "rolled back");
        assert!(k.read_user(c.0, 0x10_1000, 1).is_ok(), "original intact");
    }

    #[test]
    fn unmap_revokes_access() {
        let mut k = boot();
        let c = caller(&k);
        k.syscall(c, Syscall::Map { va: 0x10_0000, pages: 1, writable: true })
            .unwrap();
        k.syscall(c, Syscall::Unmap { va: 0x10_0000, pages: 1 }).unwrap();
        assert_eq!(k.read_user(c.0, 0x10_0000, 1), Err(SysError::BadAddress));
        assert_eq!(
            k.syscall(c, Syscall::Unmap { va: 0x10_0000, pages: 1 }),
            Err(SysError::NotMapped)
        );
    }

    #[test]
    fn file_syscalls_full_cycle() {
        let mut k = boot();
        let c = caller(&k);
        put_buf(&mut k, c.0, 0x20_0000, b"/hello.txt");
        let fd = k
            .syscall(
                c,
                Syscall::Open {
                    path_ptr: 0x20_0000,
                    path_len: 10,
                    create: true,
                },
            )
            .unwrap() as u32;
        // Write from a user buffer.
        put_buf(&mut k, c.0, 0x30_0000, b"beyond isolation");
        let n = k
            .syscall(
                c,
                Syscall::Write {
                    fd,
                    buf_ptr: 0x30_0000,
                    buf_len: 16,
                },
            )
            .unwrap();
        assert_eq!(n, 16);
        // Seek back, read into another user buffer.
        k.syscall(c, Syscall::Seek { fd, offset: 7 }).unwrap();
        k.syscall(c, Syscall::Map { va: 0x40_0000, pages: 1, writable: true })
            .unwrap();
        let n = k
            .syscall(
                c,
                Syscall::Read {
                    fd,
                    buf_ptr: 0x40_0000,
                    buf_len: 64,
                },
            )
            .unwrap();
        assert_eq!(n, 9);
        assert_eq!(k.read_user(c.0, 0x40_0000, 9).unwrap(), b"isolation");
        k.syscall(c, Syscall::Close { fd }).unwrap();
        assert_eq!(
            k.syscall(c, Syscall::Read { fd, buf_ptr: 0x40_0000, buf_len: 1 }),
            Err(SysError::BadFd)
        );
    }

    #[test]
    fn file_data_survives_crash_via_journal() {
        let mut k = boot();
        let c = caller(&k);
        put_buf(&mut k, c.0, 0x20_0000, b"/data.bin");
        let fd = k
            .syscall(c, Syscall::Open { path_ptr: 0x20_0000, path_len: 9, create: true })
            .unwrap() as u32;
        put_buf(&mut k, c.0, 0x30_0000, b"durable!");
        k.syscall(c, Syscall::Write { fd, buf_ptr: 0x30_0000, buf_len: 8 })
            .unwrap();
        // Crash the disk and recover.
        let fs = std::mem::replace(
            &mut k.fs,
            JournaledFs::format(SimDisk::new(16)),
        );
        let mut disk = fs.into_disk();
        disk.crash_keep_prefix(0);
        let recovered = JournaledFs::recover(disk);
        assert_eq!(
            recovered
                .fs
                .read_file(&Path::parse("/data.bin").unwrap())
                .unwrap(),
            b"durable!"
        );
    }

    #[test]
    fn spawn_exit_wait_lifecycle() {
        let mut k = boot();
        let c = caller(&k);
        let child = Pid(k.syscall(c, Syscall::Spawn).unwrap());
        // Waiting on a live child blocks the caller.
        assert_eq!(
            k.syscall(c, Syscall::Wait { pid: child.0 }),
            Err(SysError::StillRunning)
        );
        // The child exits with code 5 (called by the child's thread).
        let child_thread = k.procs.get(child).unwrap().threads[0];
        k.syscall((child, child_thread), Syscall::Exit { code: 5 }).unwrap();
        // The parent thread was woken; retrying the wait reaps.
        assert_eq!(k.syscall(c, Syscall::Wait { pid: child.0 }), Ok(5));
        assert_eq!(
            k.syscall(c, Syscall::Wait { pid: child.0 }),
            Err(SysError::NoSuchProcess)
        );
    }

    #[test]
    fn exit_frees_address_space_and_fds() {
        let mut k = boot();
        let c = caller(&k);
        let before = k.alloc.allocated_frames();
        let child = Pid(k.syscall(c, Syscall::Spawn).unwrap());
        let ct = (child, k.procs.get(child).unwrap().threads[0]);
        k.syscall(ct, Syscall::Map { va: 0x10_0000, pages: 8, writable: true })
            .unwrap();
        put_buf(&mut k, child, 0x20_0000, b"/tmpfile");
        k.syscall(ct, Syscall::Open { path_ptr: 0x20_0000, path_len: 8, create: true })
            .unwrap();
        assert!(k.alloc.allocated_frames() > before);
        k.syscall(ct, Syscall::Exit { code: 0 }).unwrap();
        assert_eq!(k.alloc.allocated_frames(), before, "all frames reclaimed");
        assert!(k.open_files.is_empty(), "exit closed all files");
    }

    #[test]
    fn futex_wait_wake_cycle() {
        let mut k = boot();
        let c = caller(&k);
        k.syscall(c, Syscall::Map { va: 0x50_0000, pages: 1, writable: true })
            .unwrap();
        // Spawn a second thread to be the waiter.
        let waiter = Tid(k.syscall(c, Syscall::ThreadSpawn { affinity_plus_one: 0 }).unwrap());
        // Word is 0; waiting for 0 enqueues.
        assert_eq!(
            k.syscall((c.0, waiter), Syscall::FutexWait { va: 0x50_0000, expected: 0 }),
            Ok(0)
        );
        assert!(matches!(
            k.sched.thread(waiter).unwrap().state,
            crate::thread::ThreadState::Blocked(_)
        ));
        // Mismatched expectation fails.
        assert_eq!(
            k.syscall(c, Syscall::FutexWait { va: 0x50_0000, expected: 7 }),
            Err(SysError::WouldBlock)
        );
        // Wake.
        assert_eq!(
            k.syscall(c, Syscall::FutexWake { va: 0x50_0000, count: 8 }),
            Ok(1)
        );
        assert!(k.sched.thread(waiter).unwrap().is_ready());
    }

    #[test]
    fn syscall_regs_abi_end_to_end() {
        let mut k = boot();
        let c = caller(&k);
        let regs = abi::encode_regs(&Syscall::Map {
            va: 0x60_0000,
            pages: 1,
            writable: true,
        });
        let (status, value) = k.syscall_regs(c, regs);
        assert_eq!(abi::decode_ret(status, value).unwrap(), Ok(0x60_0000));
        // Garbage registers are rejected, not fatal.
        let (status, _) = k.syscall_regs(c, [77, 0, 0, 0, 0, 0]);
        assert_ne!(status, 0);
    }

    #[test]
    fn clock_and_timer_ticks() {
        let mut k = boot();
        let c = caller(&k);
        let t0 = k.syscall(c, Syscall::ClockRead).unwrap();
        k.timer_tick(0);
        k.timer_tick(0);
        let t1 = k.syscall(c, Syscall::ClockRead).unwrap();
        assert_eq!(t1, t0 + 2);
    }

    #[test]
    fn bad_pointers_are_rejected() {
        let mut k = boot();
        let c = caller(&k);
        assert_eq!(k.read_user(c.0, 0xdead_0000, 8), Err(SysError::BadAddress));
        // Read-only mapping rejects writes.
        k.syscall(c, Syscall::Map { va: 0x70_0000, pages: 1, writable: false })
            .unwrap();
        assert!(k.read_user(c.0, 0x70_0000, 8).is_ok());
        assert_eq!(
            k.write_user(c.0, 0x70_0000, b"x"),
            Err(SysError::BadAddress)
        );
        // Open with a bad path pointer.
        assert_eq!(
            k.syscall(c, Syscall::Open { path_ptr: 0xdead_0000, path_len: 4, create: true }),
            Err(SysError::BadAddress)
        );
    }
}
