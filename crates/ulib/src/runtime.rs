//! The cooperative user-thread runtime.
//!
//! User programs are *tasks*: closures invoked for one quantum whenever
//! the kernel scheduler puts their thread on a core. A task returns
//! [`Step::Yield`] to give up the rest of its logic for this quantum
//! (its thread stays schedulable), or [`Step::Done`] to exit the thread.
//! If a syscall made inside the step *blocks* the thread (futex wait,
//! wait-for-child), the scheduler simply will not run the thread again
//! until it is woken — the task is re-stepped after wakeup and is
//! expected to retry its protocol step (exactly how syscall restarts
//! work after a futex wake).

//!
//! The runtime has two syscall entry paths. The default is the
//! synchronous register ABI (one trap per call). Enabling the ring
//! ([`Runtime::enable_uring`]) reroutes [`Ctx::sys`] through a
//! [`RingExec`] — an executor over one `veros-uring`
//! submission/completion queue pair, shared by every task thread of the
//! owning process — while preserving synchronous *semantics*: non-blocking
//! calls submit, drain, and return their CQE result inline; blocking
//! calls park the calling task thread until its completion arrives, and
//! the task observes exactly the return values the trap path produces
//! (`Ok(0)` for a blocking futex wait, `Err(StillRunning)` for a wait
//! that must be retried). Tasks therefore run unmodified on either
//! path, which is what the differential ring tests exploit.

use std::collections::BTreeMap;

use veros_kernel::syscall::{abi, RingClass, SysError, SysRet, Syscall};
use veros_kernel::thread::BlockReason;
use veros_kernel::{Kernel, Pid, Tid};
use veros_uring::{pair, Engine, SqeFlags, SqFull, SubstSource, UserRing, MAX_CHAIN};

/// What a task step produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Keep the thread schedulable; step again later.
    Yield,
    /// Exit the thread with this code.
    Done(i32),
}

/// The per-step execution context handed to tasks: the calling thread's
/// identity plus syscall and user-memory helpers.
pub struct Ctx<'k> {
    /// The kernel (all access goes through syscalls or the user-memory
    /// helpers, which enforce the page-table mapping).
    pub kernel: &'k mut Kernel,
    /// The ring executor, when the runtime has one enabled. `None`
    /// routes every syscall through the synchronous register ABI.
    pub ring: Option<&'k mut RingExec>,
    /// The calling process.
    pub pid: Pid,
    /// The calling thread.
    pub tid: Tid,
}

impl Ctx<'_> {
    /// Performs a syscall. With no ring enabled this goes through the
    /// full register ABI (so every call exercises the marshalling
    /// path); with a ring it goes through SQE/CQE marshalling instead,
    /// with identical observable semantics. `Exit` and calls from
    /// processes other than the ring owner always take the trap path.
    #[expect(
        clippy::expect_used,
        reason = "the pair comes straight from abi::encode_ret, whose round trip \
                  wire::typed_roundtrip VCs"
    )]
    pub fn sys(&mut self, call: Syscall) -> SysRet {
        if let Some(ring) = self.ring.as_deref_mut() {
            if ring.owns(self.pid) && !matches!(call, Syscall::Exit { .. }) {
                if let Some(ret) = ring.route(self.kernel, self.tid, &call) {
                    return ret;
                }
            }
        }
        let regs = abi::encode_regs(&call);
        let (status, value) = self.kernel.syscall_regs((self.pid, self.tid), regs);
        abi::decode_ret(status, value).expect("kernel emits well-formed returns")
    }

    /// Reads a `u32` from user memory.
    #[expect(
        clippy::expect_used,
        reason = "read_user returns exactly the requested length on Ok"
    )]
    pub fn read_u32(&mut self, va: u64) -> Result<u32, SysError> {
        let b = self.kernel.read_user(self.pid, va, 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Writes a `u32` to user memory.
    pub fn write_u32(&mut self, va: u64, v: u32) -> Result<(), SysError> {
        self.kernel.write_user(self.pid, va, &v.to_le_bytes())
    }

    /// Reads a `u64` from user memory.
    #[expect(
        clippy::expect_used,
        reason = "read_user returns exactly the requested length on Ok"
    )]
    pub fn read_u64(&mut self, va: u64) -> Result<u64, SysError> {
        let b = self.kernel.read_user(self.pid, va, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Writes a `u64` to user memory.
    pub fn write_u64(&mut self, va: u64, v: u64) -> Result<(), SysError> {
        self.kernel.write_user(self.pid, va, &v.to_le_bytes())
    }

    /// Compare-and-swap on a user word. Atomic in the model: the whole
    /// kernel transition holds `&mut Kernel`, which is exactly the
    /// ownership argument the paper makes for data-race freedom.
    pub fn cas_u32(&mut self, va: u64, old: u32, new: u32) -> Result<u32, SysError> {
        let cur = self.read_u32(va)?;
        if cur == old {
            self.write_u32(va, new)?;
        }
        Ok(cur)
    }

    /// Reads a byte range from user memory.
    pub fn read_bytes(&mut self, va: u64, len: u64) -> Result<Vec<u8>, SysError> {
        self.kernel.read_user(self.pid, va, len)
    }

    /// Writes a byte range to user memory.
    pub fn write_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), SysError> {
        self.kernel.write_user(self.pid, va, data)
    }

    /// Performs a chain of syscalls with uring chain semantics: each
    /// link except the last is LINKed to its successor, a link may
    /// substitute an argument register with the result of the previous
    /// link or the chain head ([`ChainLink::subst_prev`] /
    /// [`ChainLink::subst_head`]), and the first failing link cancels
    /// the whole suffix with [`SysError::Cancelled`] — the completed
    /// prefix is never rolled back.
    ///
    /// With a ring enabled the chain crosses the ring as one batch of
    /// flagged SQEs (one submission instead of `links.len()`); without
    /// one it is emulated link by link over the trap path with the same
    /// observable results. Returns exactly one result per link, in
    /// chain order. Blocking calls are only legal as the final link
    /// (the chain-tail rule the kernel engine enforces); a blocking
    /// tail parks the caller and yields the trap path's surrogate
    /// return, exactly like [`Ctx::sys`]. A chain of more than
    /// [`MAX_CHAIN`] links is refused whole on either path, as the
    /// engine refuses it: every link `Err(Invalid)`, none dispatched.
    pub fn sys_chain(&mut self, links: &[ChainLink]) -> ChainResults {
        if links.len() > MAX_CHAIN {
            return ChainResults {
                len: links.len(),
                ..ChainResults::EMPTY
            };
        }
        if links.is_empty() {
            return ChainResults::EMPTY;
        }
        if let Some(ring) = self.ring.as_deref_mut() {
            let ring_ok = ring.owns(self.pid)
                && !links.iter().any(|l| matches!(l.call, Syscall::Exit { .. }));
            if ring_ok {
                if let Some(out) = ring.route_chain(self.kernel, self.tid, links) {
                    return out;
                }
            }
        }
        self.sys_chain_fallback(links)
    }

    /// Trap-path emulation of [`Ctx::sys_chain`]: one syscall per link,
    /// mirroring the engine's chain rules (substitution before decode,
    /// no `Exit`, blocking only at the tail, first failure cancels the
    /// suffix) so tasks observe identical results on either path.
    fn sys_chain_fallback(&mut self, links: &[ChainLink]) -> ChainResults {
        let mut out = ChainResults::EMPTY;
        let mut head: Option<u64> = None;
        let mut prev: Option<u64> = None;
        let mut aborted = false;
        for (i, link) in links.iter().enumerate() {
            if aborted {
                out.push(Err(SysError::Cancelled));
                continue;
            }
            let tail = i + 1 == links.len();
            let res = self.chain_fallback_link(link, tail, head, prev);
            if i == 0 {
                head = res.ok();
            }
            prev = res.ok();
            if res.is_err() {
                aborted = true;
            }
            out.push(res);
        }
        out
    }

    fn chain_fallback_link(
        &mut self,
        link: &ChainLink,
        tail: bool,
        head: Option<u64>,
        prev: Option<u64>,
    ) -> SysRet {
        let mut regs = abi::encode_regs(&link.call);
        if let Some((src, reg)) = link.subst {
            let value = match src {
                SubstSource::Prev => prev,
                SubstSource::Head => head,
            }
            .ok_or(SysError::Invalid)?;
            abi::substitute_reg(&mut regs, reg, value)?;
        }
        let call = abi::decode_regs(&regs)?;
        match call.ring_class() {
            RingClass::TrapOnly => Err(SysError::Invalid),
            RingClass::Blocking if !tail => Err(SysError::Invalid),
            RingClass::Blocking | RingClass::Inline => {
                self.kernel.syscall((self.pid, self.tid), call)
            }
        }
    }
}

/// One link of a [`Ctx::sys_chain`] chain: the call plus an optional
/// argument-register substitution from an earlier link's result.
#[derive(Clone, Copy, Debug)]
pub struct ChainLink {
    /// The syscall to perform.
    pub call: Syscall,
    /// Patch argument register `.1` with the named source's result
    /// before dispatch (see `abi::substitute_reg`).
    pub subst: Option<(SubstSource, u8)>,
}

impl ChainLink {
    /// A link with no substitution.
    pub fn plain(call: Syscall) -> Self {
        Self { call, subst: None }
    }

    /// A link whose register `reg` takes the previous link's result.
    pub fn subst_prev(call: Syscall, reg: u8) -> Self {
        Self {
            call,
            subst: Some((SubstSource::Prev, reg)),
        }
    }

    /// A link whose register `reg` takes the chain head's result.
    pub fn subst_head(call: Syscall, reg: u8) -> Self {
        Self {
            call,
            subst: Some((SubstSource::Head, reg)),
        }
    }
}

/// The results of a [`Ctx::sys_chain`]: one [`SysRet`] per link, in
/// chain order (`rs[0]`, `rs.len()`, `rs.iter()`).
///
/// A dispatched chain has at most [`MAX_CHAIN`] links, so results live
/// in a fixed inline buffer and the chain hot path never touches the
/// allocator — a per-chain allocation would eat the submission round
/// trips chaining exists to save. A refused overlong chain stores no
/// result at all: its `len` exceeds [`MAX_CHAIN`] and every slot keeps
/// the buffer's initial `Err(Invalid)`, which every index reads.
pub struct ChainResults {
    inline: [SysRet; MAX_CHAIN],
    len: usize,
}

impl ChainResults {
    /// No results (the empty chain).
    pub const EMPTY: ChainResults = ChainResults {
        inline: [Err(SysError::Invalid); MAX_CHAIN],
        len: 0,
    };

    fn push(&mut self, r: SysRet) {
        self.inline[self.len] = r;
        self.len += 1;
    }

    /// One result per link of the chain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty chain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The results in chain order.
    pub fn iter(&self) -> impl Iterator<Item = &SysRet> {
        (0..self.len).map(|i| &self[i])
    }
}

impl std::ops::Index<usize> for ChainResults {
    type Output = SysRet;

    fn index(&self, i: usize) -> &SysRet {
        assert!(i < self.len, "link {i} of a {}-link chain", self.len);
        &self.inline[i.min(MAX_CHAIN - 1)]
    }
}

impl std::fmt::Debug for ChainResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: AsRef<[SysRet]>> PartialEq<T> for ChainResults {
    fn eq(&self, other: &T) -> bool {
        self.iter().eq(other.as_ref())
    }
}

/// A task body.
pub type TaskFn = Box<dyn FnMut(&mut Ctx<'_>) -> Step>;

/// Correlation handle for an asynchronous submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// The asynchronous syscall executor: the user side of one
/// `veros-uring` queue pair, shared by every task thread of the owning
/// process, plus the kernel-side [`Engine`] whose passes drive it.
///
/// Two usage styles share the ring:
///
/// * **Explicit async**: [`RingExec::submit`] returns a [`Ticket`];
///   [`RingExec::poll`] / [`RingExec::wait`] retrieve its completion.
/// * **Transparent sync**: [`Ctx::sys`] calls `RingExec::route`,
///   which preserves trap-path semantics — non-blocking calls complete
///   inline; blocking calls park the calling task thread (scheduler
///   block, reason `Sleep(ticket)`) and unpark it when the CQE lands,
///   returning the same surrogate value the trap path would
///   (`Ok(0)` for a blocked futex wait, `Err(StillRunning)` for an
///   unfinished child wait, which the task retries).
///
/// Tickets are allocated from one counter, so a completion is
/// identified by ticket alone. Retries are recognized by the `(thread,
/// register image)` pair: a woken task re-issuing the identical call
/// picks up the stored completion instead of double-submitting.
pub struct RingExec {
    /// The user side of the ring.
    user: UserRing,
    /// The kernel side of the ring. Boxed: held inline, the
    /// `kernel_fileio` workload measured ~6% more time per op.
    engine: Box<Engine>,
    /// Engine passes driven so far.
    sweeps: u64,
    owner: (Pid, Tid),
    next_ticket: u64,
    /// Completions waiting to be claimed, by ticket.
    completions: BTreeMap<u64, SysRet>,
    /// In-flight blocking submission per task thread: the register
    /// image it will retry with, and its ticket.
    outstanding: BTreeMap<u64, (abi::Regs, u64)>,
    /// Task threads parked on a ticket, and whether the task will
    /// retry the call (child wait) or already has its final surrogate
    /// result (futex wait).
    parked: BTreeMap<u64, (Tid, bool)>,
}

impl RingExec {
    /// Builds a ring of at least `depth` slots owned by `owner`, shared
    /// by every task thread.
    pub fn new(depth: usize, owner: (Pid, Tid)) -> Self {
        let (user, kring) = pair(depth);
        Self {
            user,
            engine: Box::new(Engine::new(kring, owner)),
            sweeps: 0,
            owner,
            next_ticket: 0,
            completions: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            parked: BTreeMap::new(),
        }
    }

    /// Whether `pid` is the ring's owning process (only its syscalls
    /// may route through the ring).
    pub fn owns(&self, pid: Pid) -> bool {
        self.owner.0 == pid
    }

    /// Engine passes [`RingExec::pump`] has driven so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Entries parked kernel-side (blocked submissions) plus links
    /// buffered in incomplete chains.
    pub fn pending_len(&self) -> usize {
        self.engine.pending_len() + self.engine.chain_buffered()
    }

    /// Submits a syscall asynchronously. The entry is queued; the
    /// kernel dispatches it at the next [`RingExec::pump`] (or any
    /// poll/wait/route). `Err(SqFull)` is backpressure: pump and retry.
    pub fn submit(&mut self, call: &Syscall) -> Result<Ticket, SqFull> {
        let ticket = self.next_ticket;
        self.user.submit(ticket, call)?;
        self.next_ticket += 1;
        Ok(Ticket(ticket))
    }

    /// Drives the ring once (dispatch new submissions, reap woken
    /// blocked ones, drain completions) and takes `t`'s result if its
    /// completion has landed.
    pub fn poll(&mut self, k: &mut Kernel, t: Ticket) -> Option<SysRet> {
        self.pump(k);
        self.completions.remove(&t.0)
    }

    /// Polls up to `max_pumps` times. A blocked submission completes
    /// only after something else (another task, an environment event)
    /// wakes its worker, so a `None` here means "still pending", not
    /// "lost" — the CQE is delivered exactly once whenever it lands.
    pub fn wait(&mut self, k: &mut Kernel, t: Ticket, max_pumps: usize) -> Option<SysRet> {
        for _ in 0..max_pumps {
            if let Some(ret) = self.poll(k, t) {
                return Some(ret);
            }
        }
        None
    }

    /// Drives the engine until a pass finds nothing to do: each pass
    /// dispatches new submissions and reaps woken blocked entries, then
    /// the completion queue is drained (unparking any task threads whose
    /// ticket completed).
    pub fn pump(&mut self, k: &mut Kernel) {
        loop {
            let busy = self.engine.pass(k);
            self.sweeps += 1;
            self.drain_cq(k);
            if !busy {
                break;
            }
        }
    }

    /// The [`Ctx::sys`] entry: synchronous semantics over the ring.
    /// Returns `None` when the caller should fall back to the trap path
    /// (persistent submission-queue backpressure).
    pub(crate) fn route(&mut self, k: &mut Kernel, tid: Tid, call: &Syscall) -> Option<SysRet> {
        let regs = abi::encode_regs(call);
        if let Some(&(out_regs, ticket)) = self.outstanding.get(&tid.0) {
            if out_regs == regs {
                // A woken task retrying its blocking call: hand over
                // the completion, or re-park on a spurious wake.
                self.pump(k);
                if let Some(res) = self.completions.remove(&ticket) {
                    self.outstanding.remove(&tid.0);
                    return Some(res);
                }
                self.park(k, tid, ticket, call);
                return Some(surrogate(call));
            }
            // The task abandoned its retry protocol (moved on to a
            // different call): drop the stale bookkeeping.
            self.outstanding.remove(&tid.0);
            self.completions.remove(&ticket);
        }
        let ticket = self.next_ticket;
        if self.user.submit(ticket, call).is_err() {
            self.pump(k);
            if self.user.submit(ticket, call).is_err() {
                return None;
            }
        }
        self.next_ticket += 1;
        self.pump(k);
        if let Some(res) = self.completions.remove(&ticket) {
            return Some(res);
        }
        // The submission blocked kernel-side: park the task thread
        // until its CQE lands, exactly as the trap path would have
        // blocked it directly.
        self.outstanding.insert(tid.0, (regs, ticket));
        self.park(k, tid, ticket, call);
        Some(surrogate(call))
    }

    /// The [`Ctx::sys_chain`] entry: submits the whole chain as one
    /// batch of flagged SQEs and collects one result per link. A
    /// blocking tail parks the caller exactly like [`RingExec::route`].
    /// Returns `None` when the chain does not fit the submission queue
    /// even after a pump (fall back to the trap path).
    pub(crate) fn route_chain(
        &mut self,
        k: &mut Kernel,
        tid: Tid,
        links: &[ChainLink],
    ) -> Option<ChainResults> {
        if (self.user.sq_free() as usize) < links.len() {
            self.pump(k);
            if (self.user.sq_free() as usize) < links.len() {
                return None;
            }
        }
        let first = self.next_ticket;
        for (i, l) in links.iter().enumerate() {
            let flags = SqeFlags { link: i + 1 < links.len(), subst: l.subst };
            #[expect(
                clippy::expect_used,
                reason = "sq_free() >= links.len() was checked above; nothing else consumes \
                          slots here"
            )]
            self.user
                .submit_flagged(first + i as u64, &l.call, flags)
                .expect("capacity reserved above");
        }
        self.next_ticket += links.len() as u64;
        self.pump(k);
        let mut out = ChainResults::EMPTY;
        for (i, l) in links.iter().enumerate() {
            let ticket = first + i as u64;
            if let Some(res) = self.completions.remove(&ticket) {
                out.push(res);
            } else if i + 1 == links.len() {
                // The tail blocked kernel-side (a chain ending in a
                // futex wait or child wait): park the caller and hand
                // back the trap path's surrogate, as `route` would.
                self.outstanding
                    .insert(tid.0, (abi::encode_regs(&l.call), ticket));
                self.park(k, tid, ticket, &l.call);
                out.push(surrogate(&l.call));
            } else {
                // Unreachable by construction: every non-tail link is
                // LINKed, and a linked run always produces CQEs for
                // its non-tail links once the tail is submitted
                // (blocking mid-chain is refused with `Invalid`).
                out.push(Err(SysError::StillRunning));
            }
        }
        Some(out)
    }

    fn park(&mut self, k: &mut Kernel, tid: Tid, ticket: u64, call: &Syscall) {
        let retry = matches!(call, Syscall::Wait { .. });
        self.parked.insert(ticket, (tid, retry));
        k.sched.force_block(tid, BlockReason::Sleep(ticket));
    }

    fn drain_cq(&mut self, k: &mut Kernel) {
        while let Some(cqe) = self.user.complete() {
            match self.parked.remove(&cqe.user_data) {
                Some((tid, retry)) => {
                    let _ = k.sched.unblock(tid);
                    if retry {
                        self.completions.insert(cqe.user_data, cqe.result);
                    } else {
                        // The surrogate return already was the final
                        // result (futex wait: Ok(0)); nothing to claim.
                        self.outstanding.remove(&tid.0);
                    }
                }
                None => {
                    self.completions.insert(cqe.user_data, cqe.result);
                }
            }
        }
    }
}

/// What the trap path returns at the moment it blocks the caller.
fn surrogate(call: &Syscall) -> SysRet {
    match call {
        Syscall::FutexWait { .. } => Ok(0),
        _ => Err(SysError::StillRunning),
    }
}

/// The runtime: kernel + tasks keyed by thread id.
pub struct Runtime {
    /// The kernel being driven.
    pub kernel: Kernel,
    tasks: BTreeMap<Tid, (Pid, TaskFn)>,
    exit_codes: BTreeMap<Tid, i32>,
    ring: Option<RingExec>,
}

impl Runtime {
    /// Wraps a booted kernel.
    pub fn new(kernel: Kernel) -> Self {
        Self {
            kernel,
            tasks: BTreeMap::new(),
            exit_codes: BTreeMap::new(),
            ring: None,
        }
    }

    /// Switches [`Ctx::sys`] onto an asynchronous ring of at least
    /// `depth` slots, owned by the init process and shared by all its
    /// task threads. Tasks keep working unmodified — the executor
    /// preserves trap-path semantics.
    pub fn enable_uring(&mut self, depth: usize) {
        let owner = (self.kernel.init_pid, self.kernel.init_tid);
        self.ring = Some(RingExec::new(depth, owner));
    }

    /// Attaches a task to an existing thread.
    pub fn attach(&mut self, pid: Pid, tid: Tid, task: TaskFn) {
        self.tasks.insert(tid, (pid, task));
    }

    /// Spawns a new thread in `pid` (via the syscall path, from the
    /// given caller thread) and attaches `task` to it.
    pub fn spawn_task(
        &mut self,
        caller: (Pid, Tid),
        affinity: Option<usize>,
        task: TaskFn,
    ) -> Result<Tid, SysError> {
        let call = Syscall::ThreadSpawn {
            affinity_plus_one: affinity.map_or(0, |c| c as u64 + 1),
        };
        let tid = Tid(self.kernel.syscall(caller, call)?);
        self.tasks.insert(tid, (caller.0, task));
        Ok(tid)
    }

    /// The exit code a finished task produced.
    pub fn exit_code(&self, tid: Tid) -> Option<i32> {
        self.exit_codes.get(&tid).copied()
    }

    /// Runs the system for up to `max_ticks` timer ticks across all
    /// cores, stepping whichever task's thread each core schedules.
    /// Returns `true` when every attached task finished.
    pub fn run(&mut self, max_ticks: u64) -> bool {
        let cores = self.kernel.sched.cores();
        for _ in 0..max_ticks {
            for core in 0..cores {
                let Some(tid) = self.kernel.timer_tick(core) else {
                    continue;
                };
                let Some((pid, mut task)) = self.tasks.remove(&tid) else {
                    continue; // Thread without an attached task (e.g. init).
                };
                let mut ctx = Ctx {
                    kernel: &mut self.kernel,
                    ring: self.ring.as_mut(),
                    pid,
                    tid,
                };
                match task(&mut ctx) {
                    Step::Yield => {
                        self.tasks.insert(tid, (pid, task));
                    }
                    Step::Done(code) => {
                        self.exit_codes.insert(tid, code);
                        let _ = self.kernel.thread_exit(pid, tid, code);
                    }
                }
            }
            // Reap ring completions whose wake came from outside the
            // ring (e.g. a trap-path futex wake), so parked tasks make
            // progress every tick.
            if let Some(ring) = &mut self.ring {
                ring.pump(&mut self.kernel);
            }
            if self.tasks.is_empty() {
                return true;
            }
        }
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_kernel::KernelConfig;

    fn boot_runtime() -> (Runtime, Pid, Tid) {
        let kernel = Kernel::boot(KernelConfig::default()).unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        (Runtime::new(kernel), pid, tid)
    }

    /// The two syscall entry paths every scenario runs through: the
    /// trap path (the oracle) and the ring.
    #[derive(Clone, Copy)]
    enum Mode {
        Sync,
        Ring,
    }

    /// Same scenario set, run through both syscall entry paths: the
    /// mode is the only difference between the `*_sync` and
    /// `*_on_the_ring` tests below.
    fn boot_runtime_with(mode: Mode) -> (Runtime, Pid, Tid) {
        let (mut rt, pid, tid) = boot_runtime();
        if let Mode::Ring = mode {
            rt.enable_uring(8);
        }
        (rt, pid, tid)
    }

    fn scenario_syscalls_from_tasks(mode: Mode) {
        let (mut rt, pid, tid) = boot_runtime_with(mode);
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                ctx.sys(Syscall::Map {
                    va: 0x10_0000,
                    pages: 1,
                    writable: true,
                })
                .unwrap();
                ctx.write_u32(0x10_0000, 0x1234).unwrap();
                assert_eq!(ctx.read_u32(0x10_0000).unwrap(), 0x1234);
                Step::Done(0)
            }),
        );
        assert!(rt.run(50));
    }

    fn scenario_blocked_tasks_not_stepped(mode: Mode) {
        let (mut rt, pid, tid) = boot_runtime_with(mode);
        // Map the futex page up front so task ordering cannot race the
        // setup.
        rt.kernel
            .syscall(
                (pid, tid),
                Syscall::Map {
                    va: 0x20_0000,
                    pages: 1,
                    writable: true,
                },
            )
            .unwrap();
        let waiter_steps = std::rc::Rc::new(std::cell::Cell::new(0));
        let ws = std::rc::Rc::clone(&waiter_steps);
        // Main: keep trying to wake exactly one waiter; done once it
        // actually woke somebody (which requires the waiter to have
        // blocked first).
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                let woken = ctx
                    .sys(Syscall::FutexWake {
                        va: 0x20_0000,
                        count: 1,
                    })
                    .unwrap();
                if woken == 1 {
                    Step::Done(0)
                } else {
                    Step::Yield
                }
            }),
        );
        let mut waited = false;
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(move |ctx| {
                ws.set(ws.get() + 1);
                if !waited {
                    waited = true;
                    // Word is 0; this blocks the thread.
                    ctx.sys(Syscall::FutexWait {
                        va: 0x20_0000,
                        expected: 0,
                    })
                    .unwrap();
                    Step::Yield
                } else {
                    Step::Done(7)
                }
            }),
        )
        .unwrap();
        assert!(rt.run(500));
        // The waiter stepped exactly twice: once to block, once after
        // the wake — while blocked it was never stepped.
        assert_eq!(waiter_steps.get(), 2);
        assert_eq!(rt.exit_code(tid), Some(0));
    }

    fn scenario_wait_for_child(mode: Mode) {
        let (mut rt, pid, tid) = boot_runtime_with(mode);
        let child = Pid(rt.kernel.syscall((pid, tid), Syscall::Spawn).unwrap());
        let child_tid = rt.kernel.processes().get(child).unwrap().threads[0];
        let mut exited = false;
        rt.attach(
            child,
            child_tid,
            Box::new(move |ctx| {
                // Let the parent block on the wait first, then exit.
                if !exited {
                    exited = true;
                    return Step::Yield;
                }
                ctx.sys(Syscall::Exit { code: 5 }).unwrap();
                Step::Done(0)
            }),
        );
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| match ctx.sys(Syscall::Wait { pid: child.0 }) {
                Ok(code) => Step::Done(code as i32),
                Err(SysError::StillRunning) => Step::Yield,
                Err(e) => panic!("unexpected wait error {e:?}"),
            }),
        );
        assert!(rt.run(500));
        assert_eq!(rt.exit_code(tid), Some(5), "parent reaped the child's code");
    }

    #[test]
    fn single_task_runs_to_completion() {
        let (mut rt, pid, tid) = boot_runtime();
        let mut count = 0;
        rt.attach(
            pid,
            tid,
            Box::new(move |_ctx| {
                count += 1;
                if count == 5 {
                    Step::Done(count)
                } else {
                    Step::Yield
                }
            }),
        );
        assert!(rt.run(100));
        assert_eq!(rt.exit_code(tid), Some(5));
    }

    #[test]
    fn tasks_interleave_on_one_core() {
        let kernel = Kernel::boot(KernelConfig {
            cores: 1,
            ..Default::default()
        })
        .unwrap();
        let (pid, tid) = (kernel.init_pid, kernel.init_tid);
        let mut rt = Runtime::new(kernel);
        rt.kernel.sched.timeslice = 1; // Switch every tick.
        let trace = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let t1 = std::sync::Arc::clone(&trace);
        rt.attach(
            pid,
            tid,
            Box::new(move |_| {
                let mut t = t1.lock().unwrap();
                t.push('a');
                if t.iter().filter(|c| **c == 'a').count() == 3 {
                    Step::Done(0)
                } else {
                    Step::Yield
                }
            }),
        );
        let t2 = std::sync::Arc::clone(&trace);
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(move |_| {
                let mut t = t2.lock().unwrap();
                t.push('b');
                if t.iter().filter(|c| **c == 'b').count() == 3 {
                    Step::Done(0)
                } else {
                    Step::Yield
                }
            }),
        )
        .unwrap();
        assert!(rt.run(100));
        let t = trace.lock().unwrap();
        // Both made progress in interleaved fashion (timeslice 1 on one
        // core forces alternation).
        let s: String = t.iter().collect();
        assert!(s.contains("ab") || s.contains("ba"), "no interleaving: {s}");
    }

    #[test]
    fn syscalls_work_from_tasks() {
        scenario_syscalls_from_tasks(Mode::Sync);
    }

    #[test]
    fn syscalls_work_from_tasks_on_the_ring() {
        scenario_syscalls_from_tasks(Mode::Ring);
    }

    #[test]
    fn blocked_tasks_are_not_stepped() {
        scenario_blocked_tasks_not_stepped(Mode::Sync);
    }

    #[test]
    fn blocked_tasks_are_not_stepped_on_the_ring() {
        scenario_blocked_tasks_not_stepped(Mode::Ring);
    }

    #[test]
    fn wait_for_child_sync() {
        scenario_wait_for_child(Mode::Sync);
    }

    #[test]
    fn wait_for_child_on_the_ring() {
        scenario_wait_for_child(Mode::Ring);
    }

    /// The chain runs through every entry path with identical results:
    /// completed prefix, first failure, cancelled suffix.
    fn scenario_chain_abort(mode: Mode) {
        let (mut rt, pid, tid) = boot_runtime_with(mode);
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                let map = |va| Syscall::Map { va, pages: 1, writable: true };
                let rs = ctx.sys_chain(&[
                    ChainLink::plain(map(0x70_0000)),
                    ChainLink::plain(map(0x70_0000)), // AlreadyMapped.
                    ChainLink::plain(Syscall::ClockRead),
                ]);
                assert_eq!(
                    rs,
                    vec![
                        Ok(0x70_0000),
                        Err(SysError::AlreadyMapped),
                        Err(SysError::Cancelled),
                    ]
                );
                // The completed prefix really happened.
                ctx.write_u32(0x70_0000, 7).unwrap();
                Step::Done(0)
            }),
        );
        assert!(rt.run(50));
    }

    #[test]
    fn chain_abort_sync() {
        scenario_chain_abort(Mode::Sync);
    }

    #[test]
    fn chain_abort_on_the_ring() {
        scenario_chain_abort(Mode::Ring);
    }

    /// A chain longer than the engine accepts is refused whole on both
    /// paths: one `Err(Invalid)` per link, nothing dispatched.
    fn scenario_overlong_chain_refused(mode: Mode) {
        let (mut rt, pid, tid) = boot_runtime_with(mode);
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                let links: Vec<ChainLink> = (0..MAX_CHAIN as u64 + 1)
                    .map(|i| {
                        ChainLink::plain(Syscall::Map {
                            va: 0x80_0000 + i * 0x1000,
                            pages: 1,
                            writable: true,
                        })
                    })
                    .collect();
                let rs = ctx.sys_chain(&links);
                assert_eq!(rs, vec![Err(SysError::Invalid); MAX_CHAIN + 1]);
                for l in &links {
                    let Syscall::Map { va, .. } = l.call else {
                        unreachable!()
                    };
                    assert_eq!(ctx.read_u32(va), Err(SysError::BadAddress), "{va:#x}");
                }
                Step::Done(0)
            }),
        );
        assert!(rt.run(50));
        assert_eq!(rt.exit_code(tid), Some(0));
    }

    #[test]
    fn overlong_chain_refused_sync() {
        scenario_overlong_chain_refused(Mode::Sync);
    }

    #[test]
    fn overlong_chain_refused_on_the_ring() {
        scenario_overlong_chain_refused(Mode::Ring);
    }

    /// A chain whose tail blocks parks the task exactly like a plain
    /// blocking call; mid-chain blocking is refused on every path.
    fn scenario_chain_blocking_tail(mode: Mode) {
        let (mut rt, pid, tid) = boot_runtime_with(mode);
        rt.kernel
            .syscall(
                (pid, tid),
                Syscall::Map { va: 0x71_0000, pages: 1, writable: true },
            )
            .unwrap();
        let mut chained = false;
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| {
                if !chained {
                    chained = true;
                    // Blocking mid-chain is refused and aborts the
                    // suffix...
                    let rs = ctx.sys_chain(&[
                        ChainLink::plain(Syscall::FutexWait { va: 0x71_0000, expected: 0 }),
                        ChainLink::plain(Syscall::ClockRead),
                    ]);
                    assert_eq!(rs, vec![Err(SysError::Invalid), Err(SysError::Cancelled)]);
                    // ...while a blocking *tail* parks this thread with
                    // the trap path's surrogate return.
                    let rs = ctx.sys_chain(&[
                        ChainLink::plain(Syscall::FutexWake { va: 0x71_0000, count: 1 }),
                        ChainLink::plain(Syscall::FutexWait { va: 0x71_0000, expected: 0 }),
                    ]);
                    assert_eq!(rs, vec![Ok(0), Ok(0)]);
                    Step::Yield
                } else {
                    Step::Done(0)
                }
            }),
        );
        // A second task wakes the parked chain tail.
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(move |ctx| {
                let woken = ctx
                    .sys(Syscall::FutexWake { va: 0x71_0000, count: 1 })
                    .unwrap();
                if woken == 1 {
                    Step::Done(0)
                } else {
                    Step::Yield
                }
            }),
        )
        .unwrap();
        assert!(rt.run(500));
        assert_eq!(rt.exit_code(tid), Some(0));
    }

    #[test]
    fn chain_blocking_tail_sync() {
        scenario_chain_blocking_tail(Mode::Sync);
    }

    #[test]
    fn chain_blocking_tail_on_the_ring() {
        scenario_chain_blocking_tail(Mode::Ring);
    }


    #[test]
    fn explicit_async_submit_and_poll() {
        let (mut rt, _pid, _tid) = boot_runtime_with(Mode::Ring);
        let ring = rt.ring.as_mut().unwrap();
        let a = ring.submit(&Syscall::ClockRead).unwrap();
        let b = ring.submit(&Syscall::ClockRead).unwrap();
        assert_ne!(a, b);
        // Nothing dispatched yet; poll pumps and both complete.
        let ra = ring.poll(&mut rt.kernel, a).expect("completed");
        let rb = ring.poll(&mut rt.kernel, b).expect("completed");
        assert!(ra.is_ok() && rb.is_ok());
        // A completion is delivered exactly once.
        assert_eq!(ring.poll(&mut rt.kernel, a), None);
    }

    #[test]
    fn explicit_async_wait_on_blocked_ticket() {
        let (mut rt, pid, tid) = boot_runtime_with(Mode::Ring);
        rt.kernel
            .syscall((pid, tid), Syscall::Map { va: 0x30_0000, pages: 1, writable: true })
            .unwrap();
        let ring = rt.ring.as_mut().unwrap();
        let t = ring.submit(&Syscall::FutexWait { va: 0x30_0000, expected: 0 }).unwrap();
        // Blocked kernel-side: bounded wait reports "still pending".
        assert_eq!(ring.wait(&mut rt.kernel, t, 3), None);
        assert_eq!(ring.pending_len(), 1);
        // Wake through the trap path; the next poll reaps it.
        rt.kernel
            .syscall((pid, tid), Syscall::FutexWake { va: 0x30_0000, count: 1 })
            .unwrap();
        assert_eq!(ring.wait(&mut rt.kernel, t, 3), Some(Ok(0)));
    }

    /// The one-ring pump, pinned pass for pass on a fixed workload: a
    /// chained open→read→close, a futex wait that parks until another
    /// task wakes it, and a child wait that parks once and is retried.
    /// The runtime is deterministic, so the engine-pass count is exact:
    /// a pump that spins an extra pass, or stops before an idle one,
    /// moves it.
    #[test]
    fn one_ring_pump_runs_a_pinned_number_of_passes() {
        use std::cell::Cell;
        use std::rc::Rc;

        // Every pump runs one pass per round of work plus the idle pass
        // it stops on; for this workload that totals exactly 29.
        const PINNED_PASSES: u64 = 29;
        const PAGE: u64 = 0x90_0000;
        const FUTEX: u64 = PAGE + 0x800;
        let (mut rt, pid, tid) = boot_runtime_with(Mode::Ring);
        rt.kernel
            .syscall((pid, tid), Syscall::Map { va: PAGE, pages: 1, writable: true })
            .unwrap();
        let child = Pid(rt.kernel.syscall((pid, tid), Syscall::Spawn).unwrap());
        let child_tid = rt.kernel.processes().get(child).unwrap().threads[0];
        let parent_waited = Rc::new(Cell::new(false));
        let wait_calls = Rc::new(Cell::new(0));

        // The child runs until the parent's first wait has parked.
        let waited = Rc::clone(&parent_waited);
        rt.attach(
            child,
            child_tid,
            Box::new(move |ctx| {
                if !waited.get() {
                    return Step::Yield;
                }
                ctx.sys(Syscall::Exit { code: 5 }).unwrap();
                Step::Done(0)
            }),
        );
        let (waited, calls) = (Rc::clone(&parent_waited), Rc::clone(&wait_calls));
        let mut phase = 0;
        rt.attach(
            pid,
            tid,
            Box::new(move |ctx| match phase {
                0 => {
                    let f = crate::UFile::open(ctx, PAGE, "/pin", true).unwrap();
                    f.write(ctx, PAGE, b"pinned").unwrap();
                    f.close(ctx).unwrap();
                    let data = crate::UFile::open_read_close(ctx, PAGE, "/pin", 16).unwrap();
                    assert_eq!(data, b"pinned");
                    // The word is 0: this parks until the waker runs.
                    assert_eq!(ctx.sys(Syscall::FutexWait { va: FUTEX, expected: 0 }), Ok(0));
                    phase = 1;
                    Step::Yield
                }
                _ => {
                    calls.set(calls.get() + 1);
                    match ctx.sys(Syscall::Wait { pid: child.0 }) {
                        Ok(code) => Step::Done(code as i32),
                        Err(SysError::StillRunning) => {
                            waited.set(true);
                            Step::Yield
                        }
                        Err(e) => panic!("unexpected wait error {e:?}"),
                    }
                }
            }),
        );
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(|ctx| {
                match ctx.sys(Syscall::FutexWake { va: FUTEX, count: 1 }).unwrap() {
                    1 => Step::Done(0),
                    _ => Step::Yield,
                }
            }),
        )
        .unwrap();
        assert!(rt.run(500));
        assert_eq!(rt.exit_code(tid), Some(5), "parent reaped the child's code");
        assert_eq!(wait_calls.get(), 2, "the child wait was retried once");
        assert_eq!(rt.ring.as_ref().unwrap().sweeps(), PINNED_PASSES);
    }
}
