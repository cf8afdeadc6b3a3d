//! The shared-memory queue pair and its user-side handle.
//!
//! [`pair`] builds one submission queue and one completion queue of the
//! same depth and splits them into the two roles: the [`UserRing`]
//! (submits SQEs, drains CQEs) and the [`KernelRing`] (what the
//! [`crate::engine::Engine`] drains and posts into). The slots carry
//! *serialized* entries ([`crate::entry`]) rather than typed values —
//! the rings model a shared-memory mapping, so everything crossing them
//! goes through the marshalling layer, same as the trap path.

use veros_kernel::syscall::marshal::Encoder;
use veros_kernel::syscall::Syscall;

use crate::entry::{Cqe, CqeBytes, Sqe, SqeBytes, SqeFlags};
use crate::metrics;
use veros_sync::spsc::{self, Consumer, Full, Producer};

/// The user side: SQ producer + CQ consumer.
pub struct UserRing {
    sq: Producer<SqeBytes>,
    cq: Consumer<CqeBytes>,
    scratch: Encoder,
}

/// The kernel side: SQ consumer + CQ producer. Driven by
/// [`crate::engine::Engine`].
pub struct KernelRing {
    pub(crate) sq: Consumer<SqeBytes>,
    pub(crate) cq: Producer<CqeBytes>,
}

/// A rejected submission: the SQ had no free slot (backpressure — drain
/// completions and retry after the kernel's next batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SqFull;

/// Builds an SQ/CQ pair of (at least) `depth` slots each.
pub fn pair(depth: usize) -> (UserRing, KernelRing) {
    let (sq_prod, sq_cons) = spsc::ring(depth);
    let (cq_prod, cq_cons) = spsc::ring(depth);
    (
        UserRing { sq: sq_prod, cq: cq_cons, scratch: Encoder::new() },
        KernelRing { sq: sq_cons, cq: cq_prod },
    )
}

impl UserRing {
    /// Slots per queue.
    pub fn depth(&self) -> u64 {
        self.sq.capacity()
    }

    /// Submits a typed syscall under a caller-chosen correlation token.
    pub fn submit(&mut self, user_data: u64, call: &Syscall) -> Result<(), SqFull> {
        let bytes = Sqe::new(user_data, call).encode(&mut self.scratch);
        self.submit_raw(bytes)
    }

    /// Submits a typed syscall with chain/substitution flags. A chain
    /// is a run of entries with [`SqeFlags::link`] set, closed by one
    /// without; callers should reserve SQ capacity for the whole chain
    /// up front (a chain split by backpressure stays buffered
    /// kernel-side until its tail arrives).
    pub fn submit_flagged(
        &mut self,
        user_data: u64,
        call: &Syscall,
        flags: SqeFlags,
    ) -> Result<(), SqFull> {
        let bytes = Sqe::with_flags(user_data, call, flags).encode(&mut self.scratch);
        self.submit_raw(bytes)
    }

    /// Free submission slots right now (enough capacity for a chain?).
    pub fn sq_free(&self) -> u64 {
        self.sq.capacity().saturating_sub(self.sq.len())
    }

    /// Submits a pre-encoded entry. This is the path an untrusted (or
    /// buggy) user could take — the engine re-derives the typed syscall
    /// and rejects bad opcodes with a `BadSyscall` CQE.
    pub fn submit_raw(&mut self, bytes: SqeBytes) -> Result<(), SqFull> {
        match self.sq.push(bytes) {
            Ok(()) => {
                metrics::SQES_SUBMITTED.inc();
                Ok(())
            }
            Err(Full(_)) => {
                metrics::SQ_FULL_REJECTIONS.inc();
                Err(SqFull)
            }
        }
    }

    /// Takes the oldest completion, if one is posted.
    pub fn complete(&mut self) -> Option<Cqe> {
        let bytes = self.cq.pop()?;
        let cqe = Cqe::decode(&bytes);
        debug_assert!(cqe.is_ok(), "engine posted a malformed CQE");
        cqe.ok()
    }

    /// Entries currently queued for the kernel.
    pub fn sq_len(&self) -> u64 {
        self.sq.len()
    }

    /// Completions currently queued for the user.
    pub fn cq_len(&self) -> u64 {
        self.cq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_kernel::syscall::SysError;

    #[test]
    fn submit_is_visible_on_the_kernel_side() {
        let (mut user, mut kernel) = pair(4);
        assert_eq!(user.depth(), 4);
        user.submit(7, &Syscall::Yield).unwrap();
        assert_eq!(user.sq_len(), 1);
        let bytes = kernel.sq.pop().expect("entry crossed the ring");
        let sqe = Sqe::decode(&bytes).unwrap();
        assert_eq!(sqe.user_data, 7);
        assert_eq!(sqe.syscall().unwrap(), Syscall::Yield);
    }

    #[test]
    fn sq_backpressure_is_reported_not_dropped() {
        let (mut user, _kernel) = pair(2);
        user.submit(0, &Syscall::Yield).unwrap();
        user.submit(1, &Syscall::Yield).unwrap();
        assert_eq!(user.submit(2, &Syscall::Yield), Err(SqFull));
        assert_eq!(user.sq_len(), 2);
    }

    #[test]
    fn completions_round_trip_through_the_cq() {
        let (mut user, mut kernel) = pair(2);
        let mut scratch = Encoder::new();
        let cqe = Cqe { user_data: 9, result: Err(SysError::WouldBlock) };
        kernel.cq.push(cqe.encode(&mut scratch)).unwrap();
        assert_eq!(user.cq_len(), 1);
        assert_eq!(user.complete(), Some(cqe));
        assert_eq!(user.complete(), None);
    }
}
