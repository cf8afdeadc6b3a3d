//! veros-uring: asynchronous submission/completion syscall rings.
//!
//! The paper's thesis is that a verified OS interface lets applications
//! *rely* on kernel behaviour instead of defending against it. This
//! crate stretches that claim across an asynchronous boundary: instead
//! of one trap per syscall, a user process shares a pair of
//! fixed-capacity lock-free queues with the kernel — a **submission
//! queue** of serialized syscalls and a **completion queue** of results
//! — in the style of io_uring. The verification story is the point:
//!
//! * Entries cross the rings in the *same marshalled encoding* as the
//!   trap path ([`entry`]), so the existing marshalling obligations
//!   cover ring traffic too.
//! * The kernel-side [`engine::Engine`] dispatches each entry through
//!   the same typed dispatch as a trap, so every CQE result equals the
//!   synchronous result of its SQE *in some single linearized order* —
//!   the order the engine performed the dispatches, witnessed by its
//!   dispatch log and checked by `veros-core`'s linearization VCs
//!   against a synchronous twin execution ([`twin::SyncTwin`]).
//! * The queues themselves (`veros_sync::spsc` rings) carry
//!   exactly-once delivery obligations: no entry is lost or duplicated
//!   across wraparound, full, or empty boundaries.
//!
//! Blocking operations (futex wait, wait on a running child) complete
//! *out of order* through a pending table so one stuck entry never
//! head-of-line-blocks the ring; everything else completes in
//! submission order.
//!
//! **Chained SQEs** ([`entry::SqeFlags`]) extend the single ring: a
//! linked run of entries executes as one kernel-side chain — a later
//! link can consume an earlier link's result ([`entry::SubstSource`]),
//! and the first failure cancels the rest of the chain exactly
//! (`SysError::Cancelled`), never the completed prefix.
//!
//! The ring's poller is its engine: one [`Engine::pass`] drains the
//! submission queue and reaps woken blocked entries, and a drain loop
//! repeats passes until one finds nothing to do.

#![forbid(unsafe_code)]

pub mod engine;
pub mod entry;
pub mod metrics;
pub mod ring;
pub mod twin;

pub use engine::{DispatchRecord, Engine, MAX_CHAIN};
pub use entry::{Cqe, CqeBytes, Sqe, SqeBytes, SqeFlags, SubstSource, CQE_BYTES, SQE_BYTES};
pub use ring::{pair, KernelRing, SqFull, UserRing};
pub use twin::SyncTwin;
