//! veros-sync: the trusted concurrency base.
//!
//! Every `std::sync::atomic` type in the workspace, and every `unsafe`
//! block but the two counting allocators' `GlobalAlloc` impls (which
//! the trait requires), lives in this crate, behind types whose safe
//! API is sound on its own: no method takes an `Ordering`, no handle
//! is `Clone`, and every role that must be one thread at a time is a
//! `&mut self` method on an owned handle. The rest of the workspace writes
//! `#![forbid(unsafe_code)]` at its roots, and the root `clippy.toml`
//! disallows the atomic types everywhere but here — so the compiler, not
//! a convention, keeps the orderings and the `unsafe` in one place
//! (the `_t` trusted-base split of verified-nrkernel).
//!
//! * [`Published`] — a `u64` word whose stores release and whose loads
//!   acquire.
//! * [`SeqSlot`] — `N` words published together under a seqlock stamp.
//! * [`RelaxedCounter`] — a `u64` word with relaxed accesses, for
//!   instruments and bookkeeping that publish nothing.
//! * [`CachePadded`] — a value on its own cache lines.
//! * [`Backoff`] — spin-then-yield waiting.
//! * [`spsc`] — a single-producer/single-consumer ring with owned
//!   `Producer` and `Consumer` halves.
//! * [`log`] — NR's shared operation log, appended through `&Log` and
//!   consumed through one owned `Cursor` per replica.
//! * [`rwlock`] — NR's distributed readers-writer lock, read through
//!   one owned `ReadHandle` per reader slot.
//!
//! # The `unsafe` sites
//!
//! Each is an `UnsafeCell` access whose exclusivity a protocol, not the
//! borrow checker, establishes; each protocol's roles are owned handles.
//!
//! * `spsc`: `Producer::push` writes the slot at its own tail after
//!   checking the consumer's published head has freed it; `Consumer::pop`
//!   takes the slot at its own head after an acquire load saw the
//!   producer's tail cover it. One `Producer` and one `Consumer` exist
//!   per ring, and neither is `Clone`.
//! * `log`: `Log::try_append` writes the slots of a range it reserved
//!   with a compare-exchange on the tail, after checking every replica's
//!   published local tail has passed their previous entries;
//!   `Cursor::exec` reads a slot only after an acquire load of its
//!   version, and that slot cannot be reused until the cursor's own local
//!   tail passes it. One `Cursor` exists per replica.
//! * `rwlock`: a `ReadGuard` derefs to `&T` while its reader flag is set
//!   and the writer flag was seen clear afterwards; a `WriteGuard` derefs
//!   to `&mut T` while the writer flag is held and every reader flag was
//!   seen clear. One `ReadHandle` exists per reader flag, and reading
//!   borrows it mutably.
//! * `Sync` impls on those three shared stores, which the protocols
//!   above justify, and a test-only payload cell in `publish`'s tests
//!   that only the `Published` edge orders.
//!
//! Clippy's `undocumented_unsafe_blocks` is denied workspace-wide, so
//! each of those blocks carries its `SAFETY:` argument where it stands.

#![warn(missing_docs)]
// The one crate the workspace `clippy.toml` lets name the atomic types.
#![allow(clippy::disallowed_types)]

pub mod backoff;
pub mod log;
pub mod pad;
pub mod publish;
pub mod relaxed;
pub mod rwlock;
pub mod seqlock;
pub mod spsc;

pub use backoff::Backoff;
pub use pad::CachePadded;
pub use publish::Published;
pub use relaxed::RelaxedCounter;
pub use seqlock::SeqSlot;
