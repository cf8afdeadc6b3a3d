//! The verified user-space system library (the paper's §1 "system
//! libraries (e.g., libc)" and §3's worked example: "we might expose
//! futexes from the kernel and then verify a userspace mutex
//! implementation on top").
//!
//! Everything here runs *above* the kernel's narrow syscall interface:
//!
//! * [`runtime`] — the cooperative user-thread runtime: tasks are
//!   stepped when the kernel scheduler runs their thread; a blocking
//!   syscall (futex wait, wait-for-child) suspends the thread and the
//!   task is not stepped again until woken. Context switches appear to
//!   tasks "as just another interleaving of threads" (§3).
//! * [`mutex`] — Drepper's three-state futex mutex ("Futexes are
//!   tricky", cited by the paper), operating on a word in user memory.
//! * [`condvar`] — a sequence-counter futex condition variable.
//! * [`semaphore`] — a counting futex semaphore.
//! * [`channel`] — a bounded SPSC byte-message channel in user memory.
//! * [`ualloc`] — a first-fit free-list heap allocator whose metadata
//!   lives in the process's own mapped memory.
//! * [`io`] — file I/O wrappers over the syscall ABI.

#![forbid(unsafe_code)]

pub mod channel;
pub mod condvar;
pub mod io;
pub mod mutex;
pub mod runtime;
pub mod semaphore;
pub mod ualloc;

pub use channel::UChannel;
pub use condvar::UCondvar;
pub use io::UFile;
pub use mutex::{LockAttempt, LockState, UMutex};
pub use runtime::{ChainLink, ChainResults, Ctx, RingExec, Runtime, Step, Ticket};
pub use semaphore::USemaphore;
pub use ualloc::UAlloc;
