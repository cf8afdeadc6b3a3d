//! The syscall surface.
//!
//! Three layers, mirroring §3 of the paper:
//!
//! 1. [`Syscall`] — the typed operation the kernel dispatches. Buffer
//!    arguments are `(pointer, length)` pairs into the calling process's
//!    address space; the kernel resolves them through the page table
//!    (the *mapping obligation*).
//! 2. [`abi`] — the register-level encoding (`[u64; 6]`): what an
//!    unverified assembly shim would deliver. The *marshalling
//!    obligation* is that encode/decode round-trips.
//! 3. [`veros_spec::wire`] — the byte-level codec: the ring's SQE and
//!    CQE slots are read with it, and every higher-layer format (the
//!    block store's protocol, the journal's records, membership views,
//!    rdt headers) is written and read with it.
//!
//! Every per-syscall fact is one row of the table at the end of this
//! file: the variant and its doc, its ABI number, its metric name, its
//! ring class and its argument fields in register order. A field's
//! type is its domain (the private `Arg` trait). The table generates
//! [`Syscall`], the register codec ([`abi::encode_regs`],
//! [`abi::decode_regs`]), the metric index and names
//! ([`Syscall::index`], [`Syscall::NAMES`]), the calls the marshalling
//! checks draw ([`abi::sample_calls`], [`Syscall::arbitrary`]) and
//! [`Syscall::ring_class`]. The kernel dispatch, the `SysState`
//! transition and the VC coverage match stay hand-written; each is an
//! exhaustive `match`, so a new row does not compile until all three
//! handle it.

pub mod abi;

use veros_spec::rng::SpecRng;

/// Declares [`SysError`] from one list: each code is written once, as
/// its discriminant, and [`SysError::from_code`] is generated from it.
macro_rules! sys_errors {
    ($( $(#[$doc:meta])* $name:ident = $code:literal, )*) => {
        /// Errors returned by syscalls, stable across the ABI.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u32)]
        pub enum SysError {
            $( $(#[$doc])* $name = $code, )*
        }

        impl SysError {
            /// Every error, in code order.
            pub const ALL: &'static [SysError] = &[$(SysError::$name),*];

            /// Decodes the numeric representation.
            pub fn from_code(code: u32) -> Option<SysError> {
                match code {
                    $( $code => Some(SysError::$name), )*
                    _ => None,
                }
            }
        }
    };
}

sys_errors! {
    /// A pointer argument did not resolve through the page table with
    /// the required permissions.
    BadAddress = 1,
    /// Unknown file descriptor.
    BadFd = 2,
    /// Path does not exist.
    NoSuchPath = 3,
    /// Path already exists (create-exclusive).
    AlreadyExists = 4,
    /// Out of physical memory.
    NoMem = 5,
    /// No such process.
    NoSuchProcess = 6,
    /// `wait` target is not a child.
    NotAChild = 7,
    /// `wait` target still running.
    StillRunning = 8,
    /// Futex value mismatch (EAGAIN).
    WouldBlock = 9,
    /// Virtual range already mapped.
    AlreadyMapped = 10,
    /// Virtual range not mapped.
    NotMapped = 11,
    /// Malformed argument.
    Invalid = 12,
    /// Target is a directory.
    IsDirectory = 13,
    /// Component of the path is not a directory.
    NotDirectory = 14,
    /// Unknown syscall number.
    BadSyscall = 15,
    /// Filesystem is out of space.
    NoSpace = 16,
    /// The operation was never dispatched: an earlier link of its SQE
    /// chain failed, aborting the suffix (uring chain-abort semantics).
    Cancelled = 17,
}

/// The result of a syscall: a 64-bit value or an error.
pub type SysRet = Result<u64, SysError>;

/// How a submission ring may run a syscall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingClass {
    /// Dispatched on the ring owner's thread.
    Inline,
    /// May park its caller, so it runs on a worker thread, and may
    /// only end a chain.
    Blocking,
    /// Refused from a ring with `Invalid`: only the trap path runs it
    /// (`Exit` would tear down the ring's owner mid-drain).
    TrapOnly,
}

/// A register argument's domain; a field's type picks its impl.
trait Arg: Copy + 'static {
    /// In-domain boundary values, which [`abi::sample_calls`] cycles
    /// through.
    const EDGES: &'static [Self];
    /// The register image.
    fn to_reg(self) -> u64;
    /// The checked inverse of [`Arg::to_reg`]: `Err(Invalid)` for a
    /// register value outside the domain.
    fn from_reg(reg: u64) -> Result<Self, SysError>;
    /// A uniform draw over the domain.
    fn arbitrary(rng: &mut SpecRng) -> Self;

    /// The `k`-th boundary sample, cycling.
    fn edge(k: usize) -> Self {
        Self::EDGES[k % Self::EDGES.len()]
    }
}

impl Arg for u64 {
    const EDGES: &'static [u64] = &[0, 1, u64::MAX];
    fn to_reg(self) -> u64 {
        self
    }
    fn from_reg(reg: u64) -> Result<u64, SysError> {
        Ok(reg)
    }
    fn arbitrary(rng: &mut SpecRng) -> u64 {
        rng.next_u64()
    }
}

/// Rejects register values above `u32::MAX`.
impl Arg for u32 {
    const EDGES: &'static [u32] = &[0, 1, u32::MAX];
    fn to_reg(self) -> u64 {
        u64::from(self)
    }
    fn from_reg(reg: u64) -> Result<u32, SysError> {
        u32::try_from(reg).map_err(|_| SysError::Invalid)
    }
    fn arbitrary(rng: &mut SpecRng) -> u32 {
        rng.next_u64() as u32
    }
}

/// Travels as its `u32` bit pattern, so negative values survive.
impl Arg for i32 {
    const EDGES: &'static [i32] = &[0, -1, i32::MIN, i32::MAX];
    fn to_reg(self) -> u64 {
        (self as u32).to_reg()
    }
    fn from_reg(reg: u64) -> Result<i32, SysError> {
        u32::from_reg(reg).map(|v| v as i32)
    }
    fn arbitrary(rng: &mut SpecRng) -> i32 {
        u32::arbitrary(rng) as i32
    }
}

/// Rejects register values other than 0 and 1.
impl Arg for bool {
    const EDGES: &'static [bool] = &[false, true];
    fn to_reg(self) -> u64 {
        u64::from(self)
    }
    fn from_reg(reg: u64) -> Result<bool, SysError> {
        match reg {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SysError::Invalid),
        }
    }
    fn arbitrary(rng: &mut SpecRng) -> bool {
        rng.chance(1, 2)
    }
}

/// Generates everything per-syscall from the table's rows (see the
/// module docs). A row's argument `k` (from 0) travels in register
/// `k + 1`; register 0 is the number.
macro_rules! syscalls {
    ($(
        $(#[$doc:meta])*
        $name:ident = $nr:literal, $metric:literal, $class:ident
        $({ $( $(#[$fdoc:meta])* $field:ident: $ty:ty ),* $(,)? })?;
    )*) => {
        /// The typed syscall interface (the paper's `Sys` operations at
        /// the kernel boundary). Pointers refer to the calling process's
        /// virtual address space.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Syscall {
            $( $(#[$doc])* $name $({ $( $(#[$fdoc])* $field: $ty ),* })?, )*
        }

        /// Table rows in order: a row's discriminant is its index.
        #[derive(Clone, Copy)]
        enum Row {
            $($name),*
        }

        impl Syscall {
            /// Number of variants (and latency histograms).
            pub const COUNT: usize = [$(Row::$name),*].len();

            /// Metric-name and trace-legend labels, indexed by
            /// [`Syscall::index`].
            pub const NAMES: [&'static str; Syscall::COUNT] = [$($metric),*];

            /// The call's row in the table: its stable instrument index.
            pub fn index(&self) -> usize {
                match self {
                    $( Syscall::$name { .. } => Row::$name as usize, )*
                }
            }

            /// How a submission ring may run the call.
            pub fn ring_class(&self) -> RingClass {
                match self {
                    $( Syscall::$name { .. } => RingClass::$class, )*
                }
            }

            /// A uniform draw over the variants, each field uniform over
            /// its domain.
            pub fn arbitrary(rng: &mut SpecRng) -> Syscall {
                const ROWS: [Row; Syscall::COUNT] = [$(Row::$name),*];
                match ROWS[rng.index(Syscall::COUNT)] {
                    $( Row::$name => Syscall::$name $({
                        $( $field: <$ty as Arg>::arbitrary(rng) ),*
                    })?, )*
                }
            }
        }

        /// The register codec, re-exported by [`abi`].
        mod codec {
            use super::abi::Regs;
            use super::{Arg, SysError, Syscall};

            /// The highest syscall number. Checked when the crate
            /// compiles: the numbers are distinct and no row has more
            /// than five arguments.
            pub const MAX_NR: u64 = {
                let rows: [(u64, usize); Syscall::COUNT] =
                    [$( ($nr, <[&str]>::len(&[$($(stringify!($field)),*)?])) ),*];
                let mut max = 0;
                let mut i = 0;
                while i < rows.len() {
                    assert!(rows[i].1 < 6, "a syscall takes at most five arguments");
                    let mut j = i + 1;
                    while j < rows.len() {
                        assert!(rows[i].0 != rows[j].0, "two syscalls share a number");
                        j += 1;
                    }
                    if rows[i].0 > max {
                        max = rows[i].0;
                    }
                    i += 1;
                }
                max
            };

            /// Packs a typed syscall into registers (the user-space side
            /// of the shim).
            #[inline]
            pub fn encode_regs(call: &Syscall) -> Regs {
                let mut regs = [0; 6];
                let mut slot = 0;
                match *call {
                    $( Syscall::$name $({ $($field),* })? => {
                        regs[0] = $nr;
                        $($(
                            slot += 1;
                            regs[slot] = <$ty as Arg>::to_reg($field);
                        )*)?
                    } )*
                }
                regs
            }

            /// Unpacks registers into a typed syscall (the kernel side of
            /// the shim).
            ///
            /// Returns `Err(BadSyscall)` for unknown numbers and
            /// `Err(Invalid)` for argument values outside their domain
            /// (e.g. an fd that does not fit `u32`) — corrupted registers
            /// must never panic the kernel.
            pub fn decode_regs(regs: &Regs) -> Result<Syscall, SysError> {
                let mut slot = 0;
                Ok(match regs[0] {
                    $( $nr => Syscall::$name $({ $(
                        $field: {
                            slot += 1;
                            <$ty as Arg>::from_reg(regs[slot])?
                        }
                    ),* })?, )*
                    _ => return Err(SysError::BadSyscall),
                })
            }

            /// Every syscall variant, each field cycling through its
            /// domain's boundary values, for exhaustive round-trip checks
            /// (used by tests and the marshalling VCs).
            pub fn sample_calls() -> Vec<Syscall> {
                let mut calls = Vec::new();
                $(
                    let samples = 1usize $($(.max(<$ty as Arg>::EDGES.len()))*)?;
                    for _k in 0..samples {
                        calls.push(Syscall::$name $({
                            $( $field: <$ty as Arg>::edge(_k) ),*
                        })?);
                    }
                )*
                calls
            }
        }
    };
}

syscalls! {
    /// Create a new (empty) child process; returns its pid.
    Spawn = 1, "spawn", Inline;
    /// Terminate the calling process with `code`.
    Exit = 2, "exit", TrapOnly {
        /// Exit code reported to the parent.
        code: i32,
    };
    /// Reap a zombie child; returns its exit code (as u64).
    Wait = 3, "wait", Blocking {
        /// Child pid.
        pid: u64,
    };
    /// Map `pages` fresh zeroed pages at `va`; returns `va`.
    Map = 4, "map", Inline {
        /// Virtual base, 4 KiB aligned.
        va: u64,
        /// Number of 4 KiB pages.
        pages: u64,
        /// Writable mapping.
        writable: bool,
    };
    /// Unmap `pages` pages starting at `va`.
    Unmap = 5, "unmap", Inline {
        /// Virtual base.
        va: u64,
        /// Number of pages.
        pages: u64,
    };
    /// Open (optionally creating) the file at the path stored in user
    /// memory; returns an fd.
    Open = 6, "open", Inline {
        /// User pointer to the path bytes.
        path_ptr: u64,
        /// Path length in bytes.
        path_len: u64,
        /// Create the file if missing.
        create: bool,
    };
    /// Read from `fd` into a user buffer; returns bytes read. This is
    /// the paper's worked example (`read_spec`).
    Read = 7, "read", Inline {
        /// File descriptor.
        fd: u32,
        /// User buffer pointer.
        buf_ptr: u64,
        /// User buffer length.
        buf_len: u64,
    };
    /// Write a user buffer to `fd`; returns bytes written.
    Write = 8, "write", Inline {
        /// File descriptor.
        fd: u32,
        /// User buffer pointer.
        buf_ptr: u64,
        /// User buffer length.
        buf_len: u64,
    };
    /// Set the file offset.
    Seek = 9, "seek", Inline {
        /// File descriptor.
        fd: u32,
        /// New absolute offset.
        offset: u64,
    };
    /// Close an fd.
    Close = 10, "close", Inline {
        /// File descriptor.
        fd: u32,
    };
    /// Remove a file.
    Unlink = 11, "unlink", Inline {
        /// User pointer to the path bytes.
        path_ptr: u64,
        /// Path length.
        path_len: u64,
    };
    /// Block until the futex word at `va` is woken, provided it still
    /// equals `expected`.
    FutexWait = 12, "futex_wait", Blocking {
        /// Futex word address.
        va: u64,
        /// Expected value.
        expected: u32,
    };
    /// Wake up to `count` waiters at `va`; returns the number woken.
    FutexWake = 13, "futex_wake", Inline {
        /// Futex word address.
        va: u64,
        /// Maximum waiters to wake.
        count: u32,
    };
    /// Create another thread in the calling process; returns its tid.
    ThreadSpawn = 14, "thread_spawn", Inline {
        /// Core affinity + 1 (0 = unpinned) — kept numeric for the ABI.
        affinity_plus_one: u64,
    };
    /// Yield the core.
    Yield = 15, "yield", Inline;
    /// Read the virtual clock.
    ClockRead = 16, "clock_read", Inline;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for &e in SysError::ALL {
            assert_eq!(SysError::from_code(e as u32), Some(e));
        }
        let past_last = SysError::ALL.len() as u32 + 1;
        assert_eq!(SysError::from_code(0), None);
        assert_eq!(SysError::from_code(past_last), None);
        assert_eq!(SysError::from_code(999), None);
    }

    #[test]
    fn every_variant_has_one_index_and_one_name() {
        let mut seen = [false; Syscall::COUNT];
        for call in abi::sample_calls() {
            seen[call.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "an index no sample reaches");
        let mut names = Syscall::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Syscall::COUNT, "two variants share a name");
    }
}
