//! Wire formats for submission and completion entries.
//!
//! Both entries reuse the existing marshalling layers rather than
//! inventing a new encoding: an SQE carries the caller's correlation
//! token plus the *register image* of the syscall — exactly what
//! [`veros_kernel::syscall::abi::encode_regs`] produces for the
//! synchronous trap path — as little-endian words written straight into
//! the slot and read back with [`veros_spec::wire::Reader`]. The kernel
//! side re-derives the typed [`Syscall`] through [`abi::decode_regs`],
//! so a ring entry goes through the *same* marshalling obligation as a
//! synchronous trap, and a bad opcode is rejected the same way
//! (`SysError::BadSyscall`), just reported through a CQE instead of a
//! register pair.
//!
//! A CQE is the mirror image: the correlation token plus the
//! `(status, value)` pair of [`abi::encode_ret`].
//!
//! The flags word makes entries *chainable*: a set [`SqeFlags::link`]
//! bit means the next SQE on the same ring belongs to this chain, and a
//! substitution descriptor lets a link consume an earlier link's result
//! kernel-side (`open→read→close` without round trips). Unknown flag
//! bits are rejected at the typed layer ([`Sqe::sqe_flags`]) exactly
//! like unknown opcodes — a hostile writer cannot smuggle semantics
//! through reserved bits.

use veros_kernel::syscall::abi::{self, Regs};
use veros_kernel::syscall::{SysError, SysRet, Syscall};
use veros_spec::wire::{Reader, WireError};

/// Serialized size of an SQE: token + flags + six registers.
pub const SQE_BYTES: usize = 8 * 8;
/// Serialized size of a CQE: token + status + value.
pub const CQE_BYTES: usize = 8 * 3;

/// One slot of the submission queue, as shared-memory bytes.
pub type SqeBytes = [u8; SQE_BYTES];
/// One slot of the completion queue, as shared-memory bytes.
pub type CqeBytes = [u8; CQE_BYTES];

/// Where a chained link's substituted value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubstSource {
    /// The `Ok` value of the immediately preceding link.
    Prev,
    /// The `Ok` value of the chain's first link (e.g. the fd an `Open`
    /// at the chain head returned, consumed again by a trailing `Close`).
    Head,
}

const FLAG_LINK: u64 = 1;
const SUBST_SHIFT: u32 = 2;
const SUBST_MASK: u64 = 0b11 << SUBST_SHIFT;
const SUBST_REG_SHIFT: u32 = 8;
const SUBST_REG_MASK: u64 = 0xff << SUBST_REG_SHIFT;
const KNOWN_FLAG_BITS: u64 = FLAG_LINK | SUBST_MASK | SUBST_REG_MASK;

/// The typed view of an SQE's flags word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SqeFlags {
    /// The next SQE on this ring continues this entry's chain.
    pub link: bool,
    /// Patch argument register `.1` with the source's result before
    /// dispatch (see [`abi::substitute_reg`]).
    pub subst: Option<(SubstSource, u8)>,
}

impl SqeFlags {
    /// No chaining, no substitution — the plain single-op entry.
    pub const NONE: SqeFlags = SqeFlags { link: false, subst: None };

    /// Marks the entry as linking to its successor.
    pub fn linked(mut self) -> Self {
        self.link = true;
        self
    }

    /// Substitutes the previous link's result into register `reg`.
    pub fn subst_prev(mut self, reg: u8) -> Self {
        self.subst = Some((SubstSource::Prev, reg));
        self
    }

    /// Substitutes the chain head's result into register `reg`.
    pub fn subst_head(mut self, reg: u8) -> Self {
        self.subst = Some((SubstSource::Head, reg));
        self
    }

    /// Packs into the wire word.
    pub fn encode(&self) -> u64 {
        let mut raw = 0;
        if self.link {
            raw |= FLAG_LINK;
        }
        if let Some((src, reg)) = self.subst {
            let code: u64 = match src {
                SubstSource::Prev => 1,
                SubstSource::Head => 2,
            };
            raw |= code << SUBST_SHIFT;
            raw |= u64::from(reg) << SUBST_REG_SHIFT;
        }
        raw
    }

    /// Unpacks the wire word. Reserved bits, the undefined substitution
    /// source code, a substitution register outside 1..=5, and a
    /// register with no source are all `Err(Invalid)` — the same strict
    /// posture `decode_regs` takes toward argument domains.
    pub fn decode(raw: u64) -> Result<Self, SysError> {
        if raw & !KNOWN_FLAG_BITS != 0 {
            return Err(SysError::Invalid);
        }
        let reg = ((raw & SUBST_REG_MASK) >> SUBST_REG_SHIFT) as u8;
        let subst = match (raw & SUBST_MASK) >> SUBST_SHIFT {
            0 => {
                if reg != 0 {
                    return Err(SysError::Invalid);
                }
                None
            }
            1 => Some((SubstSource::Prev, reg)),
            2 => Some((SubstSource::Head, reg)),
            _ => return Err(SysError::Invalid),
        };
        if let Some((_, r)) = subst {
            if r == 0 || usize::from(r) >= core::mem::size_of::<Regs>() / 8 {
                return Err(SysError::Invalid);
            }
        }
        Ok(Self { link: raw & FLAG_LINK != 0, subst })
    }
}

/// A submission entry: correlation token + flags + syscall register
/// image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sqe {
    /// Caller-chosen correlation token, echoed verbatim in the CQE.
    pub user_data: u64,
    /// Raw chain/substitution flags word (see [`SqeFlags`]). Kept raw
    /// here because the wire layer cannot reject unknown bits — the
    /// typed layer ([`Sqe::sqe_flags`]) does.
    pub flags: u64,
    /// The syscall in its register ABI encoding.
    pub regs: Regs,
}

impl Sqe {
    /// Builds a plain (unchained) entry for a typed syscall.
    pub fn new(user_data: u64, call: &Syscall) -> Self {
        Self { user_data, flags: 0, regs: abi::encode_regs(call) }
    }

    /// Builds an entry carrying chain/substitution flags.
    pub fn with_flags(user_data: u64, call: &Syscall, flags: SqeFlags) -> Self {
        Self {
            user_data,
            flags: flags.encode(),
            regs: abi::encode_regs(call),
        }
    }

    /// Re-derives the typed syscall; `Err(BadSyscall)`/`Err(Invalid)`
    /// are the ring's bad-opcode rejection path.
    pub fn syscall(&self) -> Result<Syscall, SysError> {
        abi::decode_regs(&self.regs)
    }

    /// Re-derives the typed flags; reserved bits are `Err(Invalid)`.
    pub fn sqe_flags(&self) -> Result<SqeFlags, SysError> {
        SqeFlags::decode(self.flags)
    }

    /// Serializes into a ring slot.
    pub fn encode(&self) -> SqeBytes {
        slot([self.user_data, self.flags].into_iter().chain(self.regs))
    }

    /// Deserializes a ring slot (or any byte buffer — short buffers are
    /// `Truncated`, long ones `TrailingBytes`).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Reader::new(bytes);
        let user_data = d.u64()?;
        let flags = d.u64()?;
        let mut regs: Regs = [0; 6];
        for r in &mut regs {
            *r = d.u64()?;
        }
        d.finish()?;
        Ok(Self { user_data, flags, regs })
    }
}

/// A completion entry: the echoed token + the syscall result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cqe {
    /// The submitting SQE's correlation token.
    pub user_data: u64,
    /// The dispatch result (identical domain to a synchronous return).
    pub result: SysRet,
}

impl Cqe {
    /// Serializes into a ring slot.
    pub fn encode(&self) -> CqeBytes {
        let (status, value) = abi::encode_ret(self.result);
        slot([self.user_data, status, value])
    }

    /// Deserializes a ring slot; a status outside the `SysError` code
    /// domain is `Truncated`-style garbage and surfaces as an error
    /// rather than a fabricated result.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Reader::new(bytes);
        let user_data = d.u64()?;
        let status = d.u64()?;
        let value = d.u64()?;
        d.finish()?;
        let result = abi::decode_ret(status, value).map_err(|_| WireError::Truncated)?;
        Ok(Self { user_data, result })
    }
}

/// A slot image: `words` as little-endian `u64`s, back to back, in the
/// layout [`Reader::u64`] reads them back from.
fn slot<const N: usize>(words: impl IntoIterator<Item = u64>) -> [u8; N] {
    let mut out = [0u8; N];
    for (bytes, w) in out.as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *bytes = w.to_le_bytes();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqe_round_trips_every_syscall_variant() {
        for (i, call) in abi::sample_calls().into_iter().enumerate() {
            let sqe = Sqe::new(0xa000 + i as u64, &call);
            let bytes = sqe.encode();
            let back = Sqe::decode(&bytes).expect("well-formed SQE decodes");
            assert_eq!(back, sqe);
            assert_eq!(back.syscall().expect("valid opcode"), call);
        }
    }

    #[test]
    fn cqe_round_trips_ok_and_every_error_code() {
        let mut results: Vec<SysRet> = vec![Ok(0), Ok(u64::MAX), Ok(0x1234)];
        results.extend(SysError::ALL.iter().map(|&e| Err(e)));
        for (i, result) in results.into_iter().enumerate() {
            let cqe = Cqe { user_data: i as u64, result };
            let bytes = cqe.encode();
            assert_eq!(Cqe::decode(&bytes).expect("well-formed CQE decodes"), cqe);
        }
    }

    #[test]
    fn truncated_buffers_are_rejected_at_every_length() {
        let sqe = Sqe::new(9, &Syscall::Yield).encode();
        for len in 0..SQE_BYTES {
            assert_eq!(
                Sqe::decode(&sqe[..len]),
                Err(WireError::Truncated),
                "sqe truncated to {len}"
            );
        }
        let cqe = Cqe { user_data: 9, result: Ok(1) }.encode();
        for len in 0..CQE_BYTES {
            assert_eq!(
                Cqe::decode(&cqe[..len]),
                Err(WireError::Truncated),
                "cqe truncated to {len}"
            );
        }
    }

    #[test]
    fn oversized_buffers_are_trailing_bytes() {
        let mut long = Sqe::new(1, &Syscall::Yield).encode().to_vec();
        long.push(0);
        assert_eq!(Sqe::decode(&long), Err(WireError::TrailingBytes));
        let mut long = Cqe { user_data: 1, result: Ok(0) }.encode().to_vec();
        long.push(0);
        assert_eq!(Cqe::decode(&long), Err(WireError::TrailingBytes));
    }

    #[test]
    fn bad_opcode_is_rejected_at_the_typed_layer() {
        // Opcode 0 and out-of-range opcodes decode as bytes (the wire
        // layer cannot know the register schema) but fail the typed
        // re-derivation — the same BadSyscall a trap would produce.
        for nr in [0u64, abi::MAX_NR + 1, 999, u64::MAX] {
            let sqe = Sqe { user_data: 5, flags: 0, regs: [nr, 0, 0, 0, 0, 0] };
            assert_eq!(sqe.syscall(), Err(SysError::BadSyscall), "nr {nr}");
        }
        // In-range opcode with an out-of-domain argument: also rejected.
        let call = Syscall::Map { va: 0x40_0000, pages: 1, writable: true };
        let mut regs = abi::encode_regs(&call);
        regs[3] = 7; // `writable` must be 0 or 1.
        assert_eq!(Sqe { user_data: 5, flags: 0, regs }.syscall(), Err(SysError::Invalid));
    }

    #[test]
    fn sqe_flags_round_trip_every_shape() {
        let shapes = [
            SqeFlags::NONE,
            SqeFlags::NONE.linked(),
            SqeFlags::NONE.subst_prev(1),
            SqeFlags::NONE.subst_head(5),
            SqeFlags::NONE.linked().subst_prev(3),
            SqeFlags::NONE.linked().subst_head(1),
        ];
        for flags in shapes {
            let raw = flags.encode();
            assert_eq!(SqeFlags::decode(raw), Ok(flags), "raw {raw:#x}");
        }
    }

    #[test]
    fn flagged_sqe_round_trips_through_the_wire() {
        let call = Syscall::Read { fd: 0, buf_ptr: 0x2000, buf_len: 64 };
        let sqe = Sqe::with_flags(77, &call, SqeFlags::NONE.linked().subst_prev(1));
        let back = Sqe::decode(&sqe.encode()).expect("decodes");
        assert_eq!(back, sqe);
        assert_eq!(
            back.sqe_flags().expect("valid flags"),
            SqeFlags::NONE.linked().subst_prev(1)
        );
    }

    #[test]
    fn hostile_flag_words_are_rejected_not_misread() {
        // Reserved bits set.
        assert_eq!(SqeFlags::decode(1 << 1), Err(SysError::Invalid));
        assert_eq!(SqeFlags::decode(1 << 16), Err(SysError::Invalid));
        assert_eq!(SqeFlags::decode(u64::MAX), Err(SysError::Invalid));
        // Undefined substitution source code (3).
        assert_eq!(SqeFlags::decode(0b11 << 2), Err(SysError::Invalid));
        // Substitution into register 0 (the opcode) or out of range.
        assert_eq!(SqeFlags::decode(1 << 2), Err(SysError::Invalid), "src=prev reg=0");
        assert_eq!(
            SqeFlags::decode((1 << 2) | (6 << 8)),
            Err(SysError::Invalid),
            "reg 6 out of range"
        );
        // A register index with no source is garbage, not ignored.
        assert_eq!(SqeFlags::decode(3 << 8), Err(SysError::Invalid));
    }

    #[test]
    fn corrupt_cqe_status_does_not_fabricate_an_error() {
        let bytes: CqeBytes = slot([1, 9999, 0]); // status 9999: no such SysError.
        assert!(Cqe::decode(&bytes).is_err());
    }
}
