//! The register-level syscall ABI.
//!
//! "For systems where some of the arguments are passed in registers, we
//! would need to model the ABI as an assumption of the serialization
//! library, and an unverified shim that unpacks the values from registers
//! before transferring control to the syscall handler" (§3). This module
//! *is* that model: a syscall is six 64-bit registers — number plus five
//! arguments — and the obligations are that [`encode_regs`]/
//! [`decode_regs`] and [`encode_ret`]/[`decode_ret`] round-trip. The
//! call codec is generated from the syscall table in [`super`], so it
//! cannot disagree with the enum it encodes.

pub use super::codec::{decode_regs, encode_regs, sample_calls, MAX_NR};
use super::{SysError, SysRet};

/// The register file a syscall instruction delivers.
pub type Regs = [u64; 6];

/// Packs a syscall result into the return-register pair
/// `(status, value)`: status 0 = success.
pub fn encode_ret(ret: SysRet) -> (u64, u64) {
    match ret {
        Ok(v) => (0, v),
        Err(e) => (e as u32 as u64, 0),
    }
}

/// Unpacks the return-register pair.
pub fn decode_ret(status: u64, value: u64) -> Result<SysRet, SysError> {
    if status == 0 {
        return Ok(Ok(value));
    }
    let code = u32::try_from(status).map_err(|_| SysError::Invalid)?;
    Ok(Err(SysError::from_code(code).ok_or(SysError::Invalid)?))
}

/// Argument-register index of the fd for `Read`/`Write`/`Seek`/`Close`.
///
/// Chained SQEs substitute a prior result here (open→read→close); the
/// constant keeps user-side chain builders in sync with [`encode_regs`].
pub const FD_REG: u8 = 1;

/// Patches one argument register with a prior syscall's result — the
/// kernel side of chained-SQE result forwarding.
///
/// Only registers 1..=5 are substitutable: register 0 is the syscall
/// number, and rewriting it would let a chain smuggle in an opcode that
/// was never submitted. Substitution happens *before* [`decode_regs`],
/// so the typed-marshalling obligation still covers the patched image.
pub fn substitute_reg(regs: &mut Regs, idx: u8, value: u64) -> Result<(), SysError> {
    let i = usize::from(idx);
    if i == 0 || i >= regs.len() {
        return Err(SysError::Invalid);
    }
    regs[i] = value;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::Syscall;

    #[test]
    fn regs_round_trip_every_variant() {
        for call in sample_calls() {
            let regs = encode_regs(&call);
            let back = decode_regs(&regs).expect("decodes");
            assert_eq!(back, call, "regs {regs:?}");
        }
    }

    #[test]
    fn unknown_numbers_are_rejected() {
        assert_eq!(decode_regs(&[0, 0, 0, 0, 0, 0]), Err(SysError::BadSyscall));
        assert_eq!(decode_regs(&[999, 0, 0, 0, 0, 0]), Err(SysError::BadSyscall));
    }

    #[test]
    fn out_of_domain_arguments_are_rejected_without_panic() {
        // Bool flag of 2.
        assert_eq!(
            decode_regs(&[4, 0, 1, 2, 0, 0]),
            Err(SysError::Invalid),
            "Map with writable=2"
        );
        // fd larger than u32.
        assert_eq!(decode_regs(&[7, 1 << 40, 0, 0, 0, 0]), Err(SysError::Invalid));
        // Futex expected value larger than u32.
        assert_eq!(decode_regs(&[12, 0, 1 << 40, 0, 0, 0]), Err(SysError::Invalid));
    }

    #[test]
    fn returns_round_trip() {
        for ret in [
            Ok(0),
            Ok(u64::MAX),
            Err(SysError::BadAddress),
            Err(SysError::NoSpace),
        ] {
            let (s, v) = encode_ret(ret);
            assert_eq!(decode_ret(s, v).unwrap(), ret);
        }
    }

    #[test]
    fn corrupt_status_is_detected() {
        let undefined = SysError::ALL.len() as u64 + 1;
        assert_eq!(decode_ret(undefined, 0), Err(SysError::Invalid), "code {undefined}");
        assert_eq!(decode_ret(u64::MAX, 0), Err(SysError::Invalid));
    }

    #[test]
    fn cancelled_survives_the_return_abi() {
        let (s, v) = encode_ret(Err(SysError::Cancelled));
        assert_eq!(decode_ret(s, v).unwrap(), Err(SysError::Cancelled));
    }

    #[test]
    fn substitute_reg_patches_only_argument_registers() {
        let mut regs = encode_regs(&Syscall::Read {
            fd: 0,
            buf_ptr: 0x2000,
            buf_len: 64,
        });
        substitute_reg(&mut regs, FD_REG, 7).unwrap();
        assert_eq!(
            decode_regs(&regs).unwrap(),
            Syscall::Read {
                fd: 7,
                buf_ptr: 0x2000,
                buf_len: 64
            }
        );
        // Register 0 is the syscall number: substitution there is refused.
        assert_eq!(substitute_reg(&mut regs, 0, 9), Err(SysError::Invalid));
        // Out-of-range indices are refused, not wrapped.
        assert_eq!(substitute_reg(&mut regs, 6, 9), Err(SysError::Invalid));
        assert_eq!(substitute_reg(&mut regs, u8::MAX, 9), Err(SysError::Invalid));
    }

    #[test]
    fn negative_exit_codes_survive_the_abi() {
        let call = Syscall::Exit { code: -7 };
        let back = decode_regs(&encode_regs(&call)).unwrap();
        assert_eq!(back, call);
    }
}
