//! The three §3 verification obligations, executable.
//!
//! "It further entails three verification obligations: marshalling,
//! mapping, and data-race freedom."

use veros_kernel::syscall::{abi, SysError};
use veros_kernel::{Kernel, KernelConfig, Syscall};
use veros_spec::rng::SpecRng;
use veros_spec::wire::{Reader, WireError, Writer};

use crate::sys_spec::SysState;

// --- marshalling -----------------------------------------------------------

/// Round-trip of every syscall variant through the register ABI.
pub fn marshalling_regs_roundtrip() -> Result<(), String> {
    for call in abi::sample_calls() {
        let regs = abi::encode_regs(&call);
        match abi::decode_regs(&regs) {
            Ok(back) if back == call => {}
            other => return Err(format!("{call:?} -> {regs:?} -> {other:?}")),
        }
    }
    for ret in [
        Ok(0),
        Ok(u64::MAX),
        Err(SysError::BadAddress),
        Err(SysError::NoSpace),
    ] {
        let (s, v) = abi::encode_ret(ret);
        if abi::decode_ret(s, v) != Ok(ret) {
            return Err(format!("return {ret:?} did not round-trip"));
        }
    }
    Ok(())
}

/// Randomized argument sweep: encode/decode identity over arbitrary
/// in-domain argument values, drawn by [`Syscall::arbitrary`]. Fails
/// if the budget leaves any variant undrawn.
pub fn marshalling_random_args(seed: u64, iters: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0x3a5);
    let mut drawn = [false; Syscall::COUNT];
    for _ in 0..iters {
        let call = Syscall::arbitrary(&mut rng);
        drawn[call.index()] = true;
        let back = abi::decode_regs(&abi::encode_regs(&call))
            .map_err(|e| format!("{call:?} rejected: {e:?}"))?;
        if back != call {
            return Err(format!("{call:?} -> {back:?}"));
        }
    }
    match drawn.iter().position(|&d| !d) {
        Some(i) => Err(format!("{iters} draws never drew `{}`", Syscall::NAMES[i])),
        None => Ok(()),
    }
}

/// Fuzz: decoding arbitrary register contents must never panic (errors
/// are fine — corrupted registers reach the kernel in practice).
pub fn marshalling_decode_fuzz(seed: u64, iters: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0xf22);
    for _ in 0..iters {
        let regs = [
            rng.below(abi::MAX_NR + 8), // Bias toward near-valid numbers.
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ];
        let _ = abi::decode_regs(&regs); // Must not panic.
        let _ = abi::decode_ret(rng.below(32), rng.next_u64());
    }
    Ok(())
}

veros_spec::wire_messages! {
    /// One field of a random schema, a row per wire form.
    #[derive(Debug, PartialEq)]
    enum Value {
        /// A [`Value`], borrowed: what it encodes from.
        borrowed ValueRef<'a>
        U8 = 0 (v: u8),
        U16 = 1 (v: u16),
        U32 = 2 (v: u32),
        U64 = 3 (v: u64),
        Bytes = 4 (v: Vec<u8>),
        Str = 5 (v: String),
        U16s = 6 (v: Vec<u16> [max 8]),
    }
}

/// Byte-level codec ([`veros_spec::wire`], the one every message,
/// journal record and ring slot is written with) round-trips over random
/// typed sequences packed back to back, as a journal record packs its
/// operations, and every byte written is read back.
pub fn marshalling_bytes_roundtrip(seed: u64, iters: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0xb17e);
    for _ in 0..iters {
        // A random schema of up to 8 fields.
        let fields: Vec<Value> = (0..1 + rng.index(8)).map(|_| Value::arbitrary(&mut rng)).collect();
        let mut wire = Vec::new();
        let mut w = Writer::new(&mut wire);
        fields.iter().for_each(|f| f.write(&mut w));
        let mut r = Reader::new(&wire);
        let back = fields
            .iter()
            .map(|_| Value::read(&mut r))
            .collect::<Result<Vec<_>, WireError>>()
            .map_err(|e| format!("{fields:?} did not decode: {e}"))?;
        if back != fields {
            return Err(format!("{fields:?} decoded as {back:?}"));
        }
        r.finish().map_err(|e| format!("{fields:?}: {e}"))?;
    }
    Ok(())
}

// --- mapping ----------------------------------------------------------------

/// The mapping obligation: the kernel reaches user buffers exactly where
/// the page tables say they live. Checked by comparing `read_user`/
/// `write_user` against the MMU-grounded abstract memory over random
/// layouts and accesses.
pub fn mapping_obligation(seed: u64, steps: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0x3a9);
    let mut kernel = Kernel::boot(KernelConfig::default()).map_err(|e| format!("{e:?}"))?;
    let c = (kernel.init_pid, kernel.init_tid);
    // Random layout: a handful of mapped regions, some read-only.
    let mut regions: Vec<(u64, u64, bool)> = Vec::new();
    for i in 0..6 {
        let va = 0x10_0000 + i * 0x10_0000 + rng.below(4) * 0x1000;
        let pages = 1 + rng.below(4);
        let writable = rng.chance(3, 4);
        if kernel
            .syscall(c, Syscall::Map { va, pages, writable })
            .is_ok()
        {
            regions.push((va, pages, writable));
        }
    }
    for step in 0..steps {
        let spec = crate::view::view(&kernel);
        // Random access, biased to region edges.
        let (va, pages, _w) = regions[rng.index(regions.len())];
        let addr = va + rng.below(pages * 4096 + 4096) - 2048;
        let len = rng.below(6000) + 1;
        if rng.chance(1, 2) {
            let got = kernel.read_user(c.0, addr, len);
            let want = spec.mem_read(c.0 .0, addr, len);
            if got != want {
                return Err(format!(
                    "seed {seed} step {step}: read_user({addr:#x},{len}) = {:?} vs spec {:?}",
                    got.as_ref().map(|v| v.len()),
                    want.as_ref().map(|v| v.len())
                ));
            }
        } else {
            let mut data = vec![0u8; len.min(512) as usize];
            rng.fill(&mut data);
            let got = kernel.write_user(c.0, addr, &data);
            let mut predicted = spec.clone();
            let want = predicted.mem_write(c.0 .0, addr, &data);
            if got != want {
                return Err(format!(
                    "seed {seed} step {step}: write_user({addr:#x},{}) = {got:?} vs spec {want:?}",
                    data.len()
                ));
            }
            let post = crate::view::view(&kernel);
            if post != predicted {
                return Err(format!(
                    "seed {seed} step {step}: memory view diverged after write"
                ));
            }
        }
    }
    Ok(())
}

// --- data-race freedom -------------------------------------------------------

/// An access-interval log for the dynamic data-race-freedom check: each
/// record says thread `tid` accessed `[start, end)` during logical time
/// `[t0, t1]`, writing iff `write`.
#[derive(Clone, Debug, Default)]
pub struct AccessLog {
    records: Vec<AccessRecord>,
}

/// One recorded buffer access.
#[derive(Clone, Debug)]
pub struct AccessRecord {
    /// Accessing thread.
    pub tid: u64,
    /// Buffer start address.
    pub start: u64,
    /// Buffer end (exclusive).
    pub end: u64,
    /// Logical start time.
    pub t0: u64,
    /// Logical end time.
    pub t1: u64,
    /// Whether the access writes.
    pub write: bool,
}

impl AccessLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access.
    pub fn record(&mut self, rec: AccessRecord) {
        self.records.push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finds a conflicting pair: different threads, overlapping byte
    /// ranges, overlapping time intervals, at least one writer.
    pub fn find_conflict(&self) -> Option<(usize, usize)> {
        for i in 0..self.records.len() {
            for j in i + 1..self.records.len() {
                let (a, b) = (&self.records[i], &self.records[j]);
                if a.tid != b.tid
                    && (a.write || b.write)
                    && a.start < b.end
                    && b.start < a.end
                    && a.t0 <= b.t1
                    && b.t0 <= a.t1
                {
                    return Some((i, j));
                }
            }
        }
        None
    }
}

/// The data-race-freedom obligation over a kernel execution: syscall
/// buffer accesses are atomic kernel transitions (each holds `&mut
/// Kernel` for its whole duration — the ownership argument of §3), so a
/// log of a serialized execution can never conflict. This check replays
/// a random workload, logging every buffer access with its serialized
/// timestamps, and asserts no conflict — plus, as a sanity check of the
/// checker itself, that an artificial overlapping pair *is* flagged.
pub fn race_freedom_obligation(seed: u64, steps: usize) -> Result<(), String> {
    let mut rng = SpecRng::seeded(seed ^ 0xace);
    let mut kernel = Kernel::boot(KernelConfig::default()).map_err(|e| format!("{e:?}"))?;
    let c = (kernel.init_pid, kernel.init_tid);
    kernel
        .syscall(c, Syscall::Map { va: 0x10_0000, pages: 8, writable: true })
        .map_err(|e| format!("{e:?}"))?;
    let t2 = kernel
        .syscall(c, Syscall::ThreadSpawn { affinity_plus_one: 0 })
        .map_err(|e| format!("{e:?}"))?;
    let mut log = AccessLog::new();
    for now in 0..steps as u64 {
        let tid = if rng.chance(1, 2) { c.1 .0 } else { t2 };
        let va = 0x10_0000 + rng.below(8 * 4096 - 64);
        let len = 1 + rng.below(64);
        let write = rng.chance(1, 2);
        // The syscall runs atomically: its access interval is [now, now].
        if write {
            let data = vec![rng.below(255) as u8; len as usize];
            kernel.write_user(c.0, va, &data).map_err(|e| format!("{e:?}"))?;
        } else {
            kernel.read_user(c.0, va, len).map_err(|e| format!("{e:?}"))?;
        }
        log.record(AccessRecord {
            tid,
            start: va,
            end: va + len,
            t0: now,
            t1: now,
            write,
        });
    }
    if let Some((i, j)) = log.find_conflict() {
        return Err(format!("serialized execution reported a race: {i} vs {j}"));
    }
    // Checker sanity: an overlapping concurrent write pair is caught.
    let mut bad = AccessLog::new();
    bad.record(AccessRecord { tid: 1, start: 0, end: 8, t0: 0, t1: 5, write: true });
    bad.record(AccessRecord { tid: 2, start: 4, end: 12, t0: 3, t1: 9, write: false });
    if bad.find_conflict().is_none() {
        return Err("race checker failed to flag a genuine conflict".into());
    }
    Ok(())
}

/// The literal `read_spec` ensures clause over the whole-system views
/// (delegating to the fd-level predicate in `veros-fs`).
pub fn read_ensures(
    pre: &SysState,
    post: &SysState,
    pid: u64,
    fd: u32,
    data: &[u8],
    read_len: u64,
) -> bool {
    let (Some(pre_p), Some(post_p)) = (pre.procs.get(&pid), post.procs.get(&pid)) else {
        return false;
    };
    let (Some(pre_fd), Some(post_fd)) = (pre_p.fds.get(&fd), post_p.fds.get(&fd)) else {
        return false;
    };
    let contents = pre.fs.get(&pre_fd.path).cloned().unwrap_or_default();
    let size = contents.len() as u64;
    read_len == data.len() as u64
        && read_len <= size.saturating_sub(pre_fd.offset)
        && data[..] == contents[pre_fd.offset as usize..(pre_fd.offset + read_len) as usize]
        && post_fd.offset == pre_fd.offset + read_len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marshalling_obligations_pass() {
        marshalling_regs_roundtrip().unwrap();
        marshalling_random_args(1, 500).unwrap();
        marshalling_decode_fuzz(1, 500).unwrap();
        marshalling_bytes_roundtrip(1, 200).unwrap();
    }

    #[test]
    fn random_args_fails_when_a_variant_goes_undrawn() {
        let err = marshalling_random_args(1, 3).unwrap_err();
        assert!(err.contains("never drew"), "{err}");
    }

    #[test]
    fn mapping_obligation_passes() {
        for seed in 0..3 {
            mapping_obligation(seed, 40).unwrap();
        }
    }

    #[test]
    fn race_freedom_passes_and_checker_detects() {
        race_freedom_obligation(5, 100).unwrap();
    }

    #[test]
    fn access_log_conflict_semantics() {
        let mut log = AccessLog::new();
        // Same thread: never a conflict.
        log.record(AccessRecord { tid: 1, start: 0, end: 8, t0: 0, t1: 5, write: true });
        log.record(AccessRecord { tid: 1, start: 0, end: 8, t0: 0, t1: 5, write: true });
        assert!(log.find_conflict().is_none());
        // Two readers: no conflict.
        let mut log = AccessLog::new();
        log.record(AccessRecord { tid: 1, start: 0, end: 8, t0: 0, t1: 5, write: false });
        log.record(AccessRecord { tid: 2, start: 0, end: 8, t0: 0, t1: 5, write: false });
        assert!(log.find_conflict().is_none());
        // Disjoint times: no conflict.
        let mut log = AccessLog::new();
        log.record(AccessRecord { tid: 1, start: 0, end: 8, t0: 0, t1: 2, write: true });
        log.record(AccessRecord { tid: 2, start: 0, end: 8, t0: 3, t1: 5, write: true });
        assert!(log.find_conflict().is_none());
        // Disjoint ranges: no conflict.
        let mut log = AccessLog::new();
        log.record(AccessRecord { tid: 1, start: 0, end: 8, t0: 0, t1: 5, write: true });
        log.record(AccessRecord { tid: 2, start: 8, end: 16, t0: 0, t1: 5, write: true });
        assert!(log.find_conflict().is_none());
    }
}
