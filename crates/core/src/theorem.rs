//! The refinement theorem (§4.4), checked.
//!
//! "The theorem we need to prove is that the high-level spec described
//! in Section 3 is refined by a model of the hardware execution ... In
//! this case the behavior we want to preserve is the return values of
//! instructions, including reading from memory and system calls."
//!
//! [`refinement_run`] drives a random multi-process workload against the
//! live kernel and the abstract [`SysState`] in lock-step: at every step
//! the scheduler's choice of thread is a random runnable thread (the
//! abstract execution model says interleavings are arbitrary), the
//! operation's return values must be identical, and periodically the
//! whole abstract view must match. A complete run *is* a checked
//! instance of the refinement theorem on that trace.

use veros_kernel::syscall::{abi, SysError, Syscall};
use veros_kernel::{Kernel, KernelConfig, Pid, Tid};
use veros_spec::rng::SpecRng;

use crate::sys_spec::{AbsOp, AbsRet, SysState};
use crate::view::view;

/// Statistics from a completed refinement run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Operations driven.
    pub ops: usize,
    /// Full-view comparisons performed.
    pub view_checks: usize,
    /// Syscalls that returned errors (still checked — error behaviour is
    /// part of the contract).
    pub error_returns: usize,
}

/// Drives `steps` random operations with the given seed; `view_every`
/// controls how often the full abstract view is compared (0 = only at
/// the end).
pub fn refinement_run(seed: u64, steps: usize, view_every: usize) -> Result<RunStats, String> {
    let mut rng = SpecRng::seeded(seed ^ 0x7e0);
    let config = KernelConfig {
        frames: 8192,
        cores: 2,
        disk_sectors: 1 << 14,
    };
    let mut kernel = Kernel::boot(config).map_err(|e| format!("{e:?}"))?;
    let mut spec = SysState::boot(kernel.sched.cores() as u64);
    let mut stats = RunStats::default();

    // Pools the generator draws from.
    let vas: Vec<u64> = (0..8).map(|i| 0x10_0000 + i * 0x4000).collect();
    let paths = ["/a", "/b", "/log", "/data"];

    for step in 0..steps {
        // Choose a runnable thread per the abstract execution model.
        let runnable = spec.runnable();
        if runnable.is_empty() {
            break; // Everything blocked or exited: the trace ends.
        }
        let (pid, tid) = *rng.choose(&runnable);

        // Generate an operation in-context.
        let op = generate_op(&mut rng, &spec, pid, tid, &vas, &paths);

        // Apply to the spec.
        let want = spec.apply(&op);

        // Apply to the kernel.
        let got = apply_kernel(&mut kernel, &op);

        if got != want {
            return Err(format!(
                "seed {seed} step {step}: {op:?}\n  kernel: {got:?}\n  spec:   {want:?}"
            ));
        }
        if let AbsRet::Sys(Err(_)) = got {
            stats.error_returns += 1;
        }
        stats.ops += 1;

        if view_every != 0 && step % view_every == 0 {
            let v = view(&kernel);
            if v != spec {
                return Err(format!(
                    "seed {seed} step {step}: views diverged after {op:?}\n{}",
                    crate::sys::diff_summary(&spec, &v)
                ));
            }
            stats.view_checks += 1;
        }
    }

    // Final full comparison.
    let v = view(&kernel);
    if v != spec {
        return Err(format!("seed {seed}: final views diverged\n{}", crate::sys::diff_summary(&spec, &v)));
    }
    stats.view_checks += 1;
    Ok(stats)
}

fn generate_op(
    rng: &mut SpecRng,
    spec: &SysState,
    pid: u64,
    tid: u64,
    vas: &[u64],
    paths: &[&str],
) -> AbsOp {
    let call = |c: Syscall| AbsOp::Call(pid, tid, c);
    // Biased mix: memory ops and file ops dominate, lifecycle ops are
    // rarer, plus occasional hostile arguments.
    match rng.below(24) {
        0 => call(Syscall::Spawn),
        1 => {
            // Exit sometimes; avoid killing init too often so runs last.
            if pid == 1 && rng.chance(9, 10) {
                call(Syscall::Yield)
            } else {
                call(Syscall::Exit {
                    code: rng.below(256) as i32,
                })
            }
        }
        2 => {
            // Wait on a random known pid (children and strangers alike —
            // error behaviour is contract too).
            let candidates: Vec<u64> = spec.procs.keys().copied().collect();
            call(Syscall::Wait {
                pid: *rng.choose(&candidates),
            })
        }
        3..=5 => call(Syscall::Map {
            va: *rng.choose(vas) + rng.below(2) * 0x1000,
            pages: 1 + rng.below(3),
            writable: rng.chance(3, 4),
        }),
        6 => call(Syscall::Unmap {
            va: *rng.choose(vas),
            pages: 1 + rng.below(3),
        }),
        7 | 8 => {
            // Open/Unlink: point at a mapped path if possible. Both
            // sides read the path bytes from their (identical) memory
            // views, so whatever is there is a consistent argument.
            let p = spec.procs.get(&pid).expect("runnable process");
            if let Some((&base, page)) = p.mem.iter().find(|(_, pg)| pg.writable) {
                let _ = page;
                let path = rng.choose(paths);
                let sc = if rng.chance(1, 4) {
                    Syscall::Unlink {
                        path_ptr: base,
                        path_len: path.len() as u64,
                    }
                } else {
                    Syscall::Open {
                        path_ptr: base,
                        path_len: path.len() as u64,
                        create: rng.chance(2, 3),
                    }
                };
                AbsOp::Call(pid, tid, sc)
            } else {
                call(Syscall::Yield)
            }
        }
        9 | 10 => {
            let p = spec.procs.get(&pid).expect("runnable process");
            let fds: Vec<u32> = p.fds.keys().copied().collect();
            if fds.is_empty() || p.mem.is_empty() {
                call(Syscall::Yield)
            } else {
                let buf = *rng.choose(&p.mem.keys().copied().collect::<Vec<_>>());
                call(Syscall::Read {
                    fd: *rng.choose(&fds),
                    buf_ptr: buf + rng.below(64),
                    buf_len: rng.below(6000),
                })
            }
        }
        11 | 12 => {
            let p = spec.procs.get(&pid).expect("runnable process");
            let fds: Vec<u32> = p.fds.keys().copied().collect();
            if fds.is_empty() || p.mem.is_empty() {
                call(Syscall::Yield)
            } else {
                let buf = *rng.choose(&p.mem.keys().copied().collect::<Vec<_>>());
                call(Syscall::Write {
                    fd: *rng.choose(&fds),
                    buf_ptr: buf + rng.below(64),
                    buf_len: rng.below(2048),
                })
            }
        }
        13 => {
            let p = spec.procs.get(&pid).expect("runnable process");
            let fds: Vec<u32> = p.fds.keys().copied().collect();
            if fds.is_empty() {
                call(Syscall::Yield)
            } else {
                call(Syscall::Seek {
                    fd: *rng.choose(&fds),
                    offset: rng.below(1 << 12),
                })
            }
        }
        14 => {
            let p = spec.procs.get(&pid).expect("runnable process");
            let fds: Vec<u32> = p.fds.keys().copied().collect();
            if fds.is_empty() {
                call(Syscall::Yield)
            } else {
                call(Syscall::Close {
                    fd: *rng.choose(&fds),
                })
            }
        }
        15 => call(Syscall::FutexWait {
            va: *rng.choose(vas),
            expected: rng.below(3) as u32,
        }),
        16 => call(Syscall::FutexWake {
            va: *rng.choose(vas),
            count: 1 + rng.below(3) as u32,
        }),
        17 => call(Syscall::ThreadSpawn {
            affinity_plus_one: rng.below(4),
        }),
        18 => call(Syscall::ClockRead),
        19 => AbsOp::Tick,
        20 | 21 => {
            let p = spec.procs.get(&pid).expect("runnable process");
            if p.mem.is_empty() {
                call(Syscall::Yield)
            } else {
                let base = *rng.choose(&p.mem.keys().copied().collect::<Vec<_>>());
                AbsOp::MemRead {
                    pid,
                    va: base + rng.below(4096),
                    len: 1 + rng.below(8192),
                }
            }
        }
        22 => {
            let p = spec.procs.get(&pid).expect("runnable process");
            if p.mem.is_empty() {
                call(Syscall::Yield)
            } else {
                let base = *rng.choose(&p.mem.keys().copied().collect::<Vec<_>>());
                let mut data = vec![0u8; 1 + rng.index(256)];
                rng.fill(&mut data);
                AbsOp::MemWrite {
                    pid,
                    va: base + rng.below(4096),
                    data,
                }
            }
        }
        _ => {
            // Hostile arguments: unmapped pointers, bad fds, huge
            // lengths — error equality is part of refinement.
            match rng.below(4) {
                0 => call(Syscall::Read {
                    fd: 99,
                    buf_ptr: 0xdead_0000,
                    buf_len: 8,
                }),
                1 => call(Syscall::Open {
                    path_ptr: 0xdead_0000,
                    path_len: 5,
                    create: true,
                }),
                2 => call(Syscall::Map {
                    va: 0x123, // Misaligned.
                    pages: 1,
                    writable: true,
                }),
                _ => AbsOp::MemRead {
                    pid,
                    va: 0xdead_0000,
                    len: 16,
                },
            }
        }
    }
}

fn apply_kernel(kernel: &mut Kernel, op: &AbsOp) -> AbsRet {
    match op {
        AbsOp::Call(pid, tid, call) => {
            // Through the full register ABI, so every driven call also
            // exercises marshalling.
            let regs = abi::encode_regs(call);
            let (status, value) = kernel.syscall_regs((Pid(*pid), Tid(*tid)), regs);
            AbsRet::Sys(abi::decode_ret(status, value).expect("well-formed return"))
        }
        AbsOp::MemRead { pid, va, len } => AbsRet::Bytes(kernel.read_user(Pid(*pid), *va, *len)),
        AbsOp::MemWrite { pid, va, data } => {
            AbsRet::Unit(kernel.write_user(Pid(*pid), *va, data))
        }
        AbsOp::Tick => {
            kernel.clock.tick();
            AbsRet::Unit(Ok(()))
        }
    }
}

// Re-exported so `sys.rs` and this module share the diff renderer.
impl crate::sys_spec::SysState {
    /// A short human-readable summary of how `self` differs from `other`.
    pub fn diff(&self, other: &SysState) -> String {
        crate::sys::diff_summary(self, other)
    }
}

/// Convenience: suppress unused-import warnings for SysError in rustdoc
/// examples.
#[allow(dead_code)]
fn _uses(_e: SysError) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_refinement_runs_pass() {
        for seed in 0..4 {
            let stats = refinement_run(seed, 150, 10).unwrap();
            assert!(stats.ops > 0);
            assert!(stats.view_checks > 0);
            assert!(stats.error_returns > 0, "hostile ops should appear");
        }
    }

    #[test]
    fn longer_run_with_final_view_only() {
        let stats = refinement_run(42, 600, 0).unwrap();
        assert!(stats.ops > 100);
    }
}
