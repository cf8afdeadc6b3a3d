//! Differential verification of the asynchronous syscall rings.
//!
//! The uring linearization claim is discharged the same way the paper
//! discharges refinement (§4.4): run the implementation and a reference
//! side by side on randomized workloads and compare *everything
//! observable*. Here the implementation is a [`veros_uring::Engine`]
//! driving one kernel through SQE/CQE marshalling, and the reference is
//! a [`veros_uring::SyncTwin`] driving a second, identically booted
//! kernel through the fully instrumented synchronous entry point. The
//! twin deliberately mirrors the engine's scheduling policy (worker
//! spawn order, LIFO reuse, FIFO pending scans), so after the same
//! submission sequence the checks can be exact, not merely up to
//! isomorphism:
//!
//! * every completion sequence matches entry for entry (token, result,
//!   and order — the engine's dispatch order *is* a linearization of
//!   the submitted operations, and it agrees with the twin's
//!   synchronous order);
//! * non-blocking submissions complete in FIFO submission order;
//! * the final kernel views ([`crate::view()`]) are identical, thread
//!   ids and id counters included.
//!
//! Exactly-once delivery across wraparound/full/empty boundaries and
//! telemetry coherence are separate obligations below.

use std::collections::BTreeMap;

use veros_kernel::syscall::{abi, RingClass, SysError, SysRet, Syscall};
use veros_kernel::{Kernel, KernelConfig, Pid};
use veros_spec::rng::SpecRng;
use veros_uring::{pair, Cqe, Engine, SqeFlags, SubstSource, SyncTwin};

use crate::view::view;

/// Base of the pre-mapped shared region both kernels get at setup.
pub(crate) const SHARED_VA: u64 = 0x60_0000;
/// Futex words inside the shared region.
const FUTEX_VAS: [u64; 3] = [SHARED_VA, SHARED_VA + 0x40, SHARED_VA + 0x80];
/// Path string location inside the shared region.
pub(crate) const PATH_VA: u64 = SHARED_VA + 0x1000;
pub(crate) const PATH: &[u8] = b"/ringfile";
/// Pool of addresses the random Map/Unmap traffic works on (disjoint
/// from the shared region so the setup state stays probeable).
pub(crate) const MAP_VAS: [u64; 6] =
    [0x40_0000, 0x40_1000, 0x40_2000, 0x40_3000, 0x40_4000, 0x40_5000];

pub(crate) fn boot() -> Result<Kernel, String> {
    let mut k = Kernel::boot(KernelConfig::default()).map_err(|e| format!("boot: {e:?}"))?;
    let c = (k.init_pid, k.init_tid);
    k.syscall(c, Syscall::Map { va: SHARED_VA, pages: 2, writable: true })
        .map_err(|e| format!("setup map: {e:?}"))?;
    k.write_user(c.0, PATH_VA, PATH).map_err(|e| format!("setup path: {e:?}"))?;
    Ok(k)
}

/// Alive children of `parent`, in pid order (identical on both kernels
/// as long as the executions have not diverged).
fn alive_children(k: &Kernel, parent: Pid) -> Vec<u64> {
    k.processes()
        .iter()
        .filter(|p| p.parent == Some(parent) && matches!(p.state, veros_kernel::ProcessState::Alive))
        .map(|p| p.pid.0)
        .collect()
}

/// Exits `child` "from the environment" — its own first thread calls
/// `Exit` through the synchronous path. Applied to both kernels only at
/// quiesced points (submission queue fully drained), so it commutes
/// identically with the ring and the twin.
fn exit_child(k: &mut Kernel, child: u64) -> Result<(), String> {
    let pid = Pid(child);
    let tid = k
        .processes()
        .get(pid)
        .map_err(|e| format!("child {child} lookup: {e:?}"))?
        .threads[0];
    k.syscall((pid, tid), Syscall::Exit { code: 9 })
        .map_err(|e| format!("child {child} exit: {e:?}"))?;
    Ok(())
}

/// One random operation. Blocking-capable ops are marked so the FIFO
/// check can exclude them.
fn gen_op(rng: &mut SpecRng, children: &[u64]) -> Syscall {
    match rng.below(13) {
        0 => Syscall::Map {
            va: *rng.choose(&MAP_VAS),
            pages: 1 + rng.below(3),
            writable: true,
        },
        1 => Syscall::Unmap { va: *rng.choose(&MAP_VAS), pages: 1 + rng.below(3) },
        2 => Syscall::ClockRead,
        3 => Syscall::Yield,
        4 => Syscall::Spawn,
        5 => {
            // A real child (may still be running → parks a worker) or a
            // bogus pid (fails identically on both sides).
            let pid = if children.is_empty() || rng.chance(1, 4) {
                999
            } else {
                *rng.choose(children)
            };
            Syscall::Wait { pid }
        }
        6 => Syscall::FutexWait {
            va: *rng.choose(&FUTEX_VAS),
            // Word is 0: expected 0 blocks, expected 7 errs — both arms
            // behave identically on ring and twin.
            expected: if rng.chance(1, 3) { 7 } else { 0 },
        },
        7 => Syscall::FutexWake { va: *rng.choose(&FUTEX_VAS), count: 1 + rng.below(2) as u32 },
        8 => Syscall::Open { path_ptr: PATH_VA, path_len: PATH.len() as u64, create: true },
        9 => Syscall::Write {
            fd: 3 + rng.below(3) as u32,
            buf_ptr: SHARED_VA + 0x100,
            buf_len: 1 + rng.below(32),
        },
        10 => Syscall::Read {
            fd: 3 + rng.below(3) as u32,
            buf_ptr: SHARED_VA + 0x200,
            buf_len: 1 + rng.below(32),
        },
        11 => Syscall::Seek { fd: 3 + rng.below(3) as u32, offset: rng.below(16) },
        _ => Syscall::Close { fd: 3 + rng.below(3) as u32 },
    }
}

fn drain(user: &mut veros_uring::UserRing, into: &mut Vec<Cqe>) {
    while let Some(cqe) = user.complete() {
        into.push(cqe);
    }
}

/// The linearization obligation: a random submission sequence through
/// the ring produces, completion for completion, the synchronous twin's
/// results — and leaves the kernel in the *identical* abstract state.
pub fn differential_run(seed: u64, steps: usize) -> Result<(), String> {
    let mut ka = boot()?;
    let mut kb = boot()?;
    let owner_a = (ka.init_pid, ka.init_tid);
    let owner_b = (kb.init_pid, kb.init_tid);

    let (mut user, kring) = pair(8);
    let mut engine = Engine::new(kring, owner_a).with_dispatch_log();
    let mut twin = SyncTwin::new(owner_b);

    let mut rng = SpecRng::seeded(seed ^ 0x71_c4fe);
    let mut token = 0u64;
    let mut blocking_tokens = Vec::new();
    let mut ring_cqes: Vec<Cqe> = Vec::new();

    for step in 0..steps {
        // One batch of 1..=4 operations, generated once and fed to both
        // executions in the same order.
        let children = alive_children(&kb, owner_b.0);
        let n = 1 + rng.below(4) as usize;
        let batch: Vec<Syscall> = (0..n).map(|_| gen_op(&mut rng, &children)).collect();
        let base = token;
        for call in &batch {
            if call.ring_class() == RingClass::Blocking {
                blocking_tokens.push(token);
            }
            if user.submit(token, call).is_err() {
                // Backpressure mid-batch: drain and retry (depth 8 vs
                // batch ≤ 4, so a second failure is a real bug).
                engine.submit_batch(&mut ka);
                drain(&mut user, &mut ring_cqes);
                user.submit(token, call)
                    .map_err(|_| format!("seed {seed} step {step}: SQ full after drain"))?;
            }
            token += 1;
        }
        engine.submit_batch(&mut ka);
        engine.reap(&mut ka);
        drain(&mut user, &mut ring_cqes);
        for (i, call) in batch.iter().enumerate() {
            twin.submit(&mut kb, base + i as u64, *call);
        }
        twin.pump(&mut kb);

        // Environment event at a quiesced point: some child exits,
        // waking any parked `Wait` on it — on both kernels.
        if rng.chance(1, 3) {
            let kids = alive_children(&kb, owner_b.0);
            if !kids.is_empty() {
                let victim = *rng.choose(&kids);
                exit_child(&mut ka, victim)?;
                exit_child(&mut kb, victim)?;
            }
        }
    }

    // Drain the run so both pending tables empty: wake every futex and
    // exit every remaining child, then keep reaping.
    for k in [&mut ka, &mut kb] {
        let c = (k.init_pid, k.init_tid);
        for va in FUTEX_VAS {
            k.syscall(c, Syscall::FutexWake { va, count: u32::MAX })
                .map_err(|e| format!("wake-all: {e:?}"))?;
        }
    }
    for child in alive_children(&kb, owner_b.0) {
        exit_child(&mut ka, child)?;
        exit_child(&mut kb, child)?;
    }
    for _ in 0..16 {
        engine.reap(&mut ka);
        drain(&mut user, &mut ring_cqes);
        twin.pump(&mut kb);
        if engine.pending_len() == 0 && twin.pending_len() == 0 {
            break;
        }
    }
    if engine.pending_len() != 0 || twin.pending_len() != 0 {
        return Err(format!(
            "seed {seed}: pending tables did not drain (engine {}, twin {})",
            engine.pending_len(),
            twin.pending_len()
        ));
    }
    engine.shutdown(&mut ka);
    drain(&mut user, &mut ring_cqes);
    twin.shutdown(&mut kb);

    // 1. Completion sequences agree entry for entry.
    let twin_cqes = twin.completions();
    if ring_cqes.len() != twin_cqes.len() {
        return Err(format!(
            "seed {seed}: {} ring completions vs {} twin completions",
            ring_cqes.len(),
            twin_cqes.len()
        ));
    }
    for (i, (r, t)) in ring_cqes.iter().zip(twin_cqes).enumerate() {
        if r != t {
            return Err(format!("seed {seed}: completion {i} diverges: ring {r:?}, twin {t:?}"));
        }
    }

    // 2. Non-blocking completions are FIFO in submission order.
    let mut last = None;
    for cqe in &ring_cqes {
        if blocking_tokens.contains(&cqe.user_data) {
            continue;
        }
        if let Some(prev) = last {
            if cqe.user_data <= prev {
                return Err(format!(
                    "seed {seed}: non-blocking token {} completed after {}",
                    cqe.user_data, prev
                ));
            }
        }
        last = Some(cqe.user_data);
    }

    // 3. The dispatch log — the engine's linearization witness — has a
    // final verdict per token that equals the posted completion.
    let mut final_dispatch: BTreeMap<u64, SysRet> = BTreeMap::new();
    for r in engine.take_dispatch_log() {
        final_dispatch.insert(r.user_data, r.result);
    }
    for cqe in &ring_cqes {
        if let Some(res) = final_dispatch.get(&cqe.user_data) {
            if *res != cqe.result {
                return Err(format!(
                    "seed {seed}: token {} dispatch log says {res:?}, CQE says {:?}",
                    cqe.user_data, cqe.result
                ));
            }
        }
    }

    // 4. The abstract kernel states are identical.
    let va = view(&ka);
    let vb = view(&kb);
    if va != vb {
        return Err(format!("seed {seed}: final kernel views diverge after {token} ops"));
    }
    Ok(())
}

/// The exactly-once obligation: across random submit/drain interleaving
/// on a deliberately tiny (depth-4) ring — constant wraparound, frequent
/// full/empty boundaries, CQ overflow through the engine backlog — every
/// accepted SQE completes exactly once and every rejected one not at
/// all.
pub fn ring_exactly_once(seed: u64, steps: usize) -> Result<(), String> {
    let mut k = Kernel::boot(KernelConfig::default()).map_err(|e| format!("boot: {e:?}"))?;
    let owner = (k.init_pid, k.init_tid);
    let (mut user, kring) = pair(4);
    let mut engine = Engine::new(kring, owner);

    let mut rng = SpecRng::seeded(seed ^ 0x0e4ac71);
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
    let mut token = 0u64;

    for _ in 0..steps {
        match rng.below(4) {
            // Submit-heavy mix keeps the SQ bouncing off full.
            0 | 1 => {
                let call =
                    if rng.chance(1, 2) { Syscall::ClockRead } else { Syscall::Yield };
                if user.submit(token, &call).is_ok() {
                    accepted.push(token);
                } else {
                    rejected.push(token);
                }
                token += 1;
            }
            2 => {
                engine.submit_batch(&mut k);
            }
            _ => {
                while let Some(cqe) = user.complete() {
                    *seen.entry(cqe.user_data).or_default() += 1;
                }
            }
        }
    }
    // Final drain: flush the engine (including its CQ-overflow backlog)
    // until the user side stops seeing completions.
    loop {
        engine.submit_batch(&mut k);
        let mut got = 0;
        while let Some(cqe) = user.complete() {
            *seen.entry(cqe.user_data).or_default() += 1;
            got += 1;
        }
        if got == 0 {
            break;
        }
    }

    for t in &accepted {
        match seen.get(t) {
            Some(1) => {}
            Some(n) => return Err(format!("seed {seed}: token {t} completed {n} times")),
            None => return Err(format!("seed {seed}: accepted token {t} was lost")),
        }
    }
    for t in &rejected {
        if seen.contains_key(t) {
            return Err(format!("seed {seed}: rejected token {t} completed anyway"));
        }
    }
    if seen.len() != accepted.len() {
        return Err(format!(
            "seed {seed}: {} distinct completions for {} accepted submissions",
            seen.len(),
            accepted.len()
        ));
    }
    Ok(())
}

/// The chain-atomicity obligation: on a deliberately tiny (depth-4)
/// ring — so chains wrap the queue and split across drains — every
/// chain completes as an exact prefix of successes, at most one real
/// failure, and a fully cancelled suffix; and the whole sequence
/// matches a policy-mirroring [`SyncTwin`] fed the same flagged SQEs.
pub fn chain_atomicity(seed: u64, steps: usize) -> Result<(), String> {
    let mut ka = boot()?;
    let mut kb = boot()?;
    let owner_a = (ka.init_pid, ka.init_tid);
    let owner_b = (kb.init_pid, kb.init_tid);
    let (mut user, kring) = pair(4);
    let mut engine = Engine::new(kring, owner_a);
    let mut twin = SyncTwin::new(owner_b);

    let mut rng = SpecRng::seeded(seed ^ 0x00c4_a177);
    let mut token = 0u64;
    let mut ring_cqes: Vec<Cqe> = Vec::new();
    let mut chains: Vec<Vec<u64>> = Vec::new();

    // Links: roughly a third fail (bad fd, duplicate map); some links
    // consume the previous result as an fd (substitution under test).
    let gen_link = |rng: &mut SpecRng| -> (Syscall, Option<(SubstSource, u8)>) {
        match rng.below(6) {
            0 => (Syscall::ClockRead, None),
            1 => (Syscall::Yield, None),
            2 => (
                Syscall::Open { path_ptr: PATH_VA, path_len: PATH.len() as u64, create: true },
                None,
            ),
            3 => (Syscall::Close { fd: 99 }, None), // BadFd: the chain breaker.
            4 => (
                // Seek on whatever fd the previous link produced —
                // a valid fd after an open, garbage otherwise.
                Syscall::Seek { fd: 0, offset: 0 },
                Some((SubstSource::Prev, abi::FD_REG)),
            ),
            _ => (Syscall::Map { va: *rng.choose(&MAP_VAS), pages: 1, writable: true }, None),
        }
    };

    for step in 0..steps {
        let n = 1 + rng.below(4) as usize;
        let links: Vec<(Syscall, Option<(SubstSource, u8)>)> =
            (0..n).map(|_| gen_link(&mut rng)).collect();
        let mut chain_tokens = Vec::with_capacity(n);
        for (i, (call, subst)) in links.iter().enumerate() {
            let flags = SqeFlags { link: i + 1 < n, subst: *subst };
            if user.submit_flagged(token, call, flags).is_err() {
                // Mid-chain backpressure: drain the prefix into the
                // engine's chain buffer and retry — the wraparound
                // path under test.
                engine.submit_batch(&mut ka);
                drain(&mut user, &mut ring_cqes);
                user.submit_flagged(token, call, flags)
                    .map_err(|_| format!("seed {seed} step {step}: SQ full after drain"))?;
            }
            twin.submit_sqe(&mut kb, token, abi::encode_regs(call), flags.encode());
            chain_tokens.push(token);
            token += 1;
            if rng.chance(1, 3) {
                engine.submit_batch(&mut ka);
                drain(&mut user, &mut ring_cqes);
            }
        }
        chains.push(chain_tokens);
        if rng.chance(2, 3) {
            engine.submit_batch(&mut ka);
            drain(&mut user, &mut ring_cqes);
        }
    }
    engine.submit_batch(&mut ka);
    drain(&mut user, &mut ring_cqes);
    if engine.chain_buffered() != 0 || twin.chain_buffered() != 0 {
        return Err(format!(
            "seed {seed}: incomplete chains left buffered (engine {}, twin {})",
            engine.chain_buffered(),
            twin.chain_buffered()
        ));
    }

    // 1. Ring and twin agree completion for completion.
    let twin_cqes = twin.completions();
    if ring_cqes.len() != twin_cqes.len() {
        return Err(format!(
            "seed {seed}: {} ring completions vs {} twin completions",
            ring_cqes.len(),
            twin_cqes.len()
        ));
    }
    for (i, (a, b)) in ring_cqes.iter().zip(twin_cqes).enumerate() {
        if a != b {
            return Err(format!("seed {seed}: completion {i} diverges: ring {a:?}, twin {b:?}"));
        }
    }

    // 2. Every chain is prefix-exact: successes, at most one real
    // failure, then nothing but `Cancelled` — and `Cancelled` never
    // appears without a preceding real failure in the same chain.
    let by_token: BTreeMap<u64, SysRet> =
        ring_cqes.iter().map(|c| (c.user_data, c.result)).collect();
    for (ci, chain) in chains.iter().enumerate() {
        let results: Vec<SysRet> = chain
            .iter()
            .map(|t| {
                by_token
                    .get(t)
                    .copied()
                    .ok_or_else(|| format!("seed {seed}: chain {ci} token {t} never completed"))
            })
            .collect::<Result<_, _>>()?;
        let first_err = results.iter().position(|r| r.is_err());
        for (i, r) in results.iter().enumerate() {
            let expect_cancel = first_err.is_some_and(|j| i > j);
            match r {
                Err(SysError::Cancelled) if !expect_cancel => {
                    return Err(format!(
                        "seed {seed}: chain {ci} link {i} cancelled without an earlier failure"
                    ));
                }
                Err(e) if expect_cancel && *e != SysError::Cancelled => {
                    return Err(format!(
                        "seed {seed}: chain {ci} link {i} dispatched after a failure: {e:?}"
                    ));
                }
                Ok(_) if expect_cancel => {
                    return Err(format!(
                        "seed {seed}: chain {ci} link {i} succeeded after a failure"
                    ));
                }
                _ => {}
            }
        }
    }

    // 3. Exactly-once delivery held throughout.
    if by_token.len() != ring_cqes.len() {
        return Err(format!("seed {seed}: duplicate completions detected"));
    }
    if by_token.len() != token as usize {
        return Err(format!(
            "seed {seed}: {} completions for {token} submitted links",
            by_token.len()
        ));
    }

    // 4. The engine's own atomicity self-check never fired, and the
    // final kernel states agree.
    if veros_uring::metrics::CHAIN_ATOMICITY_VIOLATIONS.get() != 0 {
        return Err(format!("seed {seed}: chain atomicity violation counter is nonzero"));
    }
    if view(&ka) != view(&kb) {
        return Err(format!("seed {seed}: final kernel views diverge"));
    }
    Ok(())
}

/// Telemetry coherence for the ring instruments: with the feature on, a
/// known workload moves the counters by at least its known floors (they
/// are process-global, so concurrent tests can only inflate them); with
/// it off, every ring instrument must read exactly zero.
pub fn telemetry_counters_coherent() -> Result<(), String> {
    use veros_uring::metrics as m;

    let submitted0 = m::SQES_SUBMITTED.get();
    let posted0 = m::CQES_POSTED.get();
    let rejected0 = m::SQ_FULL_REJECTIONS.get();
    let parked0 = m::OPS_PARKED.get();
    let sweeps0 = m::POLLER_SWEEPS.get();
    let chains0 = m::CHAINS_DISPATCHED.get();
    let aborts0 = m::CHAIN_ABORTS.get();
    let cancelled0 = m::CHAIN_LINKS_CANCELLED.get();

    let mut k = Kernel::boot(KernelConfig::default()).map_err(|e| format!("boot: {e:?}"))?;
    let owner = (k.init_pid, k.init_tid);
    k.syscall(owner, Syscall::Map { va: SHARED_VA, pages: 1, writable: true })
        .map_err(|e| format!("map: {e:?}"))?;
    let (mut user, kring) = pair(4);
    let mut engine = Engine::new(kring, owner);
    // 4 accepted ClockReads + 1 backpressure rejection.
    for t in 0..4 {
        user.submit(t, &Syscall::ClockRead).map_err(|_| "submit")?;
    }
    if user.submit(4, &Syscall::ClockRead).is_ok() {
        return Err("depth-4 ring accepted a fifth entry".into());
    }
    engine.submit_batch(&mut k);
    while user.complete().is_some() {}
    // One parked futex wait, woken and reaped.
    user.submit(5, &Syscall::FutexWait { va: SHARED_VA, expected: 0 })
        .map_err(|_| "submit wait")?;
    engine.submit_batch(&mut k);
    k.syscall(owner, Syscall::FutexWake { va: SHARED_VA, count: 1 })
        .map_err(|e| format!("wake: {e:?}"))?;
    engine.reap(&mut k);
    while user.complete().is_some() {}

    // An aborting chain: ClockRead → Close(bad fd) → ClockRead, whose
    // tail must be cancelled, driven by engine passes until one is idle.
    user.submit_flagged(20, &Syscall::ClockRead, SqeFlags::NONE.linked())
        .map_err(|_| "chain head")?;
    user.submit_flagged(21, &Syscall::Close { fd: 99 }, SqeFlags::NONE.linked())
        .map_err(|_| "chain mid")?;
    user.submit_flagged(22, &Syscall::ClockRead, SqeFlags::NONE)
        .map_err(|_| "chain tail")?;
    let mut passes = 1;
    while engine.pass(&mut k) {
        passes += 1;
    }
    while user.complete().is_some() {}

    if !veros_telemetry::enabled() {
        if m::SQES_SUBMITTED.get() != 0
            || m::SQ_FULL_REJECTIONS.get() != 0
            || m::CQES_POSTED.get() != 0
            || m::OPS_PARKED.get() != 0
            || m::POLLER_SWEEPS.get() != 0
            || m::CHAINS_DISPATCHED.get() != 0
            || m::CHAIN_ABORTS.get() != 0
            || m::CHAIN_LINKS_CANCELLED.get() != 0
            || m::CHAIN_ATOMICITY_VIOLATIONS.get() != 0
        {
            return Err("telemetry disabled but uring counters are nonzero".into());
        }
        return Ok(());
    }
    if m::SQES_SUBMITTED.get() - submitted0 < 5 {
        return Err("5 accepted submissions under-counted".into());
    }
    if m::SQ_FULL_REJECTIONS.get() - rejected0 < 1 {
        return Err("backpressure rejection not counted".into());
    }
    if m::CQES_POSTED.get() - posted0 < 5 {
        return Err("5 completions under-counted".into());
    }
    if m::OPS_PARKED.get() - parked0 < 1 {
        return Err("parked futex wait not counted".into());
    }
    if m::POLLER_SWEEPS.get() - sweeps0 < passes {
        return Err(format!("{passes} engine passes under-counted"));
    }
    if m::CHAINS_DISPATCHED.get() - chains0 < 1 {
        return Err("dispatched chain not counted".into());
    }
    if m::CHAIN_ABORTS.get() - aborts0 < 1 {
        return Err("chain abort not counted".into());
    }
    if m::CHAIN_LINKS_CANCELLED.get() - cancelled0 < 1 {
        return Err("cancelled chain link not counted".into());
    }
    if m::CHAIN_ATOMICITY_VIOLATIONS.get() != 0 {
        return Err("chain atomicity violation counter must stay zero".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_quick_seeds_pass() {
        for seed in 0..2 {
            differential_run(seed, 24).unwrap();
        }
    }

    #[test]
    fn exactly_once_quick_seeds_pass() {
        for seed in 0..2 {
            ring_exactly_once(seed, 200).unwrap();
        }
    }

    #[test]
    fn telemetry_coherence_holds() {
        telemetry_counters_coherent().unwrap();
    }

    #[test]
    fn chain_atomicity_quick_seeds_pass() {
        for seed in 0..2 {
            chain_atomicity(seed, 24).unwrap();
        }
    }
}
