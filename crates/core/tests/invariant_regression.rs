//! Anti-vacuity regression: every invariant family must *fail* when its
//! single fault-injected defense is disabled.
//!
//! A fault-schedule sweep that keeps passing after the journal barrier
//! is removed (or replication skipped, or the transport bypassed…) is
//! not verifying anything. Each test here mutates exactly one such site
//! via [`Ablation`], asserts the family reports a violation, and then
//! re-runs the *identical schedules* un-ablated to show the defense —
//! not the workload — is what the sweep depends on.

use veros_core::invariants::{self, Ablation};

#[test]
fn durability_fails_without_replication() {
    // Ordinal 0 exercises the failover mode: a put acked by a 1-wide
    // chain is lost the moment its head dies.
    let err = invariants::durability(0, 3, Ablation::UnreplicatedChain)
        .expect_err("unreplicated puts must not survive failover");
    assert!(err.contains("durability"), "{err}");
    invariants::durability(0, 3, Ablation::None).expect("real system holds");
}

#[test]
fn exactly_once_fails_over_raw_datagrams() {
    // Four schedules include mild and hostile wire tiers: a raw
    // datagram stream loses, duplicates, or reorders at least one of
    // them.
    let err = invariants::exactly_once(0, 4, Ablation::RawDatagrams)
        .expect_err("raw datagrams must break exactly-once under wire faults");
    assert!(err.contains("exactly_once"), "{err}");
    invariants::exactly_once(0, 4, Ablation::None).expect("real transport holds");
}

#[test]
fn fs_journal_fails_without_the_commit_barrier() {
    // Ordinal 0 crashes at the zero boundary: with the flush barrier
    // skipped, the committed records are still volatile and vanish.
    let err = invariants::fs_journal(0, 3, Ablation::SkipCommitBarrier)
        .expect_err("commits without a barrier must not survive a crash");
    assert!(err.contains("fs_journal"), "{err}");
    invariants::fs_journal(0, 3, Ablation::None).expect("real journal holds");
}

#[test]
fn frames_fail_when_the_rollback_path_leaks() {
    // Ordinal 0 puts the allocation-pressure point at step 0, so the
    // ablated release path holds frames back and teardown comes up
    // short.
    let err = invariants::frames(0, 3, Ablation::LeakFrames)
        .expect_err("a leaking rollback path must fail the conservation audit");
    assert!(err.contains("frames"), "{err}");
    invariants::frames(0, 3, Ablation::None).expect("real allocator holds");
}

#[test]
fn cluster_durability_fails_without_chain_replication() {
    // With every chain one replica wide, schedule 0 kills the acked
    // write's only holder: the promoted owner syncs an empty shard and
    // serves NotFound — the ack bought nothing.
    let err = invariants::cluster_durability(0, 2, Ablation::UnreplicatedChain)
        .expect_err("a 1-wide chain must lose acked writes with its only holder");
    assert!(err.contains("cluster_durability"), "{err}");
    invariants::cluster_durability(0, 2, Ablation::None).expect("3-way chains hold");
}

#[test]
fn uring_chain_fails_when_recovery_replays_from_the_start() {
    // Mid-stream crash points leave a non-empty dispatch log; replaying
    // it twice re-executes non-idempotent links (opens, maps, even
    // clock reads) and diverges from the crashed kernel.
    let err = invariants::uring_chain(0, 5, Ablation::ReplayLogTwice)
        .expect_err("replay-from-start recovery must diverge");
    assert!(err.contains("uring_chain"), "{err}");
    invariants::uring_chain(0, 5, Ablation::None).expect("resume-at-boundary holds");
}
