//! Anti-vacuity regression: every invariant family must *fail* when its
//! single fault-injected defense is disabled.
//!
//! A fault-schedule sweep that keeps passing after the journal barrier
//! is removed (or replication skipped, or the transport bypassed…) is
//! not verifying anything. Each `FAMILIES` row names exactly one such
//! site as its [`Ablation`] and the schedule count at which it must
//! fail; this test asserts every row's sweep reports a violation there,
//! and then re-runs the *identical schedules* un-ablated to show the
//! defense — not the workload — is what the sweep depends on.

use veros_core::invariants::{Ablation, FAMILIES};

#[test]
fn every_family_fails_under_its_ablation_and_holds_without_it() {
    for family in &FAMILIES {
        let (name, n) = (family.name, family.fails_at);
        let err = (family.run)(0, n, family.ablation).expect_err(&format!(
            "{name} must fail under {:?} at {n} schedules: {}",
            family.ablation, family.fails_because
        ));
        assert!(err.contains(name), "{name}: {err}");
        (family.run)(0, n, Ablation::None)
            .unwrap_or_else(|e| panic!("{name}: the real system must hold: {e}"));
    }
}
