//! The `FAMILIES` table as telemetry sees it: every row's sweep ticks
//! its own schedule counter and the total by exactly the schedules it
//! swept and moves no other row's counter, so no two rows share a name,
//! a counter or a sweep. This is its own test binary because the
//! counters are process-global: no other test may sweep alongside it.

use std::collections::BTreeSet;

use veros_core::invariants::{Ablation, FAMILIES};
use veros_core::metrics::{SCHEDULES_SWEPT, VIOLATIONS};

#[test]
fn every_row_sweeps_under_its_own_name_and_counter() {
    let names: BTreeSet<&str> = FAMILIES.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), FAMILIES.len(), "row names must be unique");

    const N: usize = 2;
    let ticked = if veros_telemetry::enabled() { N as u64 } else { 0 };
    let counters = || FAMILIES.iter().map(|f| f.counter.get()).collect::<Vec<_>>();
    for family in &FAMILIES {
        assert_eq!(family.metric, format!("invariant.{}.schedules", family.name));
        let (before, swept) = (counters(), SCHEDULES_SWEPT.get());
        (family.run)(7, N, Ablation::None).unwrap_or_else(|e| panic!("{e}"));
        for ((other, b), a) in FAMILIES.iter().zip(before).zip(counters()) {
            let want = if std::ptr::eq(other, family) { b + ticked } else { b };
            assert_eq!(a, want, "sweeping {} moved {}'s counter {b} -> {a}", family.name, other.name);
        }
        assert_eq!(SCHEDULES_SWEPT.get(), swept + ticked, "{}", family.name);
        assert_eq!(VIOLATIONS.get(), 0, "{}", family.name);
    }
}
