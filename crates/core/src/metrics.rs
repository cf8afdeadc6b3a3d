//! Telemetry instruments for the end-to-end invariant sweeps.
//!
//! The `invariant::*` VC families ([`crate::invariants`]) sweep fault
//! schedules; these process-global counters record how many schedules
//! were explored and how many violations were observed. Each family's
//! own schedule counter lives in its [`FAMILIES`] row.
//! `invariant.violations` is pinned at 0 by a standing alert rule
//! (`veros_telemetry::alerts::default_rules`), and the per-family
//! schedule counters let `telemetry_report` prove the sweeps are not
//! vacuously empty. [`export`] registers everything under the
//! `invariant.` prefix; see `OBSERVABILITY.md` and `INVARIANTS.md`.

use veros_telemetry::{Counter, Registry};

use crate::invariants::FAMILIES;

/// Fault schedules swept, summed over every invariant family.
pub static SCHEDULES_SWEPT: Counter = Counter::new();

/// End-to-end invariant violations observed by non-ablated sweeps.
/// Alert-pinned at 0: any increment is a verification failure, never
/// expected operational noise.
pub static VIOLATIONS: Counter = Counter::new();

/// Registers every invariant-sweep instrument with `reg` under the
/// `invariant.` prefix: the total, one counter per [`FAMILIES`] row in
/// table order, then the violations.
pub fn export(reg: &mut Registry) {
    reg.counter("invariant.schedules_swept", "schedules", &SCHEDULES_SWEPT);
    for family in &FAMILIES {
        reg.counter(family.metric, "schedules", &family.counter);
    }
    reg.counter("invariant.violations", "violations", &VIOLATIONS);
}
