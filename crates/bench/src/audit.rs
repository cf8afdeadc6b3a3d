//! Shared machinery for the `audit` binary: the `AUDIT.json` artifact,
//! the committed `BENCH_audit.json` baseline, and the gates that hold a
//! fresh run to it.
//!
//! The audit always runs the whole registered population, serially, in
//! registration order. Three gates hold every run:
//!
//! * **Population floors** ([`gates`], through the shared gate engine):
//!   a run that registers fewer obligations than the baseline's
//!   `vcs_total`, or fewer invariant families than its
//!   `invariant_families`, fails. A dropped registration is a check
//!   nobody runs any more, and it would otherwise pass silently.
//! * **Invariant coverage** (a property of the tree, not of the
//!   baseline): the backticked `invariant::<family>::*` globs in
//!   `INVARIANTS.md` and the registered `invariant::*` VC families must
//!   match exactly, both directions — a documented invariant nothing
//!   sweeps and a swept family nothing documents are equally hard
//!   failures.
//! * **Sweep floor**: every `FAMILIES` row must sweep at least
//!   [`MIN_SCHEDULES`] fault schedules, read from its telemetry
//!   counter. A telemetry-off build reads zeros, so it skips loudly.

use std::time::Duration;

use veros_spec::vc::{VcReport, VcStatus};
use veros_telemetry::registry::json_str;

use crate::baseline::{Better, Current, Gate, GateResult};

/// The fewest fault schedules an invariant family may sweep:
/// `FaultSchedule::sweep` pins every wire tier × crash corner only from
/// 8 schedules up. The sweep floor holds every family to it, and
/// `audit --schedules` clamps shallower requests up to it.
pub const MIN_SCHEDULES: usize = 8;

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

/// Renders the full `AUDIT.json` artifact: the run's wall clock, the
/// Figure-1a CDF series, and one line per VC (the line-oriented
/// discipline every `BENCH_*.json` scanner in this crate relies on).
pub fn audit_json(report: &VcReport, wall: Duration) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"audit\",\n");
    out.push_str(&format!("  \"vcs_total\": {},\n", report.total()));
    out.push_str(&format!("  \"wall_ns\": {},\n", ns(wall)));
    out.push_str(&format!("  \"failures\": {},\n", report.failures().len()));
    let cdf: Vec<String> = report
        .sorted_durations()
        .into_iter()
        .map(|d| ns(d).to_string())
        .collect();
    out.push_str(&format!("  \"cdf_ns\": [{}],\n", cdf.join(", ")));
    out.push_str("  \"vcs\": [\n");
    for (i, o) in report.outcomes.iter().enumerate() {
        let comma = if i + 1 == report.outcomes.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"name\": {}, \"kind\": \"{}\", \"duration_ns\": {}, \"passed\": {} }}{comma}\n",
            json_str(&o.vc.name),
            o.vc.kind.label(),
            ns(o.duration),
            o.status == VcStatus::Passed
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Renders the committed `BENCH_audit.json` baseline: the population,
/// family count and wall clock of a reference run.
pub fn baseline_json(report: &VcReport, wall: Duration, invariant_families: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"vcs_total\": {},\n", report.total()));
    out.push_str(&format!(
        "  \"invariant_families\": {invariant_families},\n"
    ));
    out.push_str(&format!("  \"wall_ns\": {}\n", ns(wall)));
    out.push_str("}\n");
    out
}

/// Doc↔code coverage for the end-to-end invariant families: what
/// `INVARIANTS.md` claims versus what the VC engine registers.
#[derive(Clone, Debug, Default)]
pub struct InvariantCoverage {
    /// Backticked `invariant::<family>::*` globs found in the document.
    pub documented: Vec<String>,
    /// Registered families (`invariant::<family>::…` names, grouped),
    /// with the number of VCs each contributes.
    pub families: Vec<(String, usize)>,
    /// Documented globs no registered VC matches — the invariant is
    /// written down but nothing sweeps it.
    pub unbacked: Vec<String>,
    /// Registered families (as globs) `INVARIANTS.md` never mentions —
    /// the sweep exists but the contract it enforces is undocumented.
    pub undocumented: Vec<String>,
}

/// Extracts the backticked `invariant::<family>::*` anchor globs from
/// an `INVARIANTS.md` body. Only whole backtick spans of exactly that
/// shape count; prose mentions and instrument names (`invariant.` with
/// dots) are ignored.
pub fn documented_invariant_globs(doc: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for span in doc.split('`').skip(1).step_by(2) {
        let Some(rest) = span.strip_prefix("invariant::") else {
            continue;
        };
        let Some(family) = rest.strip_suffix("::*") else {
            continue;
        };
        let ident = !family.is_empty()
            && family
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if ident && !out.iter().any(|g| g == span) {
            out.push(span.to_string());
        }
    }
    out
}

/// Matches the documented globs against the registered VC names and
/// reports the mismatches in both directions.
pub fn invariant_coverage(doc: &str, names: &[String]) -> InvariantCoverage {
    let documented = documented_invariant_globs(doc);
    let mut families: Vec<(String, usize)> = Vec::new();
    for n in names {
        let Some(rest) = n.strip_prefix("invariant::") else {
            continue;
        };
        let Some((family, _)) = rest.split_once("::") else {
            continue;
        };
        match families.iter_mut().find(|(f, _)| f == family) {
            Some((_, count)) => *count += 1,
            None => families.push((family.to_string(), 1)),
        }
    }
    let family_of = |glob: &str| glob["invariant::".len()..glob.len() - "::*".len()].to_string();
    let unbacked = documented
        .iter()
        .filter(|g| !families.iter().any(|(f, _)| *f == family_of(g)))
        .cloned()
        .collect();
    let undocumented = families
        .iter()
        .filter(|(f, _)| !documented.iter().any(|g| family_of(g) == **f))
        .map(|(f, _)| format!("invariant::{f}::*"))
        .collect();
    InvariantCoverage { documented, families, unbacked, undocumented }
}

/// The fault schedules `sweeps` records for `family` (0 if none).
pub fn swept(sweeps: &[(String, u64)], family: &str) -> u64 {
    sweeps
        .iter()
        .find(|(f, _)| f == family)
        .map_or(0, |(_, n)| *n)
}

/// Gates the invariant population: doc↔code mismatches, and the
/// per-family [`MIN_SCHEDULES`] floor (read from the telemetry counters
/// in `sweeps`, so a telemetry-off build skips it loudly).
pub fn gate_invariants(
    cov: &InvariantCoverage,
    sweeps: &[(String, u64)],
    telemetry: bool,
) -> GateResult {
    let mut out = GateResult::default();
    for g in &cov.unbacked {
        out.violations.push(format!(
            "invariant coverage: `{g}` is documented in INVARIANTS.md but no registered \
             VC matches it — the invariant is written down and never swept"
        ));
    }
    for g in &cov.undocumented {
        out.violations.push(format!(
            "invariant coverage: registered family `{g}` has no INVARIANTS.md anchor — \
             the sweep runs but its contract is undocumented"
        ));
    }
    if out.violations.is_empty() {
        out.notes.push(format!(
            "invariant coverage: PASS ({} families, all documented and backed)",
            cov.families.len()
        ));
    }

    let min_schedules = MIN_SCHEDULES as u64;
    if !telemetry {
        out.notes.push(
            "invariant sweep floor: SKIPPED (telemetry compiled out; schedule counters read 0)"
                .to_string(),
        );
    } else {
        let mut shallow = 0;
        for (family, swept) in sweeps {
            if *swept < min_schedules {
                shallow += 1;
                out.violations.push(format!(
                    "invariant sweep floor: `invariant::{family}::*` swept {swept} fault \
                     schedule(s), the floor is {min_schedules}"
                ));
            }
        }
        if shallow == 0 {
            let total: u64 = sweeps.iter().map(|(_, n)| n).sum();
            out.notes.push(format!(
                "invariant sweep floor: PASS ({total} schedules across {} families, \
                 each >= {min_schedules})",
                sweeps.len()
            ));
        }
    }
    out
}

/// Renders `results/INVARIANTS_SWEEP.json`: one line per family with
/// its registered VC count and the fault schedules its counters record,
/// plus both coverage-mismatch lists (committed empty).
pub fn invariant_sweep_json(
    cov: &InvariantCoverage,
    sweeps: &[(String, u64)],
    violations: u64,
    telemetry: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"invariant_sweep\",\n");
    out.push_str(&format!("  \"telemetry_enabled\": {telemetry},\n"));
    out.push_str(&format!("  \"families\": {},\n", cov.families.len()));
    out.push_str(&format!("  \"violations\": {violations},\n"));
    out.push_str("  \"sweeps\": [\n");
    for (i, (family, vcs)) in cov.families.iter().enumerate() {
        let swept = swept(sweeps, family);
        let comma = if i + 1 == cov.families.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"family\": {}, \"anchor\": {}, \"vcs\": {vcs}, \
             \"schedules_swept\": {swept} }}{comma}\n",
            json_str(family),
            json_str(&format!("invariant::{family}::*")),
        ));
    }
    out.push_str("  ],\n");
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!("  \"unbacked\": [{}],\n", list(&cov.unbacked)));
    out.push_str(&format!(
        "  \"undocumented\": [{}]\n",
        list(&cov.undocumented)
    ));
    out.push_str("}\n");
    out
}

/// The audit's baseline-gated values, both exact floors: the registered
/// obligations may not fall below the baseline's `vcs_total`, nor the
/// registered invariant families below its `invariant_families`.
pub fn gates(vcs_total: usize, invariant_families: usize) -> [Gate; 2] {
    let floor = |key, registered: usize| Gate {
        key,
        better: Better::Higher,
        tolerance: 0.0,
        current: Current::Field(registered as f64),
    };
    [floor("vcs_total", vcs_total), floor("invariant_families", invariant_families)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{check, field_num};
    use veros_spec::vc::{VcEngine, VcKind};

    fn sample_report(n: usize) -> VcReport {
        let mut e = VcEngine::new();
        for i in 0..n {
            e.register("test", VcKind::Property, format!("vc_{i}"), || Ok(()));
        }
        e.run()
    }

    const WALL: Duration = Duration::from_millis(1);

    #[test]
    fn audit_json_has_one_line_per_vc_and_cdf() {
        let report = sample_report(4);
        let json = audit_json(&report, WALL);
        assert_eq!(json.matches("\"duration_ns\"").count(), 4);
        assert!(json.contains("\"cdf_ns\": ["));
        assert_eq!(field_num(&json, "vcs_total"), Some(4.0));
        assert_eq!(field_num(&json, "wall_ns"), Some(1_000_000.0));
    }

    #[test]
    fn baseline_round_trips_through_scanner() {
        let json = baseline_json(&sample_report(3), WALL, 5);
        assert_eq!(field_num(&json, "vcs_total"), Some(3.0));
        assert_eq!(field_num(&json, "invariant_families"), Some(5.0));
        assert_eq!(field_num(&json, "wall_ns"), Some(1_000_000.0));
    }

    const DOC: &str = "## 1. Durability\n\
         Anchored by `invariant::durability::*` (see the table).\n\
         ## 2. Exactly-once\n\
         Anchored by `invariant::exactly_once::*`; the instrument is\n\
         `invariant.violations` (a metric, not a glob).\n";

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn documented_globs_take_only_wellformed_backtick_spans() {
        let globs = documented_invariant_globs(DOC);
        assert_eq!(
            globs,
            ["invariant::durability::*", "invariant::exactly_once::*"]
        );
        // Prose mentions, dotted instrument names, and malformed spans
        // never count.
        assert!(documented_invariant_globs(
            "invariant::x::* without backticks, `invariant.x.schedules`, \
             `invariant::Bad-Name::*`, `invariant::::*`"
        )
        .is_empty());
    }

    #[test]
    fn coverage_mismatch_is_loud_in_both_directions() {
        // Balanced: two documented globs, two registered families.
        let pop = names(&[
            "invariant::durability::acked_survives_crash_s0",
            "invariant::durability::acked_survives_crash_s1",
            "invariant::exactly_once::applied_once_in_order_s0",
            "fs::unrelated_vc",
        ]);
        let cov = invariant_coverage(DOC, &pop);
        assert_eq!(cov.families.len(), 2);
        assert_eq!(cov.families[0], ("durability".to_string(), 2));
        assert!(cov.unbacked.is_empty() && cov.undocumented.is_empty());

        // A documented invariant nothing sweeps…
        let cov = invariant_coverage(DOC, &names(&["invariant::durability::x_s0"]));
        assert_eq!(cov.unbacked, ["invariant::exactly_once::*"]);
        // …and a swept family nothing documents.
        let cov = invariant_coverage(
            DOC,
            &names(&[
                "invariant::durability::x_s0",
                "invariant::exactly_once::y_s0",
                "invariant::ghost::z_s0",
            ]),
        );
        assert_eq!(cov.undocumented, ["invariant::ghost::*"]);
    }

    #[test]
    fn invariant_gate_fails_on_mismatch_and_family_floor() {
        // Mismatch in either direction is a hard violation.
        let cov = invariant_coverage(DOC, &names(&["invariant::ghost::z_s0"]));
        let gate = gate_invariants(&cov, &[], true);
        assert!(!gate.ok());
        assert!(gate.violations.iter().any(|v| v.contains("never swept")));
        assert!(gate.violations.iter().any(|v| v.contains("undocumented")));
        // A family dropped against the baseline fails its exact floor.
        let baseline = baseline_json(&sample_report(2), WALL, 5);
        assert!(check(&baseline, &gates(2, 5)).ok());
        let dropped = check(&baseline, &gates(2, 4));
        assert!(
            dropped.violations.len() == 1
                && dropped.violations[0].starts_with("invariant_families: 4"),
            "{:?}",
            dropped.violations
        );
    }

    #[test]
    fn sweep_floor_gates_every_run_and_skips_loudly_without_telemetry() {
        let cov = invariant_coverage(
            DOC,
            &names(&[
                "invariant::durability::x_s0",
                "invariant::exactly_once::y_s0",
            ]),
        );
        let deep = [
            ("durability".to_string(), 32),
            ("exactly_once".to_string(), 32),
        ];
        let gate = gate_invariants(&cov, &deep, true);
        assert!(gate.notes.iter().any(|n| n.contains("sweep floor: PASS")));

        // A shallow family is a violation…
        let shallow = [
            ("durability".to_string(), 3),
            ("exactly_once".to_string(), 32),
        ];
        let gate = gate_invariants(&cov, &shallow, true);
        assert!(gate
            .violations
            .iter()
            .any(|v| v.contains("durability") && v.contains("swept 3")));
        // …but a telemetry-off build, whose counters read 0, skips loudly.
        let gate = gate_invariants(&cov, &shallow, false);
        assert!(!gate.violations.iter().any(|v| v.contains("sweep")));
        assert!(gate
            .notes
            .iter()
            .any(|n| n.contains("telemetry compiled out")));
    }

    #[test]
    fn sweep_report_lists_every_family_with_its_counters() {
        let cov = invariant_coverage(DOC, &names(&[
            "invariant::durability::x_s0",
            "invariant::durability::x_s1",
            "invariant::exactly_once::y_s0",
        ]));
        let sweeps = [("durability".to_string(), 32), ("exactly_once".to_string(), 16)];
        let json = invariant_sweep_json(&cov, &sweeps, 0, true);
        assert!(json.contains("\"family\": \"durability\", \"anchor\": \"invariant::durability::*\", \"vcs\": 2, \"schedules_swept\": 32"));
        assert!(json.contains("\"schedules_swept\": 16"));
        assert_eq!(field_num(&json, "families"), Some(2.0));
        assert_eq!(field_num(&json, "violations"), Some(0.0));
        assert!(json.contains("\"unbacked\": []"));
    }
}
