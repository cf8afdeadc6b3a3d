//! Shared machinery for the `audit` binary: the `AUDIT.json` artifact,
//! the committed `BENCH_audit.json` baseline, and the gate logic that
//! compares a fresh run against it.
//!
//! Two families of gates ride on the baseline:
//!
//! * **Map coverage** (always enforced): the dependency map's
//!   under-approximation counters — runtime files the parser cannot
//!   see, item headers the extractor missed, register sites with no
//!   recoverable name pattern, and VC names no site claims — must stay
//!   at or under the committed maxima (all zero). Over-approximation
//!   is free; silent under-approximation is the one failure mode the
//!   atlas must never have.
//! * **Parallel speedup** (parallelism-aware): on a full-profile,
//!   full-population run, the parallel executor must beat the serial
//!   cost (`sum of per-VC durations / wall clock`) by the committed
//!   factor. A host with fewer cores than the committed threshold
//!   physically cannot show the speedup, so the gate records the
//!   measured number and skips **loudly** instead of failing — CI
//!   runners (≥ the threshold) enforce it for real.
//! * **Invariant coverage** (always enforced): the backticked
//!   `invariant::<family>::*` globs in `INVARIANTS.md` and the
//!   registered `invariant::*` VC families must match exactly, both
//!   directions — a documented invariant nothing sweeps and a swept
//!   family nothing documents are equally hard failures. The
//!   per-family fault-schedule floor rides the telemetry counters and
//!   applies (like the speedup gate) only to full-profile,
//!   full-population runs on telemetry-enabled builds; anything else
//!   skips loudly.

use std::time::Duration;

use veros_atlas::Coverage;
use veros_spec::vc::{VcReport, VcStatus};

use crate::baseline::field_num;

/// Shape of one audit run: what was selected, how it was executed.
#[derive(Clone, Debug)]
pub struct AuditRun {
    /// Quick profile (PR CI) rather than the paper-scale full profile.
    pub quick: bool,
    /// `--changed-since` selection was applied.
    pub incremental: bool,
    /// Obligations registered before any selection.
    pub total_registered: usize,
    /// Obligations actually run.
    pub selected: usize,
    /// `available_parallelism()` on this host.
    pub host_cores: usize,
    /// Worker threads used (1 = serial).
    pub threads: usize,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl AuditRun {
    /// Serial-equivalent cost: the sum of per-VC durations, i.e. what
    /// a one-thread run of the same population would have cost.
    pub fn serial_equiv(report: &VcReport) -> Duration {
        report.total_time()
    }

    /// Measured speedup over the serial-equivalent cost.
    pub fn speedup(&self, report: &VcReport) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        Self::serial_equiv(report).as_secs_f64() / wall
    }
}

/// Map-coverage counters in gate-ready form.
#[derive(Clone, Copy, Debug, Default)]
pub struct MapStats {
    pub files: usize,
    pub items: usize,
    pub edges: usize,
    pub sites: usize,
    pub unparsed: usize,
    pub stray_headers: usize,
    pub unpatterned_sites: usize,
    /// Registered VC names no site pattern claims.
    pub unanchored: usize,
}

impl MapStats {
    /// Collapses a [`Coverage`] plus the engine-side unanchored count.
    pub fn from_coverage(cov: &Coverage, unanchored: usize) -> Self {
        MapStats {
            files: cov.files,
            items: cov.items,
            edges: cov.edges,
            sites: cov.sites,
            unparsed: cov.unparsed.len(),
            stray_headers: cov.stray_headers.len(),
            unpatterned_sites: cov.unpatterned_sites.len(),
            unanchored,
        }
    }
}

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

fn speedup_milli(run: &AuditRun, report: &VcReport) -> u64 {
    (run.speedup(report) * 1000.0).round() as u64
}

/// Renders the full `AUDIT.json` artifact: run shape, map coverage,
/// the Figure-1a CDF series, and one line per VC (the line-oriented
/// discipline every `BENCH_*.json` scanner in this crate relies on).
pub fn audit_json(run: &AuditRun, report: &VcReport, stats: &MapStats) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"audit\",\n");
    out.push_str(&format!("  \"quick\": {},\n", run.quick));
    out.push_str(&format!("  \"incremental\": {},\n", run.incremental));
    out.push_str(&format!(
        "  \"total_registered\": {},\n",
        run.total_registered
    ));
    out.push_str(&format!("  \"selected\": {},\n", run.selected));
    out.push_str(&format!("  \"host_cores\": {},\n", run.host_cores));
    out.push_str(&format!("  \"threads\": {},\n", run.threads));
    out.push_str(&format!("  \"wall_ns\": {},\n", ns(run.wall)));
    out.push_str(&format!(
        "  \"serial_equiv_ns\": {},\n",
        ns(AuditRun::serial_equiv(report))
    ));
    out.push_str(&format!(
        "  \"speedup_milli\": {},\n",
        speedup_milli(run, report)
    ));
    out.push_str(&format!("  \"failures\": {},\n", report.failures().len()));
    out.push_str("  \"map\": { ");
    out.push_str(&format!(
        "\"files\": {}, \"items\": {}, \"edges\": {}, \"sites\": {}, \
         \"unparsed\": {}, \"stray_headers\": {}, \"unpatterned_sites\": {}, \
         \"unanchored\": {}",
        stats.files,
        stats.items,
        stats.edges,
        stats.sites,
        stats.unparsed,
        stats.stray_headers,
        stats.unpatterned_sites,
        stats.unanchored
    ));
    out.push_str(" },\n");
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
            "    {{ \"name\": \"{}\", \"kind\": \"{}\", \"duration_ns\": {}, \"passed\": {} }}{comma}\n",
            escape(&o.vc.name),
            o.vc.kind.label(),
            ns(o.duration),
            o.status == VcStatus::Passed
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Renders the committed `BENCH_audit.json` baseline: the measured
/// numbers of a reference full run plus the gate thresholds the next
/// run is held to.
pub fn baseline_json(
    run: &AuditRun,
    report: &VcReport,
    stats: &MapStats,
    invariant_families: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"audit\",\n");
    out.push_str(&format!("  \"quick\": {},\n", run.quick));
    out.push_str(&format!("  \"host_cores\": {},\n", run.host_cores));
    out.push_str(&format!("  \"vcs_total\": {},\n", run.total_registered));
    out.push_str(&format!(
        "  \"invariant_families\": {invariant_families},\n"
    ));
    out.push_str(&format!("  \"wall_ns\": {},\n", ns(run.wall)));
    out.push_str(&format!(
        "  \"serial_equiv_ns\": {},\n",
        ns(AuditRun::serial_equiv(report))
    ));
    out.push_str(&format!(
        "  \"speedup_milli\": {},\n",
        speedup_milli(run, report)
    ));
    out.push_str(&format!("  \"map_files\": {},\n", stats.files));
    out.push_str(&format!("  \"map_sites\": {},\n", stats.sites));
    out.push_str("  \"min_speedup_milli\": 2000,\n");
    out.push_str("  \"speedup_gate_min_cores\": 4,\n");
    out.push_str("  \"min_invariant_families\": 6,\n");
    out.push_str("  \"min_invariant_schedules\": 8,\n");
    out.push_str("  \"max_unparsed\": 0,\n");
    out.push_str("  \"max_stray_headers\": 0,\n");
    out.push_str("  \"max_unpatterned_sites\": 0,\n");
    out.push_str("  \"max_unanchored\": 0\n");
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
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

/// Matches the documented globs against the registered VC names (the
/// full pre-selection population — incremental runs must not hide a
/// coverage hole) and reports the mismatches in both directions.
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

/// Gates the invariant population against the committed baseline:
/// doc↔code mismatches and a family-count floor are enforced on every
/// run; the per-family schedule floor (read from the telemetry
/// counters in `sweeps`) applies only where the counters are
/// meaningful — a full-profile, full-population run on a
/// telemetry-enabled build — and skips loudly everywhere else.
pub fn gate_invariants(
    run: &AuditRun,
    cov: &InvariantCoverage,
    sweeps: &[(String, u64)],
    telemetry: bool,
    baseline: &str,
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
    let min_families = field_num(baseline, "min_invariant_families").unwrap_or(6.0) as usize;
    if cov.families.len() < min_families {
        out.violations.push(format!(
            "invariant coverage: {} famil{} registered, baseline requires >= {min_families}",
            cov.families.len(),
            if cov.families.len() == 1 { "y" } else { "ies" },
        ));
    } else if cov.unbacked.is_empty() && cov.undocumented.is_empty() {
        out.notes.push(format!(
            "invariant coverage: PASS ({} families, all documented and backed)",
            cov.families.len()
        ));
    }

    let min_schedules = field_num(baseline, "min_invariant_schedules").unwrap_or(8.0) as u64;
    if run.quick || run.incremental || run.selected != run.total_registered {
        out.notes.push(
            "invariant sweep floor: SKIPPED (applies to full-profile full-population runs only)"
                .to_string(),
        );
    } else if !telemetry {
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
                     schedule(s), baseline requires >= {min_schedules}"
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
        let swept = sweeps
            .iter()
            .find(|(f, _)| f == family)
            .map_or(0, |(_, n)| *n);
        let comma = if i + 1 == cov.families.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"family\": \"{}\", \"anchor\": \"invariant::{}::*\", \"vcs\": {vcs}, \
             \"schedules_swept\": {swept} }}{comma}\n",
            escape(family),
            escape(family),
        ));
    }
    out.push_str("  ],\n");
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| format!("\"{}\"", escape(s)))
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

/// The result of gating a run against the committed baseline.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// Hard failures — a non-empty list fails the audit.
    pub violations: Vec<String>,
    /// Loud skips and context, printed but never failing.
    pub notes: Vec<String>,
}

impl GateResult {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Gates a fresh run against a committed `BENCH_audit.json`.
///
/// Map-coverage maxima are enforced on every run (the map is built
/// either way). The speedup gate applies only to a full-profile,
/// full-population parallel run, and only on hosts with at least the
/// committed core count — anything else records the measured number
/// and skips loudly.
pub fn gate_against(
    run: &AuditRun,
    report: &VcReport,
    stats: &MapStats,
    baseline: &str,
) -> GateResult {
    let mut out = GateResult::default();
    let max = |key: &str| field_num(baseline, key).unwrap_or(0.0) as usize;
    let coverage_gates = [
        ("unparsed", stats.unparsed, max("max_unparsed")),
        ("stray_headers", stats.stray_headers, max("max_stray_headers")),
        (
            "unpatterned_sites",
            stats.unpatterned_sites,
            max("max_unpatterned_sites"),
        ),
        ("unanchored", stats.unanchored, max("max_unanchored")),
    ];
    for (name, actual, ceiling) in coverage_gates {
        if actual > ceiling {
            out.violations.push(format!(
                "map coverage: {name} = {actual} exceeds baseline max {ceiling} — \
                 the dependency map is under-approximating"
            ));
        }
    }

    let min_speedup = field_num(baseline, "min_speedup_milli").unwrap_or(2000.0) / 1000.0;
    let min_cores = field_num(baseline, "speedup_gate_min_cores").unwrap_or(4.0) as usize;
    let speedup = run.speedup(report);
    if run.quick || run.incremental || run.selected != run.total_registered {
        out.notes.push(format!(
            "speedup gate: SKIPPED (applies to full-profile full-population runs only); \
             measured {speedup:.2}x"
        ));
    } else if run.threads < 2 {
        out.notes.push(format!(
            "speedup gate: SKIPPED (serial run); measured {speedup:.2}x"
        ));
    } else if run.host_cores < min_cores {
        out.notes.push(format!(
            "speedup gate: SKIPPED — host has {} core(s), gate requires >= {min_cores}; \
             measured {speedup:.2}x recorded in AUDIT.json",
            run.host_cores
        ));
    } else if speedup < min_speedup {
        out.violations.push(format!(
            "speedup gate: parallel run achieved {speedup:.2}x over serial-equivalent, \
             baseline requires >= {min_speedup:.2}x on {} core(s)",
            run.host_cores
        ));
    } else {
        out.notes
            .push(format!("speedup gate: PASS ({speedup:.2}x >= {min_speedup:.2}x)"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use veros_spec::vc::{VcEngine, VcKind};

    fn sample_report(n: usize) -> VcReport {
        let mut e = VcEngine::new();
        for i in 0..n {
            e.register("test", VcKind::Property, format!("vc_{i}"), move || {
                std::thread::sleep(Duration::from_micros(200));
                Ok(())
            });
        }
        e.run()
    }

    fn full_run(report: &VcReport, cores: usize, threads: usize, wall: Duration) -> AuditRun {
        AuditRun {
            quick: false,
            incremental: false,
            total_registered: report.total(),
            selected: report.total(),
            host_cores: cores,
            threads,
            wall,
        }
    }

    #[test]
    fn audit_json_has_one_line_per_vc_and_cdf() {
        let report = sample_report(4);
        let run = full_run(&report, 8, 4, Duration::from_millis(1));
        let json = audit_json(&run, &report, &MapStats::default());
        assert_eq!(json.matches("\"duration_ns\"").count(), 4);
        assert!(json.contains("\"cdf_ns\": ["));
        assert!(json.contains("\"map\": {"));
        assert!(field_num(&json, "selected") == Some(4.0));
    }

    #[test]
    fn baseline_round_trips_through_scanner() {
        let report = sample_report(3);
        let run = full_run(&report, 8, 4, Duration::from_millis(1));
        let json = baseline_json(&run, &report, &MapStats::default(), 5);
        assert_eq!(field_num(&json, "vcs_total"), Some(3.0));
        assert_eq!(field_num(&json, "min_speedup_milli"), Some(2000.0));
        assert_eq!(field_num(&json, "max_unanchored"), Some(0.0));
    }

    #[test]
    fn coverage_gate_fails_on_under_approximation() {
        let report = sample_report(2);
        let run = full_run(&report, 8, 4, Duration::from_millis(1));
        let baseline = baseline_json(&run, &report, &MapStats::default(), 5);
        let bad = MapStats {
            unanchored: 1,
            ..MapStats::default()
        };
        let gate = gate_against(&run, &report, &bad, &baseline);
        assert!(!gate.ok());
        assert!(gate.violations[0].contains("unanchored"));
    }

    #[test]
    fn speedup_gate_enforced_on_big_hosts_only() {
        let report = sample_report(8);
        let serial_equiv = report.total_time();
        // Fast wall clock: a genuine parallel win.
        let fast = full_run(&report, 8, 4, serial_equiv / 3);
        let baseline = baseline_json(&fast, &report, &MapStats::default(), 5);
        let gate = gate_against(&fast, &report, &MapStats::default(), &baseline);
        assert!(gate.ok(), "{:?}", gate.violations);
        assert!(gate.notes.iter().any(|n| n.contains("PASS")));

        // Slow wall clock on a big host: violation.
        let slow = full_run(&report, 8, 4, serial_equiv);
        let gate = gate_against(&slow, &report, &MapStats::default(), &baseline);
        assert!(!gate.ok());
        assert!(gate.violations[0].contains("speedup gate"));

        // Same slow wall clock on a single-core host: loud skip.
        let tiny = full_run(&report, 1, 4, serial_equiv);
        let gate = gate_against(&tiny, &report, &MapStats::default(), &baseline);
        assert!(gate.ok());
        assert!(gate.notes.iter().any(|n| n.contains("SKIPPED") && n.contains("core")));
    }

    /// The acceptance scenario end to end: an engine registers a VC no
    /// site pattern claims; the map reports it unanchored and the
    /// baseline gate turns that into a hard violation.
    #[test]
    fn intentionally_unanchored_vc_fails_the_gate_loudly() {
        let map = veros_atlas::DepMap::from_sources(&[(
            "crates/x/src/vcs.rs",
            "pub fn reg(engine: &mut VcEngine) {\n\
             \x20   engine.register(\"m\", VcKind::Property, \"x::anchored\", || Ok(()));\n\
             }\n",
        )]);
        let names = ["x::anchored", "x::ghost_obligation"];
        let unanchored: Vec<&str> = names
            .iter()
            .filter(|n| map.footprint(n).is_none())
            .copied()
            .collect();
        assert_eq!(unanchored, ["x::ghost_obligation"]);

        let report = sample_report(names.len());
        let run = full_run(&report, 8, 4, report.total_time() / 3);
        let clean = MapStats::from_coverage(&map.coverage(), 0);
        let baseline = baseline_json(&run, &report, &clean, 5);
        let stats = MapStats::from_coverage(&map.coverage(), unanchored.len());
        let gate = gate_against(&run, &report, &stats, &baseline);
        assert!(!gate.ok());
        assert!(gate.violations.iter().any(|v| v.contains("unanchored")));
    }

    #[test]
    fn speedup_gate_skipped_for_incremental_and_quick() {
        let report = sample_report(4);
        let mut run = full_run(&report, 8, 4, report.total_time());
        let baseline = baseline_json(&run, &report, &MapStats::default(), 5);
        run.incremental = true;
        run.selected = 2;
        let gate = gate_against(&run, &report, &MapStats::default(), &baseline);
        assert!(gate.ok());
        run.incremental = false;
        run.selected = 4;
        run.quick = true;
        let gate = gate_against(&run, &report, &MapStats::default(), &baseline);
        assert!(gate.ok());
        assert!(gate.notes.iter().any(|n| n.contains("full-profile")));
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
        let report = sample_report(2);
        let run = full_run(&report, 8, 4, Duration::from_millis(1));
        let baseline = baseline_json(&run, &report, &MapStats::default(), 5);
        // Mismatch in either direction is a hard violation even on a
        // quick run (names are known pre-selection).
        let cov = invariant_coverage(DOC, &names(&["invariant::ghost::z_s0"]));
        let gate = gate_invariants(&run, &cov, &[], true, &baseline);
        assert!(!gate.ok());
        assert!(gate.violations.iter().any(|v| v.contains("never swept")));
        assert!(gate.violations.iter().any(|v| v.contains("undocumented")));
        // Two balanced families still sit under the committed floor of 6.
        let cov = invariant_coverage(
            DOC,
            &names(&[
                "invariant::durability::x_s0",
                "invariant::exactly_once::y_s0",
            ]),
        );
        let gate = gate_invariants(&run, &cov, &[], true, &baseline);
        assert!(gate
            .violations
            .iter()
            .any(|v| v.contains("baseline requires >= 6")));
    }

    #[test]
    fn sweep_floor_gates_full_runs_and_skips_loudly_elsewhere() {
        let report = sample_report(2);
        let mut run = full_run(&report, 8, 4, Duration::from_millis(1));
        let baseline = baseline_json(&run, &report, &MapStats::default(), 5);
        let cov = invariant_coverage(DOC, &names(&[
            "invariant::durability::x_s0",
            "invariant::exactly_once::y_s0",
        ]));
        let deep = [("durability".to_string(), 32), ("exactly_once".to_string(), 32)];
        let gate = gate_invariants(&run, &cov, &deep, true, &baseline);
        assert!(gate.notes.iter().any(|n| n.contains("sweep floor: PASS")));

        // A shallow family on a full run is a violation…
        let shallow = [("durability".to_string(), 3), ("exactly_once".to_string(), 32)];
        let gate = gate_invariants(&run, &cov, &shallow, true, &baseline);
        assert!(gate
            .violations
            .iter()
            .any(|v| v.contains("durability") && v.contains("swept 3")));
        // …but quick runs and telemetry-off builds skip loudly instead.
        run.quick = true;
        let gate = gate_invariants(&run, &cov, &shallow, true, &baseline);
        assert!(!gate.violations.iter().any(|v| v.contains("sweep")));
        assert!(gate.notes.iter().any(|n| n.contains("full-profile")));
        run.quick = false;
        let gate = gate_invariants(&run, &cov, &shallow, false, &baseline);
        assert!(!gate.violations.iter().any(|v| v.contains("sweep")));
        assert!(gate.notes.iter().any(|n| n.contains("telemetry compiled out")));
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
