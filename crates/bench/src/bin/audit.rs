//! Runs the full OS-contract verification-condition population — the
//! "vision" half of the paper made checkable: §3 obligations, the §4.4
//! refinement theorem, scheduler sanity, NR linearizability, filesystem
//! crash safety, and the network transport spec.
//!
//! Every run registers the whole population and runs it serially, in
//! registration order, so each VC's duration is measured on an
//! otherwise idle core:
//!
//! * Every run writes `results/AUDIT.json` (per-VC durations and the
//!   Figure-1a CDF series) and gates itself against the committed
//!   `BENCH_audit.json` at the workspace root: fewer registered
//!   obligations than its `vcs_total`, or fewer invariant families
//!   than its `invariant_families`, fails. A missing or unreadable
//!   committed file exits 2 before anything runs.
//! * Every run also writes `results/BENCH_audit.json`, the baseline
//!   this run would commit, like every other gated bench: refresh the
//!   committed file by copying it.
//! * Every run also checks the registered `invariant::*` families
//!   against the backticked anchors in `INVARIANTS.md` — loud in both
//!   directions — and writes `results/INVARIANTS_SWEEP.json` with each
//!   `FAMILIES` row's fault-schedule counter, each held to
//!   `MIN_SCHEDULES`.
//! * `--schedules N` deepens every invariant sweep to N fault
//!   schedules per VC (nightly deep sweeps). Values below
//!   `MIN_SCHEDULES` are clamped up so the pinned corner schedules are
//!   never dropped.
//!
//! Usage: `cargo run --release -p veros-bench --bin audit [--schedules N]`

use std::fmt::Write as _;
use std::time::Instant;

use veros_bench::audit::{
    audit_json, baseline_json, gate_invariants, gates, invariant_coverage, invariant_sweep_json,
    swept, MIN_SCHEDULES,
};
use veros_bench::baseline;
use veros_bench::ratio::workspace_root;
use veros_core::invariants::FAMILIES;
use veros_core::vcs::{register_all_with, Profile};
use veros_spec::report::{human_duration, render_cdf};
use veros_spec::VcEngine;

const BASELINE: &str = "BENCH_audit.json";

fn main() {
    let args = veros_bench::args::from_env(&["--schedules"]);
    let root = workspace_root();
    let baseline_text = baseline::read_committed(BASELINE).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // --schedules deepens the per-VC fault-schedule sweep without
    // changing the VC population. Shallower requests would drop the
    // pinned corner schedules, so they are clamped, loudly.
    let schedules = args.schedules.map(|n| {
        if n < MIN_SCHEDULES {
            eprintln!(
                "--schedules {n} clamped to {MIN_SCHEDULES}: corner schedules (wire tiers x \
                 crash corners) are only all pinned from {MIN_SCHEDULES} schedules up"
            );
            MIN_SCHEDULES
        } else {
            n
        }
    });
    let mut engine = VcEngine::new();
    register_all_with(&mut engine, Profile::Full, schedules);
    let names = engine.names();

    // Invariant doc↔code coverage. A missing INVARIANTS.md is a hard
    // failure, not a silent empty-glob pass — the coverage gate exists
    // to keep the document and the sweeps pointing at each other.
    let invariants_path = root.join("INVARIANTS.md");
    let invariants_doc = std::fs::read_to_string(&invariants_path);
    let inv_cov = invariant_coverage(invariants_doc.as_deref().unwrap_or(""), &names);

    eprintln!(
        "running {} OS-contract verification conditions (serial)...",
        names.len()
    );
    let start = Instant::now();
    let report = engine.run();
    let wall = start.elapsed();

    let mut out = String::new();
    let _ = writeln!(out, "Full-stack OS contract audit");
    let _ = writeln!(out, "{}", render_cdf(&report.cdf(), 60, 12));
    let _ = writeln!(out, "{}", report.summary());
    let _ = writeln!(
        out,
        "wall {} (serial, registration order)",
        human_duration(wall)
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "by obligation kind:");
    for (kind, n) in report.count_by_kind() {
        let _ = writeln!(out, "  {:<8} {n}", kind.label());
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "slowest 10:");
    let mut outcomes: Vec<_> = report.outcomes.iter().collect();
    outcomes.sort_by_key(|o| std::cmp::Reverse(o.duration));
    for o in outcomes.iter().take(10) {
        let _ = writeln!(out, "  {:>10}  {}", human_duration(o.duration), o.vc.name);
    }

    // Per-family fault-schedule counters, read after the run so they
    // reflect exactly what the population swept.
    let sweeps: Vec<(String, u64)> = FAMILIES
        .iter()
        .map(|f| (f.name.to_string(), f.counter.get()))
        .collect();

    let gate = baseline::check(
        &baseline_text,
        &gates(report.total(), inv_cov.families.len()),
    );

    // Doc↔code coverage is a property of the tree, not of a reference
    // measurement.
    let mut inv_gate = gate_invariants(&inv_cov, &sweeps, veros_telemetry::enabled());
    if invariants_doc.is_err() {
        inv_gate.violations.insert(
            0,
            format!(
                "INVARIANTS.md missing at {} — every registered invariant family is \
                 undocumented until it is restored",
                invariants_path.display()
            ),
        );
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "end-to-end invariants:");
    for (family, vcs) in &inv_cov.families {
        let _ = writeln!(
            out,
            "  invariant::{family}::*  {vcs} VC(s), swept {} fault schedule(s)",
            swept(&sweeps, family)
        );
    }
    for n in &inv_gate.notes {
        let _ = writeln!(out, "  {n}");
    }
    for v in &inv_gate.violations {
        let _ = writeln!(out, "  VIOLATION: {v}");
    }

    let _ = writeln!(out);
    out.push_str(&baseline::render(BASELINE, &gate));

    if !report.all_passed() {
        let _ = writeln!(out, "\nFAILURES:");
        for f in report.failures() {
            let _ = writeln!(out, "  {}: {:?}", f.vc.name, f.status);
        }
    }
    print!("{out}");

    if let Err(e) = veros_bench::out::write_result("AUDIT.json", &audit_json(&report, wall)) {
        eprintln!("cannot write AUDIT.json: {e}");
        std::process::exit(2);
    }
    let sweep_report = invariant_sweep_json(
        &inv_cov,
        &sweeps,
        veros_core::metrics::VIOLATIONS.get(),
        veros_telemetry::enabled(),
    );
    if let Err(e) = veros_bench::out::write_result("INVARIANTS_SWEEP.json", &sweep_report) {
        eprintln!("cannot write INVARIANTS_SWEEP.json: {e}");
        std::process::exit(2);
    }
    if let Err(e) = veros_bench::out::write_result(
        BASELINE,
        &baseline_json(&report, wall, inv_cov.families.len()),
    ) {
        eprintln!("cannot write BENCH_audit.json: {e}");
        std::process::exit(2);
    }
    veros_bench::out::finish(
        "audit.txt",
        &out,
        report.all_passed() && gate.ok() && inv_gate.ok(),
    );
}
