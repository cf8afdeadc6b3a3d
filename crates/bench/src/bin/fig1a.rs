//! Regenerates Figure 1a: the CDF of all 220 verification conditions of
//! the page-table prototype, plus the §5 summary numbers (total time,
//! slowest single VC).
//!
//! Usage: `cargo run --release -p veros-bench --bin fig1a [--quick]`

use std::fmt::Write as _;

use veros_pagetable::vcs::{register_all, Profile, VC_COUNT};
use veros_spec::report::{human_duration, render_cdf};
use veros_spec::VcEngine;

fn main() {
    let quick = veros_bench::args::from_env(&["--quick"]).quick;
    let profile = if quick { Profile::Quick } else { Profile::Paper };
    eprintln!("running {VC_COUNT} verification conditions ({profile:?} profile)...");

    let mut engine = VcEngine::new();
    register_all(&mut engine, profile);
    assert_eq!(engine.len(), VC_COUNT);
    let report = engine.run();

    let mut out = String::new();
    let _ = writeln!(out, "Figure 1a: CDF of all {} verification conditions", report.total());
    let _ = writeln!(out, "{}", render_cdf(&report.cdf(), 60, 16));
    let _ = writeln!(out, "{}", report.summary());
    let _ = writeln!(out);
    let _ = writeln!(out, "breakdown by obligation kind:");
    for (kind, n) in report.count_by_kind() {
        let _ = writeln!(out, "  {:<8} {n}", kind.label());
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "paper reference: 220 VCs, total ~40s, max ~11s, all <= 11s");
    let _ = writeln!(
        out,
        "this run:        {} VCs, total {}, max {}",
        report.total(),
        human_duration(report.total_time()),
        human_duration(report.max_time())
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "slowest 10 verification conditions:");
    let mut outcomes: Vec<_> = report.outcomes.iter().collect();
    outcomes.sort_by_key(|o| std::cmp::Reverse(o.duration));
    for o in outcomes.iter().take(10) {
        let _ = writeln!(out, "  {:>10}  {}", human_duration(o.duration), o.vc.name);
    }

    if !report.all_passed() {
        let _ = writeln!(out, "\nFAILURES:");
        for f in report.failures() {
            let _ = writeln!(out, "  {}: {:?}", f.vc.name, f.status);
        }
    }
    print!("{out}");
    veros_bench::out::finish("fig1a.txt", &out, report.all_passed());
}
