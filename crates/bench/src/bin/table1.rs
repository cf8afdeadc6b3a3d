//! Regenerates Table 1: comparison of OS verification projects.

use std::fmt::Write as _;

use veros_bench::survey;

fn main() {
    let (rows, cells) = survey::table1();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        survey::render("Table 1: Comparison of OS verification projects", &rows, &cells)
    );
    let _ = writeln!(out, "legend: y = yes, n = no, (y) = partial (paper's checkmark-in-parens)");
    let _ = writeln!(out);
    let _ = writeln!(out, "veros column provenance:");
    let _ = writeln!(out, "  Kernel memory safety      safe Rust throughout; unsafe blocks only in veros-sync");
    let _ = writeln!(out, "                            (every other crate root forbids unsafe_code), each with");
    let _ = writeln!(out, "                            a clippy-enforced SAFETY argument + stress/Miri tests");
    let _ = writeln!(out, "  Specification refinement  veros-core::theorem (kernel refines Sys spec, checked)");
    let _ = writeln!(out, "  Security properties       not claimed (the paper defers these too)");
    let _ = writeln!(out, "  Multi-processor support   veros-nr, linearizability-checked (os-contract::nr VCs)");
    let _ = writeln!(out, "  Process-centric spec      veros-core::sys_spec + view() grounded in the MMU");
    print!("{out}");
    veros_bench::out::finish("table1.txt", &out, !cells.is_empty());
}
