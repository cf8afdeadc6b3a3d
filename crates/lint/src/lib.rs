//! veros-lint: the workspace spec-discipline analyzer.
//!
//! The verified stack's guarantees (PAPER.md, DESIGN.md) rest on
//! conventions no type checker enforces: `unsafe` sites carry audited
//! `SAFETY:` arguments, kernel-path code never panics, every public op
//! of a verified surface has a registered verification condition,
//! relaxed atomics in the NR layer are individually reviewed, and every
//! module documents its role. This crate makes those conventions
//! machine-checked: a hand-rolled lexer ([`lexer`]), a workspace model
//! that walks the tree once ([`source`]), a check registry ([`lints`]),
//! and a concurrency-protocol pass ([`protocol`]) over the extracted
//! items (`model`) and a per-field atomic access table (`access`),
//! behind a `veros-lint` binary. Lock and seqlock discipline are left
//! to the type checker: a field touched only under a lock lives inside
//! the value the lock guards, and seqlock-published words live inside
//! `veros_telemetry::SeqSlot`. No external dependencies, so it builds
//! offline with the rest of the workspace.
//!
//! A finding is accepted in one way only: a reasoned inline
//! `// lint: allow(<id>) — reason` next to the code it excuses. There
//! is no findings list kept elsewhere. Run it as CI does:
//!
//! ```text
//! cargo run -p veros-lint -- --gate
//! ```

mod access;
pub mod diag;
pub mod lexer;
pub mod lints;
mod model;
pub mod protocol;
pub mod source;

use std::io;
use std::path::Path;

/// What one run over a workspace found.
pub struct Report {
    /// Number of `.rs` files loaded.
    pub files: usize,
    /// Every check's findings, sorted by file, line and ID.
    pub findings: Vec<diag::Diagnostic>,
    /// The protocol pass's anti-vacuity counters.
    pub counters: protocol::Counters,
}

/// Loads the workspace at `root` once and runs every check over it: the
/// line lints, then the protocol pass.
pub fn check(root: &Path) -> io::Result<Report> {
    let ws = source::Workspace::load(root)?;
    let mut findings = lints::run_all(&ws);
    let counters = protocol::Analysis::new(&ws).run(&mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(Report {
        files: ws.files.len(),
        findings,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let ids: Vec<&str> = lints::REGISTRY.iter().map(|l| l.id).collect();
        assert_eq!(
            ids,
            [
                "unsafe-audit",
                "panic-freedom",
                "obligation-coverage",
                "atomics-ordering",
                "doc-header",
                "publication-pairing"
            ]
        );
    }

    #[test]
    fn run_all_sorts_by_file_then_line() {
        let ws = source::Workspace::from_sources(&[
            ("crates/nr/src/b.rs", "fn f() { unsafe { x() } }\n"),
            ("crates/nr/src/a.rs", "v.unwrap();\nunsafe { y() }\n"),
        ]);
        let out = lints::run_all(&ws);
        // Every finding present and ordered.
        let pos: Vec<(&str, usize)> = out.iter().map(|d| (d.file.as_str(), d.line)).collect();
        let mut sorted = pos.clone();
        sorted.sort();
        assert_eq!(pos, sorted);
        assert!(out.iter().any(|d| d.lint == "doc-header"));
        assert!(out.iter().any(|d| d.lint == "panic-freedom" && d.severity == Severity::Error));
    }
}
