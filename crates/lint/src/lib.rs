//! veros-lint: the workspace spec-discipline analyzer.
//!
//! The verified stack's guarantees (PAPER.md, DESIGN.md) rest on
//! conventions no type checker enforces: kernel-path code never
//! panics, every public op of a verified surface has a registered
//! verification condition, and every module documents its role. This
//! crate makes those conventions machine-checked: a hand-rolled lexer
//! ([`lexer`]), a workspace model that walks the tree once ([`source`])
//! and a registry of line lints ([`lints`]), behind a `veros-lint`
//! binary. What the compiler can check is left to it: every `unsafe`
//! block and every atomic lives in `veros-sync`, every other library
//! root forbids `unsafe_code`, clippy denies an `unsafe` block without
//! a `SAFETY:` comment, and the root `clippy.toml` disallows the atomic
//! types outside `veros-sync`, whose types take no ordering from their
//! callers. No external dependencies, so it builds offline with the
//! rest of the workspace.
//!
//! A finding is accepted in one way only: a reasoned inline
//! `// lint: allow(<id>) — reason` next to the code it excuses. There
//! is no findings list kept elsewhere. Run it as CI does:
//!
//! ```text
//! cargo run -p veros-lint
//! ```

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;

use std::io;
use std::path::Path;

/// What one run over a workspace found.
pub struct Report {
    /// Number of `.rs` files loaded.
    pub files: usize,
    /// Every lint's findings, sorted by file, line and ID.
    pub findings: Vec<diag::Diagnostic>,
}

/// Loads the workspace at `root` once and runs every lint over it.
pub fn check(root: &Path) -> io::Result<Report> {
    let ws = source::Workspace::load(root)?;
    Ok(Report {
        files: ws.files.len(),
        findings: lints::run_all(&ws),
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
            ["panic-freedom", "obligation-coverage", "doc-header"]
        );
    }

    #[test]
    fn run_all_sorts_by_file_then_line() {
        let ws = source::Workspace::from_sources(&[
            ("crates/nr/src/b.rs", "fn f() { x().unwrap() }\n"),
            ("crates/nr/src/a.rs", "v.unwrap();\ny().unwrap();\n"),
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
