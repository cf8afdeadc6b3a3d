//! veros-lint: the workspace spec-discipline analyzer.
//!
//! The verified stack's guarantees (PAPER.md, DESIGN.md) rest on
//! conventions no type checker enforces: `unsafe` sites carry audited
//! `SAFETY:` arguments, kernel-path code never panics, every public op
//! of a verified surface has a registered verification condition,
//! relaxed atomics in the NR layer are individually reviewed, and every
//! module documents its role. This crate makes those conventions
//! machine-checked: a hand-rolled lexer ([`lexer`]), a workspace model
//! ([`source`]) (both hosted by `veros-atlas` and shared with its item
//! graph), a lint registry ([`lints`]) and flow-aware
//! concurrency-protocol passes over the atlas access table
//! ([`protocol`]), behind a `veros-lint` binary. No external
//! dependencies, so it builds offline with the rest of the workspace.
//!
//! A finding is accepted in one way only: a reasoned inline
//! `// lint: allow(<id>) — reason` next to the code it excuses. There
//! is no findings list kept elsewhere. Run it as CI does:
//!
//! ```text
//! cargo run -p veros-lint -- --gate
//! ```

pub mod diag;
pub mod lints;
pub mod protocol;

// The lexer and workspace model moved into `veros-atlas` so the atlas
// item graph and the lints share one scanner; re-export them under the
// historical paths so `veros_lint::source::Workspace` keeps working.
pub use veros_atlas::{lexer, source};

use std::io;
use std::path::Path;

/// Loads the workspace at `root` and runs the full registry plus the
/// protocol passes, returning findings sorted by file and line.
pub fn check(root: &Path) -> io::Result<Vec<diag::Diagnostic>> {
    let ws = source::Workspace::load(root)?;
    let mut out = lints::run_all(&ws);
    protocol::Analysis::load(root)?.run(&mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let ids: Vec<&str> = lints::registry().iter().map(|l| l.id()).collect();
        assert_eq!(
            ids,
            [
                "unsafe-audit",
                "panic-freedom",
                "obligation-coverage",
                "atomics-ordering",
                "doc-header"
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
