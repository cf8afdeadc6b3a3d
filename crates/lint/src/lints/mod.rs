//! The check registry: every lint walks the [`Workspace`] and emits
//! [`Diagnostic`]s with a stable ID.

use crate::diag::Diagnostic;
use crate::source::Workspace;

mod doc_header;
mod obligation_coverage;
mod panic_freedom;

/// One check `veros-lint` runs.
pub struct Lint {
    /// Stable ID: what `--list` prints and a `// lint: allow(<id>)`
    /// names.
    pub id: &'static str,
    /// One-line description for `--list`.
    pub describe: &'static str,
    /// Runs the lint over the whole workspace, appending findings.
    pub run: fn(&Workspace, &mut Vec<Diagnostic>),
}

/// Every check, in reporting and `--list` order.
pub const REGISTRY: [Lint; 3] = [panic_freedom::LINT, obligation_coverage::LINT, doc_header::LINT];

/// Runs every lint and returns findings sorted by file, line, lint.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for lint in &REGISTRY {
        (lint.run)(ws, &mut out);
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    out
}
