//! The check registry: every line lint walks the [`Workspace`] and
//! emits [`Diagnostic`]s with a stable ID; the protocol pass is listed
//! here too, so one table names every ID.

use crate::diag::Diagnostic;
use crate::protocol;
use crate::source::Workspace;

mod atomics_ordering;
mod doc_header;
mod obligation_coverage;
mod panic_freedom;
mod unsafe_audit;

/// One check `veros-lint` runs.
pub struct Lint {
    /// Stable ID: what `--list` prints and a `// lint: allow(<id>)`
    /// names.
    pub id: &'static str,
    /// One-line description for `--list`.
    pub describe: &'static str,
    /// Runs a line lint over the whole workspace, appending findings.
    /// `None` for the protocol pass, which runs over its own analysis
    /// in [`protocol::Analysis::run`].
    pub run: Option<fn(&Workspace, &mut Vec<Diagnostic>)>,
}

/// Every check, in reporting and `--list` order: the line lints, then
/// the protocol pass.
pub const REGISTRY: [Lint; 6] = [
    unsafe_audit::LINT,
    panic_freedom::LINT,
    obligation_coverage::LINT,
    atomics_ordering::LINT,
    doc_header::LINT,
    Lint {
        id: protocol::PUBLICATION,
        describe: "releasing stores must pair with acquiring loads",
        run: None,
    },
];

/// Runs every line lint and returns findings sorted by file, line, lint.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for run in REGISTRY.iter().filter_map(|l| l.run) {
        run(ws, &mut out);
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    out
}
