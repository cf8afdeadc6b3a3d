//! The lint registry: each lint walks the [`Workspace`] and emits
//! [`Diagnostic`]s with a stable ID.

use crate::diag::Diagnostic;
use crate::source::Workspace;

pub mod atomics_ordering;
pub mod doc_header;
pub mod obligation_coverage;
pub mod panic_freedom;
pub mod unsafe_audit;

/// One workspace lint.
pub trait Lint {
    /// Stable lint ID (also the suppression key).
    fn id(&self) -> &'static str;
    /// One-line description for `--list`.
    fn describe(&self) -> &'static str;
    /// Runs over the whole workspace, appending findings.
    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// The full registry, in reporting order.
pub fn registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(unsafe_audit::UnsafeAudit),
        Box::new(panic_freedom::PanicFreedom),
        Box::new(obligation_coverage::ObligationCoverage),
        Box::new(atomics_ordering::AtomicsOrdering),
        Box::new(doc_header::DocHeader),
    ]
}

/// Runs every lint and returns findings sorted by file, line, lint.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for lint in registry() {
        lint.run(ws, &mut out);
    }
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint))
    });
    out
}
