//! Diagnostics: stable lint IDs, severities, and the `file:line` report
//! format.

use std::fmt;

/// How severe a finding is. `Error` findings fail the run; `Warning`
/// findings are advisory and never affect the exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a workspace-relative file and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint ID (e.g. `panic-freedom`).
    pub lint: &'static str,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(
        lint: &'static str,
        severity: Severity,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            lint,
            severity,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}:{}: {}",
            self.severity.as_str(),
            self.lint,
            self.file,
            self.line,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format_is_file_line() {
        let d = Diagnostic::new("doc-header", Severity::Error, "crates/hw/src/lib.rs", 1, "msg");
        assert_eq!(
            d.to_string(),
            "error: [doc-header] crates/hw/src/lib.rs:1: msg"
        );
    }
}
