//! L1 `unsafe-audit`: every `unsafe` keyword must be justified by a
//! `// SAFETY:` comment on the same line or the comment block directly
//! above it. This is the audit discipline the verified stack relies on:
//! the spec machinery reasons about safe Rust, so each `unsafe` site is
//! an axiom that must carry its proof obligation in prose.

use super::Lint;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::has_word;
use crate::source::{SourceFile, Workspace};

const ID: &str = "unsafe-audit";

pub const LINT: Lint = Lint {
    id: ID,
    describe: "`unsafe` without a `// SAFETY:` justification comment",
    run,
};

fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        for (idx, line) in file.lines.iter().enumerate() {
            if !has_word(&line.code, "unsafe") {
                continue;
            }
            // `#![forbid(unsafe_code)]`-style attributes are not
            // unsafe sites. (`unsafe_code` itself fails the word
            // match; `#[allow(unsafe ...)]` shapes would not.)
            if line.is_attr() {
                continue;
            }
            if has_safety_comment(file, idx) || file.is_suppressed(ID, idx) {
                continue;
            }
            out.push(Diagnostic::new(
                ID,
                Severity::Error,
                file.rel_path.clone(),
                idx + 1,
                "`unsafe` without a preceding `// SAFETY:` comment",
            ));
        }
    }
}

/// Looks for `SAFETY:` in the line's attached comments or on the code
/// line that ends that chain: a trailing `// SAFETY:` there argues for
/// the line directly below it too.
fn has_safety_comment(file: &SourceFile, idx: usize) -> bool {
    let reach = file.attached_comments(idx).count() + 1;
    file.lines[..=idx]
        .iter()
        .rev()
        .take(reach)
        .any(|l| l.comment.contains("SAFETY:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(&[("crates/nr/src/x.rs", src)]);
        let mut out = Vec::new();
        run(&ws, &mut out);
        out
    }

    #[test]
    fn flags_unjustified_unsafe() {
        let out = run_on("fn f() {\n    unsafe { core() }\n}\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
        assert_eq!(out[0].lint, "unsafe-audit");
    }

    #[test]
    fn safety_comment_above_passes() {
        let out = run_on("// SAFETY: idx bounded by len.\nunsafe { core() }\n");
        assert!(out.is_empty());
    }

    #[test]
    fn safety_comment_same_line_passes() {
        let out = run_on("unsafe { core() } // SAFETY: checked.\n");
        assert!(out.is_empty());
    }

    #[test]
    fn unrelated_code_breaks_comment_chain() {
        let out = run_on("// SAFETY: stale.\nlet x = 1;\nunsafe { core() }\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn forbid_attribute_is_not_a_site() {
        let out = run_on("#![forbid(unsafe_code)]\nfn f() {}\n");
        assert!(out.is_empty());
    }

    #[test]
    fn id_matches() {
        assert_eq!(LINT.id, ID);
    }
}
