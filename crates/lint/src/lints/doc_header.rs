//! L5 `doc-header`: every `src/*.rs` file must open with a `//!` module
//! doc comment. The workspace's convention is that each module states
//! its place in the verified stack up front; a file without a header is
//! a file whose spec role nobody wrote down.

use super::Lint;
use crate::diag::{Diagnostic, Severity};
use crate::source::Workspace;

const ID: &str = "doc-header";

pub const LINT: Lint = Lint {
    id: ID,
    describe: "src/*.rs files must start with a `//!` module doc comment",
    run,
};

fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !file.shipped {
            continue;
        }
        let ok = file
            .lines
            .first()
            .is_some_and(|l| l.comment.trim_start().starts_with("//!"));
        if ok || file.is_suppressed(ID, 0) {
            continue;
        }
        out.push(Diagnostic::new(
            ID,
            Severity::Error,
            file.rel_path.clone(),
            1,
            "file does not start with a `//!` module doc header",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(&[(path, src)]);
        let mut out = Vec::new();
        run(&ws, &mut out);
        out
    }

    #[test]
    fn missing_header_flagged() {
        let out = run_on("crates/hw/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
        assert_eq!(out[0].lint, ID);
    }

    #[test]
    fn header_passes() {
        assert!(run_on("crates/hw/src/lib.rs", "//! The hardware model.\npub fn f() {}\n").is_empty());
        assert!(run_on("src/lib.rs", "//! Root crate.\n").is_empty());
    }

    #[test]
    fn tests_and_benches_exempt() {
        assert!(run_on("crates/hw/tests/t.rs", "fn t() {}\n").is_empty());
        assert!(run_on("crates/bench/benches/b.rs", "fn main() {}\n").is_empty());
    }

    #[test]
    fn leading_line_comment_is_not_a_doc_header() {
        let out = run_on("crates/hw/src/lib.rs", "// just a comment\npub fn f() {}\n");
        assert_eq!(out.len(), 1);
    }
}
