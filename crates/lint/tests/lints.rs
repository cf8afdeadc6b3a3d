//! Fixture-tree integration tests: each tree under `tests/fixtures/`
//! trips exactly one lint at known `file:line` positions.

use std::path::PathBuf;

use veros_lint::diag::{Diagnostic, Severity};
use veros_lint::lints;
use veros_lint::source::Workspace;

fn run_tree(tree: &str) -> Vec<Diagnostic> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(tree);
    let ws = Workspace::load(&root).expect("fixture tree loads");
    lints::run_all(&ws)
}

/// (lint id, file, line, severity) projection for compact assertions.
fn shape(diags: &[Diagnostic]) -> Vec<(&str, &str, usize, Severity)> {
    diags
        .iter()
        .map(|d| (d.lint, d.file.as_str(), d.line, d.severity))
        .collect()
}

#[test]
fn l2_panicking_constructs_in_kernel_path() {
    let out = run_tree("tree_l2");
    assert_eq!(
        shape(&out),
        [
            ("panic-freedom", "crates/kernel/src/bad.rs", 4, Severity::Error),
            ("panic-freedom", "crates/kernel/src/bad.rs", 8, Severity::Error),
            ("panic-freedom", "crates/kernel/src/bad.rs", 12, Severity::Warning),
        ]
    );
    assert!(out[0].message.contains("unwrap"));
    assert!(out[1].message.contains("panic!"));
    assert!(out[2].message.contains("indexing-heavy"));
}

#[test]
fn l3_uncovered_op_reported_at_its_variant() {
    let out = run_tree("tree_l3");
    assert_eq!(
        shape(&out),
        [(
            "obligation-coverage",
            "crates/kernel/src/syscall/mod.rs",
            5,
            Severity::Error
        )]
    );
    assert!(out[0].message.contains("Syscall::Exit"));
}

#[test]
fn l5_missing_doc_header() {
    let out = run_tree("tree_l5");
    assert_eq!(
        shape(&out),
        [("doc-header", "crates/demo/src/lib.rs", 1, Severity::Error)]
    );
}

#[test]
fn clean_tree_is_clean() {
    assert!(run_tree("tree_clean").is_empty());
}
