//! The real-workspace gate: `veros-lint` over this repository must
//! report zero errors — every accepted finding carries a reasoned
//! inline allow — the shipped binary must exit 1 on each bad fixture
//! tree, README's lint table must name the registry's IDs, no
//! concurrency-protocol annotation may be left in shipped code, and
//! every library root but `veros-sync`'s must forbid `unsafe` code.

use std::path::PathBuf;
use std::process::Command;

use veros_lint::diag::Severity;
use veros_lint::lints;
use veros_lint::source::Workspace;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn fixture(tree: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(tree)
}

#[test]
fn repository_is_lint_clean() {
    let ws = Workspace::load(&repo_root()).expect("workspace loads");
    assert!(ws.files.len() > 100, "walker found the real workspace");
    let errors: Vec<String> = lints::run_all(&ws)
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "lint errors in the workspace:\n{}",
        errors.join("\n")
    );
}

/// No pass reads a lock or seqlock annotation: a field touched only
/// under a lock lives inside the value the lock guards, and seqlock
/// words live inside `veros_sync::SeqSlot`, so the type checker holds
/// both (the `SeqSlot` and `Published` modules' `compile_fail` doctests
/// show the rules can fail). An annotation left in shipped
/// code would bind to nothing and pass silently. Each marker is spelled
/// in two halves so this file does not carry it.
#[test]
fn no_protocol_annotation_is_left_in_shipped_code() {
    let ws = Workspace::load(&repo_root()).expect("workspace loads");
    for (marker, instead) in [
        (
            ["guarded", "by:"].join("-"),
            "move the field inside the value its lock guards",
        ),
        (
            ["protocol: seq", "lock("].concat(),
            "publish the words through `veros_sync::SeqSlot`",
        ),
    ] {
        let stale: Vec<String> = ws
            .files
            .iter()
            .filter(|f| f.shipped)
            .flat_map(|f| {
                f.lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.comment.contains(&marker))
                    .map(move |(i, _)| format!("{}:{}", f.rel_path, i + 1))
            })
            .collect();
        assert!(
            stale.is_empty(),
            "`{marker}` annotations nothing checks; {instead} instead: {stale:?}"
        );
    }
}

/// `veros-sync` is the trusted base: the one crate whose root may allow
/// `unsafe` code. Every other library root forbids it, so a new crate
/// cannot opt out of the compiler's check by omission.
#[test]
fn every_library_root_but_sync_forbids_unsafe() {
    let ws = Workspace::load(&repo_root()).expect("workspace loads");
    let roots: Vec<_> = ws
        .files
        .iter()
        .filter(|f| {
            let parts: Vec<&str> = f.rel_path.split('/').collect();
            matches!(
                parts[..],
                ["src", "lib.rs"] | ["crates", _, "src", "lib.rs"]
            )
        })
        .collect();
    assert!(
        roots.len() > 10,
        "walker found the library roots: {}",
        roots.len()
    );
    for root in roots {
        let forbids = root
            .lines
            .iter()
            .any(|l| l.code.trim() == "#![forbid(unsafe_code)]");
        let trusted = root.rel_path == "crates/sync/src/lib.rs";
        assert_eq!(
            forbids, !trusted,
            "{}: every library root but veros-sync's must say `#![forbid(unsafe_code)]`",
            root.rel_path
        );
    }
}

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_veros-lint"))
        .args(args)
        .output()
        .expect("veros-lint binary runs")
}

#[test]
fn binary_denies_each_bad_fixture_tree() {
    for tree in ["tree_l2", "tree_l3", "tree_l5"] {
        let root = fixture(tree);
        let out = run_binary(&["--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{tree}: expected exit 1, got {:?}\nstdout:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_passes_clean_fixture_tree() {
    let root = fixture("tree_clean");
    let out = run_binary(&["--root", root.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "clean tree must pass");
}

#[test]
fn binary_passes_repository() {
    let root = repo_root();
    let out = run_binary(&["--root", root.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "repository must be lint-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// README's *Static analysis* table lists exactly the registry's IDs,
/// in order: an ID copied from it into a `// lint: allow(<id>)` must be
/// one the analyzer knows, or the allow suppresses nothing.
#[test]
fn readme_lint_table_lists_the_registry() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md reads");
    let table = readme
        .split("| lint | checks |")
        .nth(1)
        .expect("README has the lint table");
    let listed: Vec<&str> = table
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.split('`').nth(1))
        .collect();
    let registry: Vec<&str> = lints::REGISTRY.iter().map(|l| l.id).collect();
    assert_eq!(listed, registry);
}
