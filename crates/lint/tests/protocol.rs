//! Protocol-pass gates: the seeded fixture tree trips the pass (and
//! its clean twin passes), and the real workspace's access table is
//! non-vacuous — the counters the CI gate enforces are asserted here
//! too, so a refactor that silently empties the analysis fails in
//! `cargo test` before it fails in CI. Lock and seqlock discipline have
//! no pass: a field touched only under a lock lives inside the value
//! the lock guards, and seqlock-published words live inside
//! `veros_telemetry::SeqSlot`, so the type checker holds both (the
//! `SeqSlot` module's `compile_fail` doctest shows the rule can fail).

use std::path::PathBuf;
use std::process::Command;

use veros_lint::protocol::{self, Analysis};
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

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_veros-lint"))
        .args(args)
        .output()
        .expect("veros-lint binary runs")
}

/// The seeded tree produces a finding of the pass and fails the run.
#[test]
fn seeded_tree_trips_the_pass() {
    let root = fixture("tree_p1");
    let out = run_binary(&["--root", root.to_str().expect("utf-8 path")]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "expected exit 1\n{text}");
    let pass = protocol::PUBLICATION;
    assert!(text.contains(&format!("[{pass}]")), "expected a {pass} finding\n{text}");
}

/// The clean twin passes outright.
#[test]
fn clean_twin_passes() {
    let root = fixture("tree_p1_clean");
    let out = run_binary(&["--root", root.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "expected clean pass\nstdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// The real workspace is protocol-clean and the analysis is
/// non-vacuous: the anti-vacuity floors the CI `--gate` enforces hold,
/// so the pass exercised real code, not an empty population. No
/// protocol annotation is left in shipped code for nothing to check.
#[test]
fn workspace_is_protocol_clean_and_non_vacuous() {
    let ws = Workspace::load(&repo_root()).expect("workspace loads");
    let analysis = Analysis::new(&ws);
    let mut out = Vec::new();
    let c = analysis.run(&mut out);
    let msgs: Vec<String> = out.iter().map(|d| d.to_string()).collect();
    assert!(
        msgs.is_empty(),
        "protocol findings in the workspace:\n{}",
        msgs.join("\n")
    );

    // The CI gate's floors, enforced in-tree as well.
    assert!(c.atomic_fields >= 20, "atomic_fields = {}", c.atomic_fields);
    assert!(
        c.publication_pairs >= 10,
        "publication_pairs = {}",
        c.publication_pairs
    );
    assert_eq!(c.unknown_orderings, 0, "unknown orderings");
    assert_eq!(c.unbound_accesses, 0, "unbound accesses");
    assert_eq!(c.ambiguous_fields, 0, "ambiguous fields");
    assert!(
        c.unparsed.is_empty(),
        "files the extractor cannot see: {:?}",
        c.unparsed
    );
    assert!(
        c.stray_headers.is_empty(),
        "item headers the extractor missed: {:?}",
        c.stray_headers
    );

    // No pass reads a lock or seqlock annotation any more, so one left
    // in shipped code would bind to nothing and pass silently. Each
    // marker is spelled in two halves so this file does not carry it.
    for (marker, instead) in [
        (
            ["guarded", "by:"].join("-"),
            "move the field inside the value its lock guards",
        ),
        (
            ["protocol: seq", "lock("].concat(),
            "publish the words through `veros_telemetry::SeqSlot`",
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

/// `--gate` passes on the real workspace and writes the LINT.json
/// artifact with the counters.
#[test]
fn gate_and_report_run_on_the_workspace() {
    let root = repo_root();
    let dir = std::env::temp_dir().join(format!("veros-lint-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp results dir");
    let out = Command::new(env!("CARGO_BIN_EXE_veros-lint"))
        .args(["--root", root.to_str().expect("utf-8 path"), "--gate"])
        .env("VEROS_RESULTS_DIR", &dir)
        .output()
        .expect("veros-lint binary runs");
    assert!(
        out.status.success(),
        "gate must pass on the workspace\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("LINT.json")).expect("LINT.json written");
    for key in [
        "\"atomic_fields\"",
        "\"publication_pairs\"",
        "\"unparsed\": 0",
        "\"stray_headers\": 0",
    ] {
        assert!(json.contains(key), "LINT.json carries {key}:\n{json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
