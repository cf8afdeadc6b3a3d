//! The workspace's file rules, checked by reading the files.
//!
//! The compiler holds every other rule: `forbid(unsafe_code)` and
//! clippy hold the trusted base, clippy's panic lints hold panic
//! freedom, and an exhaustive `match` beside each VC holds coverage.
//! What is left is a property of the text of a file, so this test reads
//! each `.rs` file of the workspace with `std::fs` and applies [`RULES`]
//! to its `(path, source)` pair:
//!
//! - every shipped `src/**/*.rs` file opens with a `//!` header, the
//!   place each module states its role in the verified stack;
//! - every library root but `veros-sync`'s forbids `unsafe` code, so a
//!   new crate cannot leave the trusted base by omission;
//! - every panic-free crate root denies the panicking constructs
//!   outside test code, so clippy holds each of those crates;
//! - no lock, seqlock or old lint-suppression comment is left: each
//!   rule it named is held by a type or a lint now, so such a comment
//!   would bind to nothing and pass silently.
//!
//! Markers are spelled in halves so this file does not carry them.

use std::fs;
use std::path::Path;

/// The crates under the no-panic discipline: the kernel path, the
/// concurrency base it runs on, and the storage fleet above it.
const PANIC_FREE: &[&str] = &[
    "kernel",
    "pagetable",
    "nr",
    "hw",
    "fs",
    "net",
    "uring",
    "ulib",
    "sync",
    "cluster",
    "blockstore",
];

/// The line each [`PANIC_FREE`] crate root carries.
const DENY_PANICS: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
     clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]";

/// The one library root that may use `unsafe` code.
const TRUSTED_ROOT: &str = "crates/sync/src/lib.rs";

/// A file rule: its name, and a check of one `(path, source)` pair that
/// says why the file breaks it.
struct Rule {
    name: &'static str,
    check: fn(&str, &str) -> Option<String>,
}

const RULES: &[Rule] = &[
    Rule { name: "doc-header", check: doc_header },
    Rule { name: "forbid-unsafe", check: forbid_unsafe },
    Rule { name: "deny-panics", check: deny_panics },
    Rule { name: "no-protocol-annotation", check: no_protocol_annotation },
    Rule { name: "no-lint-suppression", check: no_lint_suppression },
];

/// Library and binary code: the root package's `src/` and each crate's
/// `src/`, minus test, bench and example trees and build scripts.
fn shipped(path: &str) -> bool {
    let in_src =
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
    let test_tree = ["/tests/", "/benches/", "/examples/"].iter().any(|d| path.contains(d));
    in_src && !test_tree && !path.ends_with("build.rs")
}

/// `src/lib.rs` or `crates/<name>/src/lib.rs`.
fn library_root(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    matches!(parts[..], ["src", "lib.rs"] | ["crates", _, "src", "lib.rs"])
}

fn has_line(src: &str, line: &str) -> bool {
    src.lines().any(|l| l.trim() == line)
}

fn doc_header(path: &str, src: &str) -> Option<String> {
    let opens_with_doc = src.lines().next().is_some_and(|l| l.trim_start().starts_with("//!"));
    (shipped(path) && !opens_with_doc).then(|| "does not open with a `//!` module header".into())
}

fn forbid_unsafe(path: &str, src: &str) -> Option<String> {
    if !library_root(path) {
        return None;
    }
    let forbids = has_line(src, "#![forbid(unsafe_code)]");
    match (forbids, path == TRUSTED_ROOT) {
        (false, false) => Some("library root does not say `#![forbid(unsafe_code)]`".into()),
        (true, true) => Some("the trusted base's root may not forbid `unsafe`".into()),
        _ => None,
    }
}

fn deny_panics(path: &str, src: &str) -> Option<String> {
    let root = PANIC_FREE.iter().any(|c| path == format!("crates/{c}/src/lib.rs"));
    (root && !has_line(src, DENY_PANICS))
        .then(|| format!("panic-free crate root lacks `{DENY_PANICS}`"))
}

fn no_protocol_annotation(path: &str, src: &str) -> Option<String> {
    if !shipped(path) {
        return None;
    }
    [
        (["guarded", "by:"].join("-"), "move the field inside the value its lock guards"),
        (["protocol: seq", "lock("].concat(), "publish the words through `veros_sync::SeqSlot`"),
    ]
    .into_iter()
    .find_map(|(marker, instead)| {
        let line = src.lines().position(|l| l.contains(&marker))?;
        Some(format!("line {}: `{marker}` annotation nothing checks; {instead}", line + 1))
    })
}

fn no_lint_suppression(_path: &str, src: &str) -> Option<String> {
    let marker = ["// lint:", " allow("].concat();
    let line = src.lines().position(|l| l.contains(&marker))?;
    Some(format!(
        "line {}: `{marker}` suppresses nothing; write `#[expect(clippy::…, reason = \"…\")]`",
        line + 1
    ))
}

/// Every broken rule in `files`, as `rule: path: why`.
fn violations(files: &[(String, String)]) -> Vec<String> {
    files
        .iter()
        .flat_map(|(path, src)| {
            RULES.iter().filter_map(move |r| {
                (r.check)(path, src).map(|why| format!("{}: {path}: {why}", r.name))
            })
        })
        .collect()
}

/// Every `.rs` file under `dir`, as workspace-relative `(path, source)`
/// pairs; build output is skipped.
fn load(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry reads").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !matches!(path.file_name().and_then(|n| n.to_str()), Some("target" | "results")) {
                load(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            out.push((rel, src));
        }
    }
}

#[test]
fn every_workspace_file_keeps_the_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "crates", "tests", "examples"] {
        load(root, &root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "the walk found the workspace: {} files", files.len());
    // A renamed crate would drop out of a rule silently.
    let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
    for c in PANIC_FREE {
        let root = format!("crates/{c}/src/lib.rs");
        assert!(paths.contains(&root.as_str()), "panic-free crate root {root} is missing");
    }
    let roots = paths.iter().filter(|p| library_root(p)).count();
    assert!(roots > 10, "the walk found the library roots: {roots}");
    let broken = violations(&files);
    assert!(broken.is_empty(), "file rules broken:\n{}", broken.join("\n"));
}

/// Each rule fails on a file that breaks it, by its own name, and a
/// file that keeps every rule passes them all.
#[test]
fn each_rule_fails_on_a_bad_file() {
    let lint_comment = ["// lint:", " allow(panic-freedom) — set.\nfn f() {}\n"].concat();
    let guarded = ["//! A lock.\n// guarded", "by: lock\nstruct S;\n"].join("-");
    let sync_forbids = format!("//! Sync.\n#![forbid(unsafe_code)]\n{DENY_PANICS}\n");
    let cases: [(&str, &str, String); 7] = [
        ("doc-header", "crates/hw/src/walker.rs", "// just a comment\nfn f() {}\n".into()),
        ("doc-header", "src/lib.rs", "#![forbid(unsafe_code)]\n".into()),
        ("forbid-unsafe", "crates/demo/src/lib.rs", "//! Demo.\n".into()),
        ("forbid-unsafe", TRUSTED_ROOT, sync_forbids),
        ("deny-panics", "crates/cluster/src/lib.rs", "//! F.\n#![forbid(unsafe_code)]\n".into()),
        ("no-protocol-annotation", "crates/nr/src/rwlock.rs", guarded),
        ("no-lint-suppression", "crates/uring/tests/t.rs", lint_comment),
    ];
    for (rule, path, src) in cases {
        let found = violations(&[(path.into(), src)]);
        assert!(
            found.len() == 1 && found[0].starts_with(&format!("{rule}: {path}: ")),
            "{rule} must fail on its bad {path}, found {found:?}"
        );
    }
    let good = format!("//! A panic-free crate.\n#![forbid(unsafe_code)]\n{DENY_PANICS}\n");
    let clean = violations(&[("crates/kernel/src/lib.rs".into(), good)]);
    assert!(clean.is_empty(), "a file that keeps every rule fails: {clean:?}");
    // Tests, benches and examples are not shipped code.
    assert!(violations(&[("crates/hw/tests/t.rs".into(), "fn t() {}\n".into())]).is_empty());
}
