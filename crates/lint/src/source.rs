//! The workspace model: the one directory walk, scanned source files
//! with per-line test-region flags and path classification, and the
//! comment chain that suppressions attach through.

use crate::lexer::{self, ScannedLine};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates on the kernel path: code that executes under the verified
/// stack's no-panic discipline (see ISSUE/DESIGN). `panic-freedom`
/// applies only to these crates' `src/` trees. `ulib` joined with the
/// ring executor: its poller pump sits on every ring-routed syscall,
/// so a panic there takes down the data plane as surely as one in the
/// engine. `sync` holds the log, lock and ring code nr and uring run.
pub(crate) const KERNEL_PATH_CRATES: &[&str] = &[
    "kernel",
    "pagetable",
    "nr",
    "hw",
    "fs",
    "net",
    "uring",
    "ulib",
    "sync",
];

/// One scanned workspace file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Scanned lines (index 0 is line 1).
    pub lines: Vec<ScannedLine>,
    /// Per-line flag: inside a `#[cfg(test)]` region or a `#[test]` fn.
    pub in_test: Vec<bool>,
    /// The crate directory under `crates/` (e.g. `nr`), `"veros"` for
    /// the root package's `src/`, `"root"` for top-level tests and
    /// examples.
    pub crate_key: String,
    /// True for shipped library/binary code: the root package's `src/`
    /// and each crate's `src/`, minus `tests/`, `benches/`, `examples/`
    /// and `build.rs`.
    pub shipped: bool,
}

impl SourceFile {
    /// Scans `src`, classifying lines and path. `rel_path` must use `/`
    /// separators.
    pub(crate) fn from_source(rel_path: &str, src: &str) -> SourceFile {
        let lines = lexer::scan(src);
        let in_test = mark_test_regions(&lines);
        let crate_key = match rel_path.strip_prefix("crates/") {
            Some(rest) => rest.split_once('/').map_or(rest, |(c, _)| c),
            None if rel_path.starts_with("src/") => "veros",
            None => "root",
        };
        let test_path = rel_path.contains("/tests/")
            || rel_path.contains("/benches/")
            || rel_path.contains("/examples/")
            || rel_path.ends_with("build.rs");
        let in_src = rel_path.starts_with("src/")
            || (rel_path.starts_with("crates/") && rel_path.contains("/src/"));
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            in_test,
            crate_key: crate_key.to_string(),
            shipped: in_src && !test_path,
        }
    }

    /// True when the file is shipped code of a kernel-path crate.
    pub(crate) fn is_kernel_path_src(&self) -> bool {
        self.shipped && KERNEL_PATH_CRATES.contains(&self.crate_key.as_str())
    }

    /// The comments attached to 0-based line `idx`, nearest first: its
    /// own, then those of the contiguous comment-only or attribute
    /// lines directly above it. A line with code of its own ends the
    /// chain: its trailing comment belongs to that line, not to the
    /// lines below it.
    pub(crate) fn attached_comments(&self, idx: usize) -> impl Iterator<Item = &str> {
        let above = self.lines[..idx]
            .iter()
            .rev()
            .take_while(|l| (l.is_code_blank() && !l.comment.is_empty()) || l.is_attr());
        std::iter::once(&self.lines[idx])
            .chain(above)
            .map(|l| l.comment.as_str())
    }

    /// True when a suppression for `lint_id` covers 0-based line `idx`.
    ///
    /// Syntax: `// lint: allow(<lint-id>) — reason` (a `-` works too).
    /// The directive must carry a non-empty reason and may sit on the
    /// flagged line itself or among its [attached
    /// comments](Self::attached_comments).
    pub(crate) fn is_suppressed(&self, lint_id: &str, idx: usize) -> bool {
        self.attached_comments(idx).any(|c| suppresses(c, lint_id))
    }
}

/// Checks one comment string for a reasoned `lint: allow(<id>)`.
fn suppresses(comment: &str, lint_id: &str) -> bool {
    let Some(pos) = comment.find("lint: allow(") else {
        return false;
    };
    let rest = &comment[pos + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    if rest[..close].trim() != lint_id {
        return false;
    }
    // Require a justification after the closing paren: at least a few
    // non-punctuation characters.
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
        .trim();
    reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3
}

/// Computes per-line test-region membership by tracking `#[cfg(test)]` /
/// `#[test]` attributes and brace depth.
fn mark_test_regions(lines: &[ScannedLine]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Depth thresholds: a region is active while depth > entry depth.
    let mut regions: Vec<i64> = Vec::new();
    // A test attribute was seen and we are waiting for its item's `{`.
    let mut pending = false;

    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        if line.is_attr() && (code.contains("cfg(test)") || code.contains("#[test]")) {
            pending = true;
        }
        let active_before = !regions.is_empty();
        let mut active_here = active_before || pending;

        for c in code.chars() {
            match c {
                '{' => {
                    if pending {
                        regions.push(depth);
                        pending = false;
                        active_here = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    while let Some(&entry) = regions.last() {
                        if depth <= entry {
                            regions.pop();
                        } else {
                            break;
                        }
                    }
                }
                ';' if pending && regions.is_empty() => {
                    // `#[cfg(test)] mod tests;` — out-of-line item; the
                    // region is the referenced file, not this one.
                    pending = false;
                }
                _ => {}
            }
        }
        flags[i] = active_here;
    }
    flags
}

/// The loaded workspace: every `.rs` file under the root, minus
/// excluded trees.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

/// Directory names never descended into.
const EXCLUDED_DIRS: &[&str] = &["target", ".git", ".github", "results"];

impl Workspace {
    /// Walks `root` collecting all `.rs` files, excluding build output
    /// and the lint crate's own test fixtures (which intentionally
    /// violate every lint). The only directory walk: every lint runs
    /// over the files loaded here.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for path in entries {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if path.is_dir() {
                    if EXCLUDED_DIRS.contains(&name) {
                        continue;
                    }
                    let rel = rel_path(root, &path);
                    if rel.starts_with("crates/lint/tests/fixtures") {
                        continue;
                    }
                    stack.push(path);
                } else if name.ends_with(".rs") {
                    let src = fs::read_to_string(&path)?;
                    files.push(SourceFile::from_source(&rel_path(root, &path), &src));
                }
            }
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory sources (unit tests).
    #[cfg(test)]
    pub(crate) fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: sources
                .iter()
                .map(|(p, s)| SourceFile::from_source(p, s))
                .collect(),
        }
    }

    pub(crate) fn find(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_tracking() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { x.unwrap(); }\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::from_source("crates/nr/src/lib.rs", src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1]);
        assert!(f.in_test[2]);
        assert!(f.in_test[3]);
        assert!(f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn test_attr_fn_region() {
        let src = "#[test]\nfn check() {\n    body();\n}\nfn live() {}\n";
        let f = SourceFile::from_source("crates/nr/src/lib.rs", src);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3]);
        assert!(!f.in_test[4]);
    }

    #[test]
    fn out_of_line_test_mod_does_not_poison_rest() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let f = SourceFile::from_source("crates/nr/src/lib.rs", src);
        assert!(!f.in_test[2]);
    }

    #[test]
    fn kernel_path_classification() {
        let k = SourceFile::from_source("crates/nr/src/log.rs", "");
        assert!(k.is_kernel_path_src());
        let t = SourceFile::from_source("crates/nr/tests/randomized.rs", "");
        assert!(!t.is_kernel_path_src());
        let u = SourceFile::from_source("crates/ulib/src/runtime.rs", "");
        assert!(u.is_kernel_path_src(), "the ring executor is kernel-path");
        let s = SourceFile::from_source("crates/sync/src/log.rs", "");
        assert!(s.is_kernel_path_src(), "the log nr runs is kernel-path");
        let b = SourceFile::from_source("crates/bench/src/uring.rs", "");
        assert!(!b.is_kernel_path_src());
        let root = SourceFile::from_source("src/lib.rs", "");
        assert!(!root.is_kernel_path_src());
    }

    #[test]
    fn suppression_same_line_and_above() {
        let src = "// lint: allow(panic-freedom) — bound checked above\n\
                   let x = v[0];\n\
                   let y = w.unwrap(); // lint: allow(panic-freedom) - spec guarantees Some\n\
                   let z = q.unwrap();\n";
        let f = SourceFile::from_source("crates/fs/src/memfs.rs", src);
        assert!(f.is_suppressed("panic-freedom", 1));
        assert!(f.is_suppressed("panic-freedom", 2));
        assert!(!f.is_suppressed("panic-freedom", 3));
        assert!(!f.is_suppressed("doc-header", 1), "wrong lint id");
    }

    #[test]
    fn suppression_requires_reason() {
        let src = "// lint: allow(panic-freedom)\nlet x = v.unwrap();\n";
        let f = SourceFile::from_source("crates/fs/src/memfs.rs", src);
        assert!(!f.is_suppressed("panic-freedom", 1));
    }
}
