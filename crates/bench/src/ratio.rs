//! The §5 proof-to-code ratio, computed over this repository.
//!
//! "Our results show that the proof-to-code ratio is 10:1." The paper
//! counts proof+spec lines against executable implementation lines for
//! the page table artifact. This module classifies the workspace's
//! source files the same way: for the page-table artifact, the
//! *executable* side is the verified implementation plus the shared
//! operation types and the hardware model it runs on; the *proof* side
//! is the specs, the refinement layers, the checkers, the VC population,
//! and the specification framework they run in (the analogue of the
//! Verus/IronSync libraries the paper's ratio includes by using them).

use std::path::{Path, PathBuf};

/// Line counts for one classified file.
#[derive(Clone, Debug)]
pub struct FileCount {
    /// Workspace-relative path.
    pub path: String,
    /// Non-blank, non-comment-only lines.
    pub lines: usize,
    /// Which side of the ratio.
    pub side: Side,
}

/// Classification of a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Executable implementation.
    Impl,
    /// Specification / proof harness.
    Proof,
    /// Not part of the page-table artifact (baseline, benches, other
    /// subsystems).
    Excluded,
}

/// Counts meaningful lines (non-blank, not pure `//` comments — doc
/// comments count as spec text in verification projects, but we exclude
/// them from both sides for symmetry).
pub fn count_lines(content: &str) -> usize {
    content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Splits a file into (non-test, test) halves at the `#[cfg(test)]`
/// marker: inline test modules are checks, i.e. proof-side lines even
/// inside implementation files.
pub fn split_tests(content: &str) -> (String, String) {
    match content.find("#[cfg(test)]") {
        Some(idx) => (content[..idx].to_string(), content[idx..].to_string()),
        None => (content.to_string(), String::new()),
    }
}

/// Classifies a workspace-relative path for the page-table artifact.
pub fn classify(path: &str) -> Side {
    // Executable: the verified implementation, the range rollbacks it
    // shares with the baseline, and its operation types — the
    // map/unmap/resolve code the paper's ratio counts as "code".
    const IMPL: [&str; 3] = [
        "crates/pagetable/src/impl_verified.rs",
        "crates/pagetable/src/range.rs",
        "crates/pagetable/src/ops.rs",
    ];
    // Proof/spec: the layered specs, the ghost state, refinement checkers,
    // invariants, the VC population, the hardware *spec* (the environment model the
    // proof is against — walker, TLB, memory, entry layout), and the
    // spec framework (the analogue of the Verus/IronSync libraries).
    const PROOF: [&str; 13] = [
        "crates/pagetable/src/high_spec.rs",
        "crates/pagetable/src/ghost.rs",
        "crates/pagetable/src/prefix_tree.rs",
        "crates/pagetable/src/refine.rs",
        "crates/pagetable/src/interp.rs",
        "crates/pagetable/src/invariants.rs",
        "crates/pagetable/src/vcs.rs",
        "crates/hw/src/walker.rs",
        "crates/hw/src/tlb.rs",
        "crates/hw/src/paging.rs",
        "crates/hw/src/physmem.rs",
        "crates/hw/src/addr.rs",
        "crates/hw/src/machine.rs",
    ];
    if IMPL.contains(&path) {
        return Side::Impl;
    }
    if PROOF.contains(&path) || path.starts_with("crates/spec/src/") {
        return Side::Proof;
    }
    Side::Excluded
}

/// Walks the workspace and computes the counts.
pub fn compute(workspace_root: &Path) -> (Vec<FileCount>, usize, usize) {
    let mut out = Vec::new();
    let mut impl_lines = 0;
    let mut proof_lines = 0;
    let mut stack: Vec<PathBuf> = vec![workspace_root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                let rel = p
                    .strip_prefix(workspace_root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                let side = classify(&rel);
                if side == Side::Excluded {
                    continue;
                }
                let Ok(content) = std::fs::read_to_string(&p) else {
                    continue;
                };
                let (code, tests) = split_tests(&content);
                let (code_lines, test_lines) = (count_lines(&code), count_lines(&tests));
                match side {
                    Side::Impl => {
                        // Inline tests are checks: proof-side, even in
                        // implementation files.
                        impl_lines += code_lines;
                        proof_lines += test_lines;
                    }
                    Side::Proof => proof_lines += code_lines + test_lines,
                    Side::Excluded => unreachable!(),
                }
                out.push(FileCount {
                    path: rel,
                    lines: code_lines + test_lines,
                    side,
                });
            }
        }
    }
    (out, impl_lines, proof_lines)
}

/// Locates the workspace root from this crate's manifest dir.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench is two levels below the root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_counter_skips_blanks_and_comments() {
        let src = "fn f() {\n\n// comment\n    let x = 1; // trailing\n}\n";
        assert_eq!(count_lines(src), 3);
    }

    #[test]
    fn classification_covers_the_artifact() {
        assert_eq!(classify("crates/pagetable/src/impl_verified.rs"), Side::Impl);
        assert_eq!(classify("crates/pagetable/src/range.rs"), Side::Impl);
        assert_eq!(classify("crates/pagetable/src/high_spec.rs"), Side::Proof);
        assert_eq!(classify("crates/pagetable/src/ghost.rs"), Side::Proof);
        assert_eq!(classify("crates/spec/src/vc.rs"), Side::Proof);
        assert_eq!(classify("crates/pagetable/src/impl_unverified.rs"), Side::Excluded);
        assert_eq!(classify("crates/kernel/src/kernel.rs"), Side::Excluded);
    }

    #[test]
    fn compute_finds_both_sides() {
        let (files, impl_lines, proof_lines) = compute(&workspace_root());
        assert!(impl_lines > 100, "impl side too small: {impl_lines}");
        assert!(proof_lines > impl_lines, "proof side should dominate");
        assert!(files.len() > 10);
    }
}
