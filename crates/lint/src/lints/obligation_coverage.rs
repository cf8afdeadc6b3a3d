//! L3 `obligation-coverage`: every public operation of the verified
//! surfaces must be exercised by a registered verification condition.
//!
//! The paper's central claim is that applications can rely on kernel
//! correctness *because every syscall refines its spec*; an op with no
//! VC is exactly the hole that claim forbids. The check cross-references
//! the op enums (`Syscall`, `PtOp`, `VSpaceWriteOp`/`VSpaceReadOp`)
//! against `// covers: Enum::Variant` annotations next to the
//! `engine.register(..)` calls in the VC registration files. Coverage is
//! declared, not inferred: an explicit annotation is auditable in review
//! and diffable, where name-matching heuristics silently rot.

use super::Lint;
use crate::diag::{Diagnostic, Severity};
use crate::source::{SourceFile, Workspace};

const ID: &str = "obligation-coverage";

pub const LINT: Lint = Lint {
    id: ID,
    describe: "public ops of verified surfaces lacking a registered VC",
    run,
};

/// A verified op surface: enum `name` defined in `file`.
struct Surface {
    file: &'static str,
    name: &'static str,
}

const SURFACES: &[Surface] = &[
    Surface { file: "crates/kernel/src/syscall/mod.rs", name: "Syscall" },
    Surface { file: "crates/pagetable/src/ops.rs", name: "PtOp" },
    Surface { file: "crates/kernel/src/vspace.rs", name: "VSpaceWriteOp" },
    Surface { file: "crates/kernel/src/vspace.rs", name: "VSpaceReadOp" },
];

/// Files whose `// covers:` annotations declare VC coverage.
const COVERAGE_FILES: &[&str] = &["crates/core/src/vcs.rs", "crates/pagetable/src/vcs.rs"];

fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // If none of the surface files exist we are not looking at the
    // veros workspace (e.g. a fixture tree): stay quiet unless the
    // fixture recreates the paths.
    let covered = collect_covers(ws);
    for surface in SURFACES {
        let Some(file) = ws.find(surface.file) else {
            continue;
        };
        for (variant, line) in enum_variants(file, surface.name) {
            let qualified = format!("{}::{}", surface.name, variant);
            if covered.iter().any(|(c, _, _)| *c == qualified) {
                continue;
            }
            if file.is_suppressed(ID, line - 1) {
                continue;
            }
            out.push(Diagnostic::new(
                ID,
                Severity::Error,
                file.rel_path.clone(),
                line,
                format!(
                    "op `{qualified}` has no registered VC (no `// covers: {qualified}` in {})",
                    COVERAGE_FILES.join(" or ")
                ),
            ));
        }
    }
    // Typo guard: every annotation must name a real variant.
    let mut known = Vec::new();
    for surface in SURFACES {
        if let Some(file) = ws.find(surface.file) {
            for (v, _) in enum_variants(file, surface.name) {
                known.push(format!("{}::{}", surface.name, v));
            }
        }
    }
    if !known.is_empty() {
        for (c, file, line) in &covered {
            if !known.contains(c) {
                out.push(Diagnostic::new(
                    ID,
                    Severity::Warning,
                    file.clone(),
                    *line,
                    format!("`// covers: {c}` names no known op variant"),
                ));
            }
        }
    }
}

/// Parses `// covers: A::B, A::C` annotations from the coverage files.
/// Returns (qualified variant, file, 1-based line).
fn collect_covers(ws: &Workspace) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for path in COVERAGE_FILES {
        let Some(file) = ws.find(path) else { continue };
        for (idx, line) in file.lines.iter().enumerate() {
            let Some(pos) = line.comment.find("covers:") else {
                continue;
            };
            let rest = &line.comment[pos + "covers:".len()..];
            for item in rest.split(',') {
                let item = item.trim().trim_end_matches('.');
                if !item.is_empty() && item.contains("::") {
                    out.push((item.to_string(), file.rel_path.clone(), idx + 1));
                }
            }
        }
    }
    out
}

/// Extracts the top-level variant names (and 1-based lines) of
/// `pub enum <name>` in `file`, by brace-depth tracking: a variant is an
/// uppercase-initial identifier at depth exactly one inside the enum
/// body (struct-variant fields sit deeper and are skipped).
fn enum_variants(file: &SourceFile, name: &str) -> Vec<(String, usize)> {
    let open = format!("enum {name}");
    let mut out = Vec::new();
    let mut depth_in_enum: Option<i64> = None;
    let mut depth: i64 = 0;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let starts_here = depth_in_enum.is_none()
            && code.contains(&open)
            && code[code.find(&open).unwrap() + open.len()..]
                .trim_start()
                .starts_with('{');
        if starts_here {
            depth_in_enum = Some(depth);
        }
        if let Some(base) = depth_in_enum {
            if depth == base + 1 || (starts_here && code.trim_end().ends_with('{')) {
                // At variant depth (or the opening line itself, whose
                // `{` is consumed below): match a leading variant name.
                if !starts_here {
                    let t = code.trim_start();
                    let ident: String = t
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if ident
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_uppercase())
                    {
                        let after = &t[ident.len()..];
                        if after.is_empty()
                            || after.starts_with(',')
                            || after.starts_with('(')
                            || after.trim_start().starts_with('{')
                            || after.starts_with(" =")
                        {
                            out.push((ident, idx + 1));
                        }
                    }
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some(base) = depth_in_enum {
                        if depth <= base {
                            return out;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENUM_SRC: &str = "\
/// Ops.
pub enum Syscall {
    /// Doc.
    Spawn,
    Exit {
        code: i32,
    },
    Read(u64),
}
";

    #[test]
    fn variant_extraction_skips_fields() {
        let f = SourceFile::from_source("crates/kernel/src/syscall/mod.rs", ENUM_SRC);
        let vs = enum_variants(&f, "Syscall");
        let names: Vec<&str> = vs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Spawn", "Exit", "Read"]);
        assert_eq!(vs[1].1, 5, "Exit is on line 5");
    }

    #[test]
    fn uncovered_variant_flagged_covered_quiet() {
        let vcs = "engine.register(m, k, \"x\"); // covers: Syscall::Spawn, Syscall::Read\n";
        let ws = Workspace::from_sources(&[
            ("crates/kernel/src/syscall/mod.rs", ENUM_SRC),
            ("crates/core/src/vcs.rs", vcs),
        ]);
        let mut out = Vec::new();
        run(&ws, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Syscall::Exit"));
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn unknown_covers_annotation_warns() {
        let vcs = "// covers: Syscall::Spawn, Syscall::Exit, Syscall::Read, Syscall::Frobnicate\n";
        let ws = Workspace::from_sources(&[
            ("crates/kernel/src/syscall/mod.rs", ENUM_SRC),
            ("crates/core/src/vcs.rs", vcs),
        ]);
        let mut out = Vec::new();
        run(&ws, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warning);
        assert!(out[0].message.contains("Frobnicate"));
    }

    #[test]
    fn absent_surfaces_stay_quiet() {
        let ws = Workspace::from_sources(&[("crates/other/src/lib.rs", "fn f() {}\n")]);
        let mut out = Vec::new();
        run(&ws, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn id_matches() {
        assert_eq!(LINT.id, ID);
    }
}
