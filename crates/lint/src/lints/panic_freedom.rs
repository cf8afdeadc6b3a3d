//! L2 `panic-freedom`: kernel-path crates must not contain panicking
//! constructs outside test code. A panic inside the verified stack is a
//! refinement hole — the spec has no transition for "abort the kernel" —
//! so `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` are denied in
//! the [`crate::source::KERNEL_PATH_CRATES`] `src/` trees (kernel,
//! pagetable, nr, hw, fs, net, uring, and — since the ring executor
//! put a poller pump on every routed syscall — ulib), and
//! indexing-heavy lines are warned about. Sites whose panic is
//! provably unreachable carry `// lint: allow(panic-freedom) — <reason>`.

use super::Lint;
use crate::diag::{Diagnostic, Severity};
use crate::source::Workspace;

const ID: &str = "panic-freedom";

pub const LINT: Lint = Lint {
    id: ID,
    describe: "panicking constructs in kernel-path crates outside test code",
    run,
};

/// Denied call/macro patterns, matched against blanked code.
const DENIED: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()` can panic"),
    (".expect(", "`.expect(..)` can panic"),
    ("panic!", "`panic!` in kernel-path code"),
    ("todo!", "`todo!` in kernel-path code"),
    ("unimplemented!", "`unimplemented!` in kernel-path code"),
];

/// Lines with at least this many index expressions get a warning.
const INDEX_HEAVY: usize = 3;

fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !file.is_kernel_path_src() {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if file.in_test[idx] {
                continue;
            }
            let code = &line.code;
            for (pat, what) in DENIED {
                if code.contains(pat) && !file.is_suppressed(ID, idx) {
                    out.push(Diagnostic::new(
                        ID,
                        Severity::Error,
                        file.rel_path.clone(),
                        idx + 1,
                        format!("{what}; return an error or justify with `// lint: allow({ID}) — reason`"),
                    ));
                }
            }
            let indexes = count_index_exprs(code);
            if indexes >= INDEX_HEAVY && !file.is_suppressed(ID, idx) {
                out.push(Diagnostic::new(
                    ID,
                    Severity::Warning,
                    file.rel_path.clone(),
                    idx + 1,
                    format!(
                        "indexing-heavy line ({indexes} index expressions); prefer `get`/iterators"
                    ),
                ));
            }
        }
    }
}

/// Counts `expr[...]` index expressions: a `[` directly after an
/// identifier character, `)`, or `]`. Array literals, attribute
/// brackets, and generics do not match.
fn count_index_exprs(code: &str) -> usize {
    let bytes = code.as_bytes();
    let mut count = 0;
    for i in 1..bytes.len() {
        if bytes[i] == b'[' {
            let p = bytes[i - 1];
            if p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']' {
                count += 1;
            }
        }
    }
    count
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
    fn flags_unwrap_in_kernel_path() {
        let out = run_on("crates/kernel/src/x.rs", "fn f() { v.unwrap(); }\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Error);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn ignores_non_kernel_crates_and_tests() {
        assert!(run_on("crates/bench/src/x.rs", "v.unwrap();\n").is_empty());
        assert!(run_on("crates/kernel/tests/t.rs", "v.unwrap();\n").is_empty());
        let in_mod = "#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); }\n}\n";
        assert!(run_on("crates/kernel/src/x.rs", in_mod).is_empty());
    }

    #[test]
    fn suppression_with_reason_accepted() {
        let src = "// lint: allow(panic-freedom) — slot is always populated by enqueue.\nv.unwrap();\n";
        assert!(run_on("crates/nr/src/x.rs", src).is_empty());
    }

    #[test]
    fn string_contents_do_not_trip() {
        let src = "let s = \"please don't panic!\";\n";
        assert!(run_on("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn indexing_heavy_is_warning_only() {
        let src = "let x = a[i] + b[j] + c[k];\n";
        let out = run_on("crates/hw/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warning);
        // Two indexes stay quiet.
        assert!(run_on("crates/hw/src/x.rs", "let x = a[i] + b[j];\n").is_empty());
    }

    #[test]
    fn index_counting_shapes() {
        assert_eq!(count_index_exprs("a[i] + b(c)[d] + e[f][g]"), 4);
        assert_eq!(count_index_exprs("let a = [0u8; 4]; #[attr]"), 0);
    }
}
