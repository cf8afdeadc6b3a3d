//! L4 `atomics-ordering`: `Ordering::Relaxed` in `crates/nr`,
//! `crates/uring`, `crates/ulib`, `crates/telemetry`, and
//! `crates/kernel` must be an explicitly reviewed site. The NR log's
//! correctness argument leans on acquire/release edges, the uring SPSC
//! rings publish slot contents with a Release store that a stray
//! `Relaxed` would silently unorder, the ulib ring executor's
//! park/unpark handshake rides those same edges, the telemetry
//! instruments deliberately trade exactness for Relaxed traffic (each
//! trade carries its own argument), and the kernel has no Relaxed site
//! at all (its translation cache publishes through the all-`SeqCst`
//! `veros_telemetry::SeqSlot`), so a new one there changes a protocol;
//! all of these are exactly the kind of bug the linearizability
//! checkers can miss on a lucky schedule. Reviewed sites carry
//! `// lint: allow(atomics-ordering) — <why Relaxed is sound here>`.

use super::Lint;
use crate::diag::{Diagnostic, Severity};
use crate::source::Workspace;

const ID: &str = "atomics-ordering";

pub const LINT: Lint = Lint {
    id: ID,
    describe:
        "`Ordering::Relaxed` in crates/{nr,uring,ulib,telemetry,kernel} outside reviewed sites",
    run: Some(run),
};

fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        let in_scope = matches!(
            file.crate_key.as_str(),
            "nr" | "uring" | "ulib" | "telemetry" | "kernel"
        );
        if !(in_scope && file.shipped) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if file.in_test[idx] || !line.code.contains("Ordering::Relaxed") {
                continue;
            }
            if file.is_suppressed(ID, idx) {
                continue;
            }
            out.push(Diagnostic::new(
                ID,
                Severity::Error,
                file.rel_path.clone(),
                idx + 1,
                format!(
                    "`Ordering::Relaxed` outside the reviewed-site allowlist; justify with `// lint: allow({ID}) — reason`"
                ),
            ));
        }
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
    fn flags_unreviewed_relaxed_in_nr() {
        let out = run_on("crates/nr/src/log.rs", "let x = a.load(Ordering::Relaxed);\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
        assert_eq!(out[0].lint, ID);
    }

    #[test]
    fn reviewed_site_passes() {
        let src = "// lint: allow(atomics-ordering) — monotonic counter, read for stats only.\n\
                   let x = a.load(Ordering::Relaxed);\n";
        assert!(run_on("crates/nr/src/log.rs", src).is_empty());
    }

    #[test]
    fn uring_and_ulib_are_in_scope() {
        let out = run_on("crates/uring/src/spsc.rs", "let x = a.load(Ordering::Relaxed);
");
        assert_eq!(out.len(), 1);
        let out = run_on("crates/ulib/src/runtime.rs", "let x = a.load(Ordering::Relaxed);\n");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn telemetry_and_kernel_are_in_scope() {
        let out = run_on("crates/telemetry/src/counter.rs", "a.load(Ordering::Relaxed);\n");
        assert_eq!(out.len(), 1);
        let out = run_on("crates/kernel/src/tlb.rs", "a.load(Ordering::Relaxed);\n");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn other_crates_and_tests_out_of_scope() {
        assert!(run_on("crates/bench/src/x.rs", "a.load(Ordering::Relaxed);\n").is_empty());
        assert!(run_on("crates/nr/tests/t.rs", "a.load(Ordering::Relaxed);\n").is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { a.load(Ordering::Relaxed); }\n}\n";
        assert!(run_on("crates/nr/src/log.rs", in_test).is_empty());
    }

    #[test]
    fn acquire_release_untouched() {
        assert!(run_on("crates/nr/src/log.rs", "a.load(Ordering::Acquire);\n").is_empty());
    }
}
