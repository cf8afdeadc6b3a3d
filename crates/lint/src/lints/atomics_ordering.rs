//! L4 `atomics-ordering`: an explicit `Ordering::Relaxed`, `Acquire`,
//! `Release` or `AcqRel` in `crates/nr`, `crates/uring`, `crates/ulib`,
//! `crates/telemetry` and `crates/kernel` must be an explicitly
//! reviewed site. `SeqCst` stays free: a `SeqCst` operation both
//! releases and acquires, so it cannot be the unpaired half of an edge
//! (NR's `DistRwLock` flags and `veros_telemetry::SeqSlot` use it).
//!
//! A word that publishes data goes through
//! `veros_telemetry::Published`, whose stores release and whose loads
//! acquire, with no way for a caller to pick another ordering; its five
//! sites are the only reviewed acquire/release sites, so a releasing
//! store with no acquiring partner cannot be written elsewhere. A
//! `Relaxed` site trades ordering away on purpose: NR's registration
//! counter and `DistRwLock`'s spins and failed CASes publish nothing,
//! and the telemetry instruments trade exactness for traffic. Each
//! trade carries its own argument, because an ordering bug is exactly
//! the kind the linearizability checkers can miss on a lucky schedule.
//! Reviewed sites carry
//! `// lint: allow(atomics-ordering) — <why this ordering is sound here>`.

use super::Lint;
use crate::diag::{Diagnostic, Severity};
use crate::source::Workspace;

const ID: &str = "atomics-ordering";

/// The orderings a site must justify.
const REVIEWED: [&str; 4] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

pub const LINT: Lint = Lint {
    id: ID,
    describe: "`Ordering::{Relaxed,Acquire,Release,AcqRel}` in crates/{nr,uring,ulib,telemetry,kernel} outside reviewed sites",
    run,
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
            if file.in_test[idx] {
                continue;
            }
            let Some(ordering) = REVIEWED.iter().find(|o| line.code.contains(*o)) else {
                continue;
            };
            if file.is_suppressed(ID, idx) {
                continue;
            }
            out.push(Diagnostic::new(
                ID,
                Severity::Error,
                file.rel_path.clone(),
                idx + 1,
                format!(
                    "`{ordering}` outside the reviewed-site allowlist; publish through `veros_telemetry::Published` or justify with `// lint: allow({ID}) — reason`"
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
    fn acquire_and_release_need_review_too() {
        let out = run_on("crates/nr/src/log.rs", "a.store(1, Ordering::Release);\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Ordering::Release"));
        let src = "// lint: allow(atomics-ordering) — the release half of a reviewed edge.\n\
                   a.store(1, Ordering::Release);\n";
        assert!(run_on("crates/nr/src/log.rs", src).is_empty());
        let out = run_on("crates/nr/src/log.rs", "a.load(Ordering::Acquire);\n");
        assert_eq!(out.len(), 1);
        let cas = "a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n";
        assert_eq!(
            run_on("crates/nr/src/log.rs", cas).len(),
            1,
            "one finding per line"
        );
    }

    #[test]
    fn seq_cst_stays_free() {
        assert!(run_on("crates/nr/src/rwlock.rs", "a.load(Ordering::SeqCst);\n").is_empty());
    }
}
