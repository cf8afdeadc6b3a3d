//! The concurrency-protocol pass over the extracted items.
//!
//! Where the registry lints ([`crate::lints`]) judge single lines, the
//! pass here consumes the per-atomic-field access table (`access`) and
//! judges a *protocol*: [`PUBLICATION`] — a field stored with
//! Release/SeqCst must have at least one Acquire/SeqCst load somewhere
//! in the workspace, and an Acquire load of a field whose stores are
//! all Relaxed synchronizes with nothing. Both directions are pure
//! waste or a latent bug.
//!
//! Two protocols need no pass because a type holds them. A field that
//! must only be touched under a lock lives inside the value the lock
//! guards, and the borrow checker refuses any other access. Words
//! published under a seqlock stamp live inside `veros_telemetry::
//! SeqSlot`, whose private fields only its own bracketed methods reach.
//!
//! Conservativeness: what cannot be bound is *loud* — unbound atomic
//! ops, unreadable orderings, and ambiguous field names all become
//! findings and gate counters, and files or item headers the extractor
//! cannot see are gate counters too, so the analysis fails open, never
//! silently. Reviewed sites are suppressed with the standard
//! `// lint: allow(<pass-id>) — reason` syntax.

use crate::access::{AccessTable, MemOrder};
use crate::diag::{Diagnostic, Severity};
use crate::model::{self, Item};
use crate::source::{SourceFile, Workspace};

pub const PUBLICATION: &str = "publication-pairing";

/// Anti-vacuity counters for `results/LINT.json` — proof the analyzer
/// saw a real population, not an empty one.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Tracked atomic fields/statics/params.
    pub atomic_fields: usize,
    /// Ordering-parsed accesses recorded.
    pub accesses: usize,
    /// Fields with both a store and a load access — the pairing pass
    /// made a nontrivial decision for each.
    pub publication_pairs: usize,
    /// Tracked-field ops with unreadable orderings. Gated to 0.
    pub unknown_orderings: usize,
    /// Atomic ops bound to no field. Gated to 0.
    pub unbound_accesses: usize,
    /// Field names tracked under two declarations. Gated to 0.
    pub ambiguous_fields: usize,
    /// Shipped files the item extractor found no items in. The access
    /// table's Phase 1 reads every struct field and static from
    /// extracted items, so a blind file's atomic fields would drop out
    /// of the pairing pass silently. Gated to 0.
    pub unparsed: Vec<String>,
    /// `file:line` of item headers the extractor missed: a struct or
    /// static whose header is missed contributes no declaration either.
    /// Gated to 0.
    pub stray_headers: Vec<String>,
}

/// The analysis of a loaded workspace: extracted items plus access
/// table.
pub struct Analysis<'w> {
    files: &'w [SourceFile],
    items: Vec<Item>,
    table: AccessTable,
}

impl<'w> Analysis<'w> {
    /// Extracts the items of `ws`'s files and builds the access table.
    pub fn new(ws: &'w Workspace) -> Analysis<'w> {
        let mut items = Vec::new();
        for (i, f) in ws.files.iter().enumerate() {
            model::extract_items(i, f, &mut items);
        }
        let table = AccessTable::build(&ws.files, &items);
        Analysis {
            files: &ws.files,
            items,
            table,
        }
    }

    /// Runs the pass, appending findings and returning the counters.
    pub fn run(&self, out: &mut Vec<Diagnostic>) -> Counters {
        let blind = model::blind_spots(self.files, &self.items);
        let mut c = Counters {
            atomic_fields: self.table.fields.len(),
            accesses: self.table.accesses.len(),
            unknown_orderings: self.table.unknown_order.len(),
            unbound_accesses: self.table.unbound.len(),
            ambiguous_fields: self.table.ambiguous.len(),
            unparsed: blind.unparsed,
            stray_headers: blind.stray_headers,
            ..Counters::default()
        };
        self.extraction_findings(out);
        self.publication(&mut c, out);
        c
    }

    fn rel(&self, file: usize) -> String {
        self.files[file].rel_path.clone()
    }

    fn suppressed(&self, id: &str, file: usize, line: usize) -> bool {
        self.files[file].is_suppressed(id, line - 1)
    }

    /// Everything the extractor could not bind becomes a finding — the
    /// fail-open rule: an unreadable site must not silently vanish from
    /// the analysis.
    fn extraction_findings(&self, out: &mut Vec<Diagnostic>) {
        for u in self
            .table
            .unbound
            .iter()
            .chain(&self.table.unknown_order)
            .chain(&self.table.ambiguous)
        {
            if self.suppressed(PUBLICATION, u.file, u.line) {
                continue;
            }
            out.push(Diagnostic::new(
                PUBLICATION,
                Severity::Error,
                self.rel(u.file),
                u.line,
                format!("{} — the protocol pass cannot see this site", u.what),
            ));
        }
    }

    /// Publication pairing.
    fn publication(&self, c: &mut Counters, out: &mut Vec<Diagnostic>) {
        for (fi, field) in self.table.fields.iter().enumerate() {
            let accs: Vec<_> = self
                .table
                .accesses
                .iter()
                .filter(|a| a.field == fi)
                .collect();
            if accs.is_empty() {
                continue;
            }
            let stores: Vec<_> = accs.iter().filter(|a| a.store.is_some()).collect();
            let loads: Vec<_> = accs.iter().filter(|a| a.load.is_some()).collect();
            let releasing: Vec<_> = stores
                .iter()
                .filter(|a| a.store.is_some_and(MemOrder::releases))
                .collect();
            let acquiring: Vec<_> = loads
                .iter()
                .filter(|a| a.load.is_some_and(MemOrder::acquires))
                .collect();
            if !stores.is_empty() && !loads.is_empty() {
                c.publication_pairs += 1;
            }
            let label = format!("`{}.{}`", field.holder, field.name);
            if !releasing.is_empty() && acquiring.is_empty() {
                let a = releasing
                    .iter()
                    .min_by_key(|a| (a.file, a.line))
                    .expect("non-empty");
                if !self.suppressed(PUBLICATION, a.file, a.line) {
                    out.push(Diagnostic::new(
                        PUBLICATION,
                        Severity::Error,
                        self.rel(a.file),
                        a.line,
                        format!(
                            "releasing store to {label} has no Acquire/SeqCst load anywhere \
                             in the workspace — nothing can synchronize with this publication; \
                             add the reader edge, weaken the store, or justify with \
                             `// lint: allow({PUBLICATION}) — reason`"
                        ),
                    ));
                }
            }
            if !acquiring.is_empty() && !stores.is_empty() && releasing.is_empty() {
                let a = acquiring
                    .iter()
                    .min_by_key(|a| (a.file, a.line))
                    .expect("non-empty");
                if !self.suppressed(PUBLICATION, a.file, a.line) {
                    out.push(Diagnostic::new(
                        PUBLICATION,
                        Severity::Error,
                        self.rel(a.file),
                        a.line,
                        format!(
                            "acquiring load of {label} but every store is Relaxed — the load \
                             synchronizes with nothing; strengthen a store, relax the load, or \
                             justify with `// lint: allow({PUBLICATION}) — reason`"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)]) -> (Vec<Diagnostic>, Counters) {
        let ws = Workspace::from_sources(sources);
        let analysis = Analysis::new(&ws);
        let mut out = Vec::new();
        let c = analysis.run(&mut out);
        (out, c)
    }

    const HEADER: &str = "use std::sync::atomic::{AtomicU64, Ordering};\n";

    #[test]
    fn unpaired_release_store_flagged() {
        let src = format!(
            "{HEADER}\
pub struct R {{ seq: AtomicU64 }}
impl R {{
    pub fn publish(&self) {{ self.seq.store(1, Ordering::Release); }}
    pub fn peek(&self) -> u64 {{ self.seq.load(Ordering::Relaxed) }}
}}
"
        );
        let (out, c) = run(&[("crates/demo/src/lib.rs", &src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, PUBLICATION);
        assert_eq!(out[0].line, 4);
        assert_eq!(c.publication_pairs, 1);
        assert_eq!(c.atomic_fields, 1);
    }

    #[test]
    fn paired_release_acquire_clean() {
        let src = format!(
            "{HEADER}\
pub struct R {{ seq: AtomicU64 }}
impl R {{
    pub fn publish(&self) {{ self.seq.store(1, Ordering::Release); }}
    pub fn read(&self) -> u64 {{ self.seq.load(Ordering::Acquire) }}
}}
"
        );
        let (out, c) = run(&[("crates/demo/src/lib.rs", &src)]);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(c.publication_pairs, 1);
    }

    #[test]
    fn acquire_of_relaxed_only_store_flagged_and_suppressible() {
        let body = |allow: &str| {
            format!(
                "{HEADER}\
pub struct R {{ n: AtomicU64 }}
impl R {{
    pub fn bump(&self) {{ self.n.store(1, Ordering::Relaxed); }}
    {allow}
    pub fn read(&self) -> u64 {{ self.n.load(Ordering::Acquire) }}
}}
"
            )
        };
        let (out, _) = run(&[("crates/demo/src/lib.rs", &body(""))]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("synchronizes with nothing"));
        let allow = "// lint: allow(publication-pairing) — hardware fence elsewhere.";
        let (out, _) = run(&[("crates/demo/src/lib.rs", &body(allow))]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unbound_access_is_loud() {
        let src = format!(
            "{HEADER}\
pub fn f(mystery: &dyn std::any::Any) {{
    mystery.store(1, Ordering::Relaxed);
}}
"
        );
        let (out, c) = run(&[("crates/demo/src/lib.rs", &src)]);
        assert_eq!(c.unbound_accesses, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("binds to no declared field"));
    }
}
