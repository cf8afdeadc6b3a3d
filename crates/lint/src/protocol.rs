//! Concurrency-protocol passes over the extracted items.
//!
//! Where the registry lints ([`crate::lints`]) judge single lines, the
//! passes here consume the per-atomic-field access table (`access`)
//! and judge *protocols*:
//!
//! - [`PUBLICATION`] — a field stored with Release/SeqCst must have at
//!   least one Acquire/SeqCst load somewhere in the workspace, and an
//!   Acquire load of a field whose stores are all Relaxed synchronizes
//!   with nothing. Both directions are pure waste or a latent bug.
//! - [`SEQLOCK`] — a field annotated `// protocol: seqlock(<stamp>)`
//!   may only be touched by items that also access the stamp before
//!   the first touch and after the last one (writers bump odd/even,
//!   readers re-check; the bracketing shape is what's checkable
//!   lexically).
//!
//! A field that must only be touched under a lock needs no pass: it
//! lives inside the value the lock guards, and the borrow checker
//! refuses any other access.
//!
//! Conservativeness: the table over-approximates touches (any `.field`
//! projection counts). What cannot be bound is *loud* — unbound atomic
//! ops, unreadable orderings, and ambiguous field names all become
//! findings and gate counters, and files or item headers the extractor
//! cannot see are gate counters too, so the analysis fails open, never
//! silently. Reviewed sites are suppressed with the standard
//! `// lint: allow(<pass-id>) — reason` syntax.

use std::collections::{BTreeMap, BTreeSet};

use crate::access::{AccessTable, MemOrder};
use crate::diag::{Diagnostic, Severity};
use crate::model::{self, Item};
use crate::source::{SourceFile, Workspace};

pub const PUBLICATION: &str = "publication-pairing";
pub const SEQLOCK: &str = "seqlock-discipline";

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
    /// Fields carrying a `protocol: seqlock(..)` annotation.
    pub seqlock_fields: usize,
    /// Tracked-field ops with unreadable orderings. Gated to 0.
    pub unknown_orderings: usize,
    /// Atomic ops bound to no field. Gated to 0.
    pub unbound_accesses: usize,
    /// Field names tracked under two declarations. Gated to 0.
    pub ambiguous_fields: usize,
    /// Shipped files the item extractor found no items in. The seqlock
    /// pass skips a touch it cannot bind to an item, so a blind file
    /// would drop out silently. Gated to 0.
    pub unparsed: Vec<String>,
    /// `file:line` of item headers the extractor missed. Gated to 0.
    pub stray_headers: Vec<String>,
}

/// The analysis of a loaded workspace: extracted items plus access
/// table.
pub struct Analysis<'w> {
    files: &'w [SourceFile],
    items: Vec<Item>,
    pub table: AccessTable,
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

    /// Runs both passes, appending findings and returning the counters.
    pub fn run(&self, out: &mut Vec<Diagnostic>) -> Counters {
        let blind = model::blind_spots(self.files, &self.items);
        let mut c = Counters {
            atomic_fields: self.table.fields.iter().filter(|f| f.atomic).count(),
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
        self.seqlock(&mut c, out);
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
                format!("{} — the protocol passes cannot see this site", u.what),
            ));
        }
    }

    /// Pass 1: publication pairing.
    fn publication(&self, c: &mut Counters, out: &mut Vec<Diagnostic>) {
        for (fi, field) in self.table.fields.iter().enumerate() {
            if !field.atomic {
                continue;
            }
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

    /// Pass 2: seqlock discipline — stamp accesses must bracket every
    /// touch run, per touching item.
    fn seqlock(&self, c: &mut Counters, out: &mut Vec<Diagnostic>) {
        for (fi, field) in self.table.fields.iter().enumerate() {
            let Some(stamp) = field.seqlock.as_deref() else { continue };
            c.seqlock_fields += 1;
            let label = format!("`{}.{}`", field.holder, field.name);
            let stamp_idx = self
                .table
                .field_index(&field.crate_key, stamp)
                .filter(|&s| self.table.fields[s].atomic);
            let Some(stamp_idx) = stamp_idx else {
                out.push(Diagnostic::new(
                    SEQLOCK,
                    Severity::Error,
                    self.rel(field.file),
                    field.line,
                    format!(
                        "{label} is `protocol: seqlock({stamp})` but `{stamp}` names no \
                         tracked atomic field in crate `{}`",
                        field.crate_key
                    ),
                ));
                continue;
            };
            // Touch lines per item (accesses and raw projections).
            let mut by_item: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
            for a in self.table.accesses.iter().filter(|a| a.field == fi) {
                if let Some(it) = a.item {
                    by_item.entry(it).or_default().insert(a.line);
                }
            }
            for t in self.table.touches.iter().filter(|t| t.field == fi) {
                if let Some(it) = t.item {
                    by_item.entry(it).or_default().insert(t.line);
                }
            }
            // Stamp access lines per item.
            let mut stamp_lines: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
            for a in self.table.accesses.iter().filter(|a| a.field == stamp_idx) {
                if let Some(it) = a.item {
                    stamp_lines.entry(it).or_default().insert(a.line);
                }
            }
            for (item, lines) in by_item {
                let first = *lines.iter().next().expect("non-empty");
                let last = *lines.iter().next_back().expect("non-empty");
                let ok = stamp_lines.get(&item).is_some_and(|sl| {
                    sl.iter().any(|&l| l <= first) && sl.iter().any(|&l| l >= last)
                });
                if ok {
                    continue;
                }
                let it = &self.items[item];
                if self.suppressed(SEQLOCK, it.file, first) {
                    continue;
                }
                out.push(Diagnostic::new(
                    SEQLOCK,
                    Severity::Error,
                    self.rel(it.file),
                    first,
                    format!(
                        "`{}` touches seqlock field {label} without bracketing `{stamp}` \
                         accesses (writers bump before/after the write, readers re-check \
                         after the read); fix the protocol or justify with \
                         `// lint: allow({SEQLOCK}) — reason`",
                        it.name
                    ),
                ));
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

    const HEADER: &str = "use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};\n";

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
    fn seqlock_violation_and_clean_twin() {
        let bad = format!(
            "{HEADER}\
use std::cell::UnsafeCell;
pub struct Cell2 {{
    seq: AtomicUsize,
    // protocol: seqlock(seq)
    val: UnsafeCell<u64>,
}}
impl Cell2 {{
    pub fn write(&self, v: u64) {{
        unsafe {{ *self.val.get() = v }};
    }}
}}
"
        );
        let (out, c) = run(&[("crates/demo/src/lib.rs", &bad)]);
        assert_eq!(c.seqlock_fields, 1);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, SEQLOCK);
        assert!(out[0].message.contains("seqlock"));

        let good = format!(
            "{HEADER}\
use std::cell::UnsafeCell;
pub struct Cell2 {{
    seq: AtomicUsize,
    // protocol: seqlock(seq)
    val: UnsafeCell<u64>,
}}
impl Cell2 {{
    pub fn write(&self, v: u64) {{
        let s = self.seq.load(Ordering::Relaxed);
        unsafe {{ *self.val.get() = v }};
        self.seq.store(s + 2, Ordering::Release);
    }}
    pub fn read(&self) -> u64 {{
        let s1 = self.seq.load(Ordering::Acquire);
        let v = unsafe {{ *self.val.get() }};
        let s2 = self.seq.load(Ordering::Acquire);
        if s1 == s2 {{ v }} else {{ 0 }}
    }}
}}
"
        );
        let (out, c) = run(&[("crates/demo/src/lib.rs", &good)]);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(c.seqlock_fields, 1);
    }

    #[test]
    fn seqlock_stamp_must_resolve() {
        let src = format!(
            "{HEADER}\
use std::cell::UnsafeCell;
pub struct Cell2 {{
    // protocol: seqlock(missing)
    val: UnsafeCell<u64>,
}}
"
        );
        let (out, _) = run(&[("crates/demo/src/lib.rs", &src)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("names no tracked atomic field"));
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
