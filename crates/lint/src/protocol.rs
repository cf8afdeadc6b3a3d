//! Flow-aware concurrency-protocol passes over the item graph.
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
//! - [`GUARD`] — a field annotated `// guarded-by: <lock>` may only be
//!   touched from items whose transitive item-graph footprint acquires
//!   that lock. The lock must resolve to a lock-typed declaration;
//!   failures feed the `unresolved-guard` counter, gated to 0.
//!
//! Conservativeness: the table over-approximates touches (any `.field`
//! projection counts) and the guard check over-approximates acquisition
//! (a lock-word + acquire-call anywhere in the footprint). What cannot
//! be bound is *loud* — unbound atomic ops, unreadable orderings, and
//! ambiguous field names all become findings and gate counters, and
//! files or item headers the extractor cannot see are gate counters
//! too, so the analysis fails open, never silently. Reviewed sites are
//! suppressed with the standard `// lint: allow(<pass-id>) — reason`
//! syntax.

use std::collections::{BTreeMap, BTreeSet};

use crate::access::{AccessTable, MemOrder};
use crate::diag::{Diagnostic, Severity};
use crate::graph::ItemGraph;
use crate::lexer;
use crate::source::{SourceFile, Workspace};

pub const PUBLICATION: &str = "publication-pairing";
pub const SEQLOCK: &str = "seqlock-discipline";
pub const GUARD: &str = "guard-discipline";

/// Call shapes that acquire a lock when they share a line with the
/// lock's name.
const ACQUIRE_CALLS: &[&str] = &[
    ".lock(",
    ".read(",
    ".write(",
    ".try_read(",
    ".try_write(",
    ".try_lock(",
    ".acquire(",
];

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
    /// Fields carrying a `guarded-by:` annotation.
    pub guard_fields: usize,
    /// Guard annotations whose lock resolved to a lock-typed decl.
    pub guards_resolved: usize,
    /// Guard annotations that resolved to nothing. Gated to 0.
    pub unresolved_guards: usize,
    /// Tracked-field ops with unreadable orderings. Gated to 0.
    pub unknown_orderings: usize,
    /// Atomic ops bound to no field. Gated to 0.
    pub unbound_accesses: usize,
    /// Field names tracked under two declarations. Gated to 0.
    pub ambiguous_fields: usize,
    /// Shipped files the item extractor found no items in. The guard
    /// pass skips a touch it cannot bind to an item, so a blind file
    /// would drop out silently. Gated to 0.
    pub unparsed: Vec<String>,
    /// `file:line` of item headers the extractor missed. Gated to 0.
    pub stray_headers: Vec<String>,
}

/// The analysis of a loaded workspace: item graph plus access table.
pub struct Analysis<'w> {
    files: &'w [SourceFile],
    graph: ItemGraph,
    pub table: AccessTable,
}

impl<'w> Analysis<'w> {
    /// Builds the item graph and access table over `ws`'s files.
    pub fn new(ws: &'w Workspace) -> Analysis<'w> {
        let graph = ItemGraph::build(&ws.files);
        let table = AccessTable::build(&ws.files, &graph.items);
        Analysis {
            files: &ws.files,
            graph,
            table,
        }
    }

    /// Runs all three passes, appending findings and returning the
    /// counters.
    pub fn run(&self, out: &mut Vec<Diagnostic>) -> Counters {
        let blind = self.graph.blind_spots(self.files);
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
        self.guard(&mut c, out);
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
            let Some(stamp) = field.seqlock_stamp() else { continue };
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
                let it = &self.graph.items[item];
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

    /// Pass 3: guard discipline — every touching item's transitive
    /// footprint must acquire the named lock.
    fn guard(&self, c: &mut Counters, out: &mut Vec<Diagnostic>) {
        // Memo: item id -> directly acquires `lock` (by name).
        let mut acquire_memo: BTreeMap<(usize, String), bool> = BTreeMap::new();
        for (fi, field) in self.table.fields.iter().enumerate() {
            let Some(lock) = field.guarded_by() else { continue };
            c.guard_fields += 1;
            let label = format!("`{}.{}`", field.holder, field.name);
            let resolved = self
                .table
                .locks
                .iter()
                .any(|l| l.crate_key == field.crate_key && l.name == lock);
            if !resolved {
                c.unresolved_guards += 1;
                out.push(Diagnostic::new(
                    GUARD,
                    Severity::Error,
                    self.rel(field.file),
                    field.line,
                    format!(
                        "{label} is `guarded-by: {lock}` but `{lock}` resolves to no \
                         lock-typed declaration in crate `{}` (unresolved-guard)",
                        field.crate_key
                    ),
                ));
                continue;
            }
            c.guards_resolved += 1;
            // Touching items and their first touch line.
            let mut by_item: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
            let touch_points = self
                .table
                .accesses
                .iter()
                .filter(|a| a.field == fi)
                .map(|a| (a.item, a.file, a.line))
                .chain(
                    self.table
                        .touches
                        .iter()
                        .filter(|t| t.field == fi)
                        .map(|t| (t.item, t.file, t.line)),
                );
            for (item, file, line) in touch_points {
                let Some(item) = item else { continue };
                let e = by_item.entry(item).or_insert((file, line));
                if line < e.1 {
                    *e = (file, line);
                }
            }
            for (item, (file, line)) in by_item {
                let closure = self.graph.closure(&BTreeSet::from([item]));
                let guarded = closure.iter().any(|&id| {
                    *acquire_memo
                        .entry((id, lock.to_string()))
                        .or_insert_with(|| self.item_acquires(id, lock))
                });
                if guarded || self.suppressed(GUARD, file, line) {
                    continue;
                }
                out.push(Diagnostic::new(
                    GUARD,
                    Severity::Error,
                    self.rel(file),
                    line,
                    format!(
                        "`{}` touches {label} (guarded-by: {lock}) but neither it nor \
                         anything in its footprint acquires `{lock}`; take the lock or \
                         justify with `// lint: allow({GUARD}) — reason`",
                        self.graph.items[item].name
                    ),
                ));
            }
        }
    }

    /// True when any code line of `item` names `lock` and makes an
    /// acquire-shaped call on the same line.
    fn item_acquires(&self, item: usize, lock: &str) -> bool {
        let it = &self.graph.items[item];
        let file = &self.files[it.file];
        for &(a, b) in &it.ranges {
            for l in a..=b.min(file.lines.len()) {
                let code = &file.lines[l - 1].code;
                if lexer::has_word(code, lock)
                    && ACQUIRE_CALLS.iter().any(|p| code.contains(p))
                {
                    return true;
                }
            }
        }
        false
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
    fn guard_violation_clean_twin_and_unresolved() {
        let mk = |guarded: &str, lockty: &str| {
            format!(
                "{HEADER}\
use std::sync::Mutex;
pub struct S {{
    lock: {lockty},
    // guarded-by: {guarded}
    pub count: AtomicU64,
}}
impl S {{
    pub fn good(&self) {{
        let _g = self.lock.lock();
        self.count.store(1, Ordering::Relaxed);
    }}
    pub fn bad(&self) -> u64 {{
        self.count.load(Ordering::Relaxed)
    }}
}}
"
            )
        };
        let (out, c) = run(&[("crates/demo/src/lib.rs", &mk("lock", "Mutex<u64>"))]);
        assert_eq!(c.guard_fields, 1);
        assert_eq!(c.guards_resolved, 1);
        assert_eq!(c.unresolved_guards, 0);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, GUARD);
        assert!(out[0].message.contains("`bad`"), "{}", out[0].message);

        // Lock name that resolves to nothing: loud unresolved-guard.
        let (out, c) = run(&[("crates/demo/src/lib.rs", &mk("nolock", "Mutex<u64>"))]);
        assert_eq!(c.unresolved_guards, 1);
        assert!(out.iter().any(|d| d.message.contains("unresolved-guard")));
    }

    #[test]
    fn guard_acquisition_through_callee_counts() {
        let src = format!(
            "{HEADER}\
use std::sync::Mutex;
pub struct S {{
    lock: Mutex<u64>,
    // guarded-by: lock
    pub count: AtomicU64,
}}
impl S {{
    fn with_lock(&self) {{
        let _g = self.lock.lock();
    }}
    pub fn outer(&self) {{
        self.with_lock();
        self.count.store(1, Ordering::Relaxed);
    }}
}}
"
        );
        let (out, _) = run(&[("crates/demo/src/lib.rs", &src)]);
        assert!(out.is_empty(), "footprint acquisition suffices: {out:?}");
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
