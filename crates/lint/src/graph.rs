//! The item graph: every item of the loaded workspace plus conservative
//! callee/use edges between them.
//!
//! Edges are computed from lexical references: `a::b::c` paths, `f(...)`
//! calls, `.m(...)` method calls, `name!` macro invocations, and bare
//! identifiers that match known item names. Resolution is scoped by the
//! file's `use` imports (`use veros_x::...` maps names into crate `x`;
//! `crate::`/`self::` stay local), and anything ambiguous resolves to
//! *every* candidate — over-approximation is the design invariant, so
//! every heuristic here errs toward more edges. Consumers state what an
//! extra edge means for them (the guard pass: a lock taken anywhere in
//! an item's closure counts as held).
//!
//! The extractor is lexical, so it can be blind: a shipped file whose
//! code yields no items, or an item header it failed to open, would
//! drop out of the analysis silently. [`ItemGraph::blind_spots`] counts
//! both, and `veros-lint --gate` holds them at zero.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::model::{self, Item, ItemKind};
use crate::source::SourceFile;

/// What the item extractor could not see, over shipped source files.
#[derive(Clone, Debug, Default)]
pub struct BlindSpots {
    /// Shipped source files with code but no extracted items. Must stay 0.
    pub unparsed: Vec<String>,
    /// `file:line` of preamble lines that look like item headers the
    /// extractor missed. Must stay 0.
    pub stray_headers: Vec<String>,
}

/// The items of a workspace's files and the edges between them.
pub struct ItemGraph {
    pub items: Vec<Item>,
    /// Adjacency list over item ids.
    edges: Vec<BTreeSet<usize>>,
}

impl ItemGraph {
    /// Extracts every item of `files` and resolves its references.
    pub fn build(files: &[SourceFile]) -> ItemGraph {
        let mut items = Vec::new();
        for (i, f) in files.iter().enumerate() {
            model::extract_items(i, f, &mut items);
        }
        let idx = Index::build(files, &items);
        let imports: Vec<Imports> = files.iter().map(imports_of).collect();
        let edges = edges_of(files, &items, &idx, &imports);
        ItemGraph { items, edges }
    }

    /// Transitive closure from `seeds` (inclusive).
    pub fn closure(&self, seeds: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut seen = seeds.clone();
        let mut q: VecDeque<usize> = seeds.iter().copied().collect();
        while let Some(n) = q.pop_front() {
            for &m in &self.edges[n] {
                if seen.insert(m) {
                    q.push_back(m);
                }
            }
        }
        seen
    }

    /// The extractor's blind spots over the shipped files among
    /// `files` (the files this graph was built from).
    pub fn blind_spots(&self, files: &[SourceFile]) -> BlindSpots {
        let mut has_items = vec![false; files.len()];
        let mut preamble: Vec<Option<&Item>> = vec![None; files.len()];
        for it in &self.items {
            match it.kind {
                ItemKind::Preamble => preamble[it.file] = Some(it),
                _ => has_items[it.file] = true,
            }
        }
        let mut out = BlindSpots::default();
        for (i, f) in files.iter().enumerate() {
            if !f.shipped {
                continue;
            }
            // Pure re-export files (the root facade is all `pub use`)
            // legitimately have no items; `use` lines and attributes
            // don't count as unparseable code.
            let has_code = f.lines.iter().any(|l| {
                let t = l.code.trim_start();
                !l.is_code_blank()
                    && !l.is_attr()
                    && !t.starts_with("use ")
                    && !t.starts_with("pub use ")
                    && !t.starts_with("pub(crate) use ")
                    && t != "};"
                    && !t.chars().all(|c| "{}();,".contains(c) || c.is_whitespace())
            });
            if has_code && !has_items[i] {
                out.unparsed.push(f.rel_path.clone());
            }
            // Preamble lines that still look like definitions: the
            // extractor failed on them.
            let Some(pre) = preamble[i] else { continue };
            for &(a, b) in &pre.ranges {
                for l in a..=b.min(f.lines.len()) {
                    if let Some((k, _)) = model::header_of(&f.lines[l - 1].code) {
                        if !matches!(k, ItemKind::Const | ItemKind::Mod) {
                            out.stray_headers.push(format!("{}:{}", f.rel_path, l));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Names that are Rust keywords, primitives, or ubiquitous std items —
/// never resolved to workspace items.
fn is_reserved(name: &str) -> bool {
    const RESERVED: &[&str] = &[
        "fn", "let", "mut", "pub", "use", "mod", "if", "else", "match", "for", "while",
        "loop", "return", "in", "as", "where", "impl", "dyn", "move", "ref", "break",
        "continue", "static", "const", "type", "enum", "struct", "trait", "unsafe",
        "async", "await", "self", "Self", "crate", "super", "true", "false", "u8",
        "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
        "isize", "f32", "f64", "bool", "char", "str", "String", "Vec", "Box", "Option",
        "Some", "None", "Result", "Ok", "Err", "Arc", "Rc", "Cell", "RefCell", "Mutex",
        "RwLock", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Default",
        "Clone", "Copy", "Debug", "Display", "PartialEq", "Eq", "Hash", "Ord",
        "PartialOrd", "Send", "Sync", "Sized", "Drop", "From", "Into", "TryFrom",
        "TryInto", "Iterator", "IntoIterator", "Ordering", "PhantomData", "std",
        "core", "alloc", "derive", "cfg", "test", "allow", "deny", "doc", "inline",
        "must_use", "non_exhaustive", "repr",
    ];
    RESERVED.contains(&name)
}

/// Per-file import view.
#[derive(Debug, Default)]
struct Imports {
    /// Crate keys this file pulls items from (via `use veros_x::...`).
    crates: BTreeSet<String>,
    /// Imported leaf name (or `as` alias) → crate key it came from.
    names: HashMap<String, String>,
}

/// Maps a `use` path head (or qualified-path head) to a crate key.
/// Returns `None` for std/external heads that resolve nowhere.
fn crate_of_head(head: &str, own: &str) -> Option<String> {
    match head {
        "crate" | "self" | "super" => Some(own.to_string()),
        "std" | "core" | "alloc" | "libc" => None,
        "veros" => Some("veros".to_string()),
        _ => {
            if let Some(dir) = head.strip_prefix("veros_") {
                Some(dir.to_string())
            } else {
                // A bare head is a local module path.
                Some(own.to_string())
            }
        }
    }
}

/// Parses every `use` statement of a file into an [`Imports`] view.
fn imports_of(file: &SourceFile) -> Imports {
    let mut imp = Imports::default();
    let lines = &file.lines;
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].code.trim_start();
        let is_use = t.starts_with("use ") || t.starts_with("pub use ") || t.starts_with("pub(crate) use ");
        if !is_use {
            i += 1;
            continue;
        }
        // Accumulate the statement through its `;`.
        let mut stmt = String::new();
        while i < lines.len() {
            stmt.push_str(lines[i].code.trim());
            stmt.push(' ');
            i += 1;
            if stmt.contains(';') {
                break;
            }
        }
        let stmt = stmt.trim_start_matches("pub(crate)").trim_start();
        let stmt = stmt.trim_start_matches("pub").trim_start();
        let Some(body) = stmt.strip_prefix("use ") else { continue };
        let body = body.split(';').next().unwrap_or(body);
        collect_use(body.trim(), &file.crate_key, &mut imp);
    }
    imp
}

/// Recursively expands one `use` body (`a::b::{c, d::e as f, *}`).
fn collect_use(body: &str, own: &str, imp: &mut Imports) {
    // Split the leading path from a trailing brace group.
    let (path_part, group) = match body.find('{') {
        Some(p) if body.ends_with('}') => (&body[..p], Some(&body[p + 1..body.len() - 1])),
        _ => (body, None),
    };
    let segs: Vec<&str> = path_part
        .trim_end_matches("::")
        .split("::")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let Some(head) = segs.first() else {
        // `use {a, b}` form: treat each element as its own body.
        if let Some(g) = group {
            for part in split_group(g) {
                collect_use(&part, own, imp);
            }
        }
        return;
    };
    let Some(target) = crate_of_head(head, own) else { return };
    if target != own {
        imp.crates.insert(target.clone());
    }
    match group {
        Some(g) => {
            for part in split_group(g) {
                // Nested groups keep resolving into the same crate; the
                // leaf name (after any `as`) is what enters scope.
                collect_leaf(&part, &target, imp);
            }
        }
        None => {
            // `use a::b::c [as d];`
            let leaf = segs.last().unwrap_or(head);
            collect_leaf(leaf, &target, imp);
        }
    }
    // Intermediate segments (e.g. `abi` in `use veros_kernel::syscall::abi`)
    // also name modules usable as qualifiers.
    for seg in segs.iter().skip(1) {
        if *seg != "*" && !seg.contains(' ') {
            imp.names.insert((*seg).to_string(), target.clone());
        }
    }
}

/// Splits a brace-group body on top-level commas.
fn split_group(g: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in g.chars() {
        match c {
            '{' => {
                depth += 1;
                cur.push(c);
            }
            '}' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                parts.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    parts
}

/// Registers one `use` leaf (possibly `path::to::name as alias`, `*`,
/// or a nested group) under its crate.
fn collect_leaf(leaf: &str, target: &str, imp: &mut Imports) {
    let leaf = leaf.trim();
    if leaf.is_empty() || leaf == "*" {
        return;
    }
    if let Some(p) = leaf.find('{') {
        if leaf.ends_with('}') {
            for part in split_group(&leaf[p + 1..leaf.len() - 1]) {
                collect_leaf(&part, target, imp);
            }
            // The path prefix before the group also names a module.
            for seg in leaf[..p].split("::").map(str::trim) {
                if !seg.is_empty() {
                    imp.names.insert(seg.to_string(), target.to_string());
                }
            }
            return;
        }
    }
    if let Some(p) = leaf.find(" as ") {
        let alias = leaf[p + 4..].trim();
        if alias != "_" {
            imp.names.insert(alias.to_string(), target.to_string());
        }
        // The original path segments still matter as qualifiers.
        for seg in leaf[..p].split("::").map(str::trim) {
            if !seg.is_empty() {
                imp.names.insert(seg.to_string(), target.to_string());
            }
        }
        return;
    }
    for seg in leaf.split("::").map(str::trim) {
        if !seg.is_empty() && seg != "*" {
            imp.names.insert(seg.to_string(), target.to_string());
        }
    }
}

/// One lexical reference found in item code.
#[derive(Debug)]
struct RRef {
    path: Vec<String>,
    /// Preceded by `.` — a method call.
    method: bool,
}

/// Extracts all references from blanked code text.
fn refs_in(code: &str) -> Vec<RRef> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i] as char;
        if !(c.is_ascii_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        let prev = if i > 0 { b[i - 1] as char } else { ' ' };
        if prev.is_ascii_alphanumeric() || prev == '_' {
            i += 1;
            continue;
        }
        // Read a `::`-joined path of identifiers.
        let mut path = Vec::new();
        loop {
            let start = i;
            while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            path.push(code[start..i].to_string());
            if i + 1 < b.len() && b[i] == b':' && b[i + 1] == b':' {
                let j = i + 2;
                if j < b.len() && ((b[j] as char).is_ascii_alphabetic() || b[j] == b'_') {
                    i = j;
                    continue;
                }
                // Turbofish / `::<` — stop the path here.
            }
            break;
        }
        out.push(RRef {
            path,
            method: prev == '.',
        });
    }
    out
}

/// Item lookup index: crate key → item name → item ids.
struct Index {
    by_name: HashMap<(String, String), Vec<usize>>,
    /// Children of each impl/trait block: (crate, parent, fn-name) → ids.
    by_parent: HashMap<(String, String, String), Vec<usize>>,
}

impl Index {
    fn build(files: &[SourceFile], items: &[Item]) -> Index {
        let mut by_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_parent: HashMap<(String, String, String), Vec<usize>> = HashMap::new();
        for (id, it) in items.iter().enumerate() {
            if it.kind == ItemKind::Preamble {
                continue;
            }
            let ck = files[it.file].crate_key.clone();
            by_name.entry((ck.clone(), it.name.clone())).or_default().push(id);
            if let Some(p) = &it.parent {
                by_parent
                    .entry((ck, p.clone(), it.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        Index { by_name, by_parent }
    }

    fn lookup(&self, ck: &str, name: &str) -> &[usize] {
        self.by_name
            .get(&(ck.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn lookup_method(&self, ck: &str, qualifier: &str, name: &str) -> &[usize] {
        self.by_parent
            .get(&(ck.to_string(), qualifier.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Resolves one reference to candidate item ids.
fn resolve(r: &RRef, own: &str, imp: &Imports, idx: &Index, out: &mut BTreeSet<usize>) {
    if r.path.len() == 1 {
        let n = &r.path[0];
        if is_reserved(n) {
            return;
        }
        if r.method {
            // `.m(...)`: the receiver type is unknown — any fn named
            // `m` in this crate or any imported crate qualifies.
            out.extend(idx.lookup(own, n).iter().copied());
            for ck in &imp.crates {
                out.extend(idx.lookup(ck, n).iter().copied());
            }
            return;
        }
        out.extend(idx.lookup(own, n).iter().copied());
        if let Some(ck) = imp.names.get(n) {
            out.extend(idx.lookup(ck, n).iter().copied());
        }
        return;
    }
    // Qualified path `a::...::q::last`.
    let head = &r.path[0];
    let last = r.path.last().unwrap();
    if is_reserved(last) && r.path.len() == 2 && is_reserved(head) {
        return;
    }
    let mut targets: BTreeSet<String> = BTreeSet::new();
    match crate_of_head(head, own) {
        Some(t) if t == *own => {
            // Local path — but the head may itself be an imported module
            // (`abi::flags` with `use veros_kernel::syscall::abi`).
            targets.insert(own.to_string());
            if let Some(ck) = imp.names.get(head) {
                targets.insert(ck.clone());
            }
        }
        Some(t) => {
            targets.insert(t);
        }
        None => return,
    }
    let qualifier = if r.path.len() >= 2 {
        Some(&r.path[r.path.len() - 2])
    } else {
        None
    };
    for ck in &targets {
        // `Type::method` — prefer methods of that type, plus the type
        // itself; fall back to any item with the leaf name.
        let mut narrowed = false;
        if let Some(q) = qualifier {
            if !is_reserved(q) {
                let methods = idx.lookup_method(ck, q, last);
                if !methods.is_empty() {
                    out.extend(methods.iter().copied());
                    narrowed = true;
                }
                out.extend(idx.lookup(ck, q).iter().copied());
            }
        }
        if !narrowed && !is_reserved(last) {
            out.extend(idx.lookup(ck, last).iter().copied());
        }
    }
}

/// Edges for every item: references in its code, an implicit edge to
/// its file's preamble, and preamble → imported crates' `lib.rs`
/// preambles (so cross-crate closure always reaches the target crate's
/// root wiring).
fn edges_of(
    files: &[SourceFile],
    items: &[Item],
    idx: &Index,
    imports: &[Imports],
) -> Vec<BTreeSet<usize>> {
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); items.len()];
    // Preamble id per file, crate roots.
    let mut preamble: HashMap<usize, usize> = HashMap::new();
    let mut crate_root_pre: HashMap<String, usize> = HashMap::new();
    for (id, it) in items.iter().enumerate() {
        if it.kind == ItemKind::Preamble {
            preamble.insert(it.file, id);
            let f = &files[it.file];
            if f.rel_path.ends_with("/src/lib.rs") || f.rel_path == "src/lib.rs" {
                crate_root_pre.insert(f.crate_key.clone(), id);
            }
        }
    }
    for (id, it) in items.iter().enumerate() {
        let file = &files[it.file];
        let own = &file.crate_key;
        let imp = &imports[it.file];
        if let Some(&p) = preamble.get(&it.file) {
            if p != id {
                edges[id].insert(p);
            }
        }
        if it.kind == ItemKind::Preamble {
            for ck in &imp.crates {
                if let Some(&p) = crate_root_pre.get(ck) {
                    edges[id].insert(p);
                }
            }
        }
        // Resolve references line by line over the item's ranges.
        // `use` lines are skipped: imports only bring names into
        // scope, and items referencing those names already get
        // direct edges through the imports map. Resolving the use
        // lines themselves would weld every item of a file to the
        // union of everything the file imports (core/vcs.rs imports
        // every crate) and collapse all closures into one.
        let mut in_use_stmt = false;
        for &(a, b) in &it.ranges {
            for l in a..=b.min(file.lines.len()) {
                let code = &file.lines[l - 1].code;
                let t = code.trim_start();
                if !in_use_stmt
                    && (t.starts_with("use ")
                        || t.starts_with("pub use ")
                        || t.starts_with("pub(crate) use "))
                {
                    in_use_stmt = true;
                }
                if in_use_stmt {
                    if code.contains(';') {
                        in_use_stmt = false;
                    }
                    continue;
                }
                for r in refs_in(code) {
                    resolve(&r, own, imp, idx, &mut edges[id]);
                }
            }
        }
        edges[id].remove(&id);
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    fn graph(sources: &[(&str, &str)]) -> (Vec<SourceFile>, ItemGraph) {
        let files = Workspace::from_sources(sources).files;
        let g = ItemGraph::build(&files);
        (files, g)
    }

    #[test]
    fn clean_sources_have_no_blind_spots() {
        let (files, g) = graph(&[
            (
                "crates/alpha/src/lib.rs",
                "//! Alpha.\npub mod inner;\npub use inner::work;\npub fn entry() -> u64 { inner::work(7) }\n",
            ),
            ("crates/alpha/src/inner.rs", "//! Inner.\npub fn work(x: u64) -> u64 { x * 2 }\n"),
        ]);
        let spots = g.blind_spots(&files);
        assert!(spots.unparsed.is_empty(), "{:?}", spots.unparsed);
        assert!(spots.stray_headers.is_empty(), "{:?}", spots.stray_headers);
        let names: Vec<&str> = g.items.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"entry") && names.contains(&"work"));
    }

    #[test]
    fn blind_spots_name_the_file_and_line() {
        let (files, g) = graph(&[
            // Code, but nothing the extractor recognises as an item.
            ("crates/alpha/src/lib.rs", "//! Alpha.\nlet x = 5;\n"),
            // A header whose body never opens lands in the preamble.
            (
                "crates/beta/src/lib.rs",
                "pub fn ok() -> u64 { 1 }\nfn dangling(x: u64)\n",
            ),
            // Test and example code is out of scope.
            ("tests/t.rs", "let y = 6;\n"),
        ]);
        let spots = g.blind_spots(&files);
        assert_eq!(spots.unparsed, ["crates/alpha/src/lib.rs"]);
        assert_eq!(spots.stray_headers, ["crates/beta/src/lib.rs:2"]);
    }
}
