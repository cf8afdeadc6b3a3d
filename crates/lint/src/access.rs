//! Per-atomic-field access extraction: the table the concurrency
//! protocol pass ([`crate::protocol`]) consumes.
//!
//! For every atomic field or static declared in a runtime crate, this
//! module records **every** load/store/RMW of it — with the parsed
//! `Ordering` halves and `file:line`.
//!
//! The analysis is lexical and conservative, like the item extractor:
//! extra accesses only make the pairing pass stricter, and everything
//! the extractor *cannot* bind is counted loudly —
//! [`AccessTable::unbound`] (an `Ordering`-carrying call whose receiver
//! resolves to no declared field), [`AccessTable::unknown_order`] (an
//! access of a tracked field whose ordering token is unreadable), and
//! [`AccessTable::ambiguous`] (a tracked name declared twice in one
//! crate, which would let pairing evidence from one field excuse
//! another). All three are gated to zero in CI.

use std::collections::{BTreeMap, HashMap};

use crate::lexer;
use crate::model::{self, Item, ItemKind};
use crate::source::SourceFile;

/// Crates the protocol pass never looks at: the analyzer itself and
/// the bench harness (not shipped runtime code).
pub const PROTOCOL_EXCLUDED_CRATES: &[&str] = &["bench", "lint"];

/// Atomic-method ordering halves, parsed from the call arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemOrder {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl MemOrder {
    fn parse(tok: &str) -> Option<MemOrder> {
        Some(match tok {
            "Relaxed" => MemOrder::Relaxed,
            "Acquire" => MemOrder::Acquire,
            "Release" => MemOrder::Release,
            "AcqRel" => MemOrder::AcqRel,
            "SeqCst" => MemOrder::SeqCst,
            _ => return None,
        })
    }

    /// True when a load at this ordering synchronizes-with a release.
    pub fn acquires(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst)
    }

    /// True when a store at this ordering publishes prior writes.
    pub fn releases(self) -> bool {
        matches!(self, MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst)
    }
}

/// One tracked field or static declaration: its type is atomic or an
/// all-atomic carrier.
#[derive(Clone, Debug)]
pub struct FieldDecl {
    /// Declaring struct name, `<static>`, or `<param>` (an atomic
    /// reference taken as a function parameter).
    pub holder: String,
    pub name: String,
    pub file: usize,
    /// 1-based declaration line.
    pub line: usize,
}

/// One atomic operation on a tracked field.
#[derive(Clone, Debug)]
pub struct Access {
    /// Index into [`AccessTable::fields`].
    pub field: usize,
    pub file: usize,
    /// 1-based line of the method call.
    pub line: usize,
    /// Ordering of the read half, when the op reads.
    pub load: Option<MemOrder>,
    /// Ordering of the write half, when the op writes.
    pub store: Option<MemOrder>,
}

/// Something the extractor could not resolve, anchored for diagnosis.
#[derive(Clone, Debug)]
pub struct Unresolved {
    pub file: usize,
    /// 1-based.
    pub line: usize,
    pub what: String,
}

/// The workspace-wide access table plus its loud-fail-open counters.
#[derive(Debug, Default)]
pub struct AccessTable {
    pub fields: Vec<FieldDecl>,
    pub accesses: Vec<Access>,
    /// Ordering-carrying calls bound to no field. Must stay 0.
    pub unbound: Vec<Unresolved>,
    /// Tracked-field ops with unreadable ordering tokens. Must stay 0.
    pub unknown_order: Vec<Unresolved>,
    /// Tracked names declared twice in one crate. Must stay 0.
    pub ambiguous: Vec<Unresolved>,
}

/// Atomic method names and how their ordering arguments split into
/// load/store halves.
const METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Primitive atomic type names (word-level, so `AtomicityProof` never
/// matches).
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

fn file_in_scope(f: &SourceFile) -> bool {
    f.shipped && !PROTOCOL_EXCLUDED_CRATES.contains(&f.crate_key.as_str())
}

fn mentions_atomic_primitive(ty: &str) -> bool {
    ATOMIC_TYPES.iter().any(|t| lexer::has_word(ty, t))
}

/// A raw field declaration before carrier classification.
struct RawField {
    crate_key: String,
    holder: String,
    name: String,
    file: usize,
    line: usize,
    type_text: String,
}

/// Parses `pub name: Type,` declarations (used inside `struct` bodies).
/// Returns `(name, type_text)`.
fn parse_named_field(code: &str) -> Option<(String, String)> {
    let t = strip_visibility(code.trim_start());
    let bytes = t.as_bytes();
    let mut end = 0;
    while end < bytes.len()
        && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
    {
        end += 1;
    }
    if end == 0 || bytes[0].is_ascii_digit() {
        return None;
    }
    let name = &t[..end];
    let rest = t[end..].trim_start();
    // `::` is a path, `:` introduces the type.
    let rest = rest.strip_prefix(':')?;
    if rest.starts_with(':') {
        return None;
    }
    // Keywords that precede `:` in non-field positions never appear
    // here because struct bodies hold only fields, but reject the
    // obvious statement forms anyway.
    if matches!(name, "let" | "if" | "while" | "match" | "return" | "fn") {
        return None;
    }
    let ty = rest.trim().trim_end_matches(',').trim();
    if ty.is_empty() {
        return None;
    }
    Some((name.to_string(), ty.to_string()))
}

fn strip_visibility(t: &str) -> &str {
    if let Some(r) = t.strip_prefix("pub(") {
        if let Some(close) = r.find(')') {
            return r[close + 1..].trim_start();
        }
    }
    if let Some(r) = t.strip_prefix("pub ") {
        return r.trim_start();
    }
    t
}

/// Splits `s` on commas at angle/paren/bracket depth 0.
fn split_top_commas(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i64;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '<' | '(' | '[' => {
                depth += 1;
                cur.push(c);
            }
            '>' | ')' | ']' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth <= 0 => {
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

impl AccessTable {
    /// Builds the table over `files` and their extracted `items`.
    pub fn build(files: &[SourceFile], items: &[Item]) -> AccessTable {
        let mut table = AccessTable::default();

        // ---- Phase 1: declarations -------------------------------------
        // Every named field of every struct/enum (any type — the carrier
        // fixpoint needs the non-atomic ones too), tuple-struct field
        // types, and statics.
        let mut raw: Vec<RawField> = Vec::new();
        // (crate, holder) -> all member type texts, for the carrier rule.
        let mut members: HashMap<(String, String), Vec<String>> = HashMap::new();

        for (fi, file) in files.iter().enumerate() {
            if !file_in_scope(file) {
                continue;
            }
            for it in items.iter().filter(|it| it.file == fi) {
                match it.kind {
                    ItemKind::Type => {
                        let &(start, end) = &it.ranges[0];
                        // Header-line members: a tuple struct
                        // `struct Name(T, U);` or a single-line body
                        // `struct Name { a: T }`.
                        let header = &file.lines[start - 1].code;
                        if model::header_of(header).is_some_and(|(k, _)| k == ItemKind::Type) {
                            if let Some(p) = header.find('{') {
                                let inner = header[p + 1..]
                                    .rsplit_once('}')
                                    .map(|(a, _)| a)
                                    .unwrap_or(&header[p + 1..]);
                                for part in split_top_commas(inner) {
                                    let Some((name, ty)) = parse_named_field(&part) else {
                                        continue;
                                    };
                                    members
                                        .entry((file.crate_key.clone(), it.name.clone()))
                                        .or_default()
                                        .push(ty.clone());
                                    raw.push(RawField {
                                        crate_key: file.crate_key.clone(),
                                        holder: it.name.clone(),
                                        name,
                                        file: fi,
                                        line: start,
                                        type_text: ty,
                                    });
                                }
                            } else if let Some(p) = header.find('(') {
                                let inner = header[p + 1..]
                                    .rsplit_once(')')
                                    .map(|(a, _)| a)
                                    .unwrap_or(&header[p + 1..]);
                                for ty in split_top_commas(inner) {
                                    let ty = strip_visibility(&ty).to_string();
                                    members
                                        .entry((file.crate_key.clone(), it.name.clone()))
                                        .or_default()
                                        .push(ty);
                                }
                            }
                        }
                        for l in start..end.min(file.lines.len()) {
                            // Body lines only (skip the header itself).
                            let line = &file.lines[l];
                            if l == start - 1
                                || line.is_attr()
                                || file.in_test[l]
                                || model::header_of(&line.code).is_some()
                            {
                                continue;
                            }
                            if let Some((name, ty)) = parse_named_field(&line.code) {
                                members
                                    .entry((file.crate_key.clone(), it.name.clone()))
                                    .or_default()
                                    .push(ty.clone());
                                raw.push(RawField {
                                    crate_key: file.crate_key.clone(),
                                    holder: it.name.clone(),
                                    name,
                                    file: fi,
                                    line: l + 1,
                                    type_text: ty,
                                });
                            }
                        }
                    }
                    ItemKind::Const => {
                        let line0 = it.ranges[0].0;
                        let code = &file.lines[line0 - 1].code;
                        if file.in_test[line0 - 1] {
                            continue;
                        }
                        let t = strip_visibility(code.trim_start());
                        let Some(rest) = t.strip_prefix("static ") else { continue };
                        let rest = rest.trim_start();
                        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                        let Some((name, ty)) = parse_named_field(rest) else {
                            continue;
                        };
                        let ty = ty.split('=').next().unwrap_or(&ty).trim().to_string();
                        raw.push(RawField {
                            crate_key: file.crate_key.clone(),
                            holder: "<static>".to_string(),
                            name,
                            file: fi,
                            line: line0,
                            type_text: ty,
                        });
                    }
                    _ => {}
                }
            }
        }

        // ---- Phase 2: carrier fixpoint ---------------------------------
        // A struct is an atomic *carrier* iff all of its members are
        // atomic or carrier-typed (`Pad(AtomicU64)`, an all-atomic slot
        // struct, a padded wrapper). Field types naming a carrier count
        // as atomic.
        let mut carriers: BTreeMap<String, Vec<String>> = BTreeMap::new(); // crate -> names
        loop {
            let mut changed = false;
            for ((ck, holder), tys) in &members {
                let known = carriers.entry(ck.clone()).or_default();
                if known.contains(holder) || tys.is_empty() {
                    continue;
                }
                let all_atomic = tys.iter().all(|ty| {
                    mentions_atomic_primitive(ty)
                        || known.iter().any(|c| lexer::has_word(ty, c))
                });
                if all_atomic {
                    carriers.get_mut(ck.as_str()).unwrap().push(holder.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let is_atomic_ty = |ck: &str, ty: &str| -> bool {
            mentions_atomic_primitive(ty)
                || carriers
                    .get(ck)
                    .is_some_and(|cs| cs.iter().any(|c| lexer::has_word(ty, c)))
        };

        // ---- Phase 3: tracked fields -----------------------------------
        // Atomic-typed declarations, keyed (crate, name); duplicates are
        // loud.
        let mut index: HashMap<(String, String), usize> = HashMap::new();
        for rf in raw {
            if !is_atomic_ty(&rf.crate_key, &rf.type_text) {
                continue;
            }
            let key = (rf.crate_key.clone(), rf.name.clone());
            if let Some(&prev) = index.get(&key) {
                let p: &FieldDecl = &table.fields[prev];
                table.ambiguous.push(Unresolved {
                    file: rf.file,
                    line: rf.line,
                    what: format!(
                        "`{}::{}` tracked under two declarations: {} at {}:{} and {} here",
                        rf.crate_key,
                        rf.name,
                        p.holder,
                        files[p.file].rel_path,
                        p.line,
                        rf.holder,
                    ),
                });
                continue;
            }
            index.insert(key, table.fields.len());
            table.fields.push(FieldDecl {
                holder: rf.holder,
                name: rf.name,
                file: rf.file,
                line: rf.line,
            });
        }

        // ---- Phase 4: atomic fn parameters ------------------------------
        // `fn combine(pending: &AtomicU64, ...)` — the body's accesses
        // must bind somewhere, and orderings on a borrowed atomic are as
        // checkable as on a field. A param shadowing a tracked field
        // name in its crate is ambiguous and loud.
        for (fi, file) in files.iter().enumerate() {
            if !file_in_scope(file) {
                continue;
            }
            let lines = &file.lines;
            for (i, line) in lines.iter().enumerate() {
                if file.in_test[i]
                    || !model::header_of(&line.code)
                        .is_some_and(|(k, _)| k == ItemKind::Fn)
                {
                    continue;
                }
                // Collect the signature through its opening `{` or `;`.
                let mut sig = String::new();
                for l in lines.iter().skip(i).take(8) {
                    sig.push_str(&l.code);
                    sig.push(' ');
                    if l.code.contains('{') || l.code.contains(';') {
                        break;
                    }
                }
                let Some(p) = sig.find('(') else { continue };
                let inner = sig[p + 1..]
                    .split(['{', ';'])
                    .next()
                    .unwrap_or("")
                    .rsplit_once(')')
                    .map(|(a, _)| a)
                    .unwrap_or("");
                bind_atomic_params(inner, file, fi, i, &mut index, &mut table);
            }
            // Typed closure params bind the same way:
            // `let bump = |cell: &AtomicU64, n: u64| ...` — the body's
            // `cell.store(..)` must resolve somewhere.
            for (i, line) in lines.iter().enumerate() {
                if file.in_test[i] {
                    continue;
                }
                let Some(b0) = line.code.find('|') else { continue };
                let Some(rel) = line.code[b0 + 1..].find('|') else { continue };
                let inner = &line.code[b0 + 1..b0 + 1 + rel];
                if inner.contains(':') {
                    bind_atomic_params(inner, file, fi, i, &mut index, &mut table);
                }
            }
        }

        // ---- Phase 5: atomic accesses ----------------------------------
        for (fi, file) in files.iter().enumerate() {
            if !file_in_scope(file) {
                continue;
            }
            let aliases = local_aliases(file, &index);
            let lines = &file.lines;
            for (i, line) in lines.iter().enumerate() {
                if file.in_test[i] {
                    continue;
                }
                for (dot, method) in method_calls(&line.code) {
                    let mut segs = receiver_of(&line.code, dot);
                    if segs.is_empty() && line.code[..dot].trim().is_empty() {
                        // Multi-line receiver: `self.seq` on the line(s)
                        // above a wrapped `.compare_exchange(...)`.
                        let mut j = i;
                        while j > 0 {
                            j -= 1;
                            let prev = lines[j].code.trim_end();
                            if prev.is_empty() {
                                continue;
                            }
                            segs = receiver_of(prev, prev.len());
                            break;
                        }
                    }
                    let candidate = segs
                        .iter()
                        .rev()
                        .find(|s| !s.chars().all(|c| c.is_ascii_digit()))
                        .cloned()
                        .unwrap_or_default();
                    let fidx = index
                        .get(&(file.crate_key.clone(), candidate.clone()))
                        .or_else(|| {
                            aliases
                                .get(&candidate)
                                .and_then(|binds| {
                                    binds.iter().rev().find(|(at, _)| *at <= i)
                                })
                                .and_then(|(_, f)| index.get(&(file.crate_key.clone(), f.clone())))
                        })
                        .copied();
                    // Argument text: this line from the call's paren,
                    // plus continuation lines until it balances.
                    let args = call_args(lines, i, dot + 1 + method.len());
                    let orders = ordering_tokens(&args);
                    if orders.is_empty() {
                        // Not an atomic op (`path.load(cfg)`) — unless
                        // the receiver IS a tracked atomic, in which
                        // case the ordering is just unreadable: loud.
                        if let Some(f) = fidx {
                            table.unknown_order.push(Unresolved {
                                file: fi,
                                line: i + 1,
                                what: format!(
                                    "ordering of `{}.{}` unreadable",
                                    table.fields[f].name, method
                                ),
                            });
                        }
                        continue;
                    }
                    let Some(f) = fidx else {
                        table.unbound.push(Unresolved {
                            file: fi,
                            line: i + 1,
                            what: format!(
                                "atomic op `{}.{}` binds to no declared field",
                                if candidate.is_empty() { "?" } else { &candidate },
                                method
                            ),
                        });
                        continue;
                    };
                    let push = |table: &mut AccessTable, load, store| {
                        table.accesses.push(Access {
                            field: f,
                            file: fi,
                            line: i + 1,
                            load,
                            store,
                        });
                    };
                    let one = orders[0];
                    match method.as_str() {
                        "load" => push(&mut table, Some(one), None),
                        "store" => push(&mut table, None, Some(one)),
                        "compare_exchange" | "compare_exchange_weak" => {
                            let fail = orders.get(1).copied().unwrap_or(one);
                            // Success half: an RMW at the success
                            // ordering; failure half: a pure load.
                            push(&mut table, Some(one), Some(one));
                            push(&mut table, Some(fail), None);
                        }
                        "fetch_update" => {
                            let fetch = orders.get(1).copied().unwrap_or(one);
                            push(&mut table, Some(fetch), Some(one));
                        }
                        // swap / fetch_*: one ordering, both halves.
                        _ => push(&mut table, Some(one), Some(one)),
                    }
                }
            }
        }

        table
            .ambiguous
            .sort_by(|a, b| (a.file, a.line, &a.what).cmp(&(b.file, b.line, &b.what)));
        table
            .ambiguous
            .dedup_by(|a, b| (a.file, a.line, &a.what) == (b.file, b.line, &b.what));
        table
    }
}

/// Finds `(dot_position, method_name)` for every atomic-method call
/// shape `.method(` in a code line.
fn method_calls(code: &str) -> Vec<(usize, String)> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c != b'.' {
            continue;
        }
        let start = i + 1;
        let mut end = start;
        while end < b.len() && ((b[end] as char).is_ascii_alphanumeric() || b[end] == b'_') {
            end += 1;
        }
        if end == start || end >= b.len() || b[end] != b'(' {
            continue;
        }
        let name = &code[start..end];
        if METHODS.contains(&name) {
            out.push((i, name.to_string()));
        }
    }
    out
}

/// Walks backwards from the dot of a method call, collecting the
/// receiver's `.`-separated identifier segments (index expressions
/// skipped). `self.slots[i & mask].seq` yields `[self, slots, seq]`.
fn receiver_of(code: &str, dot: usize) -> Vec<String> {
    let b = code.as_bytes();
    let mut segs: Vec<String> = Vec::new();
    let mut i = dot;
    loop {
        // Skip one balanced `[...]` group.
        while i > 0 && b[i - 1] == b']' {
            let mut depth = 0i64;
            let mut j = i;
            while j > 0 {
                j -= 1;
                match b[j] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth != 0 {
                return segs;
            }
            i = j;
        }
        let end = i;
        while i > 0 && ((b[i - 1] as char).is_ascii_alphanumeric() || b[i - 1] == b'_') {
            i -= 1;
        }
        if end == i {
            break;
        }
        segs.insert(0, code[i..end].to_string());
        if i > 0 && b[i - 1] == b'.' {
            i -= 1;
            continue;
        }
        break;
    }
    segs
}

/// Collects call-argument text from the opening paren at `(line, col)`
/// until the parens balance (bounded lookahead).
fn call_args(lines: &[lexer::ScannedLine], line: usize, col: usize) -> String {
    let mut out = String::new();
    let mut depth = 0i64;
    for (n, l) in lines.iter().enumerate().skip(line).take(12) {
        let code = if n == line { &l.code[col.min(l.code.len())..] } else { &l.code };
        for c in code.chars() {
            match c {
                '(' => {
                    depth += 1;
                    if depth > 1 {
                        out.push(c);
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                    out.push(c);
                }
                _ if depth >= 1 => out.push(c),
                _ => {}
            }
        }
        out.push(' ');
    }
    out
}

/// Ordering tokens of an argument list, in positional order. Accepts
/// `Ordering::X` and (as a fallback) bare imported `X` names.
fn ordering_tokens(args: &str) -> Vec<MemOrder> {
    let mut out = Vec::new();
    let b = args.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i] as char;
        if !(c.is_ascii_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        let prev_ident = i > 0 && ((b[i - 1] as char).is_ascii_alphanumeric() || b[i - 1] == b'_');
        let start = i;
        while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        if prev_ident {
            continue;
        }
        let word = &args[start..i];
        let qualified = start >= 2 && &args[start - 2..start] == "::";
        if qualified {
            // Only accept `Ordering::X`-qualified tokens.
            let head_end = start - 2;
            let mut hs = head_end;
            while hs > 0 && ((b[hs - 1] as char).is_ascii_alphanumeric() || b[hs - 1] == b'_') {
                hs -= 1;
            }
            if &args[hs..head_end] != "Ordering" {
                continue;
            }
        }
        if let Some(o) = MemOrder::parse(word) {
            if qualified || !args.contains("Ordering::") {
                out.push(o);
            }
        }
    }
    out
}

/// Registers the atomic-typed names of a parameter list (fn signature
/// or typed closure) as `<param>`-holder pseudo-fields. A param
/// shadowing a tracked field name in its crate is ambiguous and loud.
fn bind_atomic_params(
    inner: &str,
    file: &SourceFile,
    fi: usize,
    i: usize,
    index: &mut HashMap<(String, String), usize>,
    table: &mut AccessTable,
) {
    for part in split_top_commas(inner) {
        let Some((name, ty)) = part.split_once(':') else { continue };
        let name = name.trim().trim_start_matches("mut ").trim();
        let ty = ty.trim().trim_start_matches('&').trim();
        let ty = ty
            .strip_prefix('\'')
            .map(|r| r.split_once(' ').map(|(_, t)| t).unwrap_or(""))
            .unwrap_or(ty)
            .trim();
        if name.is_empty()
            || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
            || !mentions_atomic_primitive(ty)
        {
            continue;
        }
        let key = (file.crate_key.clone(), name.to_string());
        if let Some(&prev) = index.get(&key) {
            if table.fields[prev].holder != "<param>" {
                table.ambiguous.push(Unresolved {
                    file: fi,
                    line: i + 1,
                    what: format!(
                        "`{}::{}` field shadowed by an atomic fn param",
                        file.crate_key, name,
                    ),
                });
            }
            continue;
        }
        index.insert(key, table.fields.len());
        table.fields.push(FieldDecl {
            holder: "<param>".to_string(),
            name: name.to_string(),
            file: fi,
            line: i + 1,
        });
    }
}

/// The identifiers bound by a `let`/`for`/closure pattern: handles
/// plain names, `mut x`, and tuple patterns like `(i, b)`.
fn pat_idents(pat: &str) -> Vec<String> {
    pat.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|s| {
            !s.is_empty()
                && !matches!(*s, "mut" | "ref" | "_")
                && s.chars().next().is_some_and(|c| !c.is_ascii_digit())
        })
        .map(str::to_string)
        .collect()
}

/// Local alias bindings of a file, in line order: `let cell =
/// ...&shard.cells[i]...;`, `for r in &self.readers`, and iterator
/// closures like `.map(|t| t.load(..))` whose enclosing statement
/// projects the field, all bind `cell`/`r`/`t` to a tracked field.
/// Only unambiguous single-field contexts bind; a use resolves against
/// the nearest binding at or above it, so rebindings of a name (the
/// usual `let theirs = ...` shadowing) do not leak backwards.
fn local_aliases(
    file: &SourceFile,
    index: &HashMap<(String, String), usize>,
) -> HashMap<String, Vec<(usize, String)>> {
    // Fields projected (or statics mentioned) in `text`; bind only if
    // exactly one matches.
    let single_field = |text: &str| -> Option<String> {
        let mut fields: Vec<&String> = Vec::new();
        for (ck, fname) in index.keys() {
            if *ck != file.crate_key {
                continue;
            }
            let hit = !projections(text, fname).is_empty()
                || (fname.chars().next().is_some_and(|c| c.is_uppercase())
                    && lexer::has_word(text, fname));
            if hit {
                fields.push(fname);
            }
        }
        fields.sort();
        fields.dedup();
        match fields.as_slice() {
            [one] => Some((*one).clone()),
            _ => None,
        }
    };
    let mut out: HashMap<String, Vec<(usize, String)>> = HashMap::new();
    let lines = &file.lines;
    for (i, line) in lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let t = line.code.trim_start();
        let (pat, rhs) = if let Some(r) = t.strip_prefix("let ") {
            let Some(eq) = r.find('=') else { continue };
            let pat = r[..eq].split(':').next().unwrap_or("").trim();
            (pat.to_string(), r[eq + 1..].to_string())
        } else if let Some(r) = t.strip_prefix("for ") {
            let Some(inp) = r.find(" in ") else { continue };
            (r[..inp].trim().to_string(), r[inp + 4..].to_string())
        } else if let Some(b0) = t.find('|') {
            // Untyped iterator closure: the enclosing statement (this
            // line joined with its wrapped-receiver lines above) names
            // the field the closure iterates.
            let Some(rel) = t[b0 + 1..].find('|') else { continue };
            let pat = &t[b0 + 1..b0 + 1 + rel];
            if pat.contains(':') {
                continue; // typed — handled as a pseudo-field param
            }
            let mut stmt = String::new();
            let mut j = i;
            let mut taken = 0;
            while j > 0 && taken < 4 {
                let prev_line = &lines[j - 1];
                let prev = prev_line.code.trim();
                if prev.is_empty() {
                    // Pure comments (e.g. a reviewed-site justification
                    // inside the chain) do not end the statement.
                    if prev_line.comment.is_empty() {
                        break;
                    }
                    j -= 1;
                    continue;
                }
                if prev.ends_with([';', '{', '}']) {
                    break;
                }
                j -= 1;
                taken += 1;
                stmt.insert_str(0, prev);
            }
            stmt.push_str(t);
            (pat.to_string(), stmt)
        } else {
            continue;
        };
        if let Some(field) = single_field(&rhs) {
            for name in pat_idents(&pat) {
                out.entry(name).or_default().push((i, field.clone()));
            }
        }
    }
    out
}

/// Positions of `.name` field projections in a code line: preceded by a
/// receiver (`x.name`, `].name`, `).name`), word-bounded, and not a
/// method call (`.name(`).
fn projections(code: &str, name: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = code[from..].find(name) {
        let at = from + p;
        from = at + name.len();
        if at < 1 || b[at - 1] != b'.' {
            continue;
        }
        // Receiver check: the char before the dot must end an
        // expression (identifier, index, call) — rules out `..name`
        // ranges and struct-literal shorthand.
        if at < 2 {
            continue;
        }
        let before = b[at - 2] as char;
        if !(before.is_ascii_alphanumeric() || before == '_' || before == ']' || before == ')') {
            continue;
        }
        let end = at + name.len();
        if end < b.len() {
            let after = b[end] as char;
            if after.is_ascii_alphanumeric() || after == '_' || after == '(' {
                continue;
            }
        }
        out.push(at);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_index(t: &AccessTable, name: &str) -> Option<usize> {
        t.fields.iter().position(|f| f.name == name)
    }

    fn build(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<Item>, AccessTable) {
        let files = crate::source::Workspace::from_sources(sources).files;
        let mut items = Vec::new();
        for (i, f) in files.iter().enumerate() {
            model::extract_items(i, f, &mut items);
        }
        let table = AccessTable::build(&files, &items);
        (files, items, table)
    }

    #[test]
    fn tracks_fields_and_orderings() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
pub struct Ring {
    head: AtomicU64,
    mask: u64,
}
impl Ring {
    pub fn push(&self) {
        self.head.store(1, Ordering::Release);
    }
    pub fn pop(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }
}
";
        let (_, _, t) = build(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(t.fields.len(), 1, "{:?}", t.fields);
        assert_eq!(t.fields[0].name, "head");
        assert_eq!(t.accesses.len(), 2);
        let store = t.accesses.iter().find(|a| a.store.is_some()).unwrap();
        assert_eq!(store.store, Some(MemOrder::Release));
        assert_eq!(store.load, None);
        let load = t.accesses.iter().find(|a| a.load.is_some()).unwrap();
        assert!(load.load.unwrap().acquires());
        assert!(t.unbound.is_empty(), "{:?}", t.unbound);
    }

    #[test]
    fn carrier_fixpoint_and_tuple_index() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
#[repr(align(64))]
pub struct Pad(pub AtomicU64);
pub struct Shared {
    head: Pad,
    tail: Pad,
}
impl Shared {
    fn bump(&self) {
        self.head.0.store(1, Ordering::Release);
        let t = self.tail.0.load(Ordering::Acquire);
        let _ = t;
    }
}
";
        let (_, _, t) = build(&[("crates/demo/src/lib.rs", src)]);
        let names: Vec<&str> = t.fields.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"head") && names.contains(&"tail"), "{names:?}");
        assert_eq!(t.accesses.len(), 2);
        assert!(t.unbound.is_empty(), "{:?}", t.unbound);
        let head = field_index(&t, "head").unwrap();
        assert!(t.accesses.iter().any(|a| a.field == head));
    }

    #[test]
    fn cas_splits_success_and_failure() {
        let src = "\
use std::sync::atomic::{AtomicUsize, Ordering};
struct L { seq: AtomicUsize }
impl L {
    fn claim(&self) -> bool {
        self.seq
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}
";
        let (_, _, t) = build(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(t.accesses.len(), 2, "{:?}", t.accesses);
        let rmw = &t.accesses[0];
        assert_eq!(rmw.store, Some(MemOrder::AcqRel));
        assert_eq!(rmw.load, Some(MemOrder::AcqRel));
        let fail = &t.accesses[1];
        assert_eq!(fail.store, None);
        assert_eq!(fail.load, Some(MemOrder::Acquire));
        assert!(t.unknown_order.is_empty());
    }

    #[test]
    fn aliases_and_params_bind() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
pub struct Shard { cells: [AtomicU64; 4] }
impl Shard {
    fn add(&self, i: usize) {
        let cell = &self.cells[i];
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}
pub fn drain(pending: &AtomicU64) -> u64 {
    pending.swap(0, Ordering::Relaxed)
}
";
        let (_, _, t) = build(&[("crates/demo/src/lib.rs", src)]);
        assert!(t.unbound.is_empty(), "{:?}", t.unbound);
        let cells = field_index(&t, "cells").unwrap();
        assert_eq!(t.accesses.iter().filter(|a| a.field == cells).count(), 2);
        let pending = field_index(&t, "pending").unwrap();
        assert_eq!(t.fields[pending].holder, "<param>");
        assert_eq!(t.accesses.iter().filter(|a| a.field == pending).count(), 1);
    }

    #[test]
    fn duplicate_field_names_are_ambiguous() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
pub struct A {
    pub n: AtomicU64,
}
pub struct B { pub n: AtomicU64 }
";
        let (_, _, t) = build(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(t.fields.len(), 1, "duplicate dropped");
        assert_eq!(t.fields[0].holder, "A");
        assert_eq!(t.ambiguous.len(), 1, "{:?}", t.ambiguous);
    }

    #[test]
    fn non_atomic_load_calls_ignored_and_tests_skipped() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
pub struct C { n: AtomicU64 }
pub fn read_cfg(path: &str) -> String {
    store.load(path.to_string())
}
#[cfg(test)]
mod tests {
    fn t(c: &super::C) { c.n.store(1, Ordering::Relaxed); }
}
";
        let (_, _, t) = build(&[("crates/demo/src/lib.rs", src)]);
        assert!(t.accesses.is_empty(), "{:?}", t.accesses);
        assert!(t.unbound.is_empty(), "non-atomic `.load(cfg)` skipped");
    }
}
