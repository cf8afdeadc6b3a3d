//! The item model: a brace-depth extractor that recovers
//! `fn`/`impl`/`struct`/`enum`/`trait`/`mod`/`macro_rules!` definitions
//! with their line ranges from each lexed [`SourceFile`].
//!
//! The extractor is deliberately lexical, not a parser: it only needs
//! line ranges and names good enough to find the struct and static
//! declarations the access table reads. Anything it cannot place lands
//! in the file's *preamble* pseudo-item. Being lexical, it can be
//! blind: a shipped file whose code yields no items, or an item header
//! it failed to open, would drop out of the analysis silently. [`blind_spots`] counts both, and
//! `veros-lint --gate` holds them at zero.

use crate::lexer;
use crate::source::SourceFile;

/// What kind of definition an [`Item`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Impl,
    /// `struct` / `enum` / `trait` / `union` definitions.
    Type,
    Mod,
    /// `macro_rules!` definitions.
    Macro,
    /// `const` / `static` items.
    Const,
    /// Per-file pseudo-item: all code lines not inside any other item
    /// (use statements, module docs, stray declarations).
    Preamble,
}

/// One extracted definition with its 1-based inclusive line ranges.
#[derive(Clone, Debug)]
pub struct Item {
    pub kind: ItemKind,
    pub name: String,
    pub file: usize,
    /// 1-based inclusive line ranges. Single range for real items; the
    /// preamble may be scattered.
    pub ranges: Vec<(usize, usize)>,
}

/// Reads the item header (if any) that a code line begins: strips
/// visibility/qualifier keywords, then matches the defining keyword.
/// Only recognizes headers at the (trimmed) start of a line — rustfmt
/// output always puts them there, and a missed header degrades to
/// preamble, which is the safe direction.
pub fn header_of(code: &str) -> Option<(ItemKind, String)> {
    let mut rest = code.trim_start();
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("pub(") {
            rest = &r[r.find(')')? + 1..];
            continue;
        }
        let mut stripped = false;
        for q in ["pub ", "unsafe ", "default ", "async ", "extern \"\" "] {
            if let Some(r) = rest.strip_prefix(q) {
                rest = r;
                stripped = true;
                break;
            }
        }
        if stripped {
            continue;
        }
        // `const` doubles as a qualifier (`const fn`) and a keyword
        // (`const NAME: ...`).
        if let Some(r) = rest.strip_prefix("const ") {
            let r = r.trim_start();
            if r.starts_with("fn ") {
                rest = r;
                continue;
            }
            return Some((ItemKind::Const, ident_at(r)?));
        }
        break;
    }
    if let Some(r) = rest.strip_prefix("fn ") {
        return Some((ItemKind::Fn, ident_at(r)?));
    }
    if let Some(r) = rest.strip_prefix("macro_rules!") {
        return Some((ItemKind::Macro, ident_at(r.trim_start())?));
    }
    if rest.starts_with("impl ") || rest.starts_with("impl<") {
        return Some((ItemKind::Impl, impl_name(&rest[4..])));
    }
    if let Some(r) = rest.strip_prefix("mod ") {
        return Some((ItemKind::Mod, ident_at(r)?));
    }
    for kw in ["struct ", "enum ", "trait ", "union "] {
        if let Some(r) = rest.strip_prefix(kw) {
            return Some((ItemKind::Type, ident_at(r)?));
        }
    }
    if let Some(r) = rest.strip_prefix("static ") {
        let r = r.trim_start().strip_prefix("mut ").unwrap_or(r.trim_start());
        return Some((ItemKind::Const, ident_at(r)?));
    }
    None
}

/// Leading identifier of `s`, if it starts with one.
fn ident_at(s: &str) -> Option<String> {
    let s = s.trim_start();
    let end = s
        .char_indices()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if end == 0 || s.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(s[..end].to_string())
}

/// Names the type an `impl` block is for: the last path segment of the
/// self type (after `for` when present), generics stripped. `rest` is
/// the header text after the `impl` keyword.
fn impl_name(rest: &str) -> String {
    let mut s = rest.trim_start();
    if s.starts_with('<') {
        // Skip the generic parameter list.
        let mut depth = 0usize;
        let mut cut = s.len();
        for (i, c) in s.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        s = &s[cut..];
    }
    // Keep everything before the body/where clause, prefer the segment
    // after a standalone `for`.
    let head = s.split('{').next().unwrap_or(s);
    let head = match head.find(" where ") {
        Some(p) => &head[..p],
        None => head,
    };
    let target = match lexer::word_pos(head, "for") {
        Some(p) => &head[p + 3..],
        None => head,
    };
    // Last path-segment identifier before any generics.
    let target = target.trim_start().trim_start_matches(['&', ' ']);
    let target = target.strip_prefix("mut ").unwrap_or(target);
    let target = target.strip_prefix("dyn ").unwrap_or(target);
    let path = target
        .split(|c: char| c == '<' || c == '(' || c.is_whitespace())
        .next()
        .unwrap_or("");
    path.rsplit("::")
        .next()
        .filter(|s| !s.is_empty())
        .unwrap_or("impl")
        .to_string()
}

/// A header whose body/terminator has not been seen yet.
struct Pending {
    kind: ItemKind,
    name: String,
    /// 0-based line the header started on.
    line: usize,
}

/// An item whose `{` has opened but whose `}` has not closed.
struct Open {
    kind: ItemKind,
    name: String,
    start: usize,
    /// Brace depth just before the opening `{`; the item closes when
    /// depth returns here.
    entry: i64,
}

/// Extracts all items of `file` (appending to `items`), including the
/// trailing preamble pseudo-item. `file_idx` is stored on each item.
pub fn extract_items(file_idx: usize, file: &SourceFile, items: &mut Vec<Item>) {
    let first = items.len();
    let lines = &file.lines;
    let mut depth: i64 = 0;
    let mut pending: Option<Pending> = None;
    // Paren/bracket nesting carried across lines while a header is
    // pending, so a `;` inside `[u8; 4]` or a multi-line signature does
    // not terminate the declaration early.
    let mut pb: i64 = 0;
    let mut stack: Vec<Open> = Vec::new();

    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        if pending.is_none() && !line.is_attr() {
            if let Some((kind, name)) = header_of(code) {
                pending = Some(Pending { kind, name, line: i });
                pb = 0;
            }
        }
        for c in code.chars() {
            match c {
                '(' | '[' => pb += 1,
                ')' | ']' => pb -= 1,
                '{' => {
                    if let Some(p) = pending.take() {
                        stack.push(Open {
                            kind: p.kind,
                            name: p.name,
                            start: p.line,
                            entry: depth,
                        });
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    while stack.last().is_some_and(|t| depth <= t.entry) {
                        let top = stack.pop().unwrap();
                        items.push(Item {
                            kind: top.kind,
                            name: top.name,
                            file: file_idx,
                            ranges: vec![(top.start + 1, i + 1)],
                        });
                    }
                }
                ';' if pb <= 0 => {
                    if let Some(p) = pending.take() {
                        // Declaration form: `mod x;`, `const X: T = v;`,
                        // a trait method signature.
                        items.push(Item {
                            kind: p.kind,
                            name: p.name,
                            file: file_idx,
                            ranges: vec![(p.line + 1, i + 1)],
                        });
                    }
                }
                _ => {}
            }
        }
    }
    // Unclosed items (unbalanced braces) still get a range to EOF.
    while let Some(top) = stack.pop() {
        items.push(Item {
            kind: top.kind,
            name: top.name,
            file: file_idx,
            ranges: vec![(top.start + 1, lines.len().max(1))],
        });
    }

    // Preamble: non-blank code lines not covered by any item (a nested
    // item lies inside its enclosing item's range).
    let mut covered = vec![false; lines.len()];
    for it in &items[first..] {
        for &(a, b) in &it.ranges {
            for l in a..=b.min(lines.len()) {
                covered[l - 1] = true;
            }
        }
    }
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if covered[i] || line.is_code_blank() {
            continue;
        }
        match ranges.last_mut() {
            Some(r) if r.1 == i => r.1 = i + 1,
            _ => ranges.push((i + 1, i + 1)),
        }
    }
    if !ranges.is_empty() {
        items.push(Item {
            kind: ItemKind::Preamble,
            name: format!("<preamble:{}>", file.rel_path),
            file: file_idx,
            ranges,
        });
    }
}

/// What the item extractor could not see, over shipped source files.
#[derive(Clone, Debug, Default)]
pub struct BlindSpots {
    /// Shipped source files with code but no extracted items. Must stay 0.
    pub unparsed: Vec<String>,
    /// `file:line` of preamble lines that look like item headers the
    /// extractor missed. Must stay 0.
    pub stray_headers: Vec<String>,
}

/// The extractor's blind spots over the shipped files among `files`,
/// given the `items` extracted from them.
pub fn blind_spots(files: &[SourceFile], items: &[Item]) -> BlindSpots {
    let mut has_items = vec![false; files.len()];
    let mut preamble: Vec<Option<&Item>> = vec![None; files.len()];
    for it in items {
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
                if let Some((k, _)) = header_of(&f.lines[l - 1].code) {
                    if !matches!(k, ItemKind::Const | ItemKind::Mod) {
                        out.stray_headers.push(format!("{}:{}", f.rel_path, l));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    fn extract(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<Item>) {
        let files = Workspace::from_sources(sources).files;
        let mut items = Vec::new();
        for (i, f) in files.iter().enumerate() {
            extract_items(i, f, &mut items);
        }
        (files, items)
    }

    #[test]
    fn clean_sources_have_no_blind_spots() {
        let (files, items) = extract(&[
            (
                "crates/alpha/src/lib.rs",
                "//! Alpha.\npub mod inner;\npub use inner::work;\npub fn entry() -> u64 { inner::work(7) }\n",
            ),
            ("crates/alpha/src/inner.rs", "//! Inner.\npub fn work(x: u64) -> u64 { x * 2 }\n"),
        ]);
        let spots = blind_spots(&files, &items);
        assert!(spots.unparsed.is_empty(), "{:?}", spots.unparsed);
        assert!(spots.stray_headers.is_empty(), "{:?}", spots.stray_headers);
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"entry") && names.contains(&"work"));
    }

    #[test]
    fn blind_spots_name_the_file_and_line() {
        let (files, items) = extract(&[
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
        let spots = blind_spots(&files, &items);
        assert_eq!(spots.unparsed, ["crates/alpha/src/lib.rs"]);
        assert_eq!(spots.stray_headers, ["crates/beta/src/lib.rs:2"]);
    }
}
