//! veros-atlas: the workspace item graph and atomic-field access table
//! that `veros-lint`'s protocol passes consume.
//!
//! It parses the whole workspace with the zero-dependency lexer it
//! hosts ([`lexer`], [`source`] — shared downstream by `veros-lint`),
//! extracts an item graph ([`model`]), resolves conservative
//! callee/use edges ([`graph`]), and tabulates every access to an
//! atomic or annotated field ([`access`]).
//!
//! The extractor is lexical, so it can be blind: a runtime file whose
//! code yields no items, or an item header it failed to open, would
//! drop out of the analysis silently. [`ItemGraph::blind_spots`] counts
//! both, and `veros-lint --gate` holds them at zero.

pub mod access;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod source;

use std::io;
use std::path::Path;

use graph::{Graph, Imports, Index};
use model::{AtlasFile, Item, ItemKind};

/// What the item extractor could not see, over runtime source files.
#[derive(Clone, Debug, Default)]
pub struct BlindSpots {
    /// Runtime source files with code but no extracted items. Must stay 0.
    pub unparsed: Vec<String>,
    /// `file:line` of preamble lines that look like item headers the
    /// extractor missed. Must stay 0.
    pub stray_headers: Vec<String>,
}

/// The shared file/item/edge view of the workspace.
pub struct ItemGraph {
    pub files: Vec<AtlasFile>,
    pub items: Vec<Item>,
    pub graph: Graph,
}

impl ItemGraph {
    /// Builds the graph for the workspace rooted at `root`.
    pub fn load(root: &Path) -> io::Result<ItemGraph> {
        Ok(Self::from_files(model::load_files(root)?))
    }

    /// Builds from in-memory sources (fixture tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> ItemGraph {
        Self::from_files(
            sources
                .iter()
                .map(|(p, s)| AtlasFile::from_source(p, s))
                .collect(),
        )
    }

    pub fn from_files(files: Vec<AtlasFile>) -> ItemGraph {
        let mut items = Vec::new();
        for (i, f) in files.iter().enumerate() {
            model::extract_items(i, f, &mut items);
        }
        let idx = Index::build(&files, &items);
        let imports: Vec<Imports> = files.iter().map(graph::imports_of).collect();
        let graph = Graph::build(&files, &items, &idx, &imports);
        ItemGraph {
            files,
            items,
            graph,
        }
    }

    /// The per-atomic-field access table over this graph's files.
    pub fn access_table(&self) -> access::AccessTable {
        access::AccessTable::build(&self.files, &self.items)
    }

    /// The extractor's blind spots over runtime source files.
    pub fn blind_spots(&self) -> BlindSpots {
        let mut has_items = vec![false; self.files.len()];
        let mut preamble: Vec<Option<&Item>> = vec![None; self.files.len()];
        for it in &self.items {
            match it.kind {
                ItemKind::Preamble => preamble[it.file] = Some(it),
                _ => has_items[it.file] = true,
            }
        }
        let mut out = BlindSpots::default();
        for (i, f) in self.files.iter().enumerate() {
            if !f.runtime_src {
                continue;
            }
            // Pure re-export files (the root facade is all `pub use`)
            // legitimately have no items; `use` lines and attributes
            // don't count as unparseable code.
            let has_code = f.src.lines.iter().any(|l| {
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
                for l in a..=b.min(f.src.lines.len()) {
                    if let Some((k, _)) = model::header_of(&f.src.lines[l - 1].code) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sources_have_no_blind_spots() {
        let g = ItemGraph::from_sources(&[
            (
                "crates/alpha/src/lib.rs",
                "//! Alpha.\npub mod inner;\npub use inner::work;\npub fn entry() -> u64 { inner::work(7) }\n",
            ),
            ("crates/alpha/src/inner.rs", "//! Inner.\npub fn work(x: u64) -> u64 { x * 2 }\n"),
        ]);
        let spots = g.blind_spots();
        assert!(spots.unparsed.is_empty(), "{:?}", spots.unparsed);
        assert!(spots.stray_headers.is_empty(), "{:?}", spots.stray_headers);
        let names: Vec<&str> = g.items.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"entry") && names.contains(&"work"));
    }

    #[test]
    fn blind_spots_name_the_file_and_line() {
        let g = ItemGraph::from_sources(&[
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
        let spots = g.blind_spots();
        assert_eq!(spots.unparsed, ["crates/alpha/src/lib.rs"]);
        assert_eq!(spots.stray_headers, ["crates/beta/src/lib.rs:2"]);
    }
}
