//! Fixture: lexer edge cases for `tests/lexer_edges.rs`.

fn edges() {
    let url = r"not//comment";
    let hashed = r#"quote " and // inside"#;
    let double = r##"nested "# guard"##;
    let bytes = b"bytes // not comment";
    let raw_bytes = br#"raw bytes " too"#;
    /* block /* nested */ still comment */ let after_comment = 1;
    let plain = "string // with slashes"; // real trailing comment
    let escaped = "say \"hi\" // still string";
    let ch = '"';
    let not_lifetime = 'a';
    let lt: &'static str = "x";
} // done
