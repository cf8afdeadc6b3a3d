//! Lexer edge-case regressions over one fixture of tricky lines. Each
//! line must split into code and comment the way the suppression walk
//! and the keyword matchers assume.

use veros_lint::lexer::scan;

const FIXTURE: &str = include_str!("fixtures/lexer_edges.rs");

#[test]
fn raw_strings_with_hashes_do_not_open_comments_or_close_early() {
    let lines = scan(FIXTURE);
    // Raw/byte strings never open comments: the suppression walker and
    // keyword matchers must see these as plain code lines.
    for idx in [3, 4, 5, 6, 7] {
        assert!(!lines[idx].is_code_blank(), "line {idx} is code");
    }
    // `r"not//comment"`: the slashes are string content, not a comment.
    assert!(lines[3].code.contains("let url"));
    assert!(!lines[3].code.contains("not//comment"), "content is blanked");
    assert!(lines[3].comment.is_empty());
    // `r#".."#` guards an embedded quote and slashes.
    assert!(lines[4].code.contains("let hashed"));
    assert!(lines[4].comment.is_empty());
    // `r##"… "# …"##`: the inner `"#` must not terminate the string.
    assert!(lines[5].code.contains("let double"));
    assert!(lines[5].comment.is_empty());
    assert!(
        lines[5].code.trim_end().ends_with(';'),
        "raw string closed at ## guard, not at the embedded \"#: {:?}",
        lines[5].code
    );
}

#[test]
fn byte_and_raw_byte_strings_scan_as_strings() {
    let lines = scan(FIXTURE);
    assert!(lines[6].code.contains("let bytes"));
    assert!(lines[6].comment.is_empty(), "b\"..//..\" is not a comment");
    assert!(lines[7].code.contains("let raw_bytes"));
    assert!(lines[7].comment.is_empty());
}

#[test]
fn nested_block_comment_ends_once_and_code_after_it_counts() {
    let lines = scan(FIXTURE);
    // A nested block comment plus trailing code is both.
    assert!(!lines[8].is_code_blank());
    assert!(lines[8].comment.contains("nested"));
    assert!(lines[8].comment.contains("still comment"));
    assert!(
        lines[8].code.contains("let after_comment"),
        "code after the outer close is code: {:?}",
        lines[8].code
    );
}

#[test]
fn slashes_inside_plain_strings_stay_strings() {
    let lines = scan(FIXTURE);
    assert!(lines[9].code.contains("let plain"));
    assert!(!lines[9].code.contains("slashes"), "content is blanked");
    assert_eq!(lines[9].comment.trim(), "// real trailing comment");
    // Escaped quotes do not end the string early.
    assert!(lines[10].code.contains("let escaped"));
    assert!(lines[10].comment.is_empty());
    assert!(!lines[10].code.contains("hi"));
}

#[test]
fn quote_chars_and_lifetimes_do_not_open_strings() {
    let lines = scan(FIXTURE);
    assert!(lines[11].code.contains("let ch"));
    assert!(lines[11].comment.is_empty(), "'\"' must not open a string");
    assert!(lines[12].code.contains("let not_lifetime"));
    assert!(lines[13].code.contains("static"), "lifetime is code");
    assert_eq!(lines[14].comment.trim(), "// done");
}
