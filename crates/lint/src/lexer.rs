//! A hand-rolled lexical scanner for Rust source.
//!
//! The lints need to know, per line, *what is code and what is not*:
//! string/char-literal contents must not trigger keyword matches,
//! comments must be separated out (they carry `covers:` annotations
//! and suppression directives), and nested block
//! comments, raw strings, and attributes must all be tracked. This is
//! deliberately not a full Rust parser — the analyzer's whole point
//! (per the layering argument of the paper's §3 tooling discussion) is
//! to be a cheap, dependency-free discipline layer below the heavyweight
//! spec machinery, so it works line-by-line on lexical structure only.

/// One scanned source line, split into lexical classes.
#[derive(Clone, Debug, Default)]
pub struct ScannedLine {
    /// The line's code, with comment text removed and every string/char
    /// literal's content blanked (delimiters preserved). Keyword and
    /// pattern matching runs against this.
    pub code: String,
    /// Concatenated comment text on this line, including the `//`,
    /// `//!`, `///` or `/* */` delimiters.
    pub comment: String,
}

impl ScannedLine {
    /// True when the line has no code at all (blank or comment-only).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// True when the line's code is an attribute (`#[...]` / `#![...]`).
    pub fn is_attr(&self) -> bool {
        let t = self.code.trim_start();
        t.starts_with("#[") || t.starts_with("#!")
    }
}

/// Scanner state across lines.
enum State {
    /// Plain code.
    Normal,
    /// Inside `/* ... */`, tracking nesting depth.
    BlockComment(u32),
    /// Inside a `"..."` string.
    Str,
    /// Inside a raw string with `hashes` trailing `#` marks.
    RawStr(u32),
}

/// Scans `src` into per-line code/comment streams.
///
/// Handles: line comments (`//`, `///`, `//!`), nested block comments,
/// string literals with escapes, raw (and byte/raw-byte) strings with
/// arbitrary hash counts, char and byte literals vs lifetimes, and
/// attributes (left in the code stream; see [`ScannedLine::is_attr`]).
pub fn scan(src: &str) -> Vec<ScannedLine> {
    let mut lines = Vec::new();
    let mut cur = ScannedLine::default();
    let mut state = State::Normal;
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut i = 0;

    // Looks ahead from a quote for `r"`/`r#"` raw-string openings and
    // returns the hash count.
    fn raw_open(chars: &[char], mut i: usize) -> Option<u32> {
        let mut hashes = 0;
        while i < chars.len() && chars[i] == '#' {
            hashes += 1;
            i += 1;
        }
        if i < chars.len() && chars[i] == '"' {
            Some(hashes)
        } else {
            None
        }
    }

    while i < n {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                    // Line comment: consume to end of line.
                    let start = i;
                    while i < n && chars[i] != '\n' {
                        i += 1;
                    }
                    cur.comment.extend(&chars[start..i]);
                    continue;
                }
                if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    state = State::BlockComment(1);
                    cur.comment.push_str("/*");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if (c == 'r' || c == 'b') && i + 1 < n {
                    // r"..", r#".."#, br".., b"..", b'..'
                    let (skip, rest) = if c == 'b' && chars[i + 1] == 'r' { (2, i + 2) } else { (1, i + 1) };
                    let raw = c == 'r' || (c == 'b' && chars[i + 1] == 'r');
                    // Only a literal when not part of an identifier.
                    let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                    if !prev_ident {
                        if raw {
                            if let Some(h) = raw_open(&chars, rest) {
                                cur.code.extend(&chars[i..i + skip]);
                                for _ in 0..h {
                                    cur.code.push('#');
                                }
                                cur.code.push('"');
                                state = State::RawStr(h);
                                i = rest + h as usize + 1;
                                continue;
                            }
                        } else if c == 'b' && chars[i + 1] == '"' {
                            cur.code.push_str("b\"");
                            state = State::Str;
                            i += 2;
                            continue;
                        }
                    }
                }
                if c == '\'' {
                    // Char/byte literal vs lifetime. A literal when the
                    // quote closes within a short span; a lifetime when
                    // followed by an identifier not closed by `'`.
                    if i + 1 < n && chars[i + 1] == '\\' {
                        // Escaped char literal: consume through closing quote.
                        cur.code.push_str("''");
                        i += 2; // past \
                        while i < n && chars[i] != '\'' && chars[i] != '\n' {
                            i += 1;
                        }
                        if i < n && chars[i] == '\'' {
                            i += 1;
                        }
                        continue;
                    }
                    if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                        // Simple 'x' literal.
                        cur.code.push_str("''");
                        i += 3;
                        continue;
                    }
                    // Lifetime or stray quote: keep as code.
                    cur.code.push('\'');
                    i += 1;
                    continue;
                }
                cur.code.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    state = State::BlockComment(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && i + 1 < n && chars[i + 1] == '/' {
                    cur.comment.push_str("*/");
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && i + 1 < n {
                    i += 2; // skip escaped char (contents are blanked)
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    // Check for closing `"###...`.
                    let mut j = i + 1;
                    let mut seen = 0;
                    while j < n && seen < hashes && chars[j] == '#' {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        state = State::Normal;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    lines.push(cur);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked() {
        let lines = scan(r#"let x = "unsafe { panic!() }"; call();"#);
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("call()"));
        assert!(lines[0].code.contains("\"\""));
    }

    #[test]
    fn line_comments_split_out() {
        let lines = scan("foo(); // SAFETY: fine\nbar();");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].code.trim(), "foo();");
        assert!(lines[0].comment.contains("SAFETY: fine"));
        assert_eq!(lines[1].code.trim(), "bar();");
    }

    #[test]
    fn nested_block_comments() {
        let lines = scan("a /* one /* two */ still */ b");
        assert_eq!(lines[0].code.replace(' ', ""), "ab");
        assert!(lines[0].comment.contains("two"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let lines = scan(r###"let s = r#"has "quotes" and unsafe"#; end();"###);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("end()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lines = scan("fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; g(); }");
        assert!(lines[0].code.contains("<'a>"));
        assert!(lines[0].code.contains("g();"));
        // The '{' literal must not look like an open brace.
        let opens = lines[0].code.matches('{').count();
        let closes = lines[0].code.matches('}').count();
        assert_eq!(opens, closes, "blanked char literal kept brace balance");
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let lines = scan("code();\n/* comment\nstill comment */\nmore();");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].is_code_blank());
        assert!(lines[2].is_code_blank());
        assert!(lines[2].comment.contains("still comment"));
        assert_eq!(lines[3].code.trim(), "more();");
    }

    #[test]
    fn attributes_recognized() {
        let lines = scan("#[cfg(test)]\nmod tests {}");
        assert!(lines[0].is_attr());
        assert!(!lines[1].is_attr());
    }
}
