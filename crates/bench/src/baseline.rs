//! The one scanner for the committed `BENCH_*.json` baselines, and the
//! one `--flag value` parser the gate binaries share.
//!
//! The documents are machine-written, one field or one cell object per
//! line, so this is a scanner for exactly that shape, not a JSON
//! parser: it finds `"key": value` and reads the value, and a value it
//! cannot fully read is absent rather than guessed. A gate that finds
//! nothing to gate against must fail, not pass — an empty, truncated or
//! re-keyed baseline would otherwise wave every run through — and
//! [`missing`] is the violation each gate reports for that.

/// The first readable number stored under `key`.
pub fn field_num(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    json.match_indices(&pat).find_map(|(at, _)| {
        let rest = &json[at + pat.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    })
}

/// The first string stored under `key` (no escapes: names only).
pub fn field_str(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = json.find(&pat)? + pat.len();
    let end = json[start..].find('"')? + start;
    Some(json[start..end].to_string())
}

/// The first `true`/`false` stored under `key`.
pub fn field_bool(json: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\": ");
    let rest = &json[json.find(&pat)? + pat.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// `(name, value)` for every line carrying both a `"name"` and a
/// `value_key` field — the cell objects of a hot-path baseline. Lines
/// missing either are skipped.
pub fn cells(json: &str, value_key: &str) -> Vec<(String, f64)> {
    json.lines()
        .filter_map(|line| Some((field_str(line, "name")?, field_num(line, value_key)?)))
        .collect()
}

/// The violation a gate reports when the baseline yields nothing to
/// compare `key` against.
pub fn missing(key: &str) -> String {
    format!("baseline has no readable \"{key}\": an empty, truncated or re-keyed file gates nothing")
}

/// The argument following `flag`, if both are present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == flag)?;
    args.get(idx + 1).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_back_what_the_reports_write() {
        let doc = "{\n  \"bench\": \"x\",\n  \"quick\": false,\n  \"p99_ticks\": 10,\n  \
                   \"ratio\": -1.5,\n  \"cells\": [\n    { \"name\": \"a/b\", \"ns_per_op\": 80.2 },\n    \
                   { \"name\": \"c\", \"ns_per_op\": 7.0 }\n  ]\n}\n";
        assert_eq!(field_str(doc, "bench").as_deref(), Some("x"));
        assert_eq!(field_bool(doc, "quick"), Some(false));
        assert_eq!(field_num(doc, "p99_ticks"), Some(10.0));
        assert_eq!(field_num(doc, "ratio"), Some(-1.5));
        assert_eq!(cells(doc, "ns_per_op"), vec![("a/b".to_string(), 80.2), ("c".to_string(), 7.0)]);
    }

    #[test]
    fn unreadable_values_are_absent_not_guessed() {
        assert_eq!(field_num("", "k"), None);
        assert_eq!(field_num("\"k\": true", "k"), None);
        assert_eq!(field_num("\"fault_p99_ticks\": 3", "p99_ticks"), None);
        assert_eq!(field_bool("\"quick\": ", "quick"), None);
        assert_eq!(field_str("\"name\": \"unterminated", "name"), None);
        assert!(cells("{ \"name\": \"a\", \"ops\": 5.0 }", "ops_per_sec").is_empty());
    }

    #[test]
    fn flag_value_takes_the_following_argument() {
        let args: Vec<String> = ["bin", "--baseline", "B.json", "--tolerance"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--baseline").as_deref(), Some("B.json"));
        assert_eq!(flag_value(&args, "--tolerance"), None);
        assert_eq!(flag_value(&args, "--quick"), None);
    }
}
