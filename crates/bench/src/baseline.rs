//! The one gate engine for the committed `BENCH_*.json` baselines and
//! its scanner.
//!
//! A report declares only what it gates — a [`Gate`] per value key: which
//! way is worse, how far past the baseline a value may move, and this
//! run's values — and [`check`] does the rest: it reads each gated cell
//! out of the baseline, decides pass or fail, and returns a
//! [`GateResult`]. [`render`] prints it as the `baseline check vs <path>`
//! block, and [`gate`] is read + check + print for the hot-path binaries.
//! Every gate binary holds its run to the committed file of its own name
//! at the workspace root ([`read_committed`]); there is no other
//! baseline to point it at, so a missing committed file fails the run.
//!
//! The documents are machine-written, one field or one cell object per
//! line, so the scanner is for exactly that shape, not a JSON parser: it
//! finds `"key": value` and reads the value, and a value it cannot fully
//! read is absent rather than guessed. A gate that finds nothing to gate
//! against fails, not passes — an empty, truncated or re-keyed baseline
//! would otherwise wave every run through.

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

/// `(name, value)` for every line carrying both a `"name"` and a
/// `value_key` field — the cell objects of a hot-path baseline. Lines
/// missing either are skipped.
pub fn cells(json: &str, value_key: &str) -> Vec<(String, f64)> {
    json.lines()
        .filter_map(|line| Some((field_str(line, "name")?, field_num(line, value_key)?)))
        .collect()
}

/// Which way a gated value improves; the other way, past the tolerance,
/// is a regression.
#[derive(Clone, Copy, Debug)]
pub enum Better {
    /// Throughput, a population: the baseline sets a floor.
    Higher,
    /// Latency: the baseline sets a ceiling.
    Lower,
}

/// This run's values for one gated key.
#[derive(Clone, Debug)]
pub enum Current {
    /// A top-level `"key": value` field.
    Field(f64),
    /// The objects of the report's `cells` array, by `"name"`: `None`
    /// marks a cell the report records but never gates. Every baseline
    /// cell must name one of these.
    Cells(Vec<(String, Option<f64>)>),
}

/// What a report holds to its committed baseline under one key.
#[derive(Clone, Debug)]
pub struct Gate {
    /// The key the value is stored under, in the report and the baseline.
    pub key: &'static str,
    /// Which way is better.
    pub better: Better,
    /// How far past the baseline a value may move, as a fraction of it
    /// (0.10 = 10 %; 0 makes the baseline an exact floor or ceiling).
    pub tolerance: f64,
    /// This run's values.
    pub current: Current,
}

/// The result of gating a run against a committed baseline.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// Hard failures — a non-empty list fails the run.
    pub violations: Vec<String>,
    /// Passing cells, loud skips and context, printed but never failing.
    pub notes: Vec<String>,
}

impl GateResult {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Holds every gated cell of `gates` to the baseline document `json`.
/// A key the baseline has no readable value for, a baseline cell the run
/// no longer produces, and a value past its bound (or not a number) are
/// violations.
pub fn check(json: &str, gates: &[Gate]) -> GateResult {
    let mut out = GateResult::default();
    for g in gates {
        match &g.current {
            Current::Field(cur) => match field_num(json, g.key) {
                Some(base) => compare(&mut out, g, g.key, *cur, base),
                None => out.violations.push(missing(g.key)),
            },
            Current::Cells(current) => {
                let baseline = cells(json, g.key);
                if baseline.is_empty() {
                    out.violations.push(missing(g.key));
                }
                for (name, base) in baseline {
                    let label = format!("{name} {}", g.key);
                    match current.iter().find(|(n, _)| *n == name) {
                        Some((_, Some(cur))) => compare(&mut out, g, &label, *cur, base),
                        Some((_, None)) => {}
                        None => out.violations.push(format!(
                            "{label}: baseline {}, but the run no longer produces the cell",
                            show(base)
                        )),
                    }
                }
            }
        }
    }
    out
}

/// One value against its bound; the line lands in `notes` or `violations`.
fn compare(out: &mut GateResult, g: &Gate, label: &str, cur: f64, base: f64) {
    let (bound, within, word) = match g.better {
        Better::Higher => {
            let floor = base * (1.0 - g.tolerance);
            (floor, cur >= floor, "floor")
        }
        Better::Lower => {
            let ceiling = base * (1.0 + g.tolerance);
            (ceiling, cur <= ceiling, "ceiling")
        }
    };
    let line = format!(
        "{label}: {} vs {word} {} (baseline {}, tolerance {:.0}%)",
        show(cur),
        show(bound),
        show(base),
        g.tolerance * 100.0
    );
    if within {
        out.notes.push(line);
    } else {
        out.violations.push(line);
    }
}

/// A value rounded to one decimal, printed without a trailing `.0`.
fn show(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// The violation for a key the baseline yields nothing to compare against.
fn missing(key: &str) -> String {
    format!("baseline has no readable \"{key}\": an empty, truncated or re-keyed file gates nothing")
}

/// The `baseline check vs <path>` block: a PASS/FAILED header, then one
/// line per violation and per note.
pub fn render(path: &str, result: &GateResult) -> String {
    let verdict = if result.ok() { "PASS" } else { "FAILED" };
    let mut out = format!("baseline check vs {path}: {verdict}\n");
    for v in &result.violations {
        out.push_str(&format!("  VIOLATION: {v}\n"));
    }
    for n in &result.notes {
        out.push_str(&format!("  {n}\n"));
    }
    out
}

/// The committed baseline `name` (`BENCH_<bench>.json`) at the
/// workspace root, or the message naming why it cannot be read.
pub fn read_committed(name: &str) -> Result<String, String> {
    let path = crate::ratio::workspace_root().join(name);
    std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))
}

/// Reads the committed baseline `name`, checks `gates` against it and
/// prints the block to stderr. A missing or unreadable file fails like a
/// violation.
pub fn gate(name: &str, gates: &[Gate]) -> bool {
    match read_committed(name) {
        Ok(json) => {
            let result = check(&json, gates);
            eprint!("{}", render(name, &result));
            result.ok()
        }
        Err(e) => {
            eprintln!("{e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_back_what_the_reports_write() {
        let doc = "{\n  \"bench\": \"x\",\n  \"p99_ticks\": 10,\n  \
                   \"ratio\": -1.5,\n  \"cells\": [\n    { \"name\": \"a/b\", \"ns_per_op\": 80.2 },\n    \
                   { \"name\": \"c\", \"ns_per_op\": 7.0 }\n  ]\n}\n";
        assert_eq!(field_str(doc, "bench").as_deref(), Some("x"));
        assert_eq!(field_num(doc, "p99_ticks"), Some(10.0));
        assert_eq!(field_num(doc, "ratio"), Some(-1.5));
        assert_eq!(cells(doc, "ns_per_op"), vec![("a/b".to_string(), 80.2), ("c".to_string(), 7.0)]);
    }

    #[test]
    fn unreadable_values_are_absent_not_guessed() {
        assert_eq!(field_num("", "k"), None);
        assert_eq!(field_num("\"k\": true", "k"), None);
        assert_eq!(field_num("\"fault_p99_ticks\": 3", "p99_ticks"), None);
        assert_eq!(field_str("\"name\": \"unterminated", "name"), None);
        assert!(cells("{ \"name\": \"a\", \"ops\": 5.0 }", "ops_per_sec").is_empty());
    }

    // Each report kind rebuilt from a baseline document's own values,
    // declaring its gates exactly as its binary does.

    fn nr(doc: &str) -> Vec<Gate> {
        let cells = cells(doc, "ops_per_sec")
            .into_iter()
            .map(|(name, ops_per_sec)| {
                crate::hotpath::Cell { name, threads: 0, replicas: 0, ops_per_sec }
            })
            .collect();
        let report = crate::hotpath::HotpathReport {
            quick: false,
            cells,
            resolve_hot_ns: 0.0,
            resolve_cold_ns: 0.0,
            range_batched_ns: 0.0,
            range_per_page_ns: 0.0,
        };
        vec![report.gate()]
    }

    fn uring(doc: &str) -> Vec<Gate> {
        // `measure` records the chain cells ungated; they are rebuilt
        // 1000x worse than committed, and must still never fail.
        let cells = cells(doc, "ns_per_op")
            .into_iter()
            .map(|(name, ns)| {
                let gated = !name.starts_with("chain/");
                let ns_per_op = if gated { ns } else { ns * 1000.0 };
                crate::uring::LatCell { name, ns_per_op, gated }
            })
            .collect();
        vec![crate::uring::UringReport { quick: false, cells }.gate()]
    }

    fn blockstore(doc: &str) -> Vec<Gate> {
        let n = |key| field_num(doc, key).expect("committed field") as u64;
        let stats = veros_cluster::workload::WorkloadStats {
            completed: n("completed"),
            failed: n("failed"),
            retries: n("retries"),
            p50: n("p50_ticks"),
            p99: n("p99_ticks"),
            max: n("max_ticks"),
            throughput_milli: n("throughput_milli"),
            ticks: n("run_ticks"),
        };
        let report = crate::blockstore::BlockstoreReport {
            nodes: 8,
            clients: 1000,
            replication: 3,
            ops: 4000,
            stats,
            drained: true,
            failover_ticks: n("failover_ticks"),
            failover_read_ok: true,
        };
        report.gates().to_vec()
    }

    fn audit(doc: &str) -> Vec<Gate> {
        let n = |key| field_num(doc, key).expect("committed field") as usize;
        crate::audit::gates(n("vcs_total"), n("invariant_families")).to_vec()
    }

    type Rebuild = fn(&str) -> Vec<Gate>;

    /// Every committed baseline, with its rebuilt report and how many
    /// values that report gates.
    const COMMITTED: [(&str, &str, Rebuild, usize); 4] = [
        ("BENCH_nr.json", include_str!("../../../BENCH_nr.json"), nr, 5),
        ("BENCH_uring.json", include_str!("../../../BENCH_uring.json"), uring, 4),
        ("BENCH_blockstore.json", include_str!("../../../BENCH_blockstore.json"), blockstore, 2),
        ("BENCH_audit.json", include_str!("../../../BENCH_audit.json"), audit, 2),
    ];

    /// The first gated value of `g`: its label and this run's value.
    fn first_gated(g: &mut Gate) -> (String, &mut f64) {
        match &mut g.current {
            Current::Field(v) => (g.key.to_string(), v),
            Current::Cells(cells) => cells
                .iter_mut()
                .find_map(|(name, v)| Some((format!("{name} {}", g.key), v.as_mut()?)))
                .expect("a gated cell"),
        }
    }

    #[test]
    fn every_committed_baseline_gates_through_one_engine() {
        for (file, doc, rebuild, gated) in COMMITTED {
            // A report rebuilt from the file gates clean, one note per
            // gated value (ungated uring cells are not even listed).
            let clean = check(doc, &rebuild(doc));
            assert!(clean.ok(), "{file}: {:?}", clean.violations);
            assert_eq!(clean.notes.len(), gated, "{file}: {:?}", clean.notes);

            for g in rebuild(doc) {
                let fails = |json: &str, gate: Gate| check(json, &[gate]).violations;
                let no_key = format!("no readable \"{}\"", g.key);

                // An empty file and a re-keyed one gate nothing: both fail.
                let v = fails("", g.clone());
                assert!(v.len() == 1 && v[0].contains(&no_key), "{file} empty: {v:?}");
                let rekeyed = doc.replace(&format!("\"{}\":", g.key), "\"renamed\":");
                let v = fails(&rekeyed, g.clone());
                assert!(v.len() == 1 && v[0].contains(&no_key), "{file} re-keyed: {v:?}");

                // A baseline cell the run no longer produces fails: a
                // cell missing from the run, or a field it left NaN.
                let mut stale = g.clone();
                let cell = match &mut stale.current {
                    Current::Field(v) => {
                        *v = f64::NAN;
                        g.key.to_string()
                    }
                    Current::Cells(cells) => {
                        let at = cells.iter().position(|(_, v)| v.is_some()).expect("a gated cell");
                        format!("{} {}", cells.remove(at).0, g.key)
                    }
                };
                let v = fails(doc, stale);
                let stale_cell = format!("{cell}: ");
                assert!(v.len() == 1 && v[0].starts_with(&stale_cell), "{file} stale: {v:?}");

                // Exactly at its bound a cell passes; just past it, it
                // fails with a violation naming the cell, this run's
                // value, the bound and the baseline.
                let mut at_bound = g.clone();
                let (cell, cur) = first_gated(&mut at_bound);
                let base = *cur;
                let (bound, word, past) = match g.better {
                    Better::Higher => (base * (1.0 - g.tolerance), "floor", 1.0 - 1e-9),
                    Better::Lower => (base * (1.0 + g.tolerance), "ceiling", 1.0 + 1e-9),
                };
                *cur = bound;
                let mut past_bound = at_bound.clone();
                *first_gated(&mut past_bound).1 = bound * past;
                assert!(check(doc, &[at_bound]).ok(), "{file}: {cell} at its bound");
                let v = fails(doc, past_bound);
                let named = format!(
                    "{cell}: {} vs {word} {} (baseline {}",
                    show(bound * past),
                    show(bound),
                    show(base)
                );
                assert!(v.len() == 1 && v[0].starts_with(&named), "{file} past bound: {v:?}");
            }
        }
    }
}
