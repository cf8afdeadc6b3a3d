//! The one telemetry registry, and the catalogue that says who reads it.
//!
//! [`registry`] registers every instrumented crate's `metrics::export`
//! in the order `TELEMETRY.json` lists them; `telemetry_report`
//! snapshots it. `OBSERVABILITY.md`'s metric catalogue has one row per
//! metric (a `<…>` segment in a name stands for a bank of `×N` rows)
//! and a *Read by* column naming each metric's consumers: an `alert`
//! rule, the `audit`, an `e2e` ledger cell, or a `VC` / `test` that
//! compares the reading with what its workload provably did. A metric
//! nothing reads is deleted, not catalogued; the test below holds the
//! registry and the catalogue to each other.

use veros_telemetry::Registry;

/// Every crate's instruments, in report order.
pub fn registry() -> Registry {
    let mut reg = Registry::new();
    veros_nr::metrics::export(&mut reg);
    veros_kernel::metrics::export(&mut reg);
    veros_fs::metrics::export(&mut reg);
    veros_net::metrics::export(&mut reg);
    veros_blockstore::metrics::export(&mut reg);
    veros_uring::metrics::export(&mut reg);
    veros_cluster::metrics::export(&mut reg);
    veros_core::metrics::export(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_telemetry::registry::MetricValue;
    use veros_telemetry::{default_rules, Counter};

    /// The words a *Read by* entry may start with.
    const READERS: [&str; 5] = ["alert", "audit", "e2e", "VC", "test"];

    /// One catalogue row: `(name, kind, multiplicity, unit, read by)`.
    type Row<'a> = (&'a str, &'a str, usize, &'a str, &'a str);

    fn rows(doc: &str) -> Vec<Row<'_>> {
        let section = doc
            .split("## Metric catalogue")
            .nth(1)
            .and_then(|s| s.split("## Alert thresholds").next())
            .unwrap_or_default();
        section
            .lines()
            .filter(|l| l.starts_with("| `"))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let name = cells[1].trim_matches('`');
                let (kind, mult) = match cells[2].split_once(" ×") {
                    Some((k, n)) => (k, n.parse().unwrap_or(0)),
                    None => (cells[2], 1),
                };
                (name, kind, mult, cells[3], cells[4])
            })
            .filter(|&(_, kind, ..)| kind != "trace")
            .collect()
    }

    /// Does registered `name` fall under catalogue row `row`? A `<…>`
    /// segment matches one dot-free, non-empty name segment.
    fn covers(row: &str, name: &str) -> bool {
        match (row.split_once('<'), row.split_once('>')) {
            (Some((prefix, _)), Some((_, suffix))) => name
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
                .is_some_and(|mid| !mid.is_empty() && !mid.contains('.')),
            _ => row == name,
        }
    }

    /// Every way `reg` and the catalogue in `doc` disagree.
    fn mismatches(doc: &str, reg: &Registry) -> Vec<String> {
        let rows = rows(doc);
        let mut errors = Vec::new();
        let total = format!("{} metrics total", reg.metric_count());
        if !doc.contains(&total) {
            errors.push(format!("catalogue does not say \"{total}\""));
        }
        for m in reg.snapshot().metrics {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Histogram(_) => "histogram",
                MetricValue::Trace { .. } => continue,
            };
            let hits: Vec<&Row> = rows.iter().filter(|r| covers(r.0, m.name)).collect();
            match hits[..] {
                [&(row, k, _, unit, _)] => {
                    if (k, unit) != (kind, m.unit) {
                        errors.push(format!(
                            "{}: registered as {kind} in {}, catalogued ({row}) as {k} in {unit}",
                            m.name, m.unit
                        ));
                    }
                }
                _ => errors.push(format!("{}: {} catalogue rows", m.name, hits.len())),
            }
        }
        let names = reg.metric_names();
        let alerted: Vec<&str> = default_rules().iter().map(|r| r.metric()).collect();
        for &(row, _, mult, _, read_by) in &rows {
            let n = names.iter().filter(|name| covers(row, name)).count();
            if n != mult {
                errors.push(format!("{row}: catalogued ×{mult}, registered ×{n}"));
            }
            let entries: Vec<&str> = read_by.split(';').map(str::trim).collect();
            if entries.iter().any(|e| !READERS.iter().any(|r| e.starts_with(r))) {
                errors.push(format!("{row}: \"{read_by}\" names no reader"));
            }
            match (entries.iter().any(|e| e.starts_with("alert")), alerted.contains(&row)) {
                (true, false) => errors.push(format!("{row}: says alert, but no rule names it")),
                (false, true) => {
                    errors.push(format!("{row}: a rule names it, Read by omits alert"))
                }
                _ => {}
            }
        }
        for metric in alerted {
            if !rows.iter().any(|r| r.0 == metric) {
                errors.push(format!("{metric}: alerted but has no catalogue row"));
            }
        }
        errors
    }

    fn observability_md() -> String {
        let path = crate::ratio::workspace_root().join("OBSERVABILITY.md");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn catalogue_lists_every_metric_and_its_reader() {
        let errors = mismatches(&observability_md(), &registry());
        assert!(errors.is_empty(), "{}", errors.join("\n"));
    }

    /// Sensitivity: a metric registered without a catalogue row, or a
    /// row whose reader is gone, fails the check by name.
    #[test]
    fn an_uncatalogued_or_unread_metric_fails() {
        static REVIVED: Counter = Counter::new();
        let doc = observability_md();
        let mut reg = registry();
        reg.counter("uring.cq.overflows", "entries", &REVIVED);
        let errors = mismatches(&doc, &reg);
        assert!(errors.iter().any(|e| e.starts_with("uring.cq.overflows: 0 catalogue rows")));

        static UNREAD: Counter = Counter::new();
        let mut reg = Registry::new();
        reg.counter("t.unread", "ops", &UNREAD);
        let doc = "## Metric catalogue\n1 metrics total\n| `t.unread` | counter | ops |  | x |\n";
        let errors = mismatches(doc, &reg);
        assert!(errors.iter().any(|e| e.starts_with("t.unread: \"\" names no reader")));
    }
}
