//! The metric registry and its JSON snapshot.
//!
//! Instrumented crates expose a `metrics` module with `static`
//! instruments and a `pub fn export(&mut Registry)` that registers
//! them under dotted names (`"kernel.tlb.misses"`). A reporting binary
//! builds one [`Registry`], calls every crate's `export`, and renders
//! a single [`Snapshot`] — the JSON document `telemetry_report` mirrors
//! into the `results/` directory (`VEROS_RESULTS_DIR`, the same
//! convention as every other report in the repo; the schema is
//! documented in OBSERVABILITY.md).
//!
//! The registry itself is *not* feature-gated: with telemetry disabled
//! it still renders a structurally complete snapshot whose values are
//! all zero and whose `telemetry_enabled` field is `false`, so report
//! consumers need no second code path.

use crate::counter::Counter;
use crate::histogram::{bucket_upper_bound, Histogram, HistogramSnapshot};
use crate::trace::{TraceEvent, TraceRing};

/// A legend naming trace-event codes: the code is the index.
pub type TraceLegend = &'static [&'static str];

enum Entry {
    Counter {
        name: &'static str,
        unit: &'static str,
        counter: &'static Counter,
    },
    Histogram {
        name: &'static str,
        unit: &'static str,
        histogram: &'static Histogram,
    },
    Trace {
        name: &'static str,
        ring: &'static TraceRing,
        legend: TraceLegend,
    },
}

/// Collects instrument references and renders snapshots.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter under `name` (dotted, crate-prefixed) with a
    /// `unit` (what one tick means: `"count"`, `"bytes"`, `"entries"`).
    pub fn counter(&mut self, name: &'static str, unit: &'static str, counter: &'static Counter) {
        self.entries.push(Entry::Counter { name, unit, counter });
    }

    /// Registers a histogram; `unit` describes the recorded values
    /// (`"ns"`, `"ops"`).
    pub fn histogram(
        &mut self,
        name: &'static str,
        unit: &'static str,
        histogram: &'static Histogram,
    ) {
        self.entries.push(Entry::Histogram { name, unit, histogram });
    }

    /// Registers a trace ring and the legend decoding its event codes.
    pub fn trace(&mut self, name: &'static str, ring: &'static TraceRing, legend: TraceLegend) {
        self.entries.push(Entry::Trace { name, ring, legend });
    }

    /// Number of registered scalar metrics (counters and histograms;
    /// trace rings are events, not metrics).
    pub fn metric_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !matches!(e, Entry::Trace { .. }))
            .count()
    }

    /// Names of every registered scalar metric.
    pub fn metric_names(&self) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                Entry::Counter { name, .. } | Entry::Histogram { name, .. } => Some(*name),
                Entry::Trace { .. } => None,
            })
            .collect()
    }

    /// Reads every instrument once and returns the point-in-time view.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self
            .entries
            .iter()
            .map(|e| match e {
                Entry::Counter { name, unit, counter } => Metric {
                    name,
                    unit,
                    value: MetricValue::Counter(counter.get()),
                },
                Entry::Histogram { name, unit, histogram } => Metric {
                    name,
                    unit,
                    value: MetricValue::Histogram(histogram.snapshot()),
                },
                Entry::Trace { name, ring, legend } => Metric {
                    name,
                    unit: "events",
                    value: MetricValue::Trace {
                        recorded: ring.recorded(),
                        events: ring.events(),
                        legend,
                    },
                },
            })
            .collect();
        Snapshot {
            enabled: crate::enabled(),
            metrics,
        }
    }
}

/// One named metric in a [`Snapshot`].
pub struct Metric {
    /// Dotted, crate-prefixed metric name.
    pub name: &'static str,
    /// Unit of the value (`"count"`, `"bytes"`, `"ns"`, …).
    pub unit: &'static str,
    /// The reading.
    pub value: MetricValue,
}

/// A metric reading.
pub enum MetricValue {
    /// Exact monotone event count.
    Counter(u64),
    /// Distribution summary.
    Histogram(HistogramSnapshot),
    /// Recent events plus the code legend.
    Trace {
        /// Total events ever recorded into the ring.
        recorded: u64,
        /// The retained events, oldest first.
        events: Vec<TraceEvent>,
        /// Code → name legend.
        legend: TraceLegend,
    },
}

/// Point-in-time view of every registered instrument.
pub struct Snapshot {
    /// Whether this build carries live instruments.
    pub enabled: bool,
    /// The readings, in registration order.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Renders the snapshot as a JSON document (hand-rolled like every
    /// serializer in this workspace; schema in OBSERVABILITY.md).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"report\": \"telemetry\",\n");
        out.push_str(&format!("  \"telemetry_enabled\": {},\n", self.enabled));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            out.push_str(&metric_json(m, "    "));
            out.push_str(comma);
            out.push('\n');
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn metric_json(m: &Metric, indent: &str) -> String {
    let head = format!(
        "{indent}{{ \"name\": {}, \"unit\": {}, ",
        json_str(m.name),
        json_str(m.unit)
    );
    match &m.value {
        MetricValue::Counter(v) => format!("{head}\"kind\": \"counter\", \"value\": {v} }}"),
        MetricValue::Histogram(h) => {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(i, n)| format!("[{i}, {}, {n}]", bucket_upper_bound(i)))
                .collect();
            format!(
                "{head}\"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [{}] }}",
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p95,
                h.p99,
                buckets.join(", ")
            )
        }
        MetricValue::Trace {
            recorded,
            events,
            legend,
        } => {
            let legend_json: Vec<String> = legend
                .iter()
                .enumerate()
                .map(|(code, name)| format!("[{code}, {}]", json_str(name)))
                .collect();
            let events_json: Vec<String> = events
                .iter()
                .map(|e| {
                    format!(
                        "[{}, {}, {}, {}]",
                        e.seq, e.ts_ns, e.code, e.value
                    )
                })
                .collect();
            format!(
                "{head}\"kind\": \"trace\", \"recorded\": {recorded}, \"legend\": [{}], \
                 \"events\": [{}] }}",
                legend_json.join(", "),
                events_json.join(", ")
            )
        }
    }
}

/// Renders `s` as a quoted JSON string literal, escaping quotes,
/// backslashes and every control character (names are static
/// identifiers, but the writer refuses to emit malformed documents
/// regardless). The workspace's one JSON string escaper.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    static C: Counter = Counter::new();
    static H: Histogram = Histogram::new();
    static R: TraceRing = TraceRing::new();
    static LEGEND: &[&str] = &["alpha", "beta"];

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.counter("test.counter", "count", &C);
        reg.histogram("test.hist", "ns", &H);
        reg.trace("test.trace", &R, LEGEND);
        reg
    }

    #[test]
    fn metric_count_excludes_trace_rings() {
        let reg = registry();
        assert_eq!(reg.metric_count(), 2);
        assert_eq!(reg.metric_names(), vec!["test.counter", "test.hist"]);
    }

    #[test]
    fn snapshot_renders_every_kind() {
        C.add(3);
        H.record(100);
        R.record(1, 7);
        let json = registry().snapshot().to_json();
        assert!(json.contains("\"report\": \"telemetry\""));
        assert!(json.contains("\"name\": \"test.counter\""));
        assert!(json.contains("\"kind\": \"histogram\""));
        assert!(json.contains("\"kind\": \"trace\""));
        assert!(json.contains("\"legend\": [[0, \"alpha\"], [1, \"beta\"]]"));
        if crate::enabled() {
            assert!(json.contains("\"telemetry_enabled\": true"));
        } else {
            assert!(json.contains("\"telemetry_enabled\": false"));
        }
    }

    #[test]
    fn json_escaping_covers_control_characters() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\ny\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
