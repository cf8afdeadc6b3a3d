//! Threshold alerting over telemetry snapshots.
//!
//! A [`Rule`] names a metric and a bound; [`evaluate`] checks every
//! rule against a [`Snapshot`] and returns
//! the violations. The standing fleet policy lives in
//! [`default_rules`]: data-integrity counters that must never tick
//! (a checksum failure is corruption reaching the client boundary),
//! tail-latency bounds on distributions whose blowup signals a stalled
//! subsystem (a replica that stopped replaying the shared log), and
//! liveness floors proving each subsystem's watched activity happened.
//!
//! `telemetry_report` is the consumer and this list is its only
//! pass/fail rule: it evaluates the default rules after running the
//! representative workloads and exits nonzero on any violation, which
//! is the CI form of "the instruments say the system is healthy". With
//! telemetry compiled out every reading is zero and the floors skip
//! themselves, so evaluation passes trivially — the check gates
//! observations, not build configuration.

use crate::registry::{MetricValue, Snapshot};

/// One alerting rule.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    /// The named counter must not exceed `max`.
    CounterAtMost {
        /// Dotted metric name to match in the snapshot.
        metric: &'static str,
        /// Inclusive upper bound.
        max: u64,
    },
    /// The named counter must reach at least `min` — a liveness floor
    /// proving a watched activity actually happened (e.g. fault
    /// schedules swept). Evaluated only in telemetry-enabled
    /// builds: with instruments compiled out every counter reads zero,
    /// and a floor on a no-op is noise, not health.
    CounterAtLeast {
        /// Dotted metric name to match in the snapshot.
        metric: &'static str,
        /// Inclusive lower bound.
        min: u64,
    },
    /// The named histogram's p99 estimate must not exceed `max`.
    P99AtMost {
        /// Dotted metric name to match in the snapshot.
        metric: &'static str,
        /// Inclusive upper bound on the p99 bucket estimate.
        max: u64,
    },
}

impl Rule {
    /// The metric name this rule watches.
    pub fn metric(&self) -> &'static str {
        match self {
            Rule::CounterAtMost { metric, .. }
            | Rule::CounterAtLeast { metric, .. }
            | Rule::P99AtMost { metric, .. } => metric,
        }
    }
}

/// A rule violation: which metric, what was observed, what was allowed.
#[derive(Clone, Debug)]
pub struct Alert {
    /// The violated rule's metric name.
    pub metric: &'static str,
    /// The reading that broke the bound.
    pub observed: u64,
    /// The bound it broke.
    pub allowed: u64,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Activities `telemetry_report`'s workloads must visibly drive, one
/// `CounterAtLeast { min: 1 }` floor each: a crate whose export went
/// unwired, or a workload that stopped reaching a path, fails the
/// report instead of passing on all-zero readings.
const LIVENESS_FLOORS: [&str; 13] = [
    "nr.log.appends",
    "kernel.tlb.misses",
    "uring.cqe.posted",
    "uring.pending.parked",
    "uring.poller.sweeps",
    "uring.chain.dispatched",
    "uring.chain.aborts",
    "uring.chain.links_cancelled",
    "fs.journal.commits",
    "net.sim.delivered",
    "cluster.ops.completed",
    "cluster.shard.syncs",
    "cluster.view.epoch",
];

/// The standing alert policy checked by `telemetry_report`.
pub fn default_rules() -> Vec<Rule> {
    let mut rules = vec![
        // Corruption must never reach the client boundary silently:
        // every checksum rejection in a healthy run is deliberate test
        // traffic, so in the health check the budget is zero.
        Rule::CounterAtMost { metric: "blockstore.checksum_failures", max: 0 },
        // A replica whose replay lag blows past the log's flat-combining
        // batch scale has effectively stopped consuming the shared log;
        // the bound is generous (the log itself holds 1024 entries in
        // the default sweeps) so only a wedged replica trips it.
        Rule::P99AtMost { metric: "nr.replica.replay_lag", max: 1024 },
        // Chain atomicity is a kernel invariant, not a tuning knob: the
        // engine's defensive self-check (exactly the post-failure
        // suffix cancelled, nothing else) ticking even once means the
        // chain dispatcher broke its contract.
        Rule::CounterAtMost { metric: "uring.chain.atomicity_violations", max: 0 },
        // Chain replication lag is bounded by one chain traversal plus
        // wire retransmissions: a p99 past this means a head is
        // forwarding into a wedged successor instead of a lossy wire
        // (client op timeouts would fire long before).
        Rule::P99AtMost { metric: "cluster.replication.lag", max: 2000 },
        // Failover is local suspicion (op timeout + retry backoff) plus
        // the coordinator's death deadline plus a shard sync; a p99
        // beyond this ceiling means promotion wedged and clients are
        // spinning on a dead chain, not riding out a view change.
        Rule::P99AtMost { metric: "cluster.failover.time", max: 5000 },
        // The end-to-end invariant sweeps (INVARIANTS.md) must never
        // observe a violation outside a deliberate ablation: a tick here
        // means an acked write was lost, a message applied twice, a
        // journal boundary broken, a frame leaked, or a chain torn.
        Rule::CounterAtMost { metric: "invariant.violations", max: 0 },
        // And the sweeps must actually run: a report that registers the
        // invariant instruments but swept nothing is a vacuous health
        // check, not a healthy system. `telemetry_report` sweeps two
        // schedules in each of the six families.
        Rule::CounterAtLeast { metric: "invariant.schedules_swept", min: 12 },
    ];
    rules.extend(LIVENESS_FLOORS.map(|metric| Rule::CounterAtLeast { metric, min: 1 }));
    rules
}

/// Evaluates `rules` against a snapshot, returning every violation.
/// Metrics absent from the snapshot are not violations (a report may
/// legitimately register a subset of crates); a rule kind mismatching
/// the metric's actual type is reported, since a silently unevaluated
/// rule is worse than a loud one.
pub fn evaluate(snapshot: &Snapshot, rules: &[Rule]) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for rule in rules {
        let Some(metric) = snapshot.metrics.iter().find(|m| m.name == rule.metric()) else {
            continue;
        };
        match (rule, &metric.value) {
            (Rule::CounterAtMost { metric: name, max }, MetricValue::Counter(v)) => {
                if v > max {
                    alerts.push(Alert {
                        metric: name,
                        observed: *v,
                        allowed: *max,
                        message: format!("{name} = {v}, allowed at most {max}"),
                    });
                }
            }
            (Rule::CounterAtLeast { metric: name, min }, MetricValue::Counter(v)) => {
                if crate::enabled() && v < min {
                    alerts.push(Alert {
                        metric: name,
                        observed: *v,
                        allowed: *min,
                        message: format!("{name} = {v}, expected at least {min}"),
                    });
                }
            }
            (Rule::P99AtMost { metric: name, max }, MetricValue::Histogram(h)) => {
                if h.p99 > *max {
                    alerts.push(Alert {
                        metric: name,
                        observed: h.p99,
                        allowed: *max,
                        message: format!(
                            "{name} p99 = {} (count {}), allowed at most {max}",
                            h.p99, h.count
                        ),
                    });
                }
            }
            (rule, _) => {
                alerts.push(Alert {
                    metric: rule.metric(),
                    observed: 0,
                    allowed: 0,
                    message: format!(
                        "{}: rule kind does not match the metric's type",
                        rule.metric()
                    ),
                });
            }
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Histogram, Registry};

    /// A snapshot of instruments of the caller's own, `dirty` failures
    /// and the `lag` readings in: tests run on parallel threads, so
    /// statics shared between them would leak one test's readings into
    /// another's snapshot.
    fn snapshot(dirty: u64, lag: &[u64]) -> Snapshot {
        let dirty_failures: &'static Counter = Box::leak(Box::new(Counter::new()));
        let lag_hist: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        dirty_failures.add(dirty);
        lag.iter().for_each(|&v| lag_hist.record(v));
        let mut reg = Registry::new();
        reg.counter("test.clean_failures", "events", Box::leak(Box::new(Counter::new())));
        reg.counter("test.dirty_failures", "events", dirty_failures);
        reg.histogram("test.lag", "entries", lag_hist);
        reg.snapshot()
    }

    #[test]
    fn clean_snapshot_raises_no_alerts() {
        let rules = [
            Rule::CounterAtMost { metric: "test.clean_failures", max: 0 },
            Rule::P99AtMost { metric: "test.lag", max: 1024 },
            // Absent metrics are skipped, not violations.
            Rule::CounterAtMost { metric: "test.not_registered", max: 0 },
        ];
        assert!(evaluate(&snapshot(0, &[]), &rules).is_empty());
    }

    #[test]
    fn violations_surface_with_observed_and_allowed() {
        if !crate::enabled() {
            return;
        }
        let rules = [
            Rule::CounterAtMost { metric: "test.dirty_failures", max: 0 },
            Rule::P99AtMost { metric: "test.lag", max: 1024 },
        ];
        let alerts = evaluate(&snapshot(1, &[5000; 100]), &rules);
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].metric, "test.dirty_failures");
        assert_eq!(alerts[0].observed, 1);
        assert_eq!(alerts[0].allowed, 0);
        assert_eq!(alerts[1].metric, "test.lag");
        assert!(alerts[1].observed > 1024, "p99 {}", alerts[1].observed);
    }

    #[test]
    fn kind_mismatch_is_loud() {
        let rules = [Rule::P99AtMost { metric: "test.clean_failures", max: 10 }];
        let alerts = evaluate(&snapshot(0, &[]), &rules);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].message.contains("does not match"));
    }

    #[test]
    fn default_rules_cover_integrity_lag_and_the_data_plane() {
        let rules = default_rules();
        assert!(rules
            .iter()
            .any(|r| r.metric() == "blockstore.checksum_failures"));
        assert!(rules.iter().any(|r| r.metric() == "nr.replica.replay_lag"));
        assert!(rules
            .iter()
            .any(|r| r.metric() == "uring.chain.atomicity_violations"));
        assert!(rules
            .iter()
            .any(|r| matches!(r, Rule::P99AtMost { metric: "cluster.replication.lag", .. })));
        assert!(rules
            .iter()
            .any(|r| matches!(r, Rule::P99AtMost { metric: "cluster.failover.time", .. })));
        assert!(rules
            .iter()
            .any(|r| matches!(r, Rule::CounterAtMost { metric: "invariant.violations", max: 0 })));
        assert!(rules.iter().any(
            |r| matches!(r, Rule::CounterAtLeast { metric: "invariant.schedules_swept", min: 12 })
        ));
    }

    /// Over a registry holding every metric the policy names at zero,
    /// exactly the liveness floors fire, each once and naming its
    /// metric; with telemetry compiled out nothing fires.
    #[test]
    fn zero_readings_trip_exactly_the_liveness_floors() {
        let rules = default_rules();
        let mut reg = Registry::new();
        for rule in &rules {
            let name = rule.metric();
            if reg.metric_names().contains(&name) {
                continue;
            }
            match rule {
                Rule::P99AtMost { .. } => {
                    reg.histogram(name, "units", Box::leak(Box::new(Histogram::new())))
                }
                _ => reg.counter(name, "units", Box::leak(Box::new(Counter::new()))),
            }
        }
        let fired: Vec<&str> = evaluate(&reg.snapshot(), &rules)
            .iter()
            .map(|a| a.metric)
            .collect();
        let floors: Vec<&str> = rules
            .iter()
            .filter(|r| matches!(r, Rule::CounterAtLeast { .. }))
            .map(Rule::metric)
            .collect();
        assert_eq!(floors.len(), 14);
        if crate::enabled() {
            assert_eq!(fired, floors);
        } else {
            assert!(fired.is_empty(), "{fired:?}");
        }
    }

    static FLOOR: Counter = Counter::new();

    #[test]
    fn counter_at_least_is_a_liveness_floor() {
        let mut reg = Registry::new();
        reg.counter("test.floor", "events", &FLOOR);
        let rules = [
            Rule::CounterAtLeast { metric: "test.floor", min: 1 },
            // Absent metrics are skipped, like the other scalar kinds.
            Rule::CounterAtLeast { metric: "test.not_registered", min: 1 },
        ];
        if crate::enabled() {
            let alerts = evaluate(&reg.snapshot(), &rules);
            assert_eq!(alerts.len(), 1, "zero reading must trip the floor");
            assert!(alerts[0].message.contains("at least"));
            FLOOR.inc();
        }
        // Satisfied floor (or telemetry compiled out): no alerts.
        assert!(evaluate(&reg.snapshot(), &rules).is_empty());
    }
}
