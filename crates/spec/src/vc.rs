//! Verification-condition engine.
//!
//! Verus compiles each function into a set of verification conditions and
//! discharges them with Z3, reporting per-function verification times —
//! that is the population behind the paper's Figure 1a ("CDF of all 220
//! verification conditions", all ≤ 11 s, ≈ 40 s total). Our substitution
//! keeps the same artifact shape: every module registers named
//! obligations (invariant preservation, refinement, hardware
//! interpretation, marshalling round-trips, race freedom, linearizability)
//! and this engine runs each one, records its wall-clock duration and
//! outcome, and renders the CDF.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// The kind of obligation a verification condition discharges.
///
/// The kinds mirror the proof structure of the paper's prototype (Fig 2)
/// plus the three Section 3 obligations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VcKind {
    /// A state invariant holds on all reachable states.
    Invariant,
    /// A forward-simulation refinement between two layers.
    Refinement,
    /// The hardware's interpretation of in-memory bits matches the
    /// abstract view (the paper's "lion's share" proof step).
    Interpretation,
    /// Serialization round-trips across the user/kernel boundary.
    Marshalling,
    /// No concurrent access to syscall buffers while a syscall runs.
    RaceFreedom,
    /// A concurrent history is linearizable against a sequential spec.
    Linearizability,
    /// A functional property of an operation (pre/post condition).
    Property,
}

impl VcKind {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            VcKind::Invariant => "inv",
            VcKind::Refinement => "refine",
            VcKind::Interpretation => "interp",
            VcKind::Marshalling => "marshal",
            VcKind::RaceFreedom => "race",
            VcKind::Linearizability => "linear",
            VcKind::Property => "prop",
        }
    }
}

/// A named verification condition.
#[derive(Clone, Debug)]
pub struct Vc {
    /// Fully qualified name, e.g. `pagetable::map_frame::inv_aligned`.
    pub name: String,
    /// The module (crate) the obligation belongs to.
    pub module: &'static str,
    /// The obligation kind.
    pub kind: VcKind,
}

/// The outcome of running one verification condition.
#[derive(Clone, Debug)]
pub struct VcOutcome {
    /// The obligation.
    pub vc: Vc,
    /// Wall-clock time spent discharging it.
    pub duration: Duration,
    /// Pass/fail.
    pub status: VcStatus,
}

/// Pass/fail status of a VC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VcStatus {
    /// The obligation was discharged.
    Passed,
    /// The obligation failed; the message contains the counterexample.
    Failed(String),
}

type Check = Box<dyn FnOnce() -> Result<(), String> + Send>;

/// Collects obligations and runs them, timing each.
#[derive(Default)]
pub struct VcEngine {
    obligations: Vec<(Vc, Check)>,
}

impl VcEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an obligation. `check` returns `Err(counterexample)` on
    /// failure.
    pub fn register<F>(&mut self, module: &'static str, kind: VcKind, name: impl Into<String>, check: F)
    where
        F: FnOnce() -> Result<(), String> + Send + 'static,
    {
        self.obligations.push((
            Vc {
                name: name.into(),
                module,
                kind,
            },
            Box::new(check),
        ));
    }

    /// Number of registered obligations.
    pub fn len(&self) -> usize {
        self.obligations.len()
    }

    /// True when no obligations are registered.
    pub fn is_empty(&self) -> bool {
        self.obligations.is_empty()
    }

    /// Names of the registered obligations, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.obligations.iter().map(|(vc, _)| vc.name.clone()).collect()
    }

    /// Runs every obligation, in registration order, timing each one.
    ///
    /// Each check runs under `catch_unwind`: a panicking check becomes a
    /// `VcStatus::Failed` outcome with the panic payload as the
    /// counterexample, never an aborted audit.
    pub fn run(self) -> VcReport {
        let mut outcomes = Vec::with_capacity(self.obligations.len());
        for (vc, check) in self.obligations {
            outcomes.push(run_one(vc, check));
        }
        VcReport { outcomes }
    }
}

/// Runs one check, timing it and converting a panic into a failure.
fn run_one(vc: Vc, check: Check) -> VcOutcome {
    let start = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(check));
    let duration = start.elapsed();
    let status = match result {
        Ok(Ok(())) => VcStatus::Passed,
        Ok(Err(msg)) => VcStatus::Failed(msg),
        Err(payload) => VcStatus::Failed(format!("check panicked: {}", panic_message(&*payload))),
    };
    VcOutcome { vc, duration, status }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

/// The result of running a set of verification conditions.
#[derive(Clone, Debug, Default)]
pub struct VcReport {
    /// Per-VC outcomes, in execution order.
    pub outcomes: Vec<VcOutcome>,
}

impl VcReport {
    /// Total number of VCs.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Failed VCs.
    pub fn failures(&self) -> Vec<&VcOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.status != VcStatus::Passed)
            .collect()
    }

    /// True when every VC passed.
    pub fn all_passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Sum of all VC durations (the paper's "total time to verify",
    /// ≈ 40 s for their prototype).
    pub fn total_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.duration).sum()
    }

    /// The slowest single VC (the paper: "all functions are individually
    /// verified in at most 11 seconds").
    pub fn max_time(&self) -> Duration {
        self.outcomes
            .iter()
            .map(|o| o.duration)
            .max()
            .unwrap_or_default()
    }

    /// Sorted VC durations, the raw series behind the Figure 1a CDF.
    pub fn sorted_durations(&self) -> Vec<Duration> {
        let mut d: Vec<Duration> = self.outcomes.iter().map(|o| o.duration).collect();
        d.sort();
        d
    }

    /// Returns `(duration, cumulative_fraction)` points of the CDF.
    pub fn cdf(&self) -> Vec<(Duration, f64)> {
        let d = self.sorted_durations();
        let n = d.len().max(1) as f64;
        d.into_iter()
            .enumerate()
            .map(|(i, t)| (t, (i + 1) as f64 / n))
            .collect()
    }

    /// The duration below which `fraction` of VCs complete.
    pub fn percentile(&self, fraction: f64) -> Duration {
        let d = self.sorted_durations();
        if d.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((fraction * d.len() as f64).ceil() as usize).clamp(1, d.len()) - 1;
        d[idx]
    }

    /// Counts VCs per kind.
    pub fn count_by_kind(&self) -> Vec<(VcKind, usize)> {
        let kinds = [
            VcKind::Invariant,
            VcKind::Refinement,
            VcKind::Interpretation,
            VcKind::Marshalling,
            VcKind::RaceFreedom,
            VcKind::Linearizability,
            VcKind::Property,
        ];
        kinds
            .into_iter()
            .map(|k| (k, self.outcomes.iter().filter(|o| o.vc.kind == k).count()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Renders a one-line summary in the style of the paper's Section 5.
    pub fn summary(&self) -> String {
        format!(
            "{} verification conditions, total {:.2?}, max {:.2?}, median {:.2?}, failures {}",
            self.total(),
            self.total_time(),
            self.max_time(),
            self.percentile(0.5),
            self.failures().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(n: usize, fail_at: Option<usize>) -> VcEngine {
        let mut e = VcEngine::new();
        for i in 0..n {
            let fail = fail_at == Some(i);
            e.register("test", VcKind::Property, format!("vc_{i}"), move || {
                if fail {
                    Err("boom".into())
                } else {
                    Ok(())
                }
            });
        }
        e
    }

    #[test]
    fn runs_all_and_times_them() {
        let report = engine_with(5, None).run();
        assert_eq!(report.total(), 5);
        assert!(report.all_passed());
        assert!(report.total_time() >= report.max_time());
    }

    #[test]
    fn failures_are_reported_with_message() {
        let report = engine_with(3, Some(1)).run();
        assert!(!report.all_passed());
        let fails = report.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].vc.name, "vc_1");
        match &fails[0].status {
            VcStatus::Failed(m) => assert_eq!(m, "boom"),
            _ => panic!(),
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut e = VcEngine::new();
        for i in 0..10u64 {
            e.register("test", VcKind::Invariant, format!("sleepy_{i}"), move || {
                std::thread::sleep(Duration::from_micros(i * 10));
                Ok(())
            });
        }
        let report = e.run();
        let cdf = report.cdf();
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_bounds() {
        let report = engine_with(4, None).run();
        assert!(report.percentile(0.0) <= report.percentile(1.0));
        assert_eq!(report.percentile(1.0), report.max_time());
    }

    #[test]
    fn count_by_kind_filters_zeroes() {
        let report = engine_with(2, None).run();
        let counts = report.count_by_kind();
        assert_eq!(counts, vec![(VcKind::Property, 2)]);
    }

    #[test]
    fn summary_mentions_count() {
        let report = engine_with(7, None).run();
        assert!(report.summary().contains("7 verification conditions"));
    }

    /// A mixed population with one deterministic failure and one panic.
    fn mixed_engine() -> VcEngine {
        let mut e = VcEngine::new();
        for i in 0..12u64 {
            e.register("test", VcKind::Property, format!("mixed_{i}"), move || match i {
                3 => Err(format!("injected failure at {i}")),
                7 => panic!("injected panic at {i}"),
                _ => Ok(()),
            });
        }
        e
    }

    #[test]
    fn panicking_check_becomes_failure_not_abort() {
        // Regression: `run` used to call checks bare, so one panicking
        // obligation aborted the whole audit process mid-run.
        let report = mixed_engine().run();
        assert_eq!(report.total(), 12, "every obligation after the panic still ran");
        let fails = report.failures();
        assert_eq!(fails.len(), 2);
        assert_eq!(fails[1].vc.name, "mixed_7");
        match &fails[1].status {
            VcStatus::Failed(m) => assert_eq!(m, "check panicked: injected panic at 7"),
            _ => panic!(),
        }
    }
}
