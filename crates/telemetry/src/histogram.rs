//! Log2-bucketed value histograms with quantile estimates.
//!
//! A [`Histogram`] sorts each recorded value into one of [`BUCKETS`]
//! power-of-two buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
//! holds values in `[2^(b-1), 2^b - 1]`, and the final bucket absorbs
//! everything above. Alongside the buckets it tracks `count`, `sum`,
//! and `max`, which is enough for mean, tail quantiles (reported as the
//! bucket's inclusive upper bound — a ≤2× overestimate, the standard
//! log-bucket trade), and "worst ever".
//!
//! Updates are plain load/add/store pairs on
//! [`veros_sync::RelaxedCounter`] cells, not read-modify-writes:
//! under concurrent recording a tick can be lost, making histograms
//! *statistically* faithful rather than exact. That is the deliberate
//! half of the telemetry cost model (DESIGN.md §10): counters — which
//! verification conditions consume — are exact; distributions — which
//! humans consume — trade exactness for staying off the coherence
//! fabric. Paths hot enough that even this matters batch at the source
//! (the NR combiner records once per 64-op flush).

#[cfg(feature = "telemetry")]
use veros_sync::RelaxedCounter;
#[cfg(feature = "telemetry")]
use std::time::Instant;

/// Number of buckets: 0, then one per power of two up to `2^62`, with
/// bucket 63 absorbing the rest.
pub const BUCKETS: usize = 64;

/// A log2-bucketed distribution. Const-constructible, so instrumented
/// crates declare histograms as plain `static`s.
pub struct Histogram {
    #[cfg(feature = "telemetry")]
    buckets: [RelaxedCounter; BUCKETS],
    #[cfg(feature = "telemetry")]
    count: RelaxedCounter,
    #[cfg(feature = "telemetry")]
    sum: RelaxedCounter,
    #[cfg(feature = "telemetry")]
    max: RelaxedCounter,
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`,
/// clamped to the final bucket.
#[cfg(feature = "telemetry")]
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (what quantiles report).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Self {
            #[cfg(feature = "telemetry")]
            buckets: [const { RelaxedCounter::new(0) }; BUCKETS],
            #[cfg(feature = "telemetry")]
            count: RelaxedCounter::new(0),
            #[cfg(feature = "telemetry")]
            sum: RelaxedCounter::new(0),
            #[cfg(feature = "telemetry")]
            max: RelaxedCounter::new(0),
        }
    }

    /// Records one value (see the module docs for the exactness model).
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "telemetry")]
        {
            // Racing bumps may drop a tick: the module's exactness model.
            let bump = |cell: &RelaxedCounter, n: u64| {
                cell.store(cell.load().wrapping_add(n));
            };
            bump(&self.buckets[bucket_index(v)], 1);
            bump(&self.count, 1);
            bump(&self.sum, v);
            if v > self.max.load() {
                self.max.store(v);
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = v;
    }

    /// Starts a drop-timer: on drop, the elapsed wall time in
    /// nanoseconds is recorded into this histogram. With telemetry
    /// disabled no clock is read.
    #[inline]
    pub fn timer(&self) -> Timer<'_> {
        Timer {
            #[cfg(feature = "telemetry")]
            hist: self,
            #[cfg(feature = "telemetry")]
            start: Instant::now(),
            #[cfg(not(feature = "telemetry"))]
            _hist: std::marker::PhantomData,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        #[cfg(feature = "telemetry")]
        {
            self.count.load()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            0
        }
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        #[cfg(feature = "telemetry")]
        {
            self.sum.load()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            0
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        #[cfg(feature = "telemetry")]
        {
            self.max.load()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            0
        }
    }

    /// A coherent-enough copy of the whole distribution for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        #[cfg(feature = "telemetry")]
        {
            let buckets: Vec<(usize, u64)> = self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.load()))
                .filter(|&(_, n)| n > 0)
                .collect();
            let counts: Vec<u64> = {
                let mut v = vec![0u64; BUCKETS];
                for &(i, n) in &buckets {
                    v[i] = n;
                }
                v
            };
            HistogramSnapshot {
                count: self.count(),
                sum: self.sum(),
                max: self.max(),
                p50: quantile_from_buckets(&counts, 0.50),
                p95: quantile_from_buckets(&counts, 0.95),
                p99: quantile_from_buckets(&counts, 0.99),
                buckets,
            }
        }
        #[cfg(not(feature = "telemetry"))]
        {
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0,
                buckets: Vec::new(),
            }
        }
    }
}

/// Quantile over an explicit bucket-count array (the shared math behind
/// snapshots and snapshot diffs). Ungated:
/// snapshot diffing works on plain data and must behave identically in
/// telemetry-off builds, where snapshots are simply empty.
fn quantile_from_buckets(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    // ceil(q * total), clamped to [1, total]: the rank of the target.
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        cumulative += n;
        if cumulative >= target {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time view of a [`Histogram`], as reported in snapshots.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median estimate (bucket upper bound).
    pub p50: u64,
    /// 95th-percentile estimate (bucket upper bound).
    pub p95: u64,
    /// 99th-percentile estimate (bucket upper bound).
    pub p99: u64,
    /// `(bucket_index, count)` for every non-empty bucket.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// The distribution recorded *between* two snapshots of the same
    /// histogram: per-bucket saturating subtraction of `earlier` from
    /// `self`, with `count`/`sum` diffed the same way and quantiles
    /// recomputed over the interval's buckets. The saturation absorbs
    /// the racy-recording model (a bucket observed slightly ahead in
    /// the earlier snapshot must not underflow into a 2^64 count).
    ///
    /// `max` cannot be windowed from bucket data — it stays the
    /// lifetime max (`self.max`), which is the conservative reading for
    /// alerting.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKETS];
        for &(i, n) in &self.buckets {
            if i < BUCKETS {
                counts[i] = n;
            }
        }
        for &(i, n) in &earlier.buckets {
            if i < BUCKETS {
                counts[i] = counts[i].saturating_sub(n);
            }
        }
        let buckets: Vec<(usize, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            p50: quantile_from_buckets(&counts, 0.50),
            p95: quantile_from_buckets(&counts, 0.95),
            p99: quantile_from_buckets(&counts, 0.99),
            buckets,
        }
    }
}

/// Drop-guard returned by [`Histogram::timer`].
pub struct Timer<'a> {
    #[cfg(feature = "telemetry")]
    hist: &'a Histogram,
    #[cfg(feature = "telemetry")]
    start: Instant,
    #[cfg(not(feature = "telemetry"))]
    _hist: std::marker::PhantomData<&'a Histogram>,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        self.hist
            .record(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        if !crate::enabled() {
            return;
        }
        // (value, expected bucket): 0 is special, then [2^(b-1), 2^b).
        for (v, want) in [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1023, 10),
            (1024, 11),
            (u64::MAX, 63),
        ] {
            let h = Histogram::new();
            h.record(v);
            let snap = h.snapshot();
            assert_eq!(snap.buckets, vec![(want, 1)], "value {v}");
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn count_sum_max_track_recordings() {
        let h = Histogram::new();
        for v in [5u64, 10, 100] {
            h.record(v);
        }
        if crate::enabled() {
            assert_eq!(h.count(), 3);
            assert_eq!(h.sum(), 115);
            assert_eq!(h.max(), 100);
        } else {
            assert_eq!((h.count(), h.sum(), h.max()), (0, 0, 0));
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        if !crate::enabled() {
            return;
        }
        let h = Histogram::new();
        // 95 values of 3 (bucket 2, upper bound 3), 5 values of 1000
        // (bucket 10, upper bound 1023).
        for _ in 0..95 {
            h.record(3);
        }
        for _ in 0..5 {
            h.record(1000);
        }
        let snap = h.snapshot();
        assert_eq!((snap.p50, snap.p95, snap.p99), (3, 3, 1023));
        // Degenerate inputs: an empty histogram reports 0, and the rank
        // clamps to 1, not 0.
        assert_eq!(Histogram::new().snapshot().p99, 0);
        assert_eq!(quantile_from_buckets(&[0, 0, 4], 0.0), 3);
    }

    #[test]
    fn snapshot_diff_isolates_the_interval() {
        if !crate::enabled() {
            return;
        }
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(3);
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(1000);
        }
        let after = h.snapshot();
        let window = after.diff(&before);
        // Only the interval's 10 large recordings remain, so the
        // whole-window quantiles sit in the 1000s bucket even though
        // the lifetime p50 is still 3.
        assert_eq!(window.count, 10);
        assert_eq!(window.sum, 10_000);
        assert_eq!(window.buckets, vec![(10, 10)]);
        assert_eq!(window.p50, 1023);
        assert_eq!(window.p99, 1023);
        assert_eq!(after.p50, 3);
        // Diffing identical snapshots yields an empty window.
        let empty = after.diff(&after);
        assert_eq!(empty.count, 0);
        assert!(empty.buckets.is_empty());
        assert_eq!(empty.p99, 0);
        // Saturation: a stale "later" snapshot cannot underflow.
        let inverted = before.diff(&after);
        assert_eq!(inverted.count, 0);
        assert!(inverted.buckets.is_empty());
    }

    #[test]
    fn timer_records_elapsed_nanoseconds() {
        let h = Histogram::new();
        {
            let _t = h.timer();
            std::hint::black_box(1 + 1);
        }
        if crate::enabled() {
            assert_eq!(h.count(), 1);
        } else {
            assert_eq!(h.count(), 0);
        }
    }
}
