//! Percentile, quartile and share arithmetic shared by every workload.
//!
//! Two conventions live here and nowhere else:
//!
//! * **Tick percentiles** are nearest-rank over the sorted samples with
//!   the same index rule as `veros_cluster::workload::stats`
//!   (`sorted[(n - 1) * p / 100]`), so the bench's tick numbers line up
//!   with `BENCH_blockstore.json`.
//! * **Medians and quartiles of host-time samples** follow Python's
//!   `statistics.quantiles(values, n=4)` (the exclusive method), because
//!   that is how the benchmark driver computes the spread it accepts or
//!   rejects the benchmark on.

/// Nearest-rank percentile `p` (0..=100) of `samples` (in any order);
/// 0 when empty.
pub fn percentile<T: Copy + Default + Ord>(samples: &[T], p: usize) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    match sorted.len() {
        0 => T::default(),
        n => sorted[(n - 1) * p / 100],
    }
}

/// `num / den`, or 0 when there is nothing to divide by — a share of
/// nothing is reported as zero, never as NaN.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The three quartile cut points of `values` by the exclusive method
/// (`statistics.quantiles(values, n=4)`); all three are the single
/// value when fewer than two samples exist.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 (1-based), clamped, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median — the spread the driver
/// holds each end-to-end metric to.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    share(q3 - q1, q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7u64], 99), 7);
        assert_eq!(percentile::<u64>(&[], 99), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 5.5).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 8.25).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_and_share_handle_edges() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
