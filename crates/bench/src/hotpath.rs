//! The `nr_hotpath` workload: contended NR dispatch throughput and
//! address-translation latency, before/after the hot-path overhaul.
//!
//! Two families of measurements, emitted as `BENCH_nr.json`:
//!
//! * **Contended `execute_mut` throughput** across threads×replicas
//!   cells: every thread hammers a replicated counter through the flat
//!   combining path, so the whole cost is NR dispatch itself (context
//!   publish, combining, log append, apply, response routing) — the two
//!   per-op `Mutex` round-trips the seed implementation paid are exactly
//!   what this cell isolates.
//! * **Resolve latency** through a `VSpaceDispatch`: a hot working set
//!   (small enough for the translation cache) vs. a cold sweep (forcing
//!   the full 4-level tree walk), plus batched range ops once they
//!   exist.
//!
//! The JSON mirror doubles as the CI regression baseline: the binary's
//! `--baseline <path>` flag re-reads a committed report and fails when
//! any throughput cell regresses by more than the tolerance.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use veros_kernel::vspace::{PtKind, VSpaceDispatch, VSpaceReadOp, VSpaceWriteOp};
use veros_nr::{Dispatch, NodeReplicated};

use crate::baseline;

/// The counter the throughput cells run through NR: the cheapest possible
/// `dispatch_mut`, so measured cost is NR's dispatch overhead.
#[derive(Clone, Default)]
pub struct HotCounter(u64);

impl Dispatch for HotCounter {
    type ReadOp = ();
    type WriteOp = u64;
    type Response = u64;

    fn dispatch(&self, _: ()) -> u64 {
        self.0
    }

    fn dispatch_mut(&mut self, n: &u64) -> u64 {
        self.0 += n;
        self.0
    }
}

/// One throughput cell of the sweep.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Cell name (stable across runs; the baseline comparison keys on it).
    pub name: String,
    /// Worker threads.
    pub threads: usize,
    /// Replicas.
    pub replicas: usize,
    /// Aggregate completed operations per second.
    pub ops_per_sec: f64,
}

/// The thread×replica points every run measures. Names must stay stable:
/// the committed baseline keys on them.
pub const CELL_POINTS: [(usize, usize); 5] = [(1, 1), (2, 1), (4, 1), (4, 2), (8, 2)];

/// Runs one contended `execute_mut` cell: `threads` workers split across
/// `replicas` replicas, each performing `ops_per_thread` increments.
/// Returns aggregate throughput in ops/sec.
#[inline(never)]
pub fn contended_execute_mut(threads: usize, replicas: usize, ops_per_thread: u64) -> f64 {
    let per_replica = threads.div_ceil(replicas);
    let nr = Arc::new(NodeReplicated::new(
        replicas,
        per_replica,
        1024,
        HotCounter::default,
    ));
    // Workers time themselves against a shared epoch: joining from the
    // main thread would start the clock only when the main thread gets
    // scheduled again, which on an oversubscribed host can be after the
    // workers already finished.
    let epoch = Instant::now();
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for t in 0..threads {
        let nr = Arc::clone(&nr);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let tkn = nr.register(t % replicas).expect("slot");
            barrier.wait();
            let start = epoch.elapsed();
            for _ in 0..ops_per_thread {
                std::hint::black_box(nr.execute_mut(1, tkn));
            }
            (start, epoch.elapsed())
        }));
    }
    let windows: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("worker"))
        .collect();
    let first_start = windows.iter().map(|w| w.0).min().expect("nonempty");
    let last_end = windows.iter().map(|w| w.1).max().expect("nonempty");
    let elapsed = last_end - first_start;
    let total_ops = threads as u64 * ops_per_thread;
    total_ops as f64 / elapsed.as_secs_f64()
}

/// Measures mean resolve latency (ns/op) over a working set of `pages`
/// mapped 4 KiB pages, visiting them round-robin for `iters` resolves.
///
/// With a small `pages` the working set fits the translation cache (hot
/// path); with a large one every resolve is effectively a full 4-level
/// descent (cold path).
#[inline(never)]
pub fn resolve_latency_ns(pages: u64, iters: u64) -> f64 {
    let mut d = VSpaceDispatch::new(1 << 13, PtKind::Verified);
    let base = 0x4000_0000u64;
    for i in 0..pages {
        d.dispatch_mut(&VSpaceWriteOp::MapNew {
            va: base + i * 4096,
        })
        .expect("map working set");
    }
    // Warm: touch every page once so directory frames are paged in.
    for i in 0..pages {
        d.dispatch(VSpaceReadOp::Resolve {
            va: base + i * 4096,
        })
        .expect("warm resolve");
    }
    let t0 = Instant::now();
    for i in 0..iters {
        let va = base + (i % pages) * 4096 + (i % 4096 / 8) * 8;
        std::hint::black_box(
            d.dispatch(VSpaceReadOp::Resolve { va })
                .expect("timed resolve"),
        );
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Measures mean map+unmap cost per page (ns) for a 512-page region,
/// either as batched range ops (one log entry, one amortized descent)
/// or as the per-page loop the seed paid.
#[inline(never)]
pub fn range_ns_per_page(pages: u64, reps: u64, batched: bool) -> f64 {
    let mut d = VSpaceDispatch::new(1 << 13, PtKind::Verified);
    let base = 0x4000_0000u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        if batched {
            d.dispatch_mut(&VSpaceWriteOp::MapRange { va: base, pages })
                .expect("map range");
            d.dispatch_mut(&VSpaceWriteOp::UnmapRange { va: base, pages })
                .expect("unmap range");
        } else {
            for i in 0..pages {
                d.dispatch_mut(&VSpaceWriteOp::MapNew { va: base + i * 4096 })
                    .expect("map page");
            }
            for i in 0..pages {
                d.dispatch_mut(&VSpaceWriteOp::Unmap { va: base + i * 4096 })
                    .expect("unmap page");
            }
        }
    }
    // Each rep maps and unmaps every page once: 2 page-ops per page.
    t0.elapsed().as_nanos() as f64 / (reps * pages * 2) as f64
}

/// A full `nr_hotpath` run.
#[derive(Clone, Debug)]
pub struct HotpathReport {
    /// True when run with `--quick` sizing.
    pub quick: bool,
    /// Throughput cells, in [`CELL_POINTS`] order.
    pub cells: Vec<Cell>,
    /// Mean resolve latency over a cache-sized working set (ns/op).
    pub resolve_hot_ns: f64,
    /// Mean resolve latency over a sweep exceeding the cache (ns/op).
    pub resolve_cold_ns: f64,
    /// Mean map+unmap cost per page via batched range ops (ns).
    pub range_batched_ns: f64,
    /// Mean map+unmap cost per page via the per-page loop (ns).
    pub range_per_page_ns: f64,
}

impl HotpathReport {
    /// Runs the full workload. Quick mode shrinks op counts, not the
    /// cell list, so baselines generated in either mode share names.
    ///
    /// Every cell is best-of-3 (max throughput, min latency): on an
    /// oversubscribed host a single trial is dominated by scheduler
    /// noise, and the best trial is the stable estimator of what the
    /// implementation can do (same min-of-N discipline as the Figure
    /// 1b/1c sweep).
    ///
    /// Quick sizing is deliberately 3× the original budget (and the
    /// measurement loops are `#[inline(never)]`, pinning their code
    /// layout against unrelated edits): the extra samples plus the
    /// stable layout cut run-to-run spread enough for CI to gate at a
    /// 18% tolerance instead of the original 25%.
    pub fn measure(quick: bool) -> Self {
        let ops_per_thread: u64 = if quick { 6_000 } else { 20_000 };
        let resolve_iters: u64 = if quick { 200_000 } else { 400_000 };
        // Quick runs take extra trials: each is cheap at quick sizing,
        // and the max over five is what keeps the 18% CI gate quiet on
        // an oversubscribed runner.
        let trials = if quick { 5 } else { 3 };
        let mut cells = Vec::new();
        for (threads, replicas) in CELL_POINTS {
            let ops_per_sec = (0..trials)
                .map(|_| contended_execute_mut(threads, replicas, ops_per_thread))
                .fold(0.0f64, f64::max);
            eprintln!("  execute_mut t{threads}xr{replicas}: {ops_per_sec:.0} ops/s");
            cells.push(Cell {
                name: format!("execute_mut/t{threads}xr{replicas}"),
                threads,
                replicas,
                ops_per_sec,
            });
        }
        let resolve_hot_ns = (0..trials)
            .map(|_| resolve_latency_ns(8, resolve_iters))
            .fold(f64::INFINITY, f64::min);
        eprintln!("  resolve hot (8 pages): {resolve_hot_ns:.1} ns/op");
        let resolve_cold_ns = (0..trials)
            .map(|_| resolve_latency_ns(2048, resolve_iters / 4))
            .fold(f64::INFINITY, f64::min);
        eprintln!("  resolve cold (2048 pages): {resolve_cold_ns:.1} ns/op");
        let range_reps: u64 = if quick { 60 } else { 200 };
        let range_batched_ns = (0..trials)
            .map(|_| range_ns_per_page(512, range_reps, true))
            .fold(f64::INFINITY, f64::min);
        eprintln!("  map+unmap 512 pages, batched range: {range_batched_ns:.1} ns/page");
        let range_per_page_ns = (0..trials)
            .map(|_| range_ns_per_page(512, range_reps, false))
            .fold(f64::INFINITY, f64::min);
        eprintln!("  map+unmap 512 pages, per-page loop: {range_per_page_ns:.1} ns/page");
        Self {
            quick,
            cells,
            resolve_hot_ns,
            resolve_cold_ns,
            range_batched_ns,
            range_per_page_ns,
        }
    }

    /// Renders the report as the `BENCH_nr.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"nr_hotpath\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"threads\": {}, \"replicas\": {}, \"ops_per_sec\": {:.1} }}{}\n",
                c.name, c.threads, c.replicas, c.ops_per_sec, comma
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"resolve_hot_ns\": {:.1},\n",
            self.resolve_hot_ns
        ));
        out.push_str(&format!(
            "  \"resolve_cold_ns\": {:.1},\n",
            self.resolve_cold_ns
        ));
        out.push_str(&format!(
            "  \"range_batched_ns\": {:.1},\n",
            self.range_batched_ns
        ));
        out.push_str(&format!(
            "  \"range_per_page_ns\": {:.1}\n",
            self.range_per_page_ns
        ));
        out.push_str("}\n");
        out
    }
}

/// Compares a fresh report against a committed baseline: every cell
/// present in both must reach at least `1 - tolerance` of the baseline
/// throughput, and a baseline with no cell to compare is itself a
/// failure. Returns the list of regressions (empty = pass).
pub fn regressions_against(
    current: &HotpathReport,
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let baseline = baseline::cells(baseline_json, "ops_per_sec");
    if baseline.is_empty() {
        return vec![baseline::missing("ops_per_sec")];
    }
    let mut out = Vec::new();
    for (name, base_ops) in &baseline {
        let Some(cur) = current.cells.iter().find(|c| &c.name == name) else {
            out.push(format!("cell {name} missing from current run"));
            continue;
        };
        let floor = base_ops * (1.0 - tolerance);
        if cur.ops_per_sec < floor {
            out.push(format!(
                "{name}: {:.0} ops/s < {:.0} ({}% below baseline {:.0})",
                cur.ops_per_sec,
                floor,
                ((1.0 - cur.ops_per_sec / base_ops) * 100.0).round(),
                base_ops
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_produces_throughput() {
        let ops = contended_execute_mut(2, 1, 50);
        assert!(ops > 0.0 && ops.is_finite());
    }

    #[test]
    fn resolve_latency_is_positive() {
        let ns = resolve_latency_ns(4, 200);
        assert!(ns > 0.0 && ns.is_finite());
    }

    #[test]
    fn range_cells_measure_both_paths() {
        for batched in [true, false] {
            let ns = range_ns_per_page(16, 2, batched);
            assert!(ns > 0.0 && ns.is_finite(), "batched={batched}");
        }
    }

    #[test]
    fn json_round_trips_through_the_scanner() {
        let report = HotpathReport {
            quick: true,
            cells: vec![
                Cell {
                    name: "execute_mut/t1xr1".into(),
                    threads: 1,
                    replicas: 1,
                    ops_per_sec: 1234.5,
                },
                Cell {
                    name: "execute_mut/t4xr2".into(),
                    threads: 4,
                    replicas: 2,
                    ops_per_sec: 999.0,
                },
            ],
            resolve_hot_ns: 10.0,
            resolve_cold_ns: 20.0,
            range_batched_ns: 5.0,
            range_per_page_ns: 15.0,
        };
        let parsed = baseline::cells(&report.to_json(), "ops_per_sec");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "execute_mut/t1xr1");
        assert!((parsed[0].1 - 1234.5).abs() < 0.01);
    }

    #[test]
    fn regression_gate_triggers_only_past_tolerance() {
        let mut report = HotpathReport {
            quick: true,
            cells: vec![Cell {
                name: "execute_mut/t1xr1".into(),
                threads: 1,
                replicas: 1,
                ops_per_sec: 80.0,
            }],
            resolve_hot_ns: 1.0,
            resolve_cold_ns: 1.0,
            range_batched_ns: 1.0,
            range_per_page_ns: 1.0,
        };
        let baseline = "{ \"name\": \"execute_mut/t1xr1\", \"ops_per_sec\": 100.0 }";
        // 20% down with 25% tolerance: fine.
        assert!(regressions_against(&report, baseline, 0.25).is_empty());
        // 40% down: regression.
        report.cells[0].ops_per_sec = 60.0;
        assert_eq!(regressions_against(&report, baseline, 0.25).len(), 1);
        // Unknown baseline cells are reported, not ignored.
        let stale = "{ \"name\": \"gone\", \"ops_per_sec\": 5.0 }";
        assert_eq!(regressions_against(&report, stale, 0.25).len(), 1);
        // A baseline with nothing to gate fails instead of passing
        // vacuously: empty, or with the value key renamed.
        assert_eq!(regressions_against(&report, "", 0.25).len(), 1);
        let rekeyed = baseline.replace("ops_per_sec", "ops");
        let v = regressions_against(&report, &rekeyed, 0.25);
        assert!(v.len() == 1 && v[0].contains("ops_per_sec"), "{v:?}");
    }
}
