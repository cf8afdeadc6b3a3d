//! Evaluation harness for the paper's tables and figures.
//!
//! One artifact per binary (see DESIGN.md §4 for the experiment index):
//!
//! | artifact | binary |
//! |---|---|
//! | Table 1 (verification projects) | `table1` |
//! | Table 2 (verified components)   | `table2` |
//! | Figure 1a (VC time CDF)         | `fig1a`  |
//! | Figure 1b (map latency)         | `fig1b`  |
//! | Figure 1c (unmap latency)       | `fig1c`  |
//! | §5 proof-to-code ratio          | `ratio`  |
//! | full-stack contract audit, gated on `BENCH_audit.json` | `audit` |
//! | NR hot path, gated on `BENCH_nr.json`                   | `nr_hotpath` |
//! | submission ring, gated on `BENCH_uring.json`            | `uring_hotpath` |
//! | sharded fleet, gated on `BENCH_blockstore.json`         | `blockstore_hotpath` |
//! | telemetry snapshot + alert rules                        | `telemetry_report` |
//! | end-to-end benchmark (`BENCHMARK.json`)                 | `e2e` |
//!
//! This library holds the shared machinery: the survey data behind the
//! tables, the multi-threaded NR map/unmap sweep behind Figures 1b/1c,
//! the line-classification logic behind the ratio, the hot-path reports,
//! the one gate engine ([`baseline`]) every committed baseline is
//! checked through, the one command-line reader ([`args`]), and the one
//! telemetry registry ([`catalogue`]).

#![forbid(unsafe_code)]

pub mod args;
pub mod audit;
pub mod baseline;
pub mod blockstore;
pub mod catalogue;
pub mod hotpath;
pub mod out;
pub mod ratio;
pub mod survey;
pub mod sweep;
pub mod uring;
