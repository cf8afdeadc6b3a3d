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
//! | full-stack contract audit       | `audit`  |
//!
//! This library holds the shared machinery: the survey data behind the
//! tables, the multi-threaded NR map/unmap sweep behind Figures 1b/1c,
//! the line-classification logic behind the ratio, and the one scanner
//! ([`baseline`]) every committed-baseline gate reads through.

pub mod audit;
pub mod baseline;
pub mod blockstore;
pub mod hotpath;
pub mod microbench;
pub mod out;
pub mod ratio;
pub mod survey;
pub mod sweep;
pub mod uring;
