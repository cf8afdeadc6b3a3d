//! Regenerates Figure 1b: map latency of the verified vs. unverified
//! page table inside the NR-replicated address space, across core
//! counts.
//!
//! Usage: `cargo run --release -p veros-bench --bin fig1b [--quick]`

fn main() {
    veros_bench::sweep::sweep(veros_bench::sweep::SweepOp::Map)
}
