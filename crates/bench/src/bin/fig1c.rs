//! Regenerates Figure 1c: unmap latency of the verified vs. unverified
//! page table inside the NR-replicated address space, across core
//! counts.
//!
//! Usage: `cargo run --release -p veros-bench --bin fig1c [--quick]`

fn main() {
    veros_bench::sweep::sweep(veros_bench::sweep::SweepOp::Unmap)
}
