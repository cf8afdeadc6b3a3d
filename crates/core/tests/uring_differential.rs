//! Differential proof that the asynchronous ring path is invisible.
//!
//! Each run drives two freshly booted kernels through the same random
//! workload — one via the uring engine (batched submission, out-of-order
//! completion of blocking ops), one via a synchronous twin that mirrors
//! the engine's worker policy through the plain trap path — and demands
//! completion-for-completion agreement plus identical final abstract
//! kernel states ([`veros_core::view`]). This is the acceptance-test
//! form of the `uring::ring_linearizes_to_sync_dispatch` VCs.

#[test]
fn ring_and_sync_paths_reach_identical_kernel_state() {
    for seed in 0..6u64 {
        veros_core::uring::differential_run(seed, 96)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn tiny_ring_under_backpressure_delivers_exactly_once() {
    for seed in 0..4u64 {
        veros_core::uring::ring_exactly_once(seed, 600)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn chains_on_a_tiny_ring_abort_exactly_their_suffix() {
    for seed in 0..4u64 {
        veros_core::uring::chain_atomicity(seed, 72)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
