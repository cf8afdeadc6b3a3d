//! Randomized multi-replica stress for the lock-free context protocol.
//!
//! A deliberately tiny log (8 entries) forces constant wraparound and
//! garbage collection while more threads than combiner slots hammer both
//! replicas. The properties checked are the ones the seqlock-stamped
//! context cells must preserve under every interleaving:
//!
//! * each writer's responses are strictly increasing (its own `Add`s
//!   linearize in program order against an increasing counter, and no
//!   response is lost, duplicated, or routed to another thread's cell);
//! * each reader's observations are monotonic (reads never travel
//!   backwards in linearization order);
//! * after everything joins, every replica has converged on the exact
//!   sum of all increments.

use std::sync::Arc;

use veros_nr::{Dispatch, NodeReplicated};
use veros_spec::rng::SpecRng;
use veros_sync::RelaxedCounter;

#[derive(Clone, Debug, Default)]
struct Counter {
    value: u64,
}

impl Dispatch for Counter {
    type ReadOp = ();
    type WriteOp = u64;
    type Response = u64;

    fn dispatch(&self, _op: ()) -> u64 {
        self.value
    }

    fn dispatch_mut(&mut self, op: &u64) -> u64 {
        self.value += *op;
        self.value
    }
}

#[test]
fn wraparound_stress_keeps_responses_exact() {
    const REPLICAS: usize = 2;
    const WRITERS_PER_REPLICA: usize = 2;
    const OPS_PER_WRITER: usize = 400;

    // Log capacity 8: every few operations wrap the ring, so combiners
    // constantly wait on the slowest replica's ltail and recycle entries.
    // 4 slots per replica: 2 writers, 1 reader, 1 spare for the final
    // convergence check.
    let nr = Arc::new(NodeReplicated::new(REPLICAS, 4, 8, Counter::default));
    let stop = Arc::new(RelaxedCounter::new(0));
    let mut writers = Vec::new();
    let mut expected_total = 0u64;
    for r in 0..REPLICAS {
        for w in 0..WRITERS_PER_REPLICA {
            let seed = (r * WRITERS_PER_REPLICA + w) as u64;
            let mut rng = SpecRng::seeded(0xacc0 + seed);
            let increments: Vec<u64> = (0..OPS_PER_WRITER).map(|_| 1 + rng.below(9)).collect();
            expected_total += increments.iter().sum::<u64>();
            let nr = Arc::clone(&nr);
            writers.push(std::thread::spawn(move || {
                let mut tkn = nr.register(r).expect("writer slot");
                let mut last = 0u64;
                for (i, inc) in increments.into_iter().enumerate() {
                    let got = nr.execute_mut(inc, &mut tkn);
                    assert!(
                        got >= last + inc,
                        "writer {seed} op {i}: response {got} skips below {last} + {inc} — \
                         a response was lost or cross-routed"
                    );
                    last = got;
                }
            }));
        }
    }
    let mut readers = Vec::new();
    for r in 0..REPLICAS {
        let nr = Arc::clone(&nr);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut tkn = nr.register(r).expect("reader slot");
            let mut last = 0u64;
            while stop.load() == 0 {
                let got = nr.execute((), &mut tkn);
                assert!(got >= last, "replica {r}: read {got} after {last} — time went backwards");
                last = got;
            }
            last
        }));
    }
    for h in writers {
        h.join().unwrap();
    }
    stop.store(1);
    for h in readers {
        h.join().unwrap();
    }
    // Every replica must have converged on the exact total.
    for r in 0..REPLICAS {
        let mut tkn = nr.register(r).expect("spare slot");
        assert_eq!(
            nr.execute((), &mut tkn),
            expected_total,
            "replica {r} diverged from the operation log"
        );
    }
}
