//! `Fleet::step` against the stepper it replaced.
//!
//! `Fleet::step` polls a client only when a frame reached its host or
//! the client is not quiet. The claim is that this is a refinement of
//! polling everyone: the same `(FleetConfig, schedule, kill)` gives the
//! same world, tick for tick. The claim is about the machinery, so it is
//! checked over the parameters — wire plan × kill position × seed — and
//! not per benchmark workload. The ablation tests at the bottom show the
//! comparison can fail: drop either term of the rule and the worlds part.

mod common;

use veros_blockstore::Response;
use veros_cluster::workload::{schedule, Arrival, WorkloadConfig};
use veros_cluster::{Fleet, FleetClient, FleetConfig, Op};
use veros_net::sim::FaultPlan;

/// 1 % loss, 0.5 % duplication: the wire the `e2e` fleet workloads use.
const LOSSY: FaultPlan = FaultPlan {
    loss: (1, 100),
    duplicate: (1, 200),
    reorder: false,
};

const CLIENTS: u16 = 64;
/// The client count of the `e2e` bench's `fleet_read_mostly`.
const BENCH_CLIENTS: u16 = 1000;
const OPS: usize = 400;
const KILL_AT: u64 = 300;
/// Ticks run after the last arrival: enough for an `OP_TIMEOUT` and the
/// retransmissions an idle client still owes.
const DRAIN: u64 = 500;
const HOT_KEY: &str = "ycsb-0";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kill {
    None,
    Head,
    Tail,
}

/// How a world is advanced one tick.
#[derive(Clone, Copy)]
enum Stepper {
    /// `Fleet::step`: the code under test.
    Fleet,
    /// `common::step_all`: the oracle.
    All,
    /// `common::step_where` with this rule.
    Where(fn(&FleetClient, bool) -> bool),
}

/// A finished operation: `(op, issued_at, completed_at, retries, resp)`.
type Finished = (Op, u64, u64, u32, Response);
/// A stored block: `(key, data, checksum)`.
type Block = (String, Vec<u8>, u64);

/// Everything a caller of the fleet can observe after a run.
#[derive(PartialEq)]
struct Outcome {
    /// Per client, in completion order.
    results: Vec<Vec<Finished>>,
    /// Per node, `None` for the killed one.
    stores: Vec<Option<Vec<Block>>>,
    wire: (u64, u64),
    now: u64,
}

impl Outcome {
    /// Panics naming the first thing that differs from `oracle` (the
    /// whole outcome is too large to print).
    fn assert_is(&self, oracle: &Outcome, ctx: &str) {
        assert_eq!(self.now, oracle.now, "{ctx}: final tick");
        assert_eq!(self.wire, oracle.wire, "{ctx}: (delivered, dropped) frames");
        for (c, (got, want)) in self.results.iter().zip(&oracle.results).enumerate() {
            assert_eq!(got, want, "{ctx}: results of client {c}");
        }
        for (n, (got, want)) in self.stores.iter().zip(&oracle.stores).enumerate() {
            assert!(got == want, "{ctx}: store of node {n}");
        }
    }
}

fn config(plan: FaultPlan, seed: u64, clients: u16) -> (FleetConfig, Vec<Arrival>) {
    let fleet = FleetConfig {
        clients,
        plan,
        seed,
        ..FleetConfig::default()
    };
    let load = WorkloadConfig {
        client_hosts: clients,
        keyspace: 48,
        read_milli: 500,
        delete_milli: 50,
        value_bytes: 64,
        ops: OPS,
        seed: seed ^ 0x5eed,
        ..WorkloadConfig::default()
    };
    (fleet, schedule(&load))
}

fn run(plan: FaultPlan, seed: u64, kill: Kill, stepper: Stepper, clients: u16) -> Outcome {
    let (cfg, arrivals) = config(plan, seed, clients);
    let mut fleet = Fleet::new(cfg);
    let mut alive = vec![true; cfg.nodes as usize];
    let end = arrivals.last().expect("non-empty schedule").tick + DRAIN;
    let mut due = arrivals.into_iter().peekable();
    for now in 0..end {
        while let Some(a) = due.next_if(|a| a.tick <= now) {
            fleet.clients[a.client].submit(a.tick, a.op);
        }
        if now == KILL_AT && kill != Kill::None {
            let chain = fleet.chain_for_key(HOT_KEY);
            let victim = if kill == Kill::Head {
                chain[0]
            } else {
                chain[chain.len() - 1]
            };
            alive[victim as usize] = false;
            fleet.kill_node(victim);
        }
        match stepper {
            Stepper::Fleet => fleet.step(),
            Stepper::All => common::step_all(&mut fleet, &alive, now),
            Stepper::Where(rule) => common::step_where(&mut fleet, &alive, now, rule),
        }
    }
    Outcome {
        results: fleet
            .clients
            .iter()
            .map(|c| {
                c.results
                    .iter()
                    .map(|r| {
                        (
                            r.op.clone(),
                            r.issued_at,
                            r.completed_at,
                            r.retries,
                            r.resp.clone(),
                        )
                    })
                    .collect()
            })
            .collect(),
        stores: fleet
            .nodes
            .iter()
            .zip(&alive)
            .map(|(node, alive)| {
                alive.then(|| {
                    node.store
                        .list()
                        .into_iter()
                        .map(|k| {
                            let (data, sum) = node.store.get(&k).expect("listed key");
                            (k, data, sum)
                        })
                        .collect()
                })
            })
            .collect(),
        wire: fleet.net.wire_stats(),
        // `Fleet` only counts the ticks its own `step` ran.
        now: match stepper {
            Stepper::Fleet => fleet.now(),
            Stepper::All | Stepper::Where(_) => end,
        },
    }
}

fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("reliable", FaultPlan::reliable()),
        ("lossy", LOSSY),
        ("hostile", FaultPlan::hostile()),
    ]
}

#[test]
fn fleet_step_is_indistinguishable_from_polling_everyone() {
    for (name, plan) in plans() {
        for kill in [Kill::None, Kill::Head, Kill::Tail] {
            for seed in 0..8u64 {
                let oracle = run(plan, seed, kill, Stepper::All, CLIENTS);
                let done: usize = oracle.results.iter().map(Vec::len).sum();
                assert!(
                    done > OPS / 2,
                    "{name} {kill:?} seed {seed}: only {done} ops finished"
                );
                run(plan, seed, kill, Stepper::Fleet, CLIENTS)
                    .assert_is(&oracle, &format!("{name} {kill:?} seed {seed}"));
            }
        }
    }
}

/// The busy set at the bench's client count: the same ops spread over a
/// thousand clients leave almost all of them quiet on any tick, so
/// nearly every poll `Fleet::step` makes is one the busy set or a wake
/// asked for.
#[test]
fn fleet_step_is_indistinguishable_from_polling_everyone_at_a_thousand_clients() {
    for kill in [Kill::None, Kill::Head] {
        let oracle = run(LOSSY, 3, kill, Stepper::All, BENCH_CLIENTS);
        let done: usize = oracle.results.iter().map(Vec::len).sum();
        assert!(done > OPS / 2, "{kill:?}: only {done} ops finished");
        run(LOSSY, 3, kill, Stepper::Fleet, BENCH_CLIENTS).assert_is(
            &oracle,
            &format!("lossy {kill:?} at {BENCH_CLIENTS} clients"),
        );
    }
}

/// Seeds (of 8, lossy wire, no kill) on which `rule` parts from the
/// oracle.
fn seeds_that_differ(rule: fn(&FleetClient, bool) -> bool) -> usize {
    (0..8u64)
        .filter(|&seed| {
            run(LOSSY, seed, Kill::None, Stepper::Where(rule), CLIENTS)
                != run(LOSSY, seed, Kill::None, Stepper::All, CLIENTS)
        })
        .count()
}

/// The control for the two ablations below: with both terms, the
/// test-side stepper they are built on agrees with the oracle, so what
/// they catch is the missing term.
#[test]
fn the_rule_fleet_step_uses_is_the_oracle() {
    assert_eq!(seeds_that_differ(|c, woken| woken || !c.quiet()), 0);
}

/// Ablation: without the `woken` term an idle client never sees the
/// duplicate or retransmitted response it must re-acknowledge.
#[test]
fn ablation_dropping_the_woken_term_is_caught() {
    assert!(seeds_that_differ(|c, _| !c.quiet()) > 0);
}

/// Ablation: `idle()` alone is not `quiet()`. A client whose request was
/// answered but whose own acknowledgement was lost is idle, yet owes the
/// wire a retransmission.
#[test]
fn ablation_dropping_the_quiescent_term_is_caught() {
    assert!(seeds_that_differ(|c, woken| woken || !c.idle()) > 0);
}
