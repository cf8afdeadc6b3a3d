//! What `Fleet::step` skips costs no memory — asserted on exact
//! allocation counts, so the result is the same on every host and run.
//!
//! `Fleet::step` visits a handful of hosts per tick where the
//! poll-everything stepper (the test oracle, and what the `e2e` bench's
//! traced stepper still does) visits all of them, and `e2e` requires
//! the two to allocate identically. That holds because polling a quiet
//! client allocates nothing, and because the wire's bookkeeping of whom
//! it handed out and whom it woke is sized once, for every host.
//!
//! An idle tick is not free of allocation as a whole: nodes heartbeat
//! and the coordinator rebroadcasts its view whoever steps the world.
//! Its own test binary with a single `#[test]`: see `counting_alloc`.

#[path = "../crates/cluster/tests/common/mod.rs"]
mod common;
mod counting_alloc;

use counting_alloc::bytes_allocated_by;
use veros_cluster::fleet::OP_BUDGET;
use veros_cluster::{Fleet, FleetConfig, Op};

const CLIENTS: usize = 1000;
const TICKS: u64 = 1000;

/// A thousand-client fleet in which every tenth client has completed a
/// put (so sessions exist at both ends) and everything has gone quiet.
fn warmed_up() -> Fleet {
    let mut fleet = Fleet::new(FleetConfig {
        clients: CLIENTS as u16,
        ..FleetConfig::default()
    });
    for c in (0..CLIENTS).step_by(10) {
        fleet.clients[c].submit(
            0,
            Op::Put {
                key: format!("k{c}"),
                data: vec![c as u8; 128],
            },
        );
    }
    assert!(fleet.run_until_idle(OP_BUDGET));
    fleet.run(200);
    assert!(fleet.clients.iter().all(|c| c.quiet()));
    fleet
}

#[test]
fn what_fleet_step_skips_allocates_nothing() {
    // The skipped work itself: polling every quiet client, over and over.
    let mut fleet = warmed_up();
    let (first, now) = (fleet.nodes.len() + 1, fleet.now());
    let skipped = bytes_allocated_by(|| {
        for _ in 0..TICKS {
            for c in 0..CLIENTS {
                fleet.clients[c].poll(fleet.net.host(first + c), now);
            }
        }
    });
    assert_eq!(skipped, 0, "polling quiet clients allocated");

    // Whole idle ticks: the stepper that visits nine hosts a tick and
    // the one that visits all 1009 allocate the same (the control
    // plane's heartbeats and views), so neither pays for whom it visits.
    let mut fleet = warmed_up();
    let stepped = bytes_allocated_by(|| fleet.run(TICKS));
    let mut fleet = warmed_up();
    let (alive, start) = (vec![true; fleet.nodes.len()], fleet.now());
    let polled_everyone = bytes_allocated_by(|| {
        for now in start..start + TICKS {
            common::step_all(&mut fleet, &alive, now);
        }
    });
    assert_eq!(stepped, polled_everyone);
    eprintln!("{TICKS} idle ticks: {stepped} B allocated by either stepper, 0 B by {CLIENTS} quiet clients");
}
