//! The poll-everything stepper `Fleet::step` was before it learnt whom
//! it may skip. It lives here, in test code only, as the slow oracle:
//! `Fleet::step` must be indistinguishable from it. (The root package's
//! `tests/idle_tick_alloc.rs` includes this file by path, so there is
//! one copy.)

use veros_cluster::{Fleet, FleetClient, FleetNode};

/// One tick that polls live node `i` iff `node_rule(node, now, woken)`
/// and client `c` iff `client_rule(client, woken)`, where `woken` says
/// whether a frame reached the host this tick. The caller owns the clock
/// and the kill list, as the `e2e` bench's own stepper does, because
/// `Fleet` keeps its own private.
///
/// Clients are visited last to first, the reverse of `Fleet::step`, on
/// purpose: a host only ever touches its own stack, so the order of
/// visits cannot matter — unless the wire collected frames in the order
/// hosts were visited instead of by host index, which this makes
/// visible.
pub fn step_where(
    fleet: &mut Fleet,
    alive: &[bool],
    now: u64,
    node_rule: impl Fn(&FleetNode, u64, bool) -> bool,
    client_rule: impl Fn(&FleetClient, bool) -> bool,
) {
    fleet.net.step();
    let n = fleet.nodes.len();
    fleet.coordinator.step(fleet.net.host(n), now);
    for (i, node) in fleet.nodes.iter_mut().enumerate() {
        let woken = fleet.net.woken().binary_search(&i).is_ok();
        if alive[i] && node_rule(node, now, woken) {
            node.poll(fleet.net.host(i), now);
        }
    }
    for c in (0..fleet.clients.len()).rev() {
        let host = n + 1 + c;
        let woken = fleet.net.woken().binary_search(&host).is_ok();
        if client_rule(&fleet.clients[c], woken) {
            fleet.clients[c].poll(fleet.net.host(host), now);
        }
    }
}

/// The oracle: wire, coordinator, every live node, every client.
pub fn step_all(fleet: &mut Fleet, alive: &[bool], now: u64) {
    step_where(fleet, alive, now, |_, _, _| true, |_, _| true);
}
