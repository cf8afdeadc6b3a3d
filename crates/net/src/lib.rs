//! The network stack (the paper's §1 component list: "some network stack
//! for communication"; §6 names "a verified high-performance network
//! stack" as an open artifact).
//!
//! A small but complete stack over the simulated NIC:
//!
//! * [`frame`] — Ethernet-style framing (dst/src MAC + ethertype).
//! * [`ip`] — a minimal IP layer: 32-bit addresses, protocol numbers,
//!   TTL, and a header checksum.
//! * [`udp`] — datagrams with ports.
//!
//!   Each of the three states its header layout once, as an in-place
//!   writer and a slice parser (`EthHeader`, `IpHeader`, `UdpHeader`);
//!   the owned `encode`/`decode` codecs are wrappers over them.
//! * [`rdt`] — reliable data transfer over UDP: one peer's go-back-N
//!   session, with cumulative acks and virtual-clock retransmission.
//!   Its spec is the classic one: *the receiver delivers a prefix of
//!   the sender's stream, in order, without duplicates* — checked under
//!   loss, duplication, reordering and delay injected by the wire
//!   simulator.
//! * [`demux`] — the reliable transport, [`RdtDemux`]: one socket
//!   demultiplexed into per-peer rdt sessions. Every fleet client and
//!   node talks through one, and every rdt test and VC drives one.
//! * [`socket`] — a UDP socket table (bind / send_to / recv_from).
//! * [`stack`] — one host's stack: NIC ↔ IP demux ↔ sockets, one buffer
//!   per datagram.
//! * [`sim`] — the wire: moves frames between NICs, each one's fate
//!   decided by a [`sim::Wire`] policy — the seeded [`sim::RandomWire`]
//!   or a [`sim::ScriptedWire`].
//!
//! # Telemetry
//!
//! With the `telemetry` cargo feature (on by default) the transport and
//! the wire simulator maintain the instruments in [`metrics`] —
//! retransmit, window-stall, and wire drop/delivery counters. Reporting
//! binaries call [`metrics::export`] to register them under the `net.`
//! prefix; see `OBSERVABILITY.md`. Disabling the feature compiles every
//! instrument to a no-op.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

/// Copies `N` bytes of `buf` starting at `off` into an array, without a
/// panicking `try_into` conversion. Callers check lengths before calling
/// (decoders return `None` on truncation first); a short tail yields
/// zero-padded bytes rather than a kernel-path panic.
pub(crate) fn take_arr<const N: usize>(buf: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (d, b) in out.iter_mut().zip(buf.iter().skip(off)) {
        *d = *b;
    }
    out
}

/// Copies `src` into `buf` at `off`: the write-side twin of
/// [`take_arr`]. Header writers are handed a buffer at least a header
/// long; a write that would run past the end is skipped rather than
/// panicking.
pub(crate) fn put_at(buf: &mut [u8], off: usize, src: &[u8]) {
    if let Some(dst) = buf.get_mut(off..off + src.len()) {
        dst.copy_from_slice(src);
    }
}

/// One buffer, allocated once at its final size: `headroom` zero bytes
/// followed by the concatenated `parts`. The header writers then fill
/// the headroom in place.
pub(crate) fn with_headroom(headroom: usize, parts: &[&[u8]]) -> Vec<u8> {
    let len = parts.iter().map(|p| p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(headroom + len);
    out.resize(headroom, 0);
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

pub mod demux;
pub mod frame;
pub mod ip;
pub mod metrics;
pub mod rdt;
pub mod sim;
pub mod socket;
pub mod stack;
pub mod udp;

pub use demux::RdtDemux;
pub use frame::{EthFrame, EtherType, Mac};
pub use ip::{IpAddr, IpPacket, Proto};
pub use sim::{FaultPlan, Network};
pub use socket::SocketId;
pub use stack::NetStack;
pub use udp::UdpDatagram;
