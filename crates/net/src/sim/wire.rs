//! The wire's adversary, as a value: a [`Wire`] decides the [`Fate`] of
//! every frame [`super::Network`] collects.
//!
//! The network is the mechanism — it collects, holds and delivers — and
//! a wire is the policy, the adversary a transport's spec is checked
//! against. Two policies ship:
//!
//! * [`RandomWire`], the seeded [`FaultPlan`] every sweep, test and
//!   bench runs: per-frame loss, then duplication of a survivor, then a
//!   Fisher–Yates shuffle of the step's survivors.
//! * [`ScriptedWire`], a short list of [`Rule`]s for the orderings a
//!   random plan cannot aim at: cut two host sets apart for a tick
//!   range, drop the n-th matching frame between two hosts, or hold
//!   matching frames until a later tick.

use std::ops::Range;

use veros_spec::rng::SpecRng;

use crate::stack::HEADROOM;

use super::FaultPlan;

/// Where a frame is addressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dst {
    /// The host with this index.
    Host(usize),
    /// Every host.
    Broadcast,
    /// No host: a frame too short to parse, or for a MAC no host has.
    /// Delivering it drops it.
    Nowhere,
}

/// A frame on the wire: the bytes a host's NIC transmitted, the host
/// that sent it and the one it is for.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Index of the sending host.
    pub src: usize,
    /// Where the frame's Ethernet header sends it.
    pub dst: Dst,
    /// The whole frame, headers included.
    pub bytes: Vec<u8>,
}

impl Frame {
    /// The datagram payload behind the network headers; empty for a
    /// frame shorter than them.
    pub(crate) fn payload(&self) -> &[u8] {
        self.bytes.get(HEADROOM..).unwrap_or_default()
    }
}

/// What the wire does with one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Delivered in this step.
    Deliver,
    /// Lost.
    Drop,
    /// Delivered twice in this step.
    Duplicate,
    /// Kept on the wire and delivered in step `t` (ahead of that step's
    /// own frames), or in this step if `t` is not later.
    Hold(u64),
}

/// A wire policy: the fate of each frame, and the order a step delivers
/// in.
pub trait Wire {
    /// The fate of `frame`, collected in step `tick` (the network's own
    /// step count, from 0). Called once per frame, in collection order.
    fn fate(&mut self, tick: u64, frame: &Frame) -> Fate;

    /// Puts the frames of one step's delivery in the order they arrive,
    /// after every fate of the step is decided. They come in as held
    /// frames that came due, then the step's own in collection order
    /// (a duplicated frame twice in a row); the default keeps that.
    fn order(&mut self, _frames: &mut [Frame]) {}
}

/// The seeded random adversary: each frame is lost with probability
/// `plan.loss`, a survivor duplicated with probability
/// `plan.duplicate`, and with `plan.reorder` a step's deliveries are
/// shuffled. The draws are made in that order, frame by frame in
/// collection order and then over the shuffle, so a `(plan, seed)` pair
/// fixes the whole schedule.
pub struct RandomWire {
    plan: FaultPlan,
    rng: SpecRng,
}

impl RandomWire {
    /// The wire `plan` describes, its draws seeded by `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self { plan, rng: SpecRng::seeded(seed) }
    }
}

impl Wire for RandomWire {
    fn fate(&mut self, _tick: u64, _frame: &Frame) -> Fate {
        if self.rng.chance(self.plan.loss.0, self.plan.loss.1) {
            Fate::Drop
        } else if self.rng.chance(self.plan.duplicate.0, self.plan.duplicate.1) {
            Fate::Duplicate
        } else {
            Fate::Deliver
        }
    }

    fn order(&mut self, frames: &mut [Frame]) {
        if self.plan.reorder {
            // Fisher–Yates with the deterministic RNG.
            for i in (1..frames.len()).rev() {
                let j = self.rng.index(i + 1);
                frames.swap(i, j);
            }
        }
    }
}

/// A predicate over a frame's datagram payload, the bytes behind its
/// network headers (none for a frame shorter than them). It may keep
/// state, say to match only the first frame of a kind.
pub type Matcher = Box<dyn FnMut(&[u8]) -> bool>;

/// One line of a [`ScriptedWire`]'s script. Host sets and host pairs
/// are host indices; a broadcast, or a frame for no host, matches no
/// rule.
pub enum Rule {
    /// Drops every frame between a host in `a` and a host in `b`, either
    /// way, collected in a step in `ticks`.
    Partition {
        /// One side.
        a: Vec<usize>,
        /// The other side.
        b: Vec<usize>,
        /// The steps the cut lasts.
        ticks: Range<u64>,
    },
    /// Drops the `nth` frame (counting from 0) from `from` to `to` that
    /// `matches`.
    DropNth {
        /// Sending host.
        from: usize,
        /// Receiving host.
        to: usize,
        /// Which match to drop.
        nth: usize,
        /// The frames counted.
        matches: Matcher,
    },
    /// Holds every frame from `from` to `to` that `matches`, collected
    /// before step `until`, until step `until`.
    Hold {
        /// Sending host.
        from: usize,
        /// Receiving host.
        to: usize,
        /// The step the held frames arrive in.
        until: u64,
        /// The frames held.
        matches: Matcher,
    },
}

/// The scripted adversary: each frame goes through the rules in order
/// and the first rule that claims it decides its fate; a frame no rule
/// claims is delivered. A [`Rule::DropNth`] counts every matching frame
/// that reaches it, dropped or not.
pub struct ScriptedWire {
    /// Each rule, with how many frames it has matched.
    rules: Vec<(Rule, usize)>,
}

impl ScriptedWire {
    /// The wire that follows `rules`.
    pub fn new(rules: Vec<Rule>) -> Self {
        Self { rules: rules.into_iter().map(|rule| (rule, 0)).collect() }
    }
}

impl Wire for ScriptedWire {
    fn fate(&mut self, tick: u64, frame: &Frame) -> Fate {
        let Dst::Host(dst) = frame.dst else {
            return Fate::Deliver;
        };
        let (src, payload) = (frame.src, frame.payload());
        for (rule, matched) in &mut self.rules {
            match rule {
                Rule::Partition { a, b, ticks } => {
                    let across = (a.contains(&src) && b.contains(&dst))
                        || (b.contains(&src) && a.contains(&dst));
                    if across && ticks.contains(&tick) {
                        return Fate::Drop;
                    }
                }
                Rule::DropNth { from, to, nth, matches } => {
                    if (*from, *to) == (src, dst) && matches(payload) {
                        *matched += 1;
                        if *matched == *nth + 1 {
                            return Fate::Drop;
                        }
                    }
                }
                Rule::Hold { from, to, until, matches } => {
                    if (*from, *to) == (src, dst) && tick < *until && matches(payload) {
                        return Fate::Hold(*until);
                    }
                }
            }
        }
        Fate::Deliver
    }
}
