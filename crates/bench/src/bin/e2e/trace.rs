//! In-memory spans recorded by the bench around its calls into each
//! layer, and the file they are written to when the run ends.
//!
//! A span is `(kind, start, end, host, tick, parent, calls)`. Spans are
//! appended to one pre-reserved vector and never touched again until
//! the run is over; the JSON file is produced once, at exit. `calls` is
//! 1 for every span except [`Kind::ClientPollIdle`], which covers a run
//! of consecutive clients that had nothing queued or outstanding — a
//! thousand mostly idle clients would otherwise cost tens of millions
//! of spans per repetition and the tracing overhead would dwarf the
//! thing traced.

use std::time::Instant;

use crate::alloc::{self, Bucket, Counts};

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole tick of the bench-owned stepper (the parent of the
    /// per-call spans of that tick).
    Tick,
    /// `Network::step`.
    NetStep,
    /// `Coordinator::step`.
    CoordStep,
    /// One `FleetNode::poll`.
    NodePoll,
    /// One `FleetClient::poll` of a client with work queued or in
    /// flight.
    ClientPoll,
    /// A run of `FleetClient::poll` calls on consecutive idle clients.
    ClientPollIdle,
    /// `kernel_fileio`: `UFile::open` + `write` + `close`.
    Put,
    /// `kernel_fileio`: chained `UFile::open_read_close`.
    GetChain,
    /// `kernel_fileio`: `Map` 8 pages, touch each, `Unmap`.
    MapUnmap,
}

/// Every kind, in the order of the trace file's `names` legend.
pub const KINDS: [Kind; 9] = [
    Kind::Tick,
    Kind::NetStep,
    Kind::CoordStep,
    Kind::NodePoll,
    Kind::ClientPoll,
    Kind::ClientPollIdle,
    Kind::Put,
    Kind::GetChain,
    Kind::MapUnmap,
];

impl Kind {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tick => "tick",
            Kind::NetStep => "net.sim_step",
            Kind::CoordStep => "cluster.coord_step",
            Kind::NodePoll => "cluster.node_poll",
            Kind::ClientPoll => "cluster.client_poll",
            Kind::ClientPollIdle => "cluster.client_poll_idle",
            Kind::Put => "ulib.put",
            Kind::GetChain => "ulib.get_chain",
            Kind::MapUnmap => "ulib.map_unmap",
        }
    }

    /// The allocator bucket allocations inside the span are charged to.
    pub fn bucket(self) -> Bucket {
        match self {
            Kind::NetStep => Bucket::NetStep,
            Kind::CoordStep => Bucket::CoordStep,
            Kind::NodePoll => Bucket::NodePoll,
            Kind::ClientPoll | Kind::ClientPollIdle => Bucket::ClientPoll,
            _ => Bucket::Other,
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What it covers.
    pub kind: Kind,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Network host id the call ran for (op index for `kernel_fileio`).
    pub host: u32,
    /// Simulation tick (op index for `kernel_fileio`).
    pub tick: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Calls covered (1, except for idle-client runs).
    pub calls: u32,
}

/// The span store of one traced repetition.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// What growing `spans` itself allocated — subtracted from the
    /// repetition's allocation count so a traced run counts the same
    /// allocations as an untraced one.
    own: Counts,
}

impl Tracer {
    /// A tracer with room for `capacity` spans reserved up front.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            own: Counts::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and selects its allocator bucket; returns its id.
    pub fn open(&mut self, kind: Kind, host: u32, tick: u64, parent: Option<u32>) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            let before = alloc::total();
            self.spans.reserve(self.spans.len().max(1024));
            self.own = self.own.plus(alloc::total().since(before));
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            host,
            tick,
            parent,
            calls: 1,
        });
        alloc::enter(kind.bucket());
        id
    }

    /// Closes span `id` (covering `calls` calls) and returns allocation
    /// attribution to the enclosing span's bucket.
    pub fn close(&mut self, id: u32, calls: u32) {
        let end_ns = self.now_ns();
        let parent = self.spans[id as usize].parent;
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
        alloc::enter(parent.map_or(Bucket::Other, |p| self.spans[p as usize].kind.bucket()));
    }

    /// Allocations made by the tracer's own bookkeeping.
    pub fn own_allocs(&self) -> Counts {
        self.own
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ns) and call count of every span of `kind`.
    pub fn total(&self, kind: Kind) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold((0, 0), |(ns, calls), s| {
                (ns + (s.end_ns - s.start_ns), calls + u64::from(s.calls))
            })
    }

    /// The trace file: a `names` legend plus one compact row per span,
    /// `[name, start_ns, end_ns, host, tick, parent, calls]` (parent is
    /// -1 for a root span; a row's id is its position).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        let names: Vec<String> = KINDS.iter().map(|k| format!("\"{}\"", k.name())).collect();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"names\": [{}],\n \
             \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"host\", \"tick\", \"parent\", \"calls\"],\n \
             \"spans\": [",
            names.join(", ")
        );
        for (i, s) in self.spans.iter().enumerate() {
            let name = KINDS.iter().position(|k| *k == s.kind).unwrap_or(0);
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}[{name},{},{},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.host, s.tick, s.calls
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_select_their_allocator_bucket() {
        let mut t = Tracer::with_capacity(8);
        let tick = t.open(Kind::Tick, 0, 7, None);
        let child = t.open(Kind::NodePoll, 3, 7, Some(tick));
        assert_eq!(
            alloc::enter(Bucket::NodePoll),
            Bucket::NodePoll,
            "open selects the bucket"
        );
        std::hint::black_box((0..2000u64).sum::<u64>());
        t.close(child, 1);
        assert_eq!(
            alloc::enter(Bucket::Other),
            Bucket::Other,
            "close restores the parent's"
        );
        let idle = t.open(Kind::ClientPollIdle, 9, 7, Some(tick));
        t.close(idle, 40);
        t.close(tick, 1);
        let (tick_ns, _) = t.total(Kind::Tick);
        let (node_ns, node_calls) = t.total(Kind::NodePoll);
        let (idle_ns, idle_calls) = t.total(Kind::ClientPollIdle);
        assert_eq!((node_calls, idle_calls), (1, 40));
        assert!(
            tick_ns >= node_ns + idle_ns,
            "children lie inside their parent"
        );
        let json = t.to_json("w", 11);
        assert!(json.contains("\"cluster.node_poll\""));
        assert!(json.contains(&format!("[3,{},", t.spans()[1].start_ns)));
        assert!(json.contains(",9,7,0,40]"), "{json}");
    }

    #[test]
    fn growth_of_the_span_store_is_accounted_as_own() {
        let mut t = Tracer::with_capacity(1);
        let before = alloc::total();
        for i in 0..5 {
            let id = t.open(Kind::Put, i, u64::from(i), None);
            t.close(id, 1);
        }
        let spent = alloc::total().since(before);
        assert!(t.own_allocs().allocs >= 1);
        assert_eq!(spent, t.own_allocs(), "only the store's growth allocated");
    }
}
