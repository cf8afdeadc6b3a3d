//! Executable specification framework for the `veros` project.
//!
//! This crate stands in for the [Verus] verification language used by the
//! paper ("Beyond isolation: OS verification as a foundation for correct
//! applications", HotOS '23). Where Verus discharges verification
//! conditions with an SMT solver, this crate discharges the *same shaped*
//! obligations executably:
//!
//! * [`StateMachine`] — specs are transition systems, exactly as in the
//!   paper's Section 3 (the `read_spec` state machine) and Section 5 (the
//!   page table's high-level spec).
//! * [`explorer`] — bounded-exhaustive exploration proves invariants on
//!   all reachable states of finitized instances and produces
//!   counterexample traces on failure.
//! * [`refinement`] — forward-simulation checking: every concrete
//!   transition must map to an abstract transition (or a stutter), the
//!   executable analogue of the paper's Section 4.4 refinement theorem.
//! * [`linearizability`] — a Wing–Gong linearizability checker used to
//!   validate node replication once (Section 4.3), after which every
//!   NR-replicated structure inherits a linearizable interface.
//! * [`fault`] — seeded *enumeration* of fault schedules (crash points,
//!   wire loss/duplication/reorder, torn sector writes) swept by the
//!   end-to-end invariant VCs anchored in `INVARIANTS.md`.
//! * [`vc`] — a verification-condition engine that names, runs, and
//!   *times* each obligation; its report regenerates Figure 1a (the CDF
//!   of verification-condition times).
//! * [`checksum`] — the one integrity checksum that blockstore blocks
//!   and journal records carry.
//!
//! [Verus]: https://github.com/verus-lang/verus

#![forbid(unsafe_code)]

pub mod checksum;
pub mod explorer;
pub mod fault;
pub mod history;
pub mod linearizability;
pub mod refinement;
pub mod report;
pub mod rng;
pub mod state_machine;
pub mod vc;

pub use explorer::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer, Trace};
pub use fault::{FaultSchedule, WireFaults};
pub use history::{Event, EventKind, History, Recorder};
pub use linearizability::{check_linearizable, LinearizabilityError, SeqSpec};
pub use refinement::{check_refinement, RefinementError, RefinementMap};
pub use state_machine::StateMachine;
pub use vc::{Vc, VcEngine, VcKind, VcOutcome, VcReport, VcStatus};
