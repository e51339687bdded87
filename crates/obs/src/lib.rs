//! # smt-obs — observability for the DWarn SMT simulator
//!
//! The paper's argument is about *where* shared resources go: issue-queue
//! entries and physical registers clogged by threads with outstanding data
//! cache misses. End-of-run aggregates cannot show that; this crate provides
//! cycle-resolved visibility with zero cost when disabled:
//!
//! * [`Probe`] — a trait of pipeline hook points (fetch, dispatch, issue,
//!   commit, squash, gate/ungate, L1-miss begin/end, L2-miss declare,
//!   end-of-cycle resource state). Every method has an empty default body
//!   and the simulator is generic over `P: Probe`, so the disabled case
//!   ([`NullProbe`]) monomorphizes to nothing — no virtual calls, no
//!   branches, no allocations.
//! * [`IntervalProbe`] — fixed-window interval sampler: per-interval,
//!   per-thread time-series (IPC, gate breakdown, miss counts, occupancy
//!   integrals) with closed-form accounting across quiescence-skipped
//!   spans, so skipped and `--no-skip` runs produce bit-identical series.
//!   It is the one source of occupancy and per-thread counts.
//! * [`EventRing`] — bounded ring buffer of [`TraceEvent`]s (oldest events
//!   are dropped first, with a drop count kept).
//! * [`RecordingProbe`] — the event ring plus an embedded
//!   [`IntervalProbe`]: a timeline of gates, misses, squashes and policy
//!   switches over the run's interval series.
//! * [`chrome`] — export captured events and the series' counter tracks
//!   as Chrome trace-event JSON, loadable in Perfetto / `chrome://tracing`.
//! * [`json`] — a small dependency-free JSON document builder (and parser)
//!   used by the exporters and by `smt-experiments`' `--stats-json` run
//!   artifacts and `report` subcommand.

pub mod chrome;
pub mod interval;
pub mod json;
pub mod probe;
pub mod record;
pub mod ring;

pub use chrome::chrome_trace;
pub use interval::{Interval, IntervalConfig, IntervalProbe, IntervalSeries, ThreadWindow};
pub use json::Json;
pub use probe::{CycleState, Enabled, GateReason, NullProbe, Observer, Probe, SquashKind};
pub use record::RecordingProbe;
pub use ring::{EventKind, EventRing, TraceEvent};
