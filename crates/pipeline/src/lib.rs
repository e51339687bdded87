//! # smt-pipeline — the cycle-level SMT simulator
//!
//! A from-scratch reproduction of the paper's simulation substrate (an
//! SMTSIM-derived trace-driven simulator): a 9-stage (configurable) SMT
//! pipeline with an ICOUNT x.y fetch mechanism, shared issue queues /
//! physical registers / functional units, per-thread reorder buffers,
//! gshare + BTB + RAS branch prediction, a two-level cache hierarchy with
//! per-context DTLBs, wrong-path execution from a basic-block dictionary,
//! and full squash machinery (needed by both branch recovery and the FLUSH
//! policy).
//!
//! The fetch-policy *interface* ([`policy::FetchPolicy`]) lives here, next
//! to its call site in the fetch stage; the policy *implementations* — the
//! paper's contribution — live in the `dwarn-core` crate.
//!
//! # Performance
//!
//! The cycle loop is allocation-free in steady state. All per-cycle
//! working sets — due-event lists, issue candidates, per-thread policy
//! views, the fetch order, and instruction waiter lists — live in scratch
//! buffers owned by [`sim::Simulator`] and are reused across cycles;
//! future events sit in a calendar-queue event wheel (per-cycle ring
//! buckets with a heap spill-over for far-out events) instead of a global
//! binary heap. Policies fill the caller's order buffer through
//! [`policy::FetchPolicy::fetch_order_into`]; the allocating
//! [`policy::FetchPolicy::fetch_order`] remains as a convenience wrapper.
//! The full design, with measured numbers, is in the repository's
//! `DESIGN.md` ("Performance model"). All of it is behaviour-preserving
//! and pinned by the golden-digest determinism suite: results are
//! bit-identical to the straightforward implementation, cycle for cycle.

pub mod config;
pub mod error;
mod events;
pub mod fragment;
mod frontend;
pub mod inflight;
pub mod policy;
pub mod sanitizer;
pub mod sim;
pub mod snapshot;
pub mod stats;

pub use config::SimConfig;
pub use error::{ConfigError, ProgressSnapshot, SimError, ThreadProgress, Watchdog};
pub use fragment::{FragmentOpts, FragmentReplay, FragmentReport};
pub use inflight::{Handle, InFlight, Slab, Stage};
pub use policy::{DeclareAction, FetchPolicy, PolicyEvent, PolicySwitch, PolicyView, ThreadView};
pub use sanitizer::{
    InvariantCode, InvariantViolation, NullSanitizer, RecordingSanitizer, Sanitizer,
};
pub use sim::{CheckpointOpts, Clock, Mutation, PendingRun, RunOutcome, Simulator, ThreadSpec};
pub use smt_obs::{Enabled, NullProbe, Observer, Probe};
pub use snapshot::{MachineSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use stats::{SimResult, ThreadStats};
