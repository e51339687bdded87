//! # dwarn-core — the DWarn fetch policy and its baselines
//!
//! This crate is the paper's contribution: the **DWarn** I-fetch policy
//! ("DCache Warn: an I-Fetch Policy to Increase SMT Efficiency", Cazorla,
//! Ramirez, Valero, Fernández — IPDPS 2004), together with faithful
//! implementations of every policy it is evaluated against:
//!
//! | Policy | Detection moment | Response action |
//! |--------|------------------|-----------------|
//! | ICOUNT \[12\] | — | — (occupancy-based priority) |
//! | STALL \[11\]  | X cycles after issue | gate |
//! | FLUSH \[11\]  | X cycles after issue | squash + gate |
//! | DG \[3\]      | L1 miss | gate |
//! | PDG \[3\]     | fetch (predictor) | gate |
//! | **DWarn**   | **L1 miss** | **reduce priority** (+ gate on declared L2 miss below 3 threads) |
//!
//! All policies implement [`smt_pipeline::FetchPolicy`] and plug into the
//! `smt-pipeline` simulator. Construct them directly ([`DWarn::new`]) or
//! through the [`PolicyKind`] registry.
//!
//! ```
//! use dwarn_core::PolicyKind;
//! use smt_pipeline::{SimConfig, Simulator, ThreadSpec};
//! use smt_trace::profile;
//!
//! let specs = vec![
//!     ThreadSpec::new(profile::gzip()),
//!     ThreadSpec::new(profile::twolf()),
//! ];
//! let mut sim = Simulator::new(SimConfig::baseline(), PolicyKind::DWarn.build(), &specs);
//! let result = sim.run(1_000, 2_000);
//! assert!(result.throughput() > 0.0);
//! ```
//!
//! Beyond the paper, the crate also ships DC-PRED ([`dcpred`]), two DWarn
//! hybrids ([`extensions`]), and the switching meta-policies ([`meta`]):
//! a [`MetaPolicy`] runs one candidate of {DWARN, STALL, FLUSH, ICOUNT}
//! at a time and re-selects at fixed interval boundaries from runtime
//! metrics, under one of three [`SelectorKind`] rules.
//!
//! ```
//! use dwarn_core::{MetaPolicy, SelectorKind};
//! use smt_pipeline::{FetchPolicy, SimConfig, Simulator, ThreadSpec};
//! use smt_trace::profile;
//!
//! let specs = vec![
//!     ThreadSpec::new(profile::mcf()),
//!     ThreadSpec::new(profile::gzip()),
//! ];
//! let policy = Box::new(MetaPolicy::new(SelectorKind::IpcGreedy));
//! let mut sim = Simulator::new(SimConfig::baseline(), policy, &specs);
//! let result = sim.run(2_000, 6_000);
//! assert!(result.throughput() > 0.0);
//! // Switch decisions are architectural events, logged with their cycle —
//! // and only ever taken on a decision-window boundary.
//! for s in sim.policy().switch_log() {
//!     assert_eq!(s.cycle % dwarn_core::meta::DEFAULT_WINDOW, 0);
//! }
//! ```

pub mod dcpred;
pub mod dwarn;
pub mod extensions;
pub mod factory;
pub mod gating;
pub mod icount;
pub mod meta;
pub mod predictor;
pub mod stall_flush;
pub mod taxonomy;

pub use dcpred::DcPred;
pub use dwarn::DWarn;
pub use extensions::{DWarnFlush, DWarnThreshold};
pub use factory::PolicyKind;
pub use gating::{DataGating, PredictiveDataGating};
pub use icount::Icount;
pub use meta::{MetaPolicy, SelectorKind};
pub use predictor::MissPredictor;
pub use stall_flush::{Flush, Stall};
pub use taxonomy::{Classification, DetectionMoment, ResponseAction};
