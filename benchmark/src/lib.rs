//! End-to-end and per-layer benchmark of the DWarn SMT reproduction.
//! See README.md in this directory for the workloads and metrics.

pub mod adapter;
pub mod gate;
pub mod host;
pub mod json;
pub mod layers;
pub mod span;
pub mod stats;
pub mod workload;
