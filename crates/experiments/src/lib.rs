//! # smt-experiments — the paper's evaluation, regenerated
//!
//! One module per table/figure of "DCache Warn: an I-Fetch Policy to
//! Increase SMT Efficiency" (IPDPS 2004):
//!
//! | Experiment | Module | CLI |
//! |---|---|---|
//! | Table 2(a) | [`table2a`] | `table2a` |
//! | Figure 1(a,b) | [`figures::fig1_report`] | `fig1` |
//! | Figure 2 | [`figures::fig2_report`] | `fig2` |
//! | Figure 3 | [`figures::fig3_report`] | `fig3` |
//! | Table 4 | [`table4`] | `table4` |
//! | Figure 4(a,b) | [`figures::fig4_report`] | `fig4` |
//! | Figure 5(a,b) | [`figures::fig5_report`] | `fig5` |
//! | §5 prose ablations | [`ablation`] | `ablation` |
//! | Table 1 evaluated (incl. DC-PRED) | [`taxonomy`] | `taxonomy` |
//! | Extension study (DWarn+FLUSH) | [`extensions`] | `extensions` |
//! | Meta-policy study (adaptive selection + oracle bounds) | [`meta`] | `meta` |
//!
//! Run everything: `cargo run --release -p smt-experiments -- all`.
//! Absolute IPCs come from a synthetic-trace substrate, so the comparison
//! target is the paper's *shape* — who wins, by roughly what factor, where
//! the crossovers fall — not its absolute numbers (see DESIGN.md).
//!
//! # Result caching
//!
//! Experiments share simulations through [`runner::Campaign`], an
//! in-memory memo over the (architecture, workload, policy) grid. With
//! `--cache-dir <dir>` (programmatically: [`Campaign::with_disk_cache`]),
//! the memo persists across processes via [`cache::DiskCache`], a
//! content-addressed store keyed by a canonical description of everything
//! that determines a result — code version, full `SimConfig`, thread
//! specs, policy (with parameters), and window lengths. A warm `all` pass
//! serves every simulation from disk and spends its time purely on report
//! rendering; `smt-experiments cache <stats|clear|verify>` administers a
//! store. Entries are checksummed and never trusted when stale or corrupt
//! — any irregularity falls back to re-simulation, so a damaged cache can
//! cost time but never change a number.

// User-facing paths degrade to typed errors; a stray unwrap turns a
// recoverable fault into an abort.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod ablation;
pub mod artifacts;
pub mod cache;
pub mod checkpoint;
pub mod error;
pub mod extensions;
pub mod figures;
pub mod grid;
pub mod meta;
pub mod paper;
pub mod report;
pub mod runner;
pub mod suite;
pub mod table2a;
pub mod table4;
pub mod taxonomy;
pub mod tracing;

pub use cache::{CacheFault, DiskCache};
pub use checkpoint::{CheckpointFault, CheckpointStore, Journal};
pub use error::{ExpError, RunFailure};
pub use grid::{GridData, Metric};
pub use runner::{Arch, Campaign, CustomRun, ExpParams, Request, RunKey};

/// Lock `m`, recovering the guard when the mutex is poisoned. Campaign
/// state (memo tables, failure lists, artifact sinks) stays structurally
/// valid under panics — every writer either completes its push/insert or
/// leaves the collection untouched — and a sweep degrades to partial
/// results rather than cascading one isolated panic into an abort.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
