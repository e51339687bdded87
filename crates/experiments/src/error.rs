//! Typed campaign errors, panic capture, and the CLI exit-code map.
//!
//! Everything that can go wrong while driving the experiment grid is an
//! [`ExpError`]: bad user input (workload names, benchmark names), an
//! invalid configuration, a simulation aborted by the watchdog, a panic
//! caught at the isolation boundary, or an I/O problem. The CLI maps these
//! to distinct exit codes (see [`Exit`]) so scripts driving large
//! campaigns can tell "you typed it wrong" from "a run failed" from "some
//! runs failed, the rest finished".

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use smt_pipeline::{ConfigError, SimError};

use crate::cache::CacheFault;

/// The CLI's process exit codes, a contract for scripts: the usage text,
/// README.md, EXPERIMENTS.md and DESIGN.md §9.1 document every value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Everything went fine.
    Ok = 0,
    /// A simulation or I/O failure at runtime.
    Runtime = 1,
    /// Bad usage: unknown flags, workloads, experiments, …
    Usage = 2,
    /// The campaign completed, but with partial results (some runs failed).
    Partial = 3,
}

impl Exit {
    /// Every status, in value order.
    pub const ALL: [Exit; 4] = [Exit::Ok, Exit::Runtime, Exit::Usage, Exit::Partial];

    /// The process exit status.
    pub fn code(self) -> i32 {
        self as i32
    }

    /// End the process with this status: the CLI's only exit point.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one process exit; its status is always a documented Exit"
    )]
    pub fn exit(self) -> ! {
        std::process::exit(self.code())
    }
}

/// A typed campaign-level failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpError {
    /// A workload name that does not look like `"4-MIX"` / `"solo:mcf"`.
    BadWorkloadName { given: String },
    /// A workload class outside ILP / MIX / MEM.
    UnknownWorkloadClass { given: String },
    /// A syntactically valid workload that Table 2(b) does not define
    /// (e.g. `"3-MIX"`).
    UnknownWorkload { threads: usize, class: &'static str },
    /// A benchmark name outside the paper's twelve.
    UnknownBenchmark { given: String },
    /// The processor configuration was rejected before simulation.
    Config(ConfigError),
    /// The simulator aborted the run (watchdog trip).
    Sim(SimError),
    /// A panic caught at the campaign's isolation boundary.
    Panicked { what: String, payload: String },
    /// The cycle-level sanitizer (`--sanitize`) reported µarch invariant
    /// violations during the run. The result is *suspect*, not merely
    /// failed: the numbers were produced by a machine whose bookkeeping
    /// disagreed with itself.
    Invariant {
        what: String,
        /// Total violations recorded (reports are capped; see
        /// `RecordingSanitizer`).
        violations: usize,
        /// Rendered first violation, `INV…` code included.
        first: String,
    },
    /// A disk-cache entry was present but irregular (recorded as a failure
    /// artifact; the run itself falls back to re-simulation).
    Cache { path: String, fault: CacheFault },
    /// An I/O failure outside the cache (artifact export, trace files, …).
    Io { context: String, detail: String },
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::BadWorkloadName { given } => write!(
                f,
                "bad workload name {given:?}: expected \"<threads>-<CLASS>\" \
                 like \"4-MIX\", or \"solo:<bench>\""
            ),
            ExpError::UnknownWorkloadClass { given } => write!(
                f,
                "unknown workload class {given:?}: valid classes are ILP, MIX, MEM"
            ),
            ExpError::UnknownWorkload { threads, class } => write!(
                f,
                "Table 2(b) defines no {threads}-thread {class} workload \
                 (thread counts are 2, 4, 6, 8)"
            ),
            ExpError::UnknownBenchmark { given } => {
                write!(f, "unknown benchmark {given:?} (not in the paper's twelve)")
            }
            ExpError::Config(e) => write!(f, "invalid configuration: {e}"),
            ExpError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExpError::Panicked { what, payload } => {
                write!(f, "panic isolated while running {what}: {payload}")
            }
            ExpError::Invariant {
                what,
                violations,
                first,
            } => write!(
                f,
                "sanitizer reported {violations} invariant violation(s) in {what}; first: {first}"
            ),
            ExpError::Cache { path, fault } => {
                write!(f, "cache entry {path}: {fault} (re-simulated)")
            }
            ExpError::Io { context, detail } => write!(f, "I/O failure ({context}): {detail}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<ConfigError> for ExpError {
    fn from(e: ConfigError) -> ExpError {
        ExpError::Config(e)
    }
}

impl From<SimError> for ExpError {
    fn from(e: SimError) -> ExpError {
        match e {
            SimError::Config(c) => ExpError::Config(c),
            other => ExpError::Sim(other),
        }
    }
}

impl ExpError {
    /// Short stable tag for artifacts and summary tables.
    pub fn kind(&self) -> &'static str {
        match self {
            ExpError::BadWorkloadName { .. } => "bad-workload-name",
            ExpError::UnknownWorkloadClass { .. } => "unknown-workload-class",
            ExpError::UnknownWorkload { .. } => "unknown-workload",
            ExpError::UnknownBenchmark { .. } => "unknown-benchmark",
            ExpError::Config(_) => "config",
            ExpError::Sim(_) => "sim",
            ExpError::Panicked { .. } => "panic",
            ExpError::Invariant { .. } => "invariant",
            ExpError::Cache { .. } => "cache",
            ExpError::Io { .. } => "io",
        }
    }

    /// The process exit code this error maps to: usage errors exit 2,
    /// runtime failures exit 1.
    pub fn exit_code(&self) -> Exit {
        match self {
            ExpError::BadWorkloadName { .. }
            | ExpError::UnknownWorkloadClass { .. }
            | ExpError::UnknownWorkload { .. }
            | ExpError::UnknownBenchmark { .. } => Exit::Usage,
            _ => Exit::Runtime,
        }
    }
}

/// One failed run, recorded by the campaign so the sweep can finish with
/// partial results and a summary instead of dying.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// What was being run (key description or experiment name).
    pub what: String,
    pub error: ExpError,
}

/// Run `f` behind a panic boundary, converting a panic into
/// [`ExpError::Panicked`]. The campaign uses this around every simulation
/// so one poisoned run cannot take down a sweep.
pub fn protect<T>(what: &str, f: impl FnOnce() -> Result<T, ExpError>) -> Result<T, ExpError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        // `&*payload`, not `&payload`: coercing `&Box<dyn Any>` directly
        // would downcast against the Box, never matching.
        Err(payload) => Err(ExpError::Panicked {
            what: what.to_string(),
            payload: panic_message(&*payload),
        }),
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_class_lists_the_valid_ones() {
        let e = ExpError::UnknownWorkloadClass {
            given: "QUX".into(),
        };
        let s = e.to_string();
        for class in ["ILP", "MIX", "MEM"] {
            assert!(s.contains(class), "{s} must list {class}");
        }
        assert_eq!(e.exit_code(), Exit::Usage);
    }

    #[test]
    fn exit_codes_split_usage_from_runtime() {
        assert_eq!(
            ExpError::BadWorkloadName { given: "x".into() }.exit_code(),
            Exit::Usage
        );
        assert_eq!(
            ExpError::Panicked {
                what: "w".into(),
                payload: "p".into()
            }
            .exit_code(),
            Exit::Runtime
        );
        assert_eq!(
            ExpError::Config(ConfigError::NoThreads).exit_code(),
            Exit::Runtime
        );
    }

    #[test]
    fn exit_codes_are_the_documented_values() {
        // No wildcard: a fifth status fails to compile here until the
        // contract (and its documentation) is extended on purpose.
        let documented = |e: Exit| match e {
            Exit::Ok => 0,
            Exit::Runtime => 1,
            Exit::Usage => 2,
            Exit::Partial => 3,
        };
        let codes: Vec<i32> = Exit::ALL.iter().map(|e| e.code()).collect();
        assert_eq!(codes, [0, 1, 2, 3]);
        for e in Exit::ALL {
            assert_eq!(e.code(), documented(e), "{e:?}");
        }
    }

    #[test]
    fn protect_catches_panics_and_passes_results() {
        let ok = protect("fine", || Ok(42));
        assert_eq!(ok.unwrap(), 42);

        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = protect("doomed", || -> Result<i32, ExpError> {
            panic!("boom {}", 7)
        });
        std::panic::set_hook(hook);
        match err.unwrap_err() {
            ExpError::Panicked { what, payload } => {
                assert_eq!(what, "doomed");
                assert!(payload.contains("boom 7"));
            }
            other => panic!("expected Panicked, got {other}"),
        }
    }
}
