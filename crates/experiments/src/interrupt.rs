//! Cooperative SIGINT handling for checkpointing campaigns.
//!
//! Ctrl-C must not lose work: the handler only latches an atomic flag
//! (the only async-signal-safe thing it could do anyway), and the
//! campaign's checkpointed run loop polls it between cycles. On the next
//! poll every in-flight simulation stops at a clean cycle boundary,
//! writes a resumable checkpoint, and the process exits with
//! [`crate::error::Exit::Interrupted`] after flushing partial results and
//! failure artifacts — re-running with the same `--resume <dir>` picks up
//! exactly where it stopped.
//!
//! A second Ctrl-C while the first is still draining falls back to the
//! default disposition (the handler re-arms SIGDFL after latching), so a
//! wedged drain can always be killed the ordinary way.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        // Async-signal-safe: one atomic store, one handler re-arm.
        REQUESTED.store(true, Ordering::SeqCst);
        // Restore the default disposition so a second Ctrl-C kills a
        // drain that wedges instead of latching a flag nobody reads.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal plumbing off unix; `request()` still works for tests.
    pub fn install() {}
}

/// Install the SIGINT latch (idempotent; no-op off unix).
pub fn install() {
    imp::install();
}

/// Has an interrupt been requested (SIGINT received, or [`request`])?
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Latch an interrupt request programmatically (tests, embedders).
pub fn request() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Clear the latch (tests; a real campaign exits instead).
pub fn reset() {
    REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_round_trips() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
        install(); // must not disturb the cleared latch
        assert!(!requested());
    }
}
