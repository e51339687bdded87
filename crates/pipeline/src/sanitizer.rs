//! The µarch sanitizer: cycle-level invariant checking for the simulator.
//!
//! The paper's argument rests on resource-contention accounting being
//! exactly right — DWarn exists because Dmiss threads "slowly fill" the
//! shared issue queues and physical registers, so a silent freelist leak or
//! a misclassified Dmiss thread corrupts every reported IPC/Hmean number
//! without failing a single test. The sanitizer turns the cross-structure
//! invariants those numbers rely on into machine-checked, typed reports.
//!
//! Wired through [`Simulator`](crate::Simulator) the same way
//! [`Probe`](smt_obs::Probe) is: a generic parameter that is an
//! [`Observer`] with a compile-time `ENABLED` flag. The default
//! [`NullSanitizer`] has `ENABLED = false`, so every audit (and the branch
//! guarding it) monomorphizes away and an
//! unsanitized simulator compiles to exactly the unchecked machine. With a
//! real sanitizer attached, [`Simulator::step`](crate::Simulator::step)
//! audits the whole machine at the end of every cycle and forwards each
//! violation as a typed [`InvariantViolation`] — never a panic — carrying
//! the same [`ProgressSnapshot`] the watchdog attaches to abort reports.
//!
//! The sanitizer is *observation-only*: it reads simulator state and never
//! writes it, so sanitized and unsanitized runs produce bit-identical
//! results (pinned by the golden-digest suite).
//!
//! The invariant catalog, with stable codes, lives on [`InvariantCode`];
//! the repository's `DESIGN.md` §10 documents each check and the failure
//! mode it guards against.

use std::fmt;

use smt_obs::Observer;

use crate::error::ProgressSnapshot;

/// Stable identifier for one class of machine invariant. Codes (`INV001`…)
/// never change meaning once assigned; retired checks leave gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantCode {
    /// `INV001` — integer physical-register conservation: registers marked
    /// in-use in the freelist must equal live instructions holding an int
    /// destination (catches both leaks and double-frees).
    RegConservationInt,
    /// `INV002` — floating-point physical-register conservation.
    RegConservationFp,
    /// `INV003` — issue-queue entry conservation: shared IQ occupancy
    /// counters must equal dispatched-but-not-issued instructions, per kind
    /// and per thread (`iq_held`).
    IqConservation,
    /// `INV004` — ROB-slot conservation: per-thread ROB occupancy counters
    /// must equal the ROB deque lengths, and every ROB handle must resolve
    /// to a live instruction of that thread.
    RobConservation,
    /// `INV005` — per-thread ROB age ordering: sequence numbers strictly
    /// increase from head to tail (commit order is fetch order).
    RobAgeOrder,
    /// `INV006` — ICOUNT consistency: the fetch policy's per-thread counter
    /// equals the thread's pre-issue occupancy (fetch queue + dispatched but
    /// not yet issued), the paper's definition of the ICOUNT key.
    IcountConsistency,
    /// `INV007` — EventWheel: no queued event is due in the past (a missed
    /// event would silently wedge an instruction forever).
    EventPastDue,
    /// `INV008` — EventWheel: the cached length equals the queued events
    /// across buckets and overflow (drain accounting).
    EventLenMismatch,
    /// `INV009` — outstanding L1-D miss bookkeeping: the per-thread `dmiss`
    /// counter equals the live loads flagged `dmiss_counted`, and each such
    /// load actually missed in L1 with its fill still in the future.
    DmissConsistency,
    /// `INV010` — declared-L2-miss bookkeeping: the per-thread `declared`
    /// counter equals the live loads flagged `declared`, and each such
    /// load's resolve notice is still in the future.
    DeclaredConsistency,
    /// `INV011` — slab conservation: every live in-flight instruction is in
    /// exactly one of fetch queue / ROB.
    SlabConservation,
    /// `INV012` — fetch-order validity: the policy returned in-range,
    /// duplicate-free thread indices.
    PolicyOrder,
    /// `INV013` — policy-specific ordering/gating legitimacy, as audited by
    /// [`FetchPolicy::audit_order`](crate::FetchPolicy::audit_order): for
    /// DWarn, a thread sorts into the Dmiss group iff it has an outstanding
    /// L1 data miss, and the hybrid rule gates only on a *declared* L2 miss
    /// with fewer than `hybrid_below` runnable threads.
    PolicyGating,
    /// `INV014` — cache tag-array integrity: no set holds two valid lines
    /// with the same tag (checked periodically; a duplicate would make hit
    /// results depend on probe order).
    CacheTagIntegrity,
}

impl InvariantCode {
    /// Every code, for exhaustive reporting/tests.
    pub const ALL: &'static [InvariantCode] = &[
        InvariantCode::RegConservationInt,
        InvariantCode::RegConservationFp,
        InvariantCode::IqConservation,
        InvariantCode::RobConservation,
        InvariantCode::RobAgeOrder,
        InvariantCode::IcountConsistency,
        InvariantCode::EventPastDue,
        InvariantCode::EventLenMismatch,
        InvariantCode::DmissConsistency,
        InvariantCode::DeclaredConsistency,
        InvariantCode::SlabConservation,
        InvariantCode::PolicyOrder,
        InvariantCode::PolicyGating,
        InvariantCode::CacheTagIntegrity,
    ];

    /// The stable diagnostic code (`INV001`…).
    pub fn code(self) -> &'static str {
        match self {
            InvariantCode::RegConservationInt => "INV001",
            InvariantCode::RegConservationFp => "INV002",
            InvariantCode::IqConservation => "INV003",
            InvariantCode::RobConservation => "INV004",
            InvariantCode::RobAgeOrder => "INV005",
            InvariantCode::IcountConsistency => "INV006",
            InvariantCode::EventPastDue => "INV007",
            InvariantCode::EventLenMismatch => "INV008",
            InvariantCode::DmissConsistency => "INV009",
            InvariantCode::DeclaredConsistency => "INV010",
            InvariantCode::SlabConservation => "INV011",
            InvariantCode::PolicyOrder => "INV012",
            InvariantCode::PolicyGating => "INV013",
            InvariantCode::CacheTagIntegrity => "INV014",
        }
    }

    /// One-line description of the invariant.
    pub fn summary(self) -> &'static str {
        match self {
            InvariantCode::RegConservationInt => "int physical-register conservation",
            InvariantCode::RegConservationFp => "fp physical-register conservation",
            InvariantCode::IqConservation => "issue-queue entry conservation",
            InvariantCode::RobConservation => "ROB slot conservation",
            InvariantCode::RobAgeOrder => "per-thread ROB age ordering",
            InvariantCode::IcountConsistency => "ICOUNT equals pre-issue occupancy",
            InvariantCode::EventPastDue => "no event due in the past",
            InvariantCode::EventLenMismatch => "event-wheel length accounting",
            InvariantCode::DmissConsistency => "outstanding L1-D miss bookkeeping",
            InvariantCode::DeclaredConsistency => "declared L2-miss bookkeeping",
            InvariantCode::SlabConservation => "live instructions in queue xor ROB",
            InvariantCode::PolicyOrder => "fetch order is valid and duplicate-free",
            InvariantCode::PolicyGating => "policy grouping/gating legitimacy",
            InvariantCode::CacheTagIntegrity => "no duplicate valid tags in a set",
        }
    }
}

impl fmt::Display for InvariantCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.summary())
    }
}

/// One detected invariant violation: what broke, where, and the machine
/// state at the moment it was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    pub code: InvariantCode,
    /// Cycle at which the audit observed the violation.
    pub cycle: u64,
    /// Hardware context the violation is attributed to, when per-thread.
    pub thread: Option<usize>,
    /// The value the invariant requires.
    pub expected: u64,
    /// The value the machine actually holds.
    pub actual: u64,
    /// Human-readable specifics (which structure, which handle, …).
    pub detail: String,
    /// Full machine state, same shape as a watchdog abort report.
    pub snapshot: Box<ProgressSnapshot>,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at cycle {}", self.code, self.cycle)?;
        if let Some(t) = self.thread {
            write!(f, " thread {t}")?;
        }
        write!(
            f,
            ": expected {} got {} — {}",
            self.expected, self.actual, self.detail
        )
    }
}

/// A sink for invariant violations, attached to the simulator as a generic
/// parameter (mirroring [`Probe`](smt_obs::Probe)).
///
/// [`Observer::ENABLED`] is a compile-time constant: when false (the
/// default [`NullSanitizer`]), the per-cycle audit and its guard branch are
/// removed by monomorphization and the simulator compiles to exactly the
/// unchecked machine.
pub trait Sanitizer: Observer {
    /// Called once per detected violation, in deterministic order.
    fn on_violation(&mut self, v: InvariantViolation);
}

/// The default no-op sanitizer: auditing compiled out entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSanitizer;

impl Observer for NullSanitizer {
    const ENABLED: bool = false;
}

impl Sanitizer for NullSanitizer {
    #[inline(always)]
    fn on_violation(&mut self, _v: InvariantViolation) {}
}

/// Forwarding impl so a sanitizer can be attached by mutable reference.
impl<S: Sanitizer> Sanitizer for &mut S {
    #[inline]
    fn on_violation(&mut self, v: InvariantViolation) {
        (**self).on_violation(v);
    }
}

/// A sanitizer that records violations, keeping the first
/// [`RecordingSanitizer::DEFAULT_CAP`] in full and counting the rest — a
/// broken invariant typically re-fires every cycle, and the first reports
/// are the diagnostic ones.
#[derive(Debug, Default)]
pub struct RecordingSanitizer {
    kept: Vec<InvariantViolation>,
    total: u64,
    cap: usize,
}

impl RecordingSanitizer {
    /// Violations kept in full before subsequent ones are only counted.
    pub const DEFAULT_CAP: usize = 64;

    pub fn new() -> RecordingSanitizer {
        RecordingSanitizer {
            kept: Vec::new(),
            total: 0,
            cap: Self::DEFAULT_CAP,
        }
    }

    /// As [`RecordingSanitizer::new`] with an explicit retention cap.
    pub fn with_cap(cap: usize) -> RecordingSanitizer {
        RecordingSanitizer {
            kept: Vec::new(),
            total: 0,
            cap,
        }
    }

    /// True when no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Total violations observed (including those beyond the cap).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained violations, in detection order.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.kept
    }

    /// The first violation, if any — usually the root cause.
    pub fn first(&self) -> Option<&InvariantViolation> {
        self.kept.first()
    }

    /// True if any retained violation carries `code`.
    pub fn saw(&self, code: InvariantCode) -> bool {
        self.kept.iter().any(|v| v.code == code)
    }

    /// Multi-line report of everything retained, for logs/artifacts.
    pub fn render_report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} invariant violation(s), {} retained:",
            self.total,
            self.kept.len()
        );
        for v in &self.kept {
            let _ = writeln!(s, "  {v}");
        }
        s
    }
}

impl Observer for RecordingSanitizer {}

impl Sanitizer for RecordingSanitizer {
    fn on_violation(&mut self, v: InvariantViolation) {
        self.total += 1;
        if self.kept.len() < self.cap {
            self.kept.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProgressSnapshot;

    fn snap() -> Box<ProgressSnapshot> {
        Box::new(ProgressSnapshot {
            cycle: 7,
            last_commit_cycle: 0,
            total_committed: 0,
            policy: "TEST",
            threads: Vec::new(),
            iq_usage: [0; 3],
            regs_in_use: (0, 0),
        })
    }

    fn viol(code: InvariantCode) -> InvariantViolation {
        InvariantViolation {
            code,
            cycle: 7,
            thread: Some(1),
            expected: 3,
            actual: 4,
            detail: "unit".into(),
            snapshot: snap(),
        }
    }

    #[test]
    fn codes_are_unique_and_stable_prefixed() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in InvariantCode::ALL {
            assert!(c.code().starts_with("INV"), "{c}");
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn violation_display_names_code_cycle_and_thread() {
        let s = viol(InvariantCode::IcountConsistency).to_string();
        assert!(s.contains("INV006"), "{s}");
        assert!(s.contains("cycle 7"), "{s}");
        assert!(s.contains("thread 1"), "{s}");
        assert!(s.contains("expected 3 got 4"), "{s}");
    }

    #[test]
    fn recording_sanitizer_caps_retention_but_counts_all() {
        let mut s = RecordingSanitizer::with_cap(2);
        assert!(s.is_clean());
        for _ in 0..5 {
            s.on_violation(viol(InvariantCode::EventPastDue));
        }
        assert!(!s.is_clean());
        assert_eq!(s.total(), 5);
        assert_eq!(s.violations().len(), 2);
        assert!(s.saw(InvariantCode::EventPastDue));
        assert!(!s.saw(InvariantCode::PolicyOrder));
        assert!(s.render_report().contains("5 invariant violation(s)"));
        assert!(s.first().is_some());
    }

    #[test]
    fn null_sanitizer_is_disabled_at_compile_time() {
        const { assert!(!NullSanitizer::ENABLED) };
        const { assert!(RecordingSanitizer::ENABLED) };
        // The forwarding impl inherits the flag.
        const { assert!(<&mut RecordingSanitizer as Observer>::ENABLED) };
    }
}
