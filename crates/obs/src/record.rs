//! The recording probe: a bounded event ring over the interval series.
//!
//! [`RecordingProbe`] keeps the per-event timeline a Chrome trace draws (a
//! bounded [`EventRing`] of gates, misses, declares, squashes and policy
//! switches, plus every instruction's fetch/dispatch/issue/commit with
//! `detail`), and embeds an [`IntervalProbe`] that receives every hook the
//! interval sampler implements. Counts and occupancy therefore come from
//! one place, the interval series, which stays exact across quiescence
//! skips.

use crate::interval::{IntervalConfig, IntervalProbe, IntervalSeries};
use crate::probe::{CycleState, Enabled, GateReason, Observer, Probe, SquashKind};
use crate::ring::{EventKind, EventRing, TraceEvent};

/// A [`Probe`] that records an event timeline and an interval series at
/// bounded cost.
#[derive(Debug, Clone)]
pub struct RecordingProbe {
    /// Capture per-instruction events (fetch/dispatch/issue/commit) in the
    /// ring. Off by default: lifecycle events (gates, misses, declares,
    /// squashes) are usually what a timeline needs, and per-instruction
    /// instants multiply ring traffic by the IPC.
    detail: bool,
    ring: EventRing,
    intervals: IntervalProbe,
    /// Peak shared issue-queue occupancy [int, fp, ldst] over every cycle
    /// the probe saw.
    peak_iq: [u32; 3],
}

impl RecordingProbe {
    /// A probe retaining up to `ring_capacity` events and slicing the run
    /// into `config`'s interval windows.
    pub fn new(ring_capacity: usize, config: IntervalConfig) -> RecordingProbe {
        RecordingProbe {
            detail: false,
            ring: EventRing::new(ring_capacity),
            intervals: IntervalProbe::new(config),
            peak_iq: [0; 3],
        }
    }

    /// Also capture per-instruction fetch/dispatch/issue/commit events in
    /// the ring (the interval series counts them regardless).
    pub fn with_detail(mut self, detail: bool) -> RecordingProbe {
        self.detail = detail;
        self
    }

    /// Peak shared issue-queue occupancy [int, fp, ldst] so far.
    pub fn peak_iq(&self) -> [u32; 3] {
        self.peak_iq
    }

    /// Consume the probe: the event ring and the finished interval series.
    pub fn into_parts(self) -> (EventRing, IntervalSeries) {
        (self.ring, self.intervals.into_series())
    }

    fn record(&mut self, cycle: u64, thread: usize, kind: EventKind) {
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind,
        });
    }

    fn observe_peak(&mut self, state: &CycleState<'_>) {
        for (peak, &q) in self.peak_iq.iter_mut().zip(&state.iq) {
            *peak = (*peak).max(q);
        }
    }
}

impl Observer for RecordingProbe {}

impl Probe for RecordingProbe {
    fn on_fetch(&mut self, cycle: u64, thread: usize, pc: u64, seq: u64, wrong_path: bool) {
        self.intervals.on_fetch(cycle, thread, pc, seq, wrong_path);
        if self.detail {
            let kind = EventKind::Fetch {
                pc,
                seq,
                wrong_path,
            };
            self.record(cycle, thread, kind);
        }
    }

    fn on_dispatch(&mut self, cycle: u64, thread: usize, seq: u64) {
        if self.detail {
            self.record(cycle, thread, EventKind::Dispatch { seq });
        }
    }

    fn on_issue(&mut self, cycle: u64, thread: usize, seq: u64) {
        if self.detail {
            self.record(cycle, thread, EventKind::Issue { seq });
        }
    }

    fn on_commit(&mut self, cycle: u64, thread: usize, seq: u64, pc: u64) {
        self.intervals.on_commit(cycle, thread, seq, pc);
        if self.detail {
            self.record(cycle, thread, EventKind::Commit { seq, pc });
        }
    }

    fn on_squash(&mut self, cycle: u64, thread: usize, seq: u64, kind: SquashKind) {
        self.record(cycle, thread, EventKind::Squash { seq, kind });
    }

    fn on_gate(&mut self, _on: Enabled, cycle: u64, thread: usize, reason: GateReason) {
        self.record(cycle, thread, EventKind::Gate { reason });
    }

    fn on_ungate(&mut self, _on: Enabled, cycle: u64, thread: usize, reason: GateReason) {
        self.record(cycle, thread, EventKind::Ungate { reason });
    }

    fn on_l1_miss_begin(&mut self, cycle: u64, thread: usize, load_id: u64, addr: u64, l2: bool) {
        self.intervals
            .on_l1_miss_begin(cycle, thread, load_id, addr, l2);
        self.record(cycle, thread, EventKind::L1MissBegin { load_id, addr, l2 });
    }

    fn on_l1_miss_end(&mut self, cycle: u64, thread: usize, load_id: u64) {
        self.record(cycle, thread, EventKind::L1MissEnd { load_id });
    }

    fn on_l2_declare(&mut self, cycle: u64, thread: usize, load_id: u64) {
        self.record(cycle, thread, EventKind::L2Declare { load_id });
    }

    fn on_l2_resolve(&mut self, cycle: u64, thread: usize, load_id: u64) {
        self.record(cycle, thread, EventKind::L2Resolve { load_id });
    }

    fn on_ifetch_miss(&mut self, cycle: u64, thread: usize, addr: u64, ready_at: u64) {
        self.record(cycle, thread, EventKind::IfetchMiss { addr, ready_at });
    }

    fn on_cycle_state(&mut self, on: Enabled, state: &CycleState<'_>) {
        self.observe_peak(state);
        self.intervals.on_cycle_state(on, state);
    }

    fn on_quiescent_span(&mut self, on: Enabled, state: &CycleState<'_>, span: u64) {
        // The state is constant across the span, so one look at it keeps
        // the peak exact.
        self.observe_peak(state);
        self.intervals.on_quiescent_span(on, state, span);
    }

    fn on_warn_change(&mut self, on: Enabled, cycle: u64, thread: usize, from: u8, to: u8) {
        self.intervals.on_warn_change(on, cycle, thread, from, to);
    }

    fn on_policy_switch(&mut self, cycle: u64, from: &'static str, to: &'static str) {
        self.intervals.on_policy_switch(cycle, from, to);
        // Machine-wide lifecycle event: rare (at most one per decision
        // window), so it always goes in the ring, `detail` or not.
        self.record(cycle, 0, EventKind::PolicySwitch { from, to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Enabled {
        Enabled::of::<RecordingProbe>().expect("the recording probe is enabled")
    }

    fn probe() -> RecordingProbe {
        RecordingProbe::new(64, IntervalConfig { window: 100 })
    }

    #[test]
    fn detail_gates_per_instruction_ring_traffic() {
        for (detail, events) in [(false, 0), (true, 1)] {
            let mut p = probe().with_detail(detail);
            p.on_fetch(1, 0, 0, 1, false);
            let (ring, series) = p.into_parts();
            assert_eq!(ring.len(), events);
            // The series counts the fetch either way.
            assert_eq!(series.total().threads[0].fetched, 1);
        }
    }

    #[test]
    fn policy_switches_enter_the_ring_and_the_series() {
        let mut p = probe();
        p.on_policy_switch(150, "DWARN", "STALL");
        p.on_policy_switch(250, "STALL", "DWARN");
        let (ring, series) = p.into_parts();
        // Lifecycle event: recorded even without detail.
        let kinds: Vec<&'static str> = ring.iter().map(|e| e.kind.category()).collect();
        assert_eq!(kinds, vec!["policy-switch", "policy-switch"]);
        let per_window: Vec<u64> = series.intervals.iter().map(|i| i.policy_switches).collect();
        assert_eq!(per_window, vec![0, 1, 1]);
    }

    #[test]
    fn peak_iq_covers_stepped_cycles_and_skipped_spans() {
        let mut p = probe();
        let state = |cycle, iq| CycleState {
            cycle,
            iq,
            regs_int: 0,
            regs_fp: 0,
            rob: &[],
            iq_per_thread: &[],
            outstanding_miss: &[],
            gate: &[],
        };
        p.on_cycle_state(on(), &state(0, [5, 1, 0]));
        p.on_quiescent_span(on(), &state(1, [2, 0, 7]), 40);
        p.on_cycle_state(on(), &state(41, [3, 0, 1]));
        assert_eq!(p.peak_iq(), [5, 1, 7]);
        let total = p.into_parts().1.total();
        assert_eq!(total.cycles, 42);
        assert_eq!(total.iq_occ_acc, [5 + 80 + 3, 1, 280 + 1]);
    }
}
