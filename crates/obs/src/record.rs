//! The batteries-included recording probe.
//!
//! [`RecordingProbe`] keeps per-thread event counters (O(1) vector updates
//! on the hot path — no string formatting), miss-latency and gate-duration
//! histograms, a bounded [`EventRing`], and the occupancy time-series from
//! `run_sampled`. A [`Registry`] view with conventional names is built on
//! demand by [`RecordingProbe::registry`].

use std::collections::HashMap;

use crate::probe::{Enabled, GateReason, Observer, OccupancySample, Probe, SquashKind};
use crate::registry::{Histogram, Registry};
use crate::ring::{EventKind, EventRing, TraceEvent};

/// Per-thread counter block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    pub fetched: u64,
    pub wrong_path_fetched: u64,
    pub dispatched: u64,
    pub issued: u64,
    pub committed: u64,
    pub squashed_mispredict: u64,
    pub squashed_flush: u64,
    pub gates: u64,
    pub ungates: u64,
    pub l1_miss_begins: u64,
    pub l1_miss_ends: u64,
    pub l2_declares: u64,
    pub l2_resolves: u64,
    pub ifetch_misses: u64,
    /// Gate events by [`GateReason::index`].
    pub gates_by_reason: [u64; 3],
}

/// A [`Probe`] that records everything at bounded cost.
#[derive(Debug, Clone)]
pub struct RecordingProbe {
    threads: Vec<ThreadCounters>,
    /// Capture per-instruction events (fetch/dispatch/issue/commit) in the
    /// ring. Off by default: lifecycle events (gates, misses, declares,
    /// squashes) are usually what a timeline needs, and per-instruction
    /// instants multiply ring traffic by the IPC.
    detail: bool,
    ring: EventRing,
    samples: Vec<OccupancySample>,
    /// Outstanding L1 misses: load_id → (thread, begin cycle).
    open_l1: HashMap<u64, (usize, u64)>,
    /// Per-thread open gate: (reason, begin cycle).
    open_gate: Vec<Option<(GateReason, u64)>>,
    /// L1-miss lifetime (begin→fill) in cycles, per thread.
    l1_latency: Vec<Histogram>,
    /// Gate-episode duration in cycles, per thread.
    gate_duration: Vec<Histogram>,
    /// Fetch-policy switches observed (machine-wide, not per-thread).
    policy_switches: u64,
}

impl RecordingProbe {
    /// A probe for `num_threads` hardware contexts retaining up to
    /// `ring_capacity` events.
    pub fn new(num_threads: usize, ring_capacity: usize) -> RecordingProbe {
        RecordingProbe {
            threads: vec![ThreadCounters::default(); num_threads],
            detail: false,
            ring: EventRing::new(ring_capacity),
            samples: Vec::new(),
            open_l1: HashMap::new(),
            open_gate: vec![None; num_threads],
            l1_latency: vec![Histogram::new(); num_threads],
            gate_duration: vec![Histogram::new(); num_threads],
            policy_switches: 0,
        }
    }

    /// Also capture per-instruction fetch/dispatch/issue/commit events in
    /// the ring (counters always count them regardless).
    pub fn with_detail(mut self, detail: bool) -> RecordingProbe {
        self.detail = detail;
        self
    }

    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    pub fn thread(&self, t: usize) -> &ThreadCounters {
        &self.threads[t]
    }

    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    pub fn samples(&self) -> &[OccupancySample] {
        &self.samples
    }

    pub fn l1_latency(&self, t: usize) -> &Histogram {
        &self.l1_latency[t]
    }

    pub fn gate_duration(&self, t: usize) -> &Histogram {
        &self.gate_duration[t]
    }

    /// L1 misses currently outstanding (begun, neither filled nor
    /// squashed).
    pub fn open_l1_misses(&self) -> usize {
        self.open_l1.len()
    }

    /// Fetch-policy switches observed (non-zero only when a switching
    /// meta-policy is attached).
    pub fn policy_switches(&self) -> u64 {
        self.policy_switches
    }

    /// Build the conventional [`Registry`] view of the counters:
    /// `"<metric>/t<thread>"` per-thread counters, bare totals, and the
    /// latency/duration histograms.
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new();
        fn add(r: &mut Registry, name: &str, t: usize, v: u64) {
            r.add(&format!("{name}/t{t}"), v);
            r.add(name, v);
        }
        for (t, c) in self.threads.iter().enumerate() {
            add(&mut r, "fetch", t, c.fetched);
            add(&mut r, "fetch_wrong_path", t, c.wrong_path_fetched);
            add(&mut r, "dispatch", t, c.dispatched);
            add(&mut r, "issue", t, c.issued);
            add(&mut r, "commit", t, c.committed);
            add(&mut r, "squash_mispredict", t, c.squashed_mispredict);
            add(&mut r, "squash_flush", t, c.squashed_flush);
            add(&mut r, "gate", t, c.gates);
            add(&mut r, "ungate", t, c.ungates);
            add(&mut r, "l1_miss_begin", t, c.l1_miss_begins);
            add(&mut r, "l1_miss_end", t, c.l1_miss_ends);
            add(&mut r, "l2_declare", t, c.l2_declares);
            add(&mut r, "l2_resolve", t, c.l2_resolves);
            add(&mut r, "ifetch_miss", t, c.ifetch_misses);
            for reason in GateReason::ALL {
                add(
                    &mut r,
                    &format!("gate_{}", reason.as_str()),
                    t,
                    c.gates_by_reason[reason.index()],
                );
            }
        }
        for (t, h) in self.l1_latency.iter().enumerate() {
            merge_histogram(&mut r, &format!("l1_miss_cycles/t{t}"), h);
        }
        for (t, h) in self.gate_duration.iter().enumerate() {
            merge_histogram(&mut r, &format!("gate_cycles/t{t}"), h);
        }
        if self.policy_switches > 0 {
            // Machine-wide, so no per-thread variant.
            r.add("policy_switch", self.policy_switches);
        }
        r
    }
}

/// Flatten a histogram into `hist/<name>/{ge<floor>,count,sum}` counters —
/// resolution matches the histogram's own (one power of two per bucket).
fn merge_histogram(r: &mut Registry, name: &str, h: &Histogram) {
    if h.count() == 0 {
        return;
    }
    for (floor, count) in h.nonzero_buckets() {
        r.add(&format!("hist/{name}/ge{floor}"), count);
    }
    r.add(&format!("hist/{name}/count"), h.count());
    r.add(&format!("hist/{name}/sum"), h.sum());
}

impl Observer for RecordingProbe {}

impl Probe for RecordingProbe {
    fn on_fetch(&mut self, cycle: u64, thread: usize, pc: u64, seq: u64, wrong_path: bool) {
        let c = &mut self.threads[thread];
        c.fetched += 1;
        if wrong_path {
            c.wrong_path_fetched += 1;
        }
        if self.detail {
            self.ring.push(TraceEvent {
                cycle,
                thread,
                kind: EventKind::Fetch {
                    pc,
                    seq,
                    wrong_path,
                },
            });
        }
    }

    fn on_dispatch(&mut self, cycle: u64, thread: usize, seq: u64) {
        self.threads[thread].dispatched += 1;
        if self.detail {
            self.ring.push(TraceEvent {
                cycle,
                thread,
                kind: EventKind::Dispatch { seq },
            });
        }
    }

    fn on_issue(&mut self, cycle: u64, thread: usize, seq: u64) {
        self.threads[thread].issued += 1;
        if self.detail {
            self.ring.push(TraceEvent {
                cycle,
                thread,
                kind: EventKind::Issue { seq },
            });
        }
    }

    fn on_commit(&mut self, cycle: u64, thread: usize, seq: u64, pc: u64) {
        self.threads[thread].committed += 1;
        if self.detail {
            self.ring.push(TraceEvent {
                cycle,
                thread,
                kind: EventKind::Commit { seq, pc },
            });
        }
    }

    fn on_squash(&mut self, cycle: u64, thread: usize, seq: u64, kind: SquashKind) {
        let c = &mut self.threads[thread];
        match kind {
            SquashKind::Mispredict => c.squashed_mispredict += 1,
            SquashKind::Flush => c.squashed_flush += 1,
        }
        // A squashed load with an outstanding miss never gets its end
        // event; close its lifetime here so open_l1 does not leak.
        self.open_l1.remove(&seq);
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::Squash { seq, kind },
        });
    }

    fn on_gate(&mut self, _on: Enabled, cycle: u64, thread: usize, reason: GateReason) {
        let c = &mut self.threads[thread];
        c.gates += 1;
        c.gates_by_reason[reason.index()] += 1;
        self.open_gate[thread] = Some((reason, cycle));
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::Gate { reason },
        });
    }

    fn on_ungate(&mut self, _on: Enabled, cycle: u64, thread: usize, reason: GateReason) {
        self.threads[thread].ungates += 1;
        if let Some((_, begin)) = self.open_gate[thread].take() {
            self.gate_duration[thread].observe(cycle.saturating_sub(begin));
        }
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::Ungate { reason },
        });
    }

    fn on_l1_miss_begin(&mut self, cycle: u64, thread: usize, load_id: u64, addr: u64, l2: bool) {
        self.threads[thread].l1_miss_begins += 1;
        self.open_l1.insert(load_id, (thread, cycle));
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::L1MissBegin { load_id, addr, l2 },
        });
    }

    fn on_l1_miss_end(&mut self, cycle: u64, thread: usize, load_id: u64) {
        self.threads[thread].l1_miss_ends += 1;
        if let Some((t, begin)) = self.open_l1.remove(&load_id) {
            self.l1_latency[t].observe(cycle.saturating_sub(begin));
        }
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::L1MissEnd { load_id },
        });
    }

    fn on_l2_declare(&mut self, cycle: u64, thread: usize, load_id: u64) {
        self.threads[thread].l2_declares += 1;
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::L2Declare { load_id },
        });
    }

    fn on_l2_resolve(&mut self, cycle: u64, thread: usize, load_id: u64) {
        self.threads[thread].l2_resolves += 1;
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::L2Resolve { load_id },
        });
    }

    fn on_ifetch_miss(&mut self, cycle: u64, thread: usize, addr: u64, ready_at: u64) {
        self.threads[thread].ifetch_misses += 1;
        self.ring.push(TraceEvent {
            cycle,
            thread,
            kind: EventKind::IfetchMiss { addr, ready_at },
        });
    }

    fn on_sample(&mut self, _on: Enabled, sample: &OccupancySample) {
        self.samples.push(sample.clone());
    }

    fn on_policy_switch(&mut self, cycle: u64, from: &'static str, to: &'static str) {
        // Machine-wide lifecycle event: rare (at most one per decision
        // window), so it always goes in the ring, `detail` or not.
        self.policy_switches += 1;
        self.ring.push(TraceEvent {
            cycle,
            thread: 0,
            kind: EventKind::PolicySwitch { from, to },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_hooks() {
        let mut p = RecordingProbe::new(2, 64);
        p.on_fetch(1, 0, 0x100, 1, false);
        p.on_fetch(1, 0, 0x104, 2, true);
        p.on_commit(9, 0, 1, 0x100);
        p.on_squash(10, 0, 2, SquashKind::Mispredict);
        assert_eq!(p.thread(0).fetched, 2);
        assert_eq!(p.thread(0).wrong_path_fetched, 1);
        assert_eq!(p.thread(0).committed, 1);
        assert_eq!(p.thread(0).squashed_mispredict, 1);
        assert_eq!(p.thread(1).fetched, 0);
    }

    #[test]
    fn l1_lifetimes_feed_the_latency_histogram() {
        let mut p = RecordingProbe::new(1, 64);
        p.on_l1_miss_begin(100, 0, 7, 0xAB, true);
        assert_eq!(p.open_l1_misses(), 1);
        p.on_l1_miss_end(211, 0, 7);
        assert_eq!(p.open_l1_misses(), 0);
        assert_eq!(p.l1_latency(0).count(), 1);
        assert_eq!(p.l1_latency(0).sum(), 111);
    }

    #[test]
    fn squash_closes_open_miss() {
        let mut p = RecordingProbe::new(1, 64);
        p.on_l1_miss_begin(100, 0, 7, 0xAB, false);
        p.on_squash(105, 0, 7, SquashKind::Flush);
        assert_eq!(p.open_l1_misses(), 0);
        // No latency observation for a squashed (never filled) miss.
        assert_eq!(p.l1_latency(0).count(), 0);
    }

    #[test]
    fn gate_episodes_measure_duration() {
        let mut p = RecordingProbe::new(1, 64);
        let on = Enabled::of::<RecordingProbe>().expect("the recording probe is enabled");
        p.on_gate(on, 10, 0, GateReason::Policy);
        p.on_ungate(on, 25, 0, GateReason::Policy);
        assert_eq!(p.thread(0).gates, 1);
        assert_eq!(p.thread(0).ungates, 1);
        assert_eq!(p.gate_duration(0).sum(), 15);
        assert_eq!(p.thread(0).gates_by_reason[GateReason::Policy.index()], 1);
    }

    #[test]
    fn detail_gates_per_instruction_ring_traffic() {
        let mut quiet = RecordingProbe::new(1, 64);
        quiet.on_fetch(1, 0, 0, 1, false);
        assert_eq!(quiet.ring().len(), 0);
        let mut loud = RecordingProbe::new(1, 64).with_detail(true);
        loud.on_fetch(1, 0, 0, 1, false);
        assert_eq!(loud.ring().len(), 1);
    }

    #[test]
    fn registry_view_names_are_conventional() {
        let mut p = RecordingProbe::new(2, 64);
        p.on_commit(1, 0, 1, 0);
        p.on_commit(2, 1, 2, 0);
        p.on_commit(3, 1, 3, 0);
        let r = p.registry();
        assert_eq!(r.counter("commit/t0"), 1);
        assert_eq!(r.counter("commit/t1"), 2);
        assert_eq!(r.counter("commit"), 3);
    }

    #[test]
    fn policy_switches_count_and_enter_the_ring() {
        let mut p = RecordingProbe::new(1, 64);
        assert_eq!(p.policy_switches(), 0);
        p.on_policy_switch(1024, "DWARN", "STALL");
        p.on_policy_switch(2048, "STALL", "DWARN");
        assert_eq!(p.policy_switches(), 2);
        // Lifecycle event: recorded even without --detail.
        assert_eq!(p.ring().len(), 2);
        let kinds: Vec<&'static str> = p.ring().iter().map(|e| e.kind.category()).collect();
        assert_eq!(kinds, vec!["policy-switch", "policy-switch"]);
        assert_eq!(p.registry().counter("policy_switch"), 2);
    }
}
