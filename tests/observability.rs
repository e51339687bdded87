//! Integration tests for the observability layer: the probe's view of a
//! simulation must agree with the simulator's own statistics, event streams
//! must be well-formed (gates balance, miss lifetimes nest), and the
//! sanitizer must find the pipeline invariants holding on every cycle while
//! a probe is active.

use dwarn_smt::core::PolicyKind;
use dwarn_smt::obs::{EventKind, RecordingProbe};
use dwarn_smt::pipeline::{RecordingSanitizer, SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

const MEASURE: u64 = 20_000;
const RING: usize = 1 << 20;

/// Run a workload under a recording probe with no warm-up, so the probe's
/// whole-run counters and the measured-window statistics cover the same
/// cycles.
fn traced_run(
    policy: PolicyKind,
    threads: usize,
    class: WorkloadClass,
) -> (dwarn_smt::pipeline::SimResult, RecordingProbe) {
    let wl = workload(threads, class);
    let specs = wl.thread_specs();
    let probe = RecordingProbe::new(specs.len(), RING);
    let mut sim = Simulator::with_probe(SimConfig::baseline(), policy.build(), &specs, probe);
    let result = sim.run(0, MEASURE);
    (result, sim.into_probe())
}

#[test]
fn probe_counters_agree_with_simulator_stats() {
    for policy in [PolicyKind::Icount, PolicyKind::DWarn, PolicyKind::Flush] {
        let (result, probe) = traced_run(policy, 4, WorkloadClass::Mix);
        assert_eq!(probe.ring().dropped(), 0, "ring must not drop in this test");
        for (t, s) in result.threads.iter().enumerate() {
            let c = probe.thread(t);
            assert_eq!(c.committed, s.committed, "{policy:?} t{t} committed");
            assert_eq!(c.fetched, s.fetched, "{policy:?} t{t} fetched");
            assert_eq!(
                c.wrong_path_fetched, s.wrong_path_fetched,
                "{policy:?} t{t} wrong-path fetched"
            );
            assert_eq!(
                c.squashed_mispredict, s.squashed_mispredict,
                "{policy:?} t{t} mispredict squashes"
            );
            assert_eq!(
                c.squashed_flush, s.squashed_flush,
                "{policy:?} t{t} flush squashes"
            );
        }
        // The run must have actually exercised the machinery.
        assert!(result.threads.iter().any(|s| s.committed > 0));
    }
}

#[test]
fn commit_events_match_committed_counts_in_detail_mode() {
    let wl = workload(2, WorkloadClass::Mix);
    let specs = wl.thread_specs();
    let probe = RecordingProbe::new(specs.len(), RING).with_detail(true);
    let mut sim = Simulator::with_probe(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &specs,
        probe,
    );
    let result = sim.run(0, 5_000);
    let probe = sim.into_probe();
    assert_eq!(probe.ring().dropped(), 0);
    let mut commits = vec![0u64; result.threads.len()];
    for ev in probe.ring().iter() {
        if matches!(ev.kind, EventKind::Commit { .. }) {
            commits[ev.thread] += 1;
        }
    }
    for (t, s) in result.threads.iter().enumerate() {
        assert_eq!(commits[t], s.committed, "commit events vs. stats, t{t}");
    }
}

#[test]
fn gate_and_ungate_events_balance() {
    // MEM workloads under DWarn/FLUSH gate aggressively; every gate must be
    // either closed by an ungate or still open when the run ends.
    for policy in [PolicyKind::DWarn, PolicyKind::Stall, PolicyKind::Icount] {
        let (_, probe) = traced_run(policy, 4, WorkloadClass::Mem);
        for t in 0..probe.num_threads() {
            let c = probe.thread(t);
            assert!(
                c.gates == c.ungates || c.gates == c.ungates + 1,
                "{policy:?} t{t}: {} gates vs {} ungates",
                c.gates,
                c.ungates
            );
        }
        // Event stream alternates per thread: never two gates (or two
        // ungates) in a row.
        let mut open = vec![false; probe.num_threads()];
        for ev in probe.ring().iter() {
            match ev.kind {
                EventKind::Gate { .. } => {
                    assert!(!open[ev.thread], "{policy:?}: gate while gated");
                    open[ev.thread] = true;
                }
                EventKind::Ungate { .. } => {
                    assert!(open[ev.thread], "{policy:?}: ungate while not gated");
                    open[ev.thread] = false;
                }
                _ => {}
            }
        }
    }
}

#[test]
fn l1_miss_lifetimes_nest() {
    let (result, probe) = traced_run(PolicyKind::DWarn, 4, WorkloadClass::Mem);
    let mut open = std::collections::HashSet::new();
    let mut begins = 0u64;
    let mut ends = 0u64;
    for ev in probe.ring().iter() {
        match ev.kind {
            EventKind::L1MissBegin { load_id, .. } => {
                assert!(open.insert(load_id), "duplicate begin for load {load_id}");
                begins += 1;
            }
            EventKind::L1MissEnd { load_id } => {
                assert!(
                    open.remove(&load_id),
                    "end without begin for load {load_id}"
                );
                ends += 1;
            }
            // A squash may close an open miss (the fill never arrives).
            EventKind::Squash { seq, .. } => {
                open.remove(&seq);
            }
            _ => {}
        }
    }
    assert!(begins > 0, "a MEM workload must miss in L1");
    assert!(ends <= begins);
    // Whatever is still open at the end is exactly what the probe tracks.
    assert_eq!(open.len(), probe.open_l1_misses());
    // The hierarchy's statistics exclude wrong-path accesses; the probe
    // sees every access (the hardware cannot tell them apart), so its
    // begin count bounds the architectural miss count from above.
    let total_misses: u64 = result.mem.iter().map(|m| m.l1_misses).sum();
    assert!(
        begins >= total_misses,
        "probe begins ({begins}) vs. architectural L1 misses ({total_misses})"
    );
}

#[test]
fn pipeline_invariants_hold_at_sample_points_under_probe() {
    let wl = workload(4, WorkloadClass::Mix);
    let specs = wl.thread_specs();
    let probe = RecordingProbe::new(specs.len(), RING);
    let mut sim = Simulator::try_with_specs(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &specs,
        probe,
        RecordingSanitizer::new(),
    )
    .unwrap();
    for _ in 0..10_000 {
        sim.step();
    }
    assert!(
        sim.sanitizer().is_clean(),
        "{}",
        sim.sanitizer().render_report()
    );
}

#[test]
fn occupancy_samples_arrive_on_schedule() {
    let wl = workload(4, WorkloadClass::Mix);
    let specs = wl.thread_specs();
    let probe = RecordingProbe::new(specs.len(), RING);
    let mut sim = Simulator::with_probe(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &specs,
        probe,
    );
    let (result, occ) = sim.run_sampled(1_000, 10_000, 25);
    let probe = sim.into_probe();
    assert_eq!(probe.samples().len(), 400, "10_000 cycles / 25 per sample");
    assert_eq!(occ.samples, 400);
    assert_eq!(result.cycles, 10_000);
    for s in probe.samples() {
        assert_eq!(s.rob.len(), 4);
        assert_eq!(s.iq_per_thread.len(), 4);
    }
    // Samples are strictly ordered in time.
    for w in probe.samples().windows(2) {
        assert!(w[0].cycle < w[1].cycle);
    }
}

#[test]
fn chrome_export_of_a_real_run_is_wellformed() {
    let (_, probe) = traced_run(PolicyKind::Flush, 2, WorkloadClass::Mem);
    let names: Vec<String> = vec!["a".into(), "b".into()];
    let doc = dwarn_smt::obs::chrome_trace(probe.ring(), probe.samples(), &names);
    assert!(doc.starts_with("{\"traceEvents\":["));
    assert!(doc.contains("\"ph\":\"M\""));
    // Balanced braces/brackets is a cheap well-formedness proxy without a
    // JSON parser dependency; strings in the trace contain no braces.
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    assert_eq!(opens, closes);
    assert_eq!(doc.matches('[').count(), doc.matches(']').count());
}
