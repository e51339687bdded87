//! Integration tests for the observability layer: the probe's view of a
//! simulation must agree with the simulator's own statistics, event streams
//! must be well-formed (gates balance, miss lifetimes nest), the recording
//! probe's series must be exactly the interval sampler's, and the sanitizer
//! must find the pipeline invariants holding on every cycle while a probe
//! is active.

use dwarn_smt::core::PolicyKind;
use dwarn_smt::obs::{
    EventKind, EventRing, IntervalConfig, IntervalProbe, IntervalSeries, RecordingProbe, SquashKind,
};
use dwarn_smt::pipeline::{Probe, RecordingSanitizer, SimConfig, SimResult, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

const MEASURE: u64 = 20_000;
const RING: usize = 1 << 20;
const WINDOW: IntervalConfig = IntervalConfig { window: 1024 };

/// Run a workload under a recording probe with no warm-up, so the probe's
/// whole-run series and the measured-window statistics cover the same
/// cycles.
fn traced_run(
    policy: PolicyKind,
    threads: usize,
    class: WorkloadClass,
) -> (SimResult, EventRing, IntervalSeries) {
    let wl = workload(threads, class);
    let specs = wl.thread_specs();
    let probe = RecordingProbe::new(RING, WINDOW);
    let mut sim = Simulator::with_probe(SimConfig::baseline(), policy.build(), &specs, probe);
    let result = sim.run(0, MEASURE);
    let (ring, series) = sim.into_probe().into_parts();
    (result, ring, series)
}

#[test]
fn probe_counters_agree_with_simulator_stats() {
    for policy in [PolicyKind::Icount, PolicyKind::DWarn, PolicyKind::Flush] {
        let (result, ring, series) = traced_run(policy, 4, WorkloadClass::Mix);
        assert_eq!(ring.dropped(), 0, "ring must not drop in this test");
        // Squashes by kind, per thread: [mispredict, flush].
        let mut squashes = vec![[0u64; 2]; result.threads.len()];
        for ev in ring.iter() {
            if let EventKind::Squash { kind, .. } = ev.kind {
                let k = match kind {
                    SquashKind::Mispredict => 0,
                    SquashKind::Flush => 1,
                };
                squashes[ev.thread][k] += 1;
            }
        }
        let total = series.total();
        for (t, s) in result.threads.iter().enumerate() {
            let w = &total.threads[t];
            assert_eq!(w.committed, s.committed, "{policy:?} t{t} committed");
            assert_eq!(w.fetched, s.fetched, "{policy:?} t{t} fetched");
            assert_eq!(
                w.wrong_path_fetched, s.wrong_path_fetched,
                "{policy:?} t{t} wrong-path fetched"
            );
            assert_eq!(
                squashes[t][0], s.squashed_mispredict,
                "{policy:?} t{t} mispredict squashes"
            );
            assert_eq!(
                squashes[t][1], s.squashed_flush,
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
    let probe = RecordingProbe::new(RING, WINDOW).with_detail(true);
    let mut sim = Simulator::with_probe(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &specs,
        probe,
    );
    let result = sim.run(0, 5_000);
    let (ring, _) = sim.into_probe().into_parts();
    assert_eq!(ring.dropped(), 0);
    let mut commits = vec![0u64; result.threads.len()];
    for ev in ring.iter() {
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
        let (result, ring, _) = traced_run(policy, 4, WorkloadClass::Mem);
        assert_eq!(ring.dropped(), 0, "{policy:?}: the walk needs every event");
        // Event stream alternates per thread: never two gates (or two
        // ungates) in a row, so gates equal ungates or lead by one.
        let mut open = vec![false; result.threads.len()];
        for ev in ring.iter() {
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
    let (result, ring, _) = traced_run(PolicyKind::DWarn, 4, WorkloadClass::Mem);
    let mut open = std::collections::HashSet::new();
    let mut begins = 0u64;
    let mut ends = 0u64;
    for ev in ring.iter() {
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
    let probe = RecordingProbe::new(RING, WINDOW);
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
fn chrome_export_of_a_real_run_is_wellformed() {
    let (_, ring, series) = traced_run(PolicyKind::Flush, 2, WorkloadClass::Mem);
    let names: Vec<String> = vec!["a".into(), "b".into()];
    let doc = dwarn_smt::obs::chrome_trace(&ring, &series, &names);
    assert!(doc.starts_with("{\"traceEvents\":["));
    assert!(doc.contains("\"ph\":\"M\""));
    assert!(doc.contains("\"cat\":\"interval\""));
    // Balanced braces/brackets is a cheap well-formedness proxy without a
    // JSON parser dependency; strings in the trace contain no braces.
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    assert_eq!(opens, closes);
    assert_eq!(doc.matches('[').count(), doc.matches(']').count());
}

/// Run 4-MEM under `policy` with `probe` attached; return the digest and
/// the skipped cycles of the series `into_series` takes from the probe.
fn series_digest<P: Probe>(
    policy: PolicyKind,
    skip: bool,
    probe: P,
    into_series: impl FnOnce(P) -> IntervalSeries,
) -> (u64, u64) {
    let specs = workload(4, WorkloadClass::Mem).thread_specs();
    let mut sim = Simulator::with_probe(SimConfig::baseline(), policy.build(), &specs, probe);
    sim.set_skip_enabled(skip);
    sim.run(0, MEASURE);
    let series = into_series(sim.into_probe());
    (series.digest(), series.total().skipped)
}

#[test]
fn recording_probe_series_matches_a_bare_interval_probe() {
    // Every hook the interval sampler implements must reach the recording
    // probe's embedded one: a dropped forward changes the digest.
    let mut skipped = 0;
    for policy in [
        PolicyKind::DWarn,
        PolicyKind::Flush,
        PolicyKind::parse("META-IPC").expect("known policy"),
    ] {
        for skip in [true, false] {
            let (bare, bare_skipped) = series_digest(
                policy,
                skip,
                IntervalProbe::new(WINDOW),
                IntervalProbe::into_series,
            );
            let (recorded, _) =
                series_digest(policy, skip, RecordingProbe::new(RING, WINDOW), |p| {
                    p.into_parts().1
                });
            assert_eq!(recorded, bare, "{policy:?} skip={skip}");
            skipped += bare_skipped;
        }
    }
    assert!(skipped > 0, "the skip-on runs must take quiescent spans");
}
