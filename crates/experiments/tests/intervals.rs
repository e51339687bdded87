//! Interval-series determinism goldens.
//!
//! The interval sampler extends the bit-identity promises of the
//! determinism suite to the *time-series* level: the per-interval,
//! per-thread counters must come out digest-for-digest identical whether
//! the quiescence-skipping engine bulk-advances idle spans or the naive
//! per-cycle loop walks them (`--no-skip`), and whether the µarch
//! sanitizer rides along or not. Skip accounting itself (`Interval::
//! skipped`) is meta-telemetry and excluded from the digest, exactly as
//! `SimResult::digest()` excludes skip statistics.

use dwarn_core::PolicyKind;
use smt_obs::{IntervalConfig, IntervalProbe, IntervalSeries};
use smt_pipeline::{RecordingSanitizer, SimConfig, Simulator, ThreadSpec, Watchdog};
use smt_workloads::{workload, WorkloadClass};

const WARMUP: u64 = 1_000;
const MEASURE: u64 = 3_000;
const WINDOW: u64 = 256;

/// One probed run of `policy` on `specs`.
fn run(
    policy: PolicyKind,
    specs: &[ThreadSpec],
    skip: bool,
    sanitize: bool,
) -> (u64, IntervalSeries) {
    let probe = IntervalProbe::new(IntervalConfig { window: WINDOW });
    let cfg = SimConfig::baseline();
    if sanitize {
        let mut sim =
            Simulator::try_with_specs(cfg, policy.build(), specs, probe, RecordingSanitizer::new())
                .expect("valid configuration");
        sim.set_skip_enabled(skip);
        let r = sim
            .try_run(WARMUP, MEASURE, &Watchdog::default())
            .expect("run completes");
        assert!(sim.sanitizer().is_clean(), "sanitizer found violations");
        (r.digest(), sim.into_probe().into_series())
    } else {
        let mut sim = Simulator::try_with_probe(cfg, policy.build(), specs, probe)
            .expect("valid configuration");
        sim.set_skip_enabled(skip);
        let r = sim
            .try_run(WARMUP, MEASURE, &Watchdog::default())
            .expect("run completes");
        (r.digest(), sim.into_probe().into_series())
    }
}

fn grid() -> Vec<(usize, WorkloadClass)> {
    vec![
        (2, WorkloadClass::Ilp),
        (4, WorkloadClass::Mix),
        (8, WorkloadClass::Mem),
    ]
}

#[test]
fn interval_series_bit_identical_skip_vs_no_skip() {
    let mut any_skipped = false;
    for (threads, class) in grid() {
        let wl = workload(threads, class);
        let specs = wl.thread_specs();
        for policy in PolicyKind::paper_set() {
            let (d_skip, s_skip) = run(policy, &specs, true, false);
            let (d_naive, s_naive) = run(policy, &specs, false, false);
            assert_eq!(
                d_skip, d_naive,
                "SimResult diverged for {policy:?} on {}",
                wl.name
            );
            assert_eq!(
                s_skip.digest(),
                s_naive.digest(),
                "interval series diverged for {policy:?} on {}",
                wl.name
            );
            // The naive loop never reports skipped cycles; the digest must
            // be blind to the difference in skip accounting.
            assert_eq!(s_naive.total().skipped, 0);
            any_skipped |= s_skip.total().skipped > 0;
            assert_eq!(s_skip.total().cycles, WARMUP + MEASURE);
            assert_eq!(s_naive.total().cycles, WARMUP + MEASURE);
        }
    }
    assert!(
        any_skipped,
        "no run elided any cycles; the skip-vs-naive comparison tested nothing"
    );
}

#[test]
fn interval_series_unchanged_under_the_sanitizer() {
    for (threads, class) in grid() {
        let wl = workload(threads, class);
        let specs = wl.thread_specs();
        for policy in PolicyKind::paper_set() {
            let (d_plain, s_plain) = run(policy, &specs, true, false);
            let (d_san, s_san) = run(policy, &specs, true, true);
            assert_eq!(d_plain, d_san, "{policy:?} on {}", wl.name);
            assert_eq!(
                s_plain.digest(),
                s_san.digest(),
                "sanitizer perturbed the interval series for {policy:?} on {}",
                wl.name
            );
        }
    }
}

#[test]
fn dwarn_series_records_policy_telemetry() {
    // On the memory-bound workload DWarn's warn levels must actually move,
    // and gating must land in the per-interval breakdown — otherwise the
    // policy-telemetry hook is wired to nothing.
    let wl = workload(8, WorkloadClass::Mem);
    let (_, series) = run(PolicyKind::DWarn, &wl.thread_specs(), true, false);
    let warns: u64 = series
        .intervals
        .iter()
        .flat_map(|iv| iv.threads.iter())
        .map(|t| t.warn_transitions)
        .sum();
    let gates: u64 = series
        .intervals
        .iter()
        .flat_map(|iv| iv.threads.iter())
        .map(|t| t.gate_cycles.iter().sum::<u64>())
        .sum();
    let commits: u64 = series
        .intervals
        .iter()
        .flat_map(|iv| iv.threads.iter())
        .map(|t| t.committed)
        .sum();
    assert!(warns > 0, "no warn-level transitions recorded");
    assert!(gates > 0, "no gate cycles recorded");
    assert!(commits > 0, "no commits recorded");
    assert_eq!(series.num_threads, 8);
}

#[test]
fn campaign_intervals_end_to_end() {
    use smt_experiments::{Arch, Campaign, ExpParams, RunKey};

    let dir = std::env::temp_dir().join(format!("dwarn-intervals-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = Campaign::new(ExpParams {
        warmup: WARMUP,
        measure: MEASURE,
    });
    campaign.set_intervals(&dir, WINDOW).unwrap();

    let wl = workload(4, WorkloadClass::Mix);
    let key = RunKey::workload(Arch::Baseline, &wl, PolicyKind::DWarn);
    let via_campaign = campaign.result(&key).digest();

    // The run itself must stay bit-identical to an unprobed campaign's.
    let plain = Campaign::new(ExpParams {
        warmup: WARMUP,
        measure: MEASURE,
    });
    assert_eq!(via_campaign, plain.result(&key).digest());

    // Interval files, heartbeat, and the report subcommand's parse.
    let jsonl = dir.join("baseline-4-mix-dwarn.intervals.jsonl");
    let trace = dir.join("baseline-4-mix-dwarn.counters.trace.json");
    assert!(jsonl.is_file(), "missing {}", jsonl.display());
    assert!(trace.is_file(), "missing {}", trace.display());
    let heartbeat = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert!(heartbeat.contains("smt-heartbeat-v1"), "{heartbeat}");
    assert!(heartbeat.contains("\"event\":\"run\""), "{heartbeat}");
    assert!(heartbeat.contains("\"sim_runs\":1"), "{heartbeat}");

    let summary = smt_experiments::report::summarize_file(&jsonl).unwrap();
    assert_eq!(summary.window, WINDOW);
    assert_eq!(summary.threads.len(), 4);
    assert!(!summary.phases.is_empty());
    let (hits, sims, _) = campaign.telemetry_counters();
    assert_eq!((hits, sims), (0, 1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_series_match_bare_probed_runs() {
    use dwarn_core::SelectorKind;
    use smt_experiments::{Arch, Campaign, ExpParams, RunKey};

    // The meta oracle reads its series through the campaign, in one
    // batch: plain or sanitized, each series of a batch must be exactly
    // what a bare probed simulator records, switching policy included.
    let wl = workload(4, WorkloadClass::Mem);
    let specs = wl.thread_specs();
    for sanitize in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "dwarn-intervals-series-{}-{sanitize}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = Campaign::new(ExpParams {
            warmup: WARMUP,
            measure: MEASURE,
        });
        campaign.set_sanitize(sanitize);
        campaign.set_intervals(&dir, WINDOW).unwrap();
        let policies = [PolicyKind::DWarn, PolicyKind::Meta(SelectorKind::IpcGreedy)];
        let keys = policies.map(|p| RunKey::workload(Arch::Baseline, &wl, p));
        for (policy, series) in policies.into_iter().zip(campaign.series(&keys)) {
            let (_, bare) = run(policy, &specs, true, sanitize);
            assert_eq!(
                series.digest(),
                bare.digest(),
                "{} series diverged (sanitize={sanitize})",
                policy.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_custom_batch_leaves_the_interval_files_a_serial_loop_leaves() {
    use smt_experiments::{Campaign, CustomRun, ExpParams};

    // Two custom runs share a policy description, so they write the same
    // interval file names. The slow one is declared first: a batch that
    // wrote files as runs finish would leave its series, where a serial
    // loop leaves the last declared run's.
    let runs = [(8, WorkloadClass::Mem), (2, WorkloadClass::Ilp)].map(|(threads, class)| {
        CustomRun::new(
            SimConfig::baseline(),
            &workload(threads, class),
            "ICOUNT",
            || PolicyKind::Icount.build(),
        )
    });
    let files = |batch: bool| {
        let tag = if batch { "batch" } else { "serial" };
        let dir = std::env::temp_dir().join(format!(
            "dwarn-intervals-order-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = Campaign::new(ExpParams {
            warmup: WARMUP,
            measure: MEASURE,
        });
        campaign.set_intervals(&dir, WINDOW).unwrap();
        if batch {
            campaign.prefetch(&runs);
        }
        for r in &runs {
            campaign.run_custom(&r.cfg, &r.specs, &r.policy_desc, &r.build);
        }
        let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
        let out = (
            read("icount.intervals.jsonl"),
            read("icount.counters.trace.json"),
        );
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let (serial, batch) = (files(false), files(true));
    assert!(
        serial == batch,
        "the batch left another run's interval files"
    );
}
