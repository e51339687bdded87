//! Behavioural integration tests: run real simulations and check that each
//! policy produces its paper-documented behaviour.

use dwarn_core::PolicyKind;
use smt_obs::{IntervalConfig, IntervalProbe};
use smt_pipeline::{SimConfig, SimResult, Simulator, ThreadSpec};
use smt_trace::profile;

fn spec(name: &str, seed: u64) -> ThreadSpec {
    ThreadSpec {
        profile: profile::by_name(name).unwrap(),
        seed,
        skip: 0,
    }
}

fn mix2() -> Vec<ThreadSpec> {
    vec![spec("gzip", 1), spec("twolf", 2)]
}

fn mix4() -> Vec<ThreadSpec> {
    vec![
        spec("gzip", 1),
        spec("twolf", 2),
        spec("bzip2", 3),
        spec("mcf", 4),
    ]
}

fn run(kind: PolicyKind, specs: &[ThreadSpec], cfg: SimConfig) -> SimResult {
    let mut sim = Simulator::new(cfg, kind.build(), specs);
    sim.run(15_000, 30_000)
}

#[test]
fn all_policies_run_the_4mix_workload() {
    for kind in PolicyKind::paper_set() {
        let r = run(kind, &mix4(), SimConfig::baseline());
        assert!(
            r.throughput() > 0.5,
            "{} throughput {}",
            kind.name(),
            r.throughput()
        );
        for (i, t) in r.threads.iter().enumerate() {
            assert!(t.committed > 0, "{}: thread {i} starved", kind.name());
        }
    }
}

#[test]
fn only_flush_squashes_via_the_flush_path() {
    for kind in PolicyKind::paper_set() {
        let r = run(kind, &mix4(), SimConfig::baseline());
        let flushed = r.total_flush_squashed();
        if kind == PolicyKind::Flush {
            assert!(
                flushed > 0,
                "FLUSH must squash instructions on a MEM-containing workload"
            );
        } else {
            assert_eq!(flushed, 0, "{} must not flush", kind.name());
        }
    }
}

#[test]
fn flush_refetches_a_significant_fraction_on_mem_workloads() {
    // Figure 2's phenomenon: on MEM workloads the FLUSH policy squashes (and
    // later refetches) a sizable share of fetched instructions.
    let mem4 = vec![
        spec("mcf", 1),
        spec("twolf", 2),
        spec("vpr", 3),
        spec("parser", 4),
    ];
    let r = run(PolicyKind::Flush, &mem4, SimConfig::baseline());
    let frac = r.flushed_fraction();
    assert!(
        frac > 0.05,
        "MEM workload under FLUSH should squash >5% of fetched, got {frac}"
    );
}

#[test]
fn dg_gates_threads_more_than_dwarn() {
    // DG stalls on every outstanding L1 miss; DWarn only deprioritizes (at
    // 4 threads it never gates).
    let rdg = run(PolicyKind::Dg, &mix4(), SimConfig::baseline());
    let rdw = run(PolicyKind::DWarn, &mix4(), SimConfig::baseline());
    let gated_dg: u64 = rdg.threads.iter().map(|t| t.gated_cycles).sum();
    let gated_dw: u64 = rdw.threads.iter().map(|t| t.gated_cycles).sum();
    assert!(
        gated_dg > gated_dw,
        "DG gated {gated_dg} thread-cycles vs DWarn {gated_dw}"
    );
    assert_eq!(gated_dw, 0, "DWarn never gates at 4 threads");
}

#[test]
fn dwarn_hybrid_gates_only_below_three_threads() {
    let r2 = run(PolicyKind::DWarn, &mix2(), SimConfig::baseline());
    let gated2: u64 = r2.threads.iter().map(|t| t.gated_cycles).sum();
    assert!(
        gated2 > 0,
        "at 2 threads the hybrid rule gates declared L2 misses"
    );
    let r4 = run(PolicyKind::DWarn, &mix4(), SimConfig::baseline());
    let gated4: u64 = r4.threads.iter().map(|t| t.gated_cycles).sum();
    assert_eq!(gated4, 0);
}

#[test]
fn dwarn_beats_icount_on_mix_workloads() {
    // The paper's headline: DWarn outperforms ICOUNT, especially with MEM
    // threads present.
    let ric = run(PolicyKind::Icount, &mix4(), SimConfig::baseline());
    let rdw = run(PolicyKind::DWarn, &mix4(), SimConfig::baseline());
    assert!(
        rdw.throughput() > ric.throughput(),
        "DWarn {} <= ICOUNT {}",
        rdw.throughput(),
        ric.throughput()
    );
}

#[test]
fn stall_gates_on_declared_misses_only() {
    let r = run(PolicyKind::Stall, &mix4(), SimConfig::baseline());
    let gated: u64 = r.threads.iter().map(|t| t.gated_cycles).sum();
    assert!(gated > 0, "mcf must trigger declared-L2-miss stalls");
    // The ILP threads should almost never be gated.
    assert!(
        r.threads[2].gated_cycles < r.threads[3].gated_cycles,
        "bzip2 gated more than mcf under STALL"
    );
}

#[test]
fn policies_are_deterministic_end_to_end() {
    for kind in [PolicyKind::Pdg, PolicyKind::Flush, PolicyKind::DWarn] {
        let a = run(kind, &mix4(), SimConfig::baseline());
        let b = run(kind, &mix4(), SimConfig::baseline());
        assert_eq!(a.threads, b.threads, "{}", kind.name());
    }
}

#[test]
fn ilp_workloads_are_policy_insensitive() {
    // With no L1 misses to speak of, every policy degenerates to ICOUNT;
    // throughputs should be close.
    let ilp4 = vec![
        spec("gzip", 1),
        spec("bzip2", 2),
        spec("eon", 3),
        spec("gcc", 4),
    ];
    let base = run(PolicyKind::Icount, &ilp4, SimConfig::baseline()).throughput();
    for kind in PolicyKind::paper_set() {
        let t = run(kind, &ilp4, SimConfig::baseline()).throughput();
        let ratio = t / base;
        assert!(
            (0.75..1.35).contains(&ratio),
            "{} deviates on ILP workload: {t} vs {base}",
            kind.name()
        );
    }
}

#[test]
fn small_architecture_runs_all_policies() {
    for kind in PolicyKind::paper_set() {
        let r = run(kind, &mix2(), SimConfig::small());
        assert!(r.throughput() > 0.3, "{}: {}", kind.name(), r.throughput());
    }
}

#[test]
fn deep_architecture_runs_all_policies() {
    for kind in PolicyKind::paper_set() {
        let r = run(kind, &mix4(), SimConfig::deep());
        assert!(r.throughput() > 0.3, "{}: {}", kind.name(), r.throughput());
    }
}

#[test]
fn dcpred_limits_the_suspect_threads_resource_share() {
    // DC-PRED's response action is resource limiting, not gating: the MEM
    // thread should hold fewer issue-queue entries than under ICOUNT while
    // still fetching every cycle it wins ICOUNT priority.
    let wl = mix4(); // gzip, twolf, bzip2, mcf
    let occupancy = |kind: PolicyKind| {
        // One warmup-long window, dropped: the rest is the measured run.
        let probe = IntervalProbe::new(IntervalConfig { window: 10_000 });
        let mut sim = Simulator::with_probe(SimConfig::baseline(), kind.build(), &wl, probe);
        let r = sim.run(10_000, 25_000);
        let mut series = sim.into_probe().into_series();
        series.intervals.remove(0);
        let measured = series.total();
        (
            r,
            measured.threads[3].iq_acc as f64 / measured.cycles as f64,
        ) // mcf
    };
    let (ric, ic_iq) = occupancy(PolicyKind::Icount);
    let (rdc, dc_iq) = occupancy(PolicyKind::DcPred);
    assert!(
        dc_iq < ic_iq,
        "DC-PRED should cap mcf's IQ share: {dc_iq} vs ICOUNT {ic_iq}"
    );
    // And unlike the gating policies it never gates fetch.
    let gated: u64 = rdc.threads.iter().map(|t| t.gated_cycles).sum();
    assert_eq!(gated, 0, "DC-PRED does not gate");
    // The ILP threads should do at least as well as under ICOUNT.
    assert!(rdc.ipcs()[0] + rdc.ipcs()[2] >= (ric.ipcs()[0] + ric.ipcs()[2]) * 0.95);
}

#[test]
fn dwarn_never_fully_starves_the_mem_thread() {
    // The paper's fairness claim in miniature: even on an 8-thread MEM
    // workload, every DWarn thread commits a non-trivial stream.
    let wl: Vec<ThreadSpec> =
        smt_workloads::workload(8, smt_workloads::WorkloadClass::Mem).thread_specs();
    let mut sim = Simulator::new(SimConfig::baseline(), PolicyKind::DWarn.build(), &wl);
    let r = sim.run(10_000, 25_000);
    for (i, t) in r.threads.iter().enumerate() {
        assert!(
            t.committed > 100,
            "thread {i} starved under DWarn: {}",
            t.committed
        );
    }
}

#[test]
fn every_paper_policy_runs_clean_under_the_sanitizer() {
    // The sanitizer audits the whole machine every cycle (resource
    // conservation, ICOUNT/dmiss/declared counters, event wheel, and each
    // policy's own ordering/gating rules via `audit_order`). A violation
    // here means a policy's published fetch order contradicts the machine
    // state the paper's accounting depends on.
    use smt_pipeline::RecordingSanitizer;
    for kind in PolicyKind::paper_set() {
        for wl in [mix2(), mix4()] {
            let mut plain = Simulator::new(SimConfig::baseline(), kind.build(), &wl);
            let mut checked = Simulator::try_sanitized(
                SimConfig::baseline(),
                kind.build(),
                &wl,
                RecordingSanitizer::new(),
            )
            .expect("baseline config is valid");
            let r_plain = plain.run(2_000, 8_000);
            let r_checked = checked.run(2_000, 8_000);
            assert_eq!(
                r_plain.digest(),
                r_checked.digest(),
                "{}: sanitized run must be bit-identical ({} threads)",
                kind.name(),
                wl.len()
            );
            assert!(
                checked.sanitizer().is_clean(),
                "{} ({} threads) violated invariants:\n{}",
                kind.name(),
                wl.len(),
                checked.sanitizer().render_report()
            );
        }
    }
}
