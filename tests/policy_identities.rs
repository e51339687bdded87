//! Degenerate-parameter identities: what each policy must become when its
//! trigger can never fire, as the paper defines it. A gate or a demotion
//! that never triggers leaves plain ICOUNT; a declare threshold no load
//! ever reaches leaves STALL and FLUSH nothing to respond to and DWARN's
//! hybrid gate nothing to gate; a flush that never activates leaves DWARN.
//!
//! The expected answer comes from those definitions, not from an
//! equivalence the engine claims for itself, so these complement the
//! digest table in `tests/policy_digests.rs` (a bug shared by both sides
//! of an identity still passes). Same window: 1k + 3k cycles, here on 2-
//! and 4-thread ILP, MIX and MEM.

use dwarn_smt::core::{
    DWarn, DWarnFlush, DWarnThreshold, DataGating, DcPred, PolicyKind, PredictiveDataGating,
};
use dwarn_smt::pipeline::{FetchPolicy, SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

const WARMUP: u64 = 1_000;
const MEASURE: u64 = 3_000;

#[test]
fn policies_with_a_trigger_that_never_fires_reduce_to_their_base() {
    let base = SimConfig::baseline();
    // No load is ever declared an L2 miss at this threshold.
    let mut never_declared = SimConfig::baseline();
    never_declared.l2_declare_threshold = 1_000_000_000;

    let mut broken = Vec::new();
    for threads in [2, 4] {
        for class in WorkloadClass::ALL {
            let wl = workload(threads, class);
            let run = |cfg: &SimConfig, policy: Box<dyn FetchPolicy>| {
                Simulator::new(cfg.clone(), policy, &wl.thread_specs())
                    .run(WARMUP, MEASURE)
                    .digest()
            };
            let icount = run(&base, PolicyKind::Icount.build());
            let icount_nd = run(&never_declared, PolicyKind::Icount.build());
            let dwarn = run(&base, Box::new(DWarn::new()));
            let identities = [
                (
                    "DG(n=MAX) = ICOUNT",
                    run(&base, Box::new(DataGating::with_threshold(u32::MAX))),
                    icount,
                ),
                (
                    "PDG(n=MAX) = ICOUNT",
                    run(
                        &base,
                        Box::new(PredictiveDataGating::with_threshold(u32::MAX)),
                    ),
                    icount,
                ),
                (
                    "DWARN-K(k=MAX) = ICOUNT",
                    run(&base, Box::new(DWarnThreshold::new(u32::MAX))),
                    icount,
                ),
                (
                    "DC-PRED(cap=1) = ICOUNT",
                    run(&base, Box::new(DcPred::with_cap(1.0))),
                    icount,
                ),
                (
                    "STALL = ICOUNT, never declared",
                    run(&never_declared, PolicyKind::Stall.build()),
                    icount_nd,
                ),
                (
                    "FLUSH = ICOUNT, never declared",
                    run(&never_declared, PolicyKind::Flush.build()),
                    icount_nd,
                ),
                (
                    "DWARN = DWARN-PRIO, never declared",
                    run(&never_declared, Box::new(DWarn::new())),
                    run(&never_declared, Box::new(DWarn::priority_only())),
                ),
                ("ICOUNT never declared = ICOUNT", icount_nd, icount),
                (
                    "DWARN+FLUSH(never) = DWARN",
                    run(
                        &base,
                        Box::new(DWarnFlush::with_flush_threshold(usize::MAX)),
                    ),
                    dwarn,
                ),
            ];
            for (identity, got, want) in identities {
                if got != want {
                    broken.push(format!(
                        "{identity} @{}: {got:#018x} != {want:#018x}",
                        wl.name
                    ));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "identities broken:\n{}",
        broken.join("\n")
    );
}
