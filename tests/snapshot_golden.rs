//! Golden snapshot bytes.
//!
//! The restore and fragment suites compare the engine only with itself, so
//! a change that rewrites the snapshot format consistently on both sides
//! would pass them and still orphan every checkpoint already on disk. This
//! suite pins the bytes: each case runs a quick window through
//! `try_run_checkpointed`, stops at the first resumable checkpoint after
//! the warmup boundary (in the measured phase, so the run section carries
//! its measurement bases), and pins that checkpoint's digest plus the digest of the
//! machine-only snapshot of the interrupted simulator. Restoring the
//! checkpoint into a fresh simulator must then snapshot to that same
//! machine-only digest.

use std::cell::Cell;

use dwarn_smt::core::PolicyKind;
use dwarn_smt::obs::{IntervalConfig, IntervalProbe};
use dwarn_smt::pipeline::{
    CheckpointOpts, FetchPolicy, MachineSnapshot, NullSanitizer, Probe, RunOutcome, SimConfig,
    Simulator, ThreadSpec, Watchdog,
};
use dwarn_smt::workloads::{workload, WorkloadClass};

const WARMUP: u64 = 400;
const MEASURE: u64 = 1_200;
/// Chunks split at the warmup boundary, so the first checkpoint is taken
/// there and the run stops at the next one, `INTERVAL` cycles into the
/// measured window.
const INTERVAL: u64 = 700;

/// One pinned case: `(checkpoint digest, machine-only digest)`.
struct Golden {
    threads: usize,
    class: WorkloadClass,
    policy: &'static str,
    checkpoint: u64,
    machine: u64,
}

/// Run until a checkpoint has been emitted, then stop at the next chunk
/// boundary; return the stopping checkpoint and the interrupted simulator.
fn interrupt<P: Probe>(
    mut sim: Simulator<P, NullSanitizer>,
) -> (MachineSnapshot, Simulator<P, NullSanitizer>) {
    let seen = Cell::new(false);
    let mut sink = |_: &MachineSnapshot| seen.set(true);
    let stop = || seen.get();
    let mut opts = CheckpointOpts {
        interval: INTERVAL,
        sink: &mut sink,
        stop: Some(&stop),
    };
    match sim
        .try_run_checkpointed(WARMUP, MEASURE, &Watchdog::default(), &mut opts)
        .expect("capture run must not trip the watchdog")
    {
        RunOutcome::Interrupted(snap) => (snap, sim),
        RunOutcome::Completed(_) => panic!("run completed before the first checkpoint"),
    }
}

fn check<P: Probe>(g: &Golden, build: impl Fn(&[ThreadSpec]) -> Simulator<P, NullSanitizer>) {
    let specs = workload(g.threads, g.class).thread_specs();
    let (snap, sim) = interrupt(build(&specs));
    assert!(snap.has_run_state());
    assert_eq!(snap.cycle(), WARMUP + INTERVAL, "{}", g.policy);
    let machine = sim.snapshot().digest();
    assert_eq!(
        (snap.digest(), machine),
        (g.checkpoint, g.machine),
        "{}-{:?} under {}: snapshot bytes drifted",
        g.threads,
        g.class,
        g.policy
    );
    let mut fresh = build(&specs);
    fresh
        .restore_run(&snap)
        .expect("checkpoint restores into an identically-built simulator");
    assert_eq!(
        fresh.snapshot().digest(),
        machine,
        "{}: restored machine re-snapshots differently",
        g.policy
    );
}

fn policy(name: &str) -> Box<dyn FetchPolicy> {
    PolicyKind::parse(name).expect("known policy").build()
}

#[test]
fn static_policy_snapshots_match_their_golden_bytes() {
    let cases = [
        Golden {
            threads: 2,
            class: WorkloadClass::Mem,
            policy: "PDG",
            checkpoint: 0xc990_7e2a_8836_66a6,
            machine: 0x98d7_55ae_e2d6_e497,
        },
        Golden {
            threads: 2,
            class: WorkloadClass::Mem,
            policy: "DC-PRED",
            checkpoint: 0x1a7a_447a_6360_29e7,
            machine: 0xf74c_4415_6188_11ed,
        },
        Golden {
            threads: 2,
            class: WorkloadClass::Mem,
            policy: "DWARN",
            checkpoint: 0x69d0_c309_8909_5022,
            machine: 0x7fe0_fcb8_aaaf_afb5,
        },
        Golden {
            threads: 4,
            class: WorkloadClass::Mix,
            policy: "FLUSH",
            checkpoint: 0x7b15_2786_6efd_48b8,
            machine: 0x2de9_0081_2e9b_cbd2,
        },
    ];
    for g in &cases {
        check(g, |specs| {
            Simulator::new(SimConfig::baseline(), policy(g.policy), specs)
        });
    }
}

#[test]
fn probed_meta_policy_snapshot_matches_its_golden_bytes() {
    let g = Golden {
        threads: 2,
        class: WorkloadClass::Mem,
        policy: "META-IPC",
        checkpoint: 0x9037_a3d9_9ad5_6545,
        machine: 0x141a_4d7c_5e2c_c48b,
    };
    check(&g, |specs| {
        Simulator::with_probe(
            SimConfig::baseline(),
            policy(g.policy),
            specs,
            IntervalProbe::new(IntervalConfig { window: 256 }),
        )
    });
}
