//! Campaign-level fault contracts. Each test injects one fault into a
//! real campaign and pins its exact response: the typed `ExpError` it
//! records and the digest the campaign still returns. DESIGN.md §9.4 maps
//! every fault to the test that pins it.

use std::cell::Cell;

use dwarn_core::PolicyKind;
use smt_experiments::checkpoint::CHECKPOINT_VERSION;
use smt_experiments::{
    Arch, Campaign, CheckpointFault, CheckpointStore, ExpError, ExpParams, RunKey,
};
use smt_pipeline::{
    CheckpointOpts, FetchPolicy, MachineSnapshot, PolicyView, RunOutcome, SimConfig, Simulator,
    ThreadSpec, Watchdog,
};
use smt_workloads::{workload, WorkloadClass};

const QUICK: ExpParams = ExpParams {
    warmup: 1_000,
    measure: 3_000,
};

/// The typed errors a campaign recorded, in order.
fn recorded(campaign: &Campaign) -> Vec<ExpError> {
    campaign.failures().into_iter().map(|f| f.error).collect()
}

/// ICOUNT until its fuse burns, then a panic: a latent policy bug that
/// only fires mid-run.
struct FusedPolicy {
    fuse: u64,
    calls: u64,
}

impl FetchPolicy for FusedPolicy {
    fn name(&self) -> &'static str {
        "FUSED"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        self.calls += 1;
        if self.calls > self.fuse {
            panic!("fuse burned after {} cycles", self.calls);
        }
        view.icount_order_into(out);
    }

    fn quiescence_safe(&self) -> bool {
        false
    }
}

#[test]
fn a_policy_that_panics_mid_run_is_isolated() {
    let campaign = Campaign::new(QUICK);
    let specs = workload(2, WorkloadClass::Ilp).thread_specs();
    let fused = || -> Box<dyn FetchPolicy> {
        Box::new(FusedPolicy {
            fuse: 2_000,
            calls: 0,
        })
    };
    let err = campaign
        .try_run_custom(&SimConfig::baseline(), &specs, "FUSED", fused)
        .unwrap_err();
    match &err {
        ExpError::Panicked { payload, .. } => assert!(payload.contains("fuse burned"), "{payload}"),
        other => panic!("expected ExpError::Panicked, got {other}"),
    }
    assert_eq!(recorded(&campaign), [err]);
    // The campaign survives its isolated panic and keeps serving.
    campaign
        .try_result(&RunKey::solo(Arch::Baseline, "mcf"))
        .unwrap();
}

/// The key's own first periodic checkpoint, as an interrupted run leaves it.
fn first_checkpoint(key: &RunKey, specs: &[ThreadSpec]) -> MachineSnapshot {
    let mut sim = Simulator::new(key.arch.config(), key.policy.build(), specs);
    let seen = Cell::new(false);
    let mut sink = |_: &MachineSnapshot| seen.set(true);
    let stop = || seen.get();
    let mut opts = CheckpointOpts {
        interval: 500,
        sink: &mut sink,
        stop: Some(&stop),
    };
    let wd = Watchdog::default();
    match sim.try_run_checkpointed(QUICK.warmup, QUICK.measure, &wd, &mut opts) {
        Ok(RunOutcome::Interrupted(snap)) => snap,
        _ => panic!("the run must stop at its first checkpoint"),
    }
}

#[test]
fn a_damaged_checkpoint_is_a_typed_failure_and_resimulates() {
    let mix = workload(2, WorkloadClass::Mix);
    let key = RunKey::workload(Arch::Baseline, &mix, PolicyKind::DWarn);
    let want = Campaign::new(QUICK).try_result(&key).unwrap().digest();
    let snap = first_checkpoint(&key, &mix.thread_specs());
    let skew = CheckpointFault::VersionSkew {
        found: 0xDEAD,
        supported: CHECKPOINT_VERSION,
    };
    let damages = [
        CheckpointFault::Truncated,
        CheckpointFault::BadChecksum,
        skew,
        CheckpointFault::StaleGeneration,
    ];
    for (i, fault) in damages.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("dwarn-faults-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = Campaign::new(QUICK);
        campaign.set_checkpointing(&dir, 0).unwrap();
        let desc = campaign.describe(&key).unwrap();
        let store = CheckpointStore::open(&dir.join("checkpoints")).unwrap();
        let path = store.path_for(&desc);

        // Plant a genuine checkpoint on the key's path (for a stale
        // generation, one recorded under a foreign description), then
        // damage it.
        let planted = match fault {
            CheckpointFault::StaleGeneration => format!("{desc} [foreign generation]"),
            _ => desc.clone(),
        };
        store.store(&planted, &snap).unwrap();
        std::fs::rename(store.path_for(&planted), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        match fault {
            // A cut inside the envelope header.
            CheckpointFault::Truncated => bytes.truncate(11),
            CheckpointFault::BadChecksum => bytes[mid] ^= 0x10,
            CheckpointFault::VersionSkew { found, .. } => {
                bytes[8..12].copy_from_slice(&found.to_le_bytes());
            }
            _ => {}
        }
        std::fs::write(&path, &bytes).unwrap();

        let got = campaign.try_result(&key).unwrap();
        assert_eq!(got.digest(), want, "{fault}");
        let path = path.display().to_string();
        assert_eq!(recorded(&campaign), [ExpError::Checkpoint { path, fault }]);
        assert_eq!(store.entries().unwrap(), 0, "the damaged entry is deleted");
    }
}

/// A fault class the typed-error and digest checks above cannot see — a
/// policy whose published fetch order contradicts its own invariants — is
/// caught by the cycle-level sanitizer and resolves to a typed
/// `ExpError::Invariant`, not a panic or a silently wrong number.
#[test]
fn sanitizer_catches_a_self_contradicting_policy_as_a_typed_error() {
    use smt_experiments::{Campaign, ExpError, ExpParams};
    use smt_pipeline::{FetchPolicy, PolicyView, SimConfig};
    use smt_workloads::{workload, WorkloadClass};

    /// Claims (via audit_order) to order by ascending ICOUNT but emits
    /// the reverse — the kind of policy bug only a per-cycle audit sees.
    struct Contradict;
    impl FetchPolicy for Contradict {
        fn name(&self) -> &'static str {
            "CONTRADICT"
        }
        fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
            view.icount_order_into(out);
            out.reverse();
        }
        fn quiescence_safe(&self) -> bool {
            false
        }
        fn audit_order(&self, view: &PolicyView, order: &[usize]) -> Result<(), String> {
            for w in order.windows(2) {
                if view.threads[w[0]].icount > view.threads[w[1]].icount {
                    return Err("order is not ascending ICOUNT".to_string());
                }
            }
            Ok(())
        }
    }

    let mut campaign = Campaign::new(ExpParams {
        warmup: 1_000,
        measure: 3_000,
    });
    campaign.set_sanitize(true);
    let wl = workload(2, WorkloadClass::Mix);
    let err = campaign
        .try_run_custom(
            &SimConfig::baseline(),
            &wl.thread_specs(),
            "CONTRADICT",
            || Box::new(Contradict),
        )
        .expect_err("a self-contradicting policy must fail under --sanitize");
    match &err {
        ExpError::Invariant {
            violations, first, ..
        } => {
            assert!(*violations > 0);
            assert!(
                first.contains("INV013"),
                "unexpected first violation: {first}"
            );
        }
        other => panic!("expected ExpError::Invariant, got {other}"),
    }
    assert_eq!(err.kind(), "invariant");
    // The failure is recorded on the campaign like any other fault.
    assert_eq!(campaign.failures().len(), 1);

    // The same policy without the sanitizer runs to completion — the
    // whole point: this fault class is invisible to every other check.
    let blind = Campaign::new(ExpParams {
        warmup: 1_000,
        measure: 3_000,
    });
    blind
        .try_run_custom(
            &SimConfig::baseline(),
            &wl.thread_specs(),
            "CONTRADICT",
            || Box::new(Contradict),
        )
        .expect("unsanitized run completes, silently wrong");
}
