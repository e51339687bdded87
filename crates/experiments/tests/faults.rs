//! Campaign-level fault contracts. Each test injects one fault into a
//! real campaign, or into the real binary's command line, and pins its
//! exact response: the typed `ExpError` the campaign records and the
//! digest it still returns, or the CLI's exit status. DESIGN.md §9.4 maps
//! every fault to the test that pins it.

use std::process::Command;

use smt_experiments::{Arch, Campaign, ExpError, ExpParams, RunKey};
use smt_pipeline::{FetchPolicy, PolicyView, SimConfig};
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

/// A flag the CLI does not know, a retired one included, is a usage
/// error: the process exits 2 naming the flag, before it simulates
/// anything or creates a directory.
#[test]
fn retired_and_unknown_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 4] = [
        (&["table2a", "--quick", "--resume=r"], "--resume"),
        (
            &["table2a", "--quick", "--checkpoint-interval", "100"],
            "--checkpoint-interval",
        ),
        (&["table2a", "--quick", "--santize"], "--santize"),
        (&["all", "--quick", "--resume", "r"], "--resume"),
    ];
    for (i, (args, flag)) in cases.into_iter().enumerate() {
        let cwd = std::env::temp_dir().join(format!("dwarn-flags-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cwd);
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_smt-experiments"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let created: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(created.is_empty(), "{args:?} created {created:?}");
        std::fs::remove_dir_all(&cwd).unwrap();
    }
    // A bare `--` is a separator, not a flag: what the CLI rejects here is
    // the experiment after it.
    let out = Command::new(env!("CARGO_BIN_EXE_smt-experiments"))
        .args(["--", "no-such-experiment"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("unknown experiment: no-such-experiment"),
        "{stderr}"
    );
}
