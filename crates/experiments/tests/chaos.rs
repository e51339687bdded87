//! Property-style acceptance tests for the chaos harness.
//!
//! The robustness contract: a chaos campaign with >= 32 deterministic
//! faults across the cache, config, policy, input, and resume checkpoint
//! surfaces must complete with partial results, every injected fault must
//! resolve to a typed error artifact or an absorbed (still bit-identical)
//! result, no fault may hang or escape as a panic, and every non-faulted
//! golden run must reproduce its digest exactly.

use smt_experiments::chaos::{self, ChaosOpts, Outcome};

fn quick(seed: u64, faults: usize) -> ChaosOpts {
    let mut o = ChaosOpts::new(seed, faults);
    o.quick = true;
    o
}

#[test]
fn thirty_two_faults_all_resolve_typed_or_recovered() {
    let report = chaos::run(&quick(1, 32)).expect("harness-level failure");
    assert_eq!(report.faults.len(), 32);

    // Zero violations: no escaped panic, no hang, no silent corruption.
    for f in &report.faults {
        assert!(
            !matches!(f.outcome, Outcome::Violation { .. }),
            "fault #{} ({}) violated the robustness contract: {:?}",
            f.index,
            f.fault,
            f.outcome
        );
    }

    // The plan must actually span every mandated surface.
    for surface in ["cache", "config", "policy", "input", "checkpoint"] {
        assert!(
            report.faults.iter().any(|f| f.surface == surface),
            "no fault hit the {surface} surface"
        );
    }

    // Most faults corrupt something detectable, so typed errors dominate;
    // at least one of each resolution class should appear at this width.
    let typed = report
        .faults
        .iter()
        .filter(|f| matches!(f.outcome, Outcome::TypedError { .. }))
        .count();
    assert!(typed > 0, "no fault surfaced as a typed error");

    // Final golden verification: whatever the faults did to the cache,
    // every key reproduced its pre-chaos digest bit-for-bit.
    assert!(report.goldens_ok, "golden digests diverged after chaos");
    assert!(report.golden_runs >= 4);
}

#[test]
fn chaos_is_deterministic_per_seed() {
    let a = chaos::run(&quick(2, 12)).expect("harness-level failure");
    let b = chaos::run(&quick(2, 12)).expect("harness-level failure");
    assert_eq!(a.render(), b.render(), "same seed must replay identically");

    // The first pass cycles through every kind, so compare full reports
    // (corruption positions and payloads are seed-dependent), not just
    // the kind sequence.
    let c = chaos::run(&quick(3, 12)).expect("harness-level failure");
    assert_ne!(a.render(), c.render(), "different seeds must diverge");
    assert!(c.goldens_ok);
}

/// ISSUE 4 extension: a fault class the typed-error/golden checks above
/// cannot see — a policy whose published fetch order contradicts its own
/// invariants — is caught by the cycle-level sanitizer and resolves to a
/// typed `ExpError::Invariant`, not a panic or a silently wrong number.
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
