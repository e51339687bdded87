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

/// Run the CLI in a fresh working directory named after `tag`, which the
/// caller removes.
fn cli_in(tag: &str, args: &[&str]) -> (std::process::Output, std::path::PathBuf) {
    let cwd = std::env::temp_dir().join(format!("dwarn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_smt-experiments"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .unwrap();
    (out, cwd)
}

/// A flag the CLI does not know, a retired one included, a flag the
/// chosen command does not read, and a run `trace` cannot name are each a
/// usage error: the process exits 2 naming what it refuses, before it
/// simulates anything or creates a file or directory.
#[test]
fn unknown_retired_and_misplaced_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 12] = [
        (&["table2a", "--quick", "--resume=r"], "--resume"),
        (
            &["table2a", "--quick", "--checkpoint-interval", "100"],
            "--checkpoint-interval",
        ),
        (&["table2a", "--quick", "--santize"], "--santize"),
        (&["all", "--quick", "--resume", "r"], "--resume"),
        (
            &["table2a", "--quick", "--interval-window", "50"],
            "--interval-window",
        ),
        (
            &["cache", "stats", "--cache-dir", "d", "--stats-json", "sj"],
            "--stats-json",
        ),
        (&["trace", "--quick", "--sanitize"], "--sanitize"),
        (
            &["trace", "--fragments", "100", "--cache-dir", "c"],
            "--fragments",
        ),
        (&["report", "r", "--quick"], "--quick"),
        (&["trace", "--policy", "dwarn"], "--policy"),
        (&["trace", "DWARN", "FLUSH"], "FLUSH"),
        (&["trace", "DWARN", "@mix4"], "@mix4"),
    ];
    for (i, (args, refused)) in cases.into_iter().enumerate() {
        let (out, cwd) = cli_in(&format!("flags-{i}"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(refused),
            "{args:?} must name {refused}: {stderr}"
        );
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

/// `trace` names its run as `compare` does, `[<POLICY>] [@WORKLOAD]
/// [@ARCH]`, and writes its two files under `--out` by that name.
#[test]
fn trace_names_a_run_as_compare_does() {
    let args = [
        "trace", "FLUSH", "@2-MEM", "@deep", "--quick", "--out", "traces",
    ];
    let (out, cwd) = cli_in("trace", &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for file in ["deep-2-mem-flush.trace.json", "deep-2-mem-flush.stats.json"] {
        let path = cwd.join("traces").join(file);
        assert!(path.is_file(), "{args:?} wrote no {file}: {stderr}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}
