//! Golden-digest determinism suite.
//!
//! The hot-loop optimizations in `smt-pipeline` and the persistent campaign
//! cache both promise *bit-identical* results: re-running a (workload,
//! policy) pair, or serving it from disk, must reproduce every counter
//! exactly. `SimResult::digest()` condenses a run to one order- and
//! content-exact value, so every promise here is one `assert_eq!`.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dwarn_core::PolicyKind;
use smt_experiments::{Arch, CacheFault, Campaign, CustomRun, ExpError, ExpParams, RunKey};
use smt_pipeline::{FetchPolicy, SimConfig};
use smt_workloads::{workload, WorkloadClass};

fn quick() -> ExpParams {
    ExpParams {
        warmup: 1_000,
        measure: 3_000,
    }
}

/// A fresh, empty temp directory for one test's cache, removed when the
/// guard drops, whether the test passed or failed.
struct TempDir(PathBuf);

impl Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // The error is ignored: `drop` also runs while a failed test
        // unwinds, where a panic would abort.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("dwarn-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

/// A small cross-section of the grid: each thread-count regime and
/// workload class, against the policies whose interplay the paper is about.
fn grid() -> Vec<RunKey> {
    let mut keys = Vec::new();
    for (threads, class) in [
        (2, WorkloadClass::Ilp),
        (4, WorkloadClass::Mix),
        (8, WorkloadClass::Mem),
    ] {
        let wl = workload(threads, class);
        for policy in [PolicyKind::Icount, PolicyKind::Flush, PolicyKind::DWarn] {
            keys.push(RunKey::workload(Arch::Baseline, &wl, policy));
        }
    }
    keys.push(RunKey::solo(Arch::Baseline, "mcf"));
    keys
}

#[test]
fn independent_campaigns_agree_digest_for_digest() {
    // Each pair simulated twice, in fresh campaigns: every counter of
    // every run must come out bit-identical.
    let a = Campaign::new(quick());
    let b = Campaign::new(quick());
    for key in grid() {
        let da = a.result(&key).digest();
        let db = b.result(&key).digest();
        assert_eq!(da, db, "nondeterministic result for {key:?}");
    }
}

/// A DG(n) policy builder that counts its calls in `builds`.
fn counted_dg(builds: &Arc<AtomicUsize>, n: u32) -> impl Fn() -> Box<dyn FetchPolicy> + Sync {
    let builds = Arc::clone(builds);
    move || {
        builds.fetch_add(1, Ordering::Relaxed);
        Box::new(dwarn_core::DataGating::with_threshold(n))
    }
}

#[test]
fn prefetch_and_on_demand_agree() {
    // The parallel batch path and the on-demand path must be the same
    // simulation, for grid keys and custom runs alike.
    let keys = grid();
    let batch = Campaign::new(quick());
    batch.prefetch(&keys);
    let serial = Campaign::new(quick());
    for key in &keys {
        assert_eq!(batch.result(key).digest(), serial.result(key).digest());
    }

    // Two custom requests that share a description, one the campaign
    // already holds, and one that describes a grid run of the batch above.
    let (shared, held) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let mem4 = workload(4, WorkloadClass::Mem);
    let mix2 = workload(2, WorkloadClass::Mix);
    let mem8 = workload(8, WorkloadClass::Mem);
    let cfg = SimConfig::baseline();
    let runs = [
        CustomRun::new(cfg.clone(), &mem4, "DG(n=2)", counted_dg(&shared, 2)),
        CustomRun::new(cfg.clone(), &mem4, "DG(n=2)", counted_dg(&shared, 2)),
        CustomRun::new(cfg.clone(), &mix2, "DG(n=4)", counted_dg(&held, 4)),
        CustomRun::new(cfg, &mem8, "ICOUNT", || -> Box<dyn FetchPolicy> {
            panic!("the grid's 8-MEM ICOUNT run must answer this request")
        }),
    ];
    let run =
        |c: &Campaign, r: &CustomRun| c.run_custom(&r.cfg, &r.specs, &r.policy_desc, &r.build);
    run(&batch, &runs[2]);
    assert_eq!(held.load(Ordering::Relaxed), 1);
    let grid_counters = batch.telemetry_counters();
    batch.prefetch(&runs);
    assert_eq!(
        shared.load(Ordering::Relaxed),
        1,
        "two requests sharing a description must build one policy"
    );
    assert_eq!(
        held.load(Ordering::Relaxed),
        1,
        "a memoized request must not build its policy again"
    );
    assert_eq!(
        batch.telemetry_counters(),
        grid_counters,
        "custom runs stay out of the grid's telemetry"
    );
    // After the batch, every request reads the memo: no further builds.
    let batched: Vec<u64> = runs.iter().map(|r| run(&batch, r).digest()).collect();
    assert_eq!(shared.load(Ordering::Relaxed), 1);
    assert_eq!(held.load(Ordering::Relaxed), 1);
    assert!(batch.failures().is_empty(), "{:?}", batch.failures());
    for (r, digest) in runs[..3].iter().zip(&batched) {
        assert_eq!(*digest, run(&serial, r).digest(), "{}", r.policy_desc);
    }
    let grid_icount = RunKey::workload(Arch::Baseline, &mem8, PolicyKind::Icount);
    assert_eq!(batched[3], serial.result(&grid_icount).digest());
}

#[test]
fn disk_cache_round_trip_is_bit_identical() {
    let dir = temp_dir("roundtrip");
    let keys = grid();

    // Cold process: simulate and persist.
    let cold = Campaign::with_disk_cache(quick(), &dir).unwrap();
    let fresh: Vec<u64> = keys.iter().map(|k| cold.result(k).digest()).collect();

    // Warm process: every result must load back digest-exact.
    let warm = Campaign::with_disk_cache(quick(), &dir).unwrap();
    for (key, &expect) in keys.iter().zip(&fresh) {
        assert_eq!(
            warm.result(key).digest(),
            expect,
            "cache round-trip altered {key:?}"
        );
    }
    let stats = warm.disk().unwrap().stats().unwrap();
    assert_eq!(stats.entries, keys.len());
    assert_eq!(warm.disk().unwrap().verify().unwrap().corrupt.len(), 0);
}

#[test]
fn custom_runs_round_trip_through_the_cache() {
    let dir = temp_dir("custom");
    let wl = workload(4, WorkloadClass::Mem);
    let cfg = smt_pipeline::SimConfig::baseline();

    let cold = Campaign::with_disk_cache(quick(), &dir).unwrap();
    let a = cold.run_custom(&cfg, &wl.thread_specs(), "DG(n=2)", || {
        Box::new(dwarn_core::DataGating::with_threshold(2))
    });

    let warm = Campaign::with_disk_cache(quick(), &dir).unwrap();
    // The policy closure must not even be needed on a warm hit; a panic
    // here would mean the cache missed.
    let b = warm.run_custom(&cfg, &wl.thread_specs(), "DG(n=2)", || {
        panic!("warm hit must not rebuild the policy")
    });
    assert_eq!(a.digest(), b.digest());

    // A warm batch of custom runs builds no policy either.
    let builds = Arc::new(AtomicUsize::new(0));
    let runs: Vec<CustomRun> = [2u32, 4]
        .into_iter()
        .map(|n| {
            CustomRun::new(
                cfg.clone(),
                &wl,
                &format!("DG(n={n})"),
                counted_dg(&builds, n),
            )
        })
        .collect();
    let cold = Campaign::with_disk_cache(quick(), &dir).unwrap();
    cold.prefetch(&runs);
    assert_eq!(
        builds.load(Ordering::Relaxed),
        1,
        "only DG(n=4) was missing"
    );
    let warm = Campaign::with_disk_cache(quick(), &dir).unwrap();
    warm.prefetch(&runs);
    assert_eq!(
        builds.load(Ordering::Relaxed),
        1,
        "a warm custom batch must not build a policy"
    );
    for r in &runs {
        let want = cold.run_custom(&r.cfg, &r.specs, &r.policy_desc, &r.build);
        let got = warm.run_custom(&r.cfg, &r.specs, &r.policy_desc, &r.build);
        assert_eq!(want.digest(), got.digest(), "{}", r.policy_desc);
    }
    assert_eq!(builds.load(Ordering::Relaxed), 1);
}

#[test]
fn corrupt_cache_entries_are_resimulated_not_trusted() {
    let dir = temp_dir("corrupt");
    let keys = grid();

    let cold = Campaign::with_disk_cache(quick(), &dir).unwrap();
    let fresh: Vec<u64> = keys.iter().map(|k| cold.result(k).digest()).collect();

    // Vandalize every stored entry three ways: truncate a third of them,
    // fill a third with garbage, and flip one bit in the rest.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&*dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), keys.len());
    let mut expected = Vec::new();
    for (i, path) in entries.iter().enumerate() {
        let text = std::fs::read_to_string(path).unwrap();
        let fault = match i % 3 {
            0 => {
                std::fs::write(path, &text[..text.len() / 3]).unwrap();
                CacheFault::BadChecksum
            }
            1 => {
                std::fs::write(path, "{\"not\": \"a cache entry\"}\n").unwrap();
                CacheFault::BadMagic
            }
            _ => {
                // The last digit of the `cycles` count changes, so the
                // entry still parses: only the checksum can reject it.
                let line = text.find("\ncycles ").unwrap() + 1;
                let last_digit = line + text[line..].find('\n').unwrap() - 1;
                let mut bytes = text.into_bytes();
                bytes[last_digit] ^= 1;
                std::fs::write(path, bytes).unwrap();
                CacheFault::BadChecksum
            }
        };
        let path = path.display().to_string();
        expected.push(ExpError::Cache { path, fault });
    }
    let verify = cold.disk().unwrap().verify().unwrap();
    assert_eq!(verify.ok, 0, "vandalism must be detectable");
    assert_eq!(verify.corrupt.len(), keys.len());

    // A new campaign over the vandalized cache must fall back to
    // simulation everywhere and still produce identical results.
    let warm = Campaign::with_disk_cache(quick(), &dir).unwrap();
    for (key, &expect) in keys.iter().zip(&fresh) {
        assert_eq!(
            warm.result(key).digest(),
            expect,
            "corrupt entry changed the result for {key:?}"
        );
    }
    // Each vandalized entry was recorded once, with its exact fault.
    let mut recorded: Vec<ExpError> = warm.failures().into_iter().map(|f| f.error).collect();
    recorded.sort_by_key(ExpError::to_string);
    expected.sort_by_key(ExpError::to_string);
    assert_eq!(recorded, expected);
    // The fallback runs also repaired the cache in passing.
    assert_eq!(warm.disk().unwrap().verify().unwrap().ok, keys.len());
}

#[test]
fn quick_and_standard_params_do_not_alias_in_the_cache() {
    let dir = temp_dir("params");
    let wl = workload(2, WorkloadClass::Mix);
    let key = RunKey::workload(Arch::Baseline, &wl, PolicyKind::Icount);

    let a = Campaign::with_disk_cache(quick(), &dir).unwrap();
    let ra = a.result(&key);
    let longer = Campaign::with_disk_cache(
        ExpParams {
            warmup: 1_000,
            measure: 6_000,
        },
        &dir,
    )
    .unwrap();
    let rb = longer.result(&key);
    assert_ne!(
        ra.cycles, rb.cycles,
        "different windows must not share a cache entry"
    );
    assert_eq!(a.disk().unwrap().stats().unwrap().entries, 2);
}

#[test]
fn sanitized_campaign_is_bit_identical_and_clean() {
    // --sanitize attaches the cycle-level µarch sanitizer to every run.
    // It is observation-only: every digest must match the unsanitized
    // campaign's exactly, and a clean machine must produce zero
    // violations (a violation would fail the run as ExpError::Invariant
    // and show up as a recorded failure).
    let plain = Campaign::new(quick());
    let mut checked = Campaign::new(quick());
    checked.set_sanitize(true);
    for key in grid() {
        assert_eq!(
            plain.result(&key).digest(),
            checked.result(&key).digest(),
            "sanitizer changed the result for {key:?}"
        );
    }
    assert!(
        checked.failures().is_empty(),
        "sanitized campaign recorded failures: {:?}",
        checked.failures()
    );
}

// --- Quiescence-skip engine -----------------------------------------------

/// One (policy, workload) pair simulated twice — skipping engine on, then
/// the `--no-skip` naive loop — returning both digests and the skipping
/// run's bulk-advanced cycle count.
fn skip_pair(policy: PolicyKind, threads: usize, class: WorkloadClass) -> (u64, u64, u64) {
    let specs = workload(threads, class).thread_specs();
    let cfg = smt_pipeline::SimConfig::baseline();
    let mut fast = smt_pipeline::Simulator::new(cfg.clone(), policy.build(), &specs);
    let fast_result = fast.run(1_000, 3_000);
    let mut naive = smt_pipeline::Simulator::new(cfg, policy.build(), &specs);
    naive.set_skip_enabled(false);
    let naive_result = naive.run(1_000, 3_000);
    assert_eq!(naive.skipped_cycles(), 0, "escape hatch must not skip");
    (
        fast_result.digest(),
        naive_result.digest(),
        fast.skipped_cycles(),
    )
}

#[test]
fn quiescence_skip_is_bit_identical_across_the_paper_grid() {
    // Every paper policy against each workload-class regime: the skipping
    // engine must reproduce the naive loop's every counter exactly.
    let mut total_skipped = 0;
    for (threads, class) in [
        (2, WorkloadClass::Ilp),
        (4, WorkloadClass::Mix),
        (8, WorkloadClass::Mem),
    ] {
        for policy in PolicyKind::paper_set() {
            let (fast, naive, skipped) = skip_pair(policy, threads, class);
            assert_eq!(
                fast, naive,
                "skip changed the result for {policy:?} on {threads}-{class:?}"
            );
            total_skipped += skipped;
        }
    }
    assert!(
        total_skipped > 0,
        "the quiescence engine never engaged; the grid proves nothing"
    );
}

#[test]
fn campaign_skip_toggle_is_bit_identical() {
    // `Campaign::set_skip(false)` is the CLI's `--no-skip` path; skip and
    // no-skip campaigns share cache keys precisely because of this.
    let fast = Campaign::new(quick());
    let mut naive = Campaign::new(quick());
    naive.set_skip(false);
    for key in grid() {
        assert_eq!(
            fast.result(&key).digest(),
            naive.result(&key).digest(),
            "--no-skip changed the result for {key:?}"
        );
    }
}

#[test]
fn sanitized_skipped_run_is_clean_and_identical() {
    // The cycle-level sanitizer must tolerate bulk clock advances: its
    // past-due scans see the jump to the frontier, and a clean machine
    // stays clean whether cycles are stepped or skipped.
    use smt_pipeline::{RecordingSanitizer, Simulator};
    let specs = workload(4, WorkloadClass::Mem).thread_specs();
    let cfg = smt_pipeline::SimConfig::baseline();

    let mut fast = Simulator::try_sanitized(
        cfg.clone(),
        PolicyKind::DWarn.build(),
        &specs,
        RecordingSanitizer::new(),
    )
    .unwrap();
    let fast_result = fast.run(1_000, 3_000);
    assert!(
        fast.skipped_cycles() > 0,
        "skip must engage under the sanitizer for this test to mean anything"
    );
    assert!(
        fast.sanitizer().is_clean(),
        "sanitizer flagged a skipped run: {:?}",
        fast.sanitizer().first()
    );

    let mut naive = Simulator::try_sanitized(
        cfg,
        PolicyKind::DWarn.build(),
        &specs,
        RecordingSanitizer::new(),
    )
    .unwrap();
    naive.set_skip_enabled(false);
    let naive_result = naive.run(1_000, 3_000);
    assert!(naive.sanitizer().is_clean());
    assert_eq!(fast_result.digest(), naive_result.digest());
}

// --- Switching meta-policies ----------------------------------------------

/// The candidate kinds a [`dwarn_core::MetaPolicy`] switches over, paired
/// with the selector kinds, for the switching-correctness grid below.
fn meta_kinds() -> [PolicyKind; 3] {
    PolicyKind::meta_set()
}

#[test]
fn locked_meta_is_bit_identical_to_its_static_candidate() {
    // A MetaPolicy pinned to one candidate adds commit-event accounting
    // and a skip horizon, but neither may perturb the simulation: the
    // composite must reproduce the bare candidate's every counter.
    use smt_pipeline::Simulator;
    let specs = workload(4, WorkloadClass::Mix).thread_specs();
    let cfg = smt_pipeline::SimConfig::baseline();
    for kind in [
        PolicyKind::DWarn,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Icount,
    ] {
        let mut bare = Simulator::new(cfg.clone(), kind.build(), &specs);
        let bare_result = bare.run(1_000, 3_000);
        let mut locked = Simulator::new(
            cfg.clone(),
            Box::new(dwarn_core::MetaPolicy::locked(kind.build())),
            &specs,
        );
        let locked_result = locked.run(1_000, 3_000);
        assert_eq!(
            bare_result.digest(),
            locked_result.digest(),
            "locked meta diverged from static {kind:?}"
        );
    }
}

#[test]
fn meta_skip_is_bit_identical_across_selectors_and_classes() {
    // The switching composite under the quiescence engine: the skip
    // horizon forces every window boundary onto a naive cycle, so skipped
    // and --no-skip runs must agree bit-for-bit even while switching.
    let mut total_skipped = 0;
    for (threads, class) in [
        (2, WorkloadClass::Ilp),
        (4, WorkloadClass::Mix),
        (8, WorkloadClass::Mem),
    ] {
        for policy in meta_kinds() {
            let (fast, naive, skipped) = skip_pair(policy, threads, class);
            assert_eq!(
                fast, naive,
                "skip changed the result for {policy:?} on {threads}-{class:?}"
            );
            total_skipped += skipped;
        }
    }
    assert!(
        total_skipped > 0,
        "the quiescence engine never engaged under the meta-policies"
    );
}

#[test]
fn sanitized_meta_runs_are_clean_and_actually_switch() {
    // Every selector on every workload class runs clean under the
    // cycle-level sanitizer, and the grid as a whole must exercise real
    // switching (a grid that never switches proves nothing about it).
    use smt_pipeline::{RecordingSanitizer, Simulator};
    let cfg = smt_pipeline::SimConfig::baseline();
    let mut total_switches = 0usize;
    for (threads, class) in [
        (2, WorkloadClass::Ilp),
        (4, WorkloadClass::Mix),
        (8, WorkloadClass::Mem),
    ] {
        let specs = workload(threads, class).thread_specs();
        for policy in meta_kinds() {
            let mut sim = Simulator::try_sanitized(
                cfg.clone(),
                policy.build(),
                &specs,
                RecordingSanitizer::new(),
            )
            .unwrap();
            sim.run(1_000, 7_000);
            total_switches += sim.policy().switch_log().len();
            assert!(
                sim.sanitizer().is_clean(),
                "sanitizer flagged {policy:?} on {threads}-{class:?}: {:?}",
                sim.sanitizer().first()
            );
        }
    }
    assert!(
        total_switches > 0,
        "no selector ever switched; the sanitized grid proves nothing"
    );
}

#[test]
fn forced_mid_interval_switch_trips_inv013() {
    // Mutation test for the audit itself: force a switch onto a cycle
    // that is not a window boundary and the sanitizer must report INV013
    // (policy-gating violation). Skip is disabled so the forced cycle is
    // actually stepped.
    use smt_pipeline::{InvariantCode, RecordingSanitizer, Simulator};
    let specs = workload(4, WorkloadClass::Mix).thread_specs();
    let policy =
        dwarn_core::MetaPolicy::new(dwarn_core::SelectorKind::Epsilon).force_switch_at(1_500);
    let mut sim = Simulator::try_sanitized(
        smt_pipeline::SimConfig::baseline(),
        Box::new(policy),
        &specs,
        RecordingSanitizer::new(),
    )
    .unwrap();
    sim.set_skip_enabled(false);
    sim.run(1_000, 3_000);
    let rec = sim.into_sanitizer();
    assert!(
        rec.saw(InvariantCode::PolicyGating),
        "illegal mid-interval switch must trigger INV013; got:\n{}",
        rec.render_report()
    );
}

#[test]
fn meta_campaign_cache_round_trip_is_bit_identical() {
    // Meta runs go through the same disk cache as the statics, keyed by
    // the full selector configuration (PolicyKind::cache_desc).
    let dir = temp_dir("meta-roundtrip");
    let wl = workload(4, WorkloadClass::Mem);
    let keys: Vec<RunKey> = meta_kinds()
        .iter()
        .map(|&p| RunKey::workload(Arch::Baseline, &wl, p))
        .collect();
    let cold = Campaign::with_disk_cache(quick(), &dir).unwrap();
    let fresh: Vec<u64> = keys.iter().map(|k| cold.result(k).digest()).collect();
    let warm = Campaign::with_disk_cache(quick(), &dir).unwrap();
    for (key, &expect) in keys.iter().zip(&fresh) {
        assert_eq!(
            warm.result(key).digest(),
            expect,
            "cache round-trip altered {key:?}"
        );
    }
    assert_eq!(warm.disk().unwrap().stats().unwrap().entries, keys.len());
}

#[test]
fn sanitize_bypasses_disk_cache_loads_but_still_stores() {
    let dir = temp_dir("sanitize");
    let key = RunKey::solo(Arch::Baseline, "mcf");

    // A sanitized campaign still *stores* its (bit-identical) results...
    let mut cold = Campaign::with_disk_cache(quick(), &dir).unwrap();
    cold.set_sanitize(true);
    let d0 = cold.result(&key).digest();
    let warm = Campaign::with_disk_cache(quick(), &dir).unwrap();
    assert_eq!(warm.result(&key).digest(), d0, "sanitized store not served");

    // ...but never *loads*: vandalize every stored entry — an unsanitized
    // campaign would surface a cache fault; the sanitized one must not
    // even notice, because each run really executes under audit.
    for e in std::fs::read_dir(&*dir).unwrap() {
        let p = e.unwrap().path();
        if p.extension().and_then(|x| x.to_str()) == Some("dwc") {
            std::fs::write(&p, "vandalized\n").unwrap();
        }
    }
    let mut audited = Campaign::with_disk_cache(quick(), &dir).unwrap();
    audited.set_sanitize(true);
    assert_eq!(audited.result(&key).digest(), d0);
    assert!(
        audited.failures().is_empty(),
        "sanitized campaign consulted the (corrupt) cache: {:?}",
        audited.failures()
    );
}
