//! Golden fragment-replay equivalence suite.
//!
//! The time-axis fragment-replay engine promises that a scout pass plus
//! concurrent per-fragment re-simulation stitches to the **bit-identical**
//! result a sequential run produces — result digest, interval series,
//! switch log, everything. The engine already proves scout/stitch
//! agreement internally; this suite independently pins the stitched
//! output against straight sequential runs across every policy × class ×
//! skip mode, and property-tests the underlying seam primitive
//! (snapshot-at-k, restore, run-to-end) at randomly drawn k — including
//! k landing mid-L2-miss and mid-warn-state.

use std::cell::Cell;

use dwarn_core::PolicyKind;
use smt_obs::{Enabled, IntervalConfig, IntervalProbe, IntervalSeries, Observer, Probe};
use smt_pipeline::{
    CheckpointOpts, FragmentOpts, MachineSnapshot, RecordingSanitizer, RunOutcome, SimConfig,
    SimError, Simulator, ThreadSpec, Watchdog,
};
use smt_trace::rng::Rng;
use smt_workloads::{workload, WorkloadClass};

const WARMUP: u64 = 400;
const MEASURE: u64 = 1_200;
/// Short enough that every run splits into several fragments.
const FRAGMENT: u64 = 300;
const JOBS: usize = 4;

fn classes() -> [WorkloadClass; 3] {
    [WorkloadClass::Ilp, WorkloadClass::Mix, WorkloadClass::Mem]
}

/// All nine policies: the paper's six plus the switching meta-policies.
fn policies() -> Vec<PolicyKind> {
    let mut all = PolicyKind::paper_set().to_vec();
    all.extend(PolicyKind::meta_set());
    all
}

/// Sequential reference: digest and full switch log.
fn straight(
    kind: PolicyKind,
    specs: &[ThreadSpec],
    skip: bool,
) -> (u64, Vec<smt_pipeline::PolicySwitch>) {
    let mut sim = Simulator::new(SimConfig::baseline(), kind.build(), specs);
    sim.set_skip_enabled(skip);
    let digest = sim.run(WARMUP, MEASURE).digest();
    (digest, sim.policy().switch_log().to_vec())
}

#[test]
fn fragmented_matches_sequential_for_every_policy_class_and_skip_mode() {
    for skip in [true, false] {
        for class in classes() {
            let specs = workload(2, class).thread_specs();
            for kind in policies() {
                let (want, want_switches) = straight(kind, &specs, skip);
                let mut scout = Simulator::new(SimConfig::baseline(), kind.build(), &specs);
                scout.set_skip_enabled(skip);
                let factory = || {
                    let mut sim = Simulator::try_new(SimConfig::baseline(), kind.build(), &specs)?;
                    sim.set_skip_enabled(skip);
                    Ok(sim)
                };
                let report = scout
                    .try_run_fragmented(
                        WARMUP,
                        MEASURE,
                        &Watchdog::default(),
                        &FragmentOpts {
                            jobs: JOBS,
                            fragment_cycles: FRAGMENT,
                        },
                        &factory,
                    )
                    .unwrap_or_else(|e| {
                        panic!("{kind:?}/{class:?} skip={skip}: fragmented run failed: {e}")
                    });
                assert!(
                    report.fragments.len() >= 3,
                    "{kind:?}/{class:?}: expected several fragments, got {}",
                    report.fragments.len()
                );
                assert_eq!(
                    report.result.digest(),
                    want,
                    "{kind:?}/{class:?} skip={skip}: stitched digest diverged from sequential"
                );
                assert_eq!(
                    report.switches, want_switches,
                    "{kind:?}/{class:?} skip={skip}: stitched switch log diverged"
                );
            }
        }
    }
}

#[test]
fn fragmented_interval_series_and_sanitizer_match_sequential() {
    const WINDOW: u64 = 256;
    for class in classes() {
        let specs = workload(2, class).thread_specs();
        let kind = PolicyKind::DWarn;

        // Sequential probed + sanitized reference.
        let mut seq = Simulator::try_with_specs(
            SimConfig::baseline(),
            kind.build(),
            &specs,
            IntervalProbe::new(IntervalConfig { window: WINDOW }),
            RecordingSanitizer::new(),
        )
        .expect("baseline config is valid");
        seq.set_skip_enabled(true);
        let want = seq
            .try_run(WARMUP, MEASURE, &Watchdog::default())
            .expect("sequential run completes")
            .digest();
        assert!(seq.sanitizer().is_clean());
        let want_series = seq.into_probe().into_series();

        // Fragmented: null scout, probed + sanitized replay workers.
        let mut scout = Simulator::new(SimConfig::baseline(), kind.build(), &specs);
        scout.set_skip_enabled(true);
        let factory = || {
            let mut sim = Simulator::try_with_specs(
                SimConfig::baseline(),
                kind.build(),
                &specs,
                IntervalProbe::new(IntervalConfig { window: WINDOW }),
                RecordingSanitizer::new(),
            )?;
            sim.set_skip_enabled(true);
            Ok(sim)
        };
        let report = scout
            .try_run_fragmented(
                WARMUP,
                MEASURE,
                &Watchdog::default(),
                &FragmentOpts {
                    jobs: JOBS,
                    fragment_cycles: FRAGMENT,
                },
                &factory,
            )
            .unwrap_or_else(|e| panic!("{class:?}: fragmented probed run failed: {e}"));
        assert_eq!(report.result.digest(), want, "{class:?}: result diverged");
        for frag in &report.fragments {
            assert!(
                frag.sanitizer.is_clean(),
                "{class:?}: fragment {} failed the audit:\n{}",
                frag.index,
                frag.sanitizer.render_report()
            );
        }
        let parts: Vec<IntervalSeries> = report
            .fragments
            .into_iter()
            .map(|f| f.probe.into_series())
            .collect();
        let stitched = IntervalSeries::stitch(parts.iter()).expect("series stitch");
        assert_eq!(
            stitched.digest(),
            want_series.digest(),
            "{class:?}: stitched interval series diverged from sequential"
        );
        // `skipped` is excluded from the digest (meta-telemetry), but the
        // stitched totals must still cover the same simulated time.
        assert_eq!(stitched.total().cycles, want_series.total().cycles);
    }
}

#[test]
fn fragment_opts_are_validated() {
    let specs = workload(2, WorkloadClass::Mix).thread_specs();
    let factory = || {
        Simulator::try_new(SimConfig::baseline(), PolicyKind::Icount.build(), &specs)
            .map_err(SimError::from)
    };
    for opts in [
        FragmentOpts {
            jobs: 0,
            fragment_cycles: FRAGMENT,
        },
        FragmentOpts {
            jobs: JOBS,
            fragment_cycles: 0,
        },
    ] {
        let mut scout = Simulator::new(SimConfig::baseline(), PolicyKind::Icount.build(), &specs);
        let err = scout
            .try_run_fragmented(WARMUP, MEASURE, &Watchdog::default(), &opts, &factory)
            .expect_err("invalid options must be rejected");
        assert!(
            matches!(err, SimError::Fragment { .. }),
            "expected a Fragment error, got: {err}"
        );
    }
}

/// Phase recorder: the cycles during which an L2 miss was outstanding and
/// the cycles during which a thread sat at a non-zero warn level, so the
/// property test can aim k at the awkward spots deliberately.
#[derive(Default)]
struct PhaseRecorder {
    /// Open L2 misses: `(load_id, begin_cycle)`.
    open_l2: Vec<(u64, u64)>,
    /// Closed L2-miss windows `(begin, end)`.
    l2_windows: Vec<(u64, u64)>,
    /// Per-thread currently-open warn window start.
    open_warn: Vec<Option<u64>>,
    /// Closed warn windows `(begin, end)`.
    warn_windows: Vec<(u64, u64)>,
}

impl Observer for PhaseRecorder {}

impl Probe for PhaseRecorder {
    fn on_l1_miss_begin(&mut self, cycle: u64, _t: usize, load_id: u64, _addr: u64, l2: bool) {
        if l2 {
            self.open_l2.push((load_id, cycle));
        }
    }
    fn on_l1_miss_end(&mut self, cycle: u64, _t: usize, load_id: u64) {
        if let Some(i) = self.open_l2.iter().position(|&(id, _)| id == load_id) {
            let (_, begin) = self.open_l2.swap_remove(i);
            self.l2_windows.push((begin, cycle));
        }
    }
    fn on_warn_change(&mut self, _on: Enabled, cycle: u64, thread: usize, _from: u8, to: u8) {
        if thread >= self.open_warn.len() {
            self.open_warn.resize(thread + 1, None);
        }
        match (self.open_warn[thread], to) {
            (None, t) if t > 0 => self.open_warn[thread] = Some(cycle),
            (Some(begin), 0) => {
                self.warn_windows.push((begin, cycle));
                self.open_warn[thread] = None;
            }
            _ => {}
        }
    }
}

/// Snapshot the machine at exactly cycle `k` (mid-run), using the chunk
/// alignment of the checkpoint engine: chunks never straddle the
/// warmup/measure boundary, so an interval of `k` (warmup phase) or
/// `k - WARMUP` (measure phase) puts a chunk boundary exactly at `k`.
fn snapshot_at(
    kind: PolicyKind,
    specs: &[ThreadSpec],
    skip: bool,
    k: u64,
) -> Option<MachineSnapshot> {
    assert!(k > 0 && k < WARMUP + MEASURE);
    let interval = if k <= WARMUP { k } else { k - WARMUP };
    let mut sim = Simulator::new(SimConfig::baseline(), kind.build(), specs);
    sim.set_skip_enabled(skip);
    let hit = Cell::new(false);
    let got: Cell<Option<MachineSnapshot>> = Cell::new(None);
    // The stop request is polled *before* the periodic emit at each chunk
    // boundary, so a flag set by the sink is only seen one chunk later.
    // Grab the emitted snapshot itself (through the wire format, which
    // also exercises the framing round-trip) and use the stop merely to
    // cut the rest of the run short.
    let mut sink = |s: &MachineSnapshot| {
        if s.cycle() == k {
            let snap = MachineSnapshot::from_bytes(&s.to_bytes())
                .expect("emitted snapshot survives the wire round-trip");
            got.set(Some(snap));
            hit.set(true);
        }
    };
    let stop = || hit.get();
    let mut opts = CheckpointOpts {
        interval,
        sink: &mut sink,
        stop: Some(&stop),
    };
    sim.try_run_checkpointed(WARMUP, MEASURE, &Watchdog::default(), &mut opts)
        .expect("capture run must not trip the watchdog");
    got.into_inner()
}

/// Restore `snap` into a fresh simulator and run the remainder.
fn resume_digest(
    kind: PolicyKind,
    specs: &[ThreadSpec],
    skip: bool,
    snap: &MachineSnapshot,
) -> u64 {
    let mut sim = Simulator::new(SimConfig::baseline(), kind.build(), specs);
    sim.set_skip_enabled(skip);
    let pending = sim.restore_run(snap).expect("snapshot restores");
    let mut sink = |_: &MachineSnapshot| {};
    let mut opts = CheckpointOpts {
        interval: 0,
        sink: &mut sink,
        stop: None,
    };
    match sim
        .resume_run(pending, &Watchdog::default(), &mut opts)
        .expect("resumed run completes")
    {
        RunOutcome::Completed(r) => r.digest(),
        RunOutcome::Interrupted(_) => unreachable!("no stop requested"),
    }
}

#[test]
fn restore_at_random_k_equals_straight_run_including_awkward_cycles() {
    // MEM workload + DWarn: plenty of L2 misses and warn transitions to
    // land inside. The recorder maps out when they happen.
    let specs = workload(2, WorkloadClass::Mem).thread_specs();
    let kind = PolicyKind::DWarn;
    let mut probed = Simulator::try_with_probe(
        SimConfig::baseline(),
        kind.build(),
        &specs,
        PhaseRecorder::default(),
    )
    .expect("baseline config is valid");
    let (want, _) = straight(kind, &specs, true);
    probed
        .try_run(WARMUP, MEASURE, &Watchdog::default())
        .expect("probed reference run completes");
    let phases = probed.into_probe();
    let mid = |w: &[(u64, u64)], pick: u64| -> Option<u64> {
        let fat: Vec<&(u64, u64)> = w
            .iter()
            .filter(|(b, e)| *e > b + 1 && b + 1 < WARMUP + MEASURE - 1)
            .collect();
        let (b, e) = *fat.get(pick as usize % fat.len().max(1))?;
        Some(((b + e) / 2).clamp(1, WARMUP + MEASURE - 1))
    };

    let mut rng = Rng::new(0x5eed_f00d);
    let mut ks: Vec<u64> = Vec::new();
    // Eight uniformly random k across the whole run...
    for _ in 0..8 {
        ks.push(1 + rng.next_u64() % (WARMUP + MEASURE - 2));
    }
    // ...plus randomly chosen k mid-L2-miss and mid-warn-state.
    let mut awkward = 0;
    for _ in 0..3 {
        if let Some(k) = mid(&phases.l2_windows, rng.next_u64()) {
            ks.push(k);
            awkward += 1;
        }
        if let Some(k) = mid(&phases.warn_windows, rng.next_u64()) {
            ks.push(k);
            awkward += 1;
        }
    }
    assert!(
        awkward >= 2,
        "MEM/DWarn run produced too few mid-L2/mid-warn windows to aim at \
         (l2={}, warn={})",
        phases.l2_windows.len(),
        phases.warn_windows.len()
    );

    let (want_noskip, _) = straight(kind, &specs, false);
    assert_eq!(want, want_noskip, "skip modes disagree before the test");
    for &k in &ks {
        for skip in [true, false] {
            let Some(snap) = snapshot_at(kind, &specs, skip, k) else {
                continue; // k collided with completion; nothing to restore
            };
            // Cross-mode restores too: capture under `skip`, resume both.
            for resume_skip in [true, false] {
                assert_eq!(
                    resume_digest(kind, &specs, resume_skip, &snap),
                    want,
                    "k={k} capture-skip={skip} resume-skip={resume_skip}: diverged"
                );
            }
        }
    }
}

#[test]
fn campaign_fragmented_results_match_sequential_campaign() {
    use smt_experiments::runner::{Campaign, ExpParams, RunKey};
    use smt_experiments::Arch;

    // A lone run, or a series batch of one, has the whole worker budget
    // as its share: three workers replay it, two run it sequentially.
    // Either way its result and its interval series must match a
    // sequential campaign's, and the replay count says which path ran,
    // whatever the host's core count.
    let params = ExpParams::quick();
    let wl = workload(2, WorkloadClass::Mem);
    let key = RunKey::workload(Arch::Baseline, &wl, PolicyKind::DWarn);
    let digests = |c: &Campaign| {
        let series = c.series(std::slice::from_ref(&key));
        (c.result(&key).digest(), series[0].digest())
    };

    let want = digests(&Campaign::with_jobs(params, 1));
    for (jobs, replayed) in [(3, 2), (2, 0)] {
        let mut frag = Campaign::with_jobs(params, jobs);
        frag.set_fragments(2_000);
        assert_eq!(
            digests(&frag),
            want,
            "{jobs} workers: fragmented campaign diverged from sequential"
        );
        assert_eq!(frag.replayed_runs(), replayed, "{jobs} workers");
    }
}

/// Every file under `dir` whose name ends in one of `suffixes`, keyed by
/// name with any `NNN-` record-order prefix dropped (stats records are
/// numbered in completion order, which varies with the worker count).
fn files_by_name(
    dir: &std::path::Path,
    suffixes: &[&str],
) -> std::collections::BTreeMap<String, String> {
    let mut out = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output directory exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().to_string();
        if !suffixes.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        let text = std::fs::read_to_string(dir.join(&name)).expect("readable output file");
        let key = match name.split_once('-') {
            Some((n, rest)) if n.chars().all(|c| c.is_ascii_digit()) => rest.to_string(),
            _ => name,
        };
        out.insert(key, text);
    }
    out
}

/// `compare DWARN @2-MEM --quick --sanitize` with interval telemetry and
/// stats records, run by the real binary at `jobs` workers: its stdout,
/// stderr, interval files and stats records.
struct CliOutput {
    stdout: String,
    stderr: String,
    series: std::collections::BTreeMap<String, String>,
    stats: std::collections::BTreeMap<String, String>,
}

fn cli_compare(tag: &str, jobs: &str, fragments: bool) -> CliOutput {
    let dir = std::env::temp_dir().join(format!("dwarn-frag-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (iv, st) = (dir.join("intervals"), dir.join("stats"));
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_smt-experiments"));
    cmd.args(["compare", "DWARN", "@2-MEM", "--quick"]);
    if fragments {
        cmd.args(["--fragments", "2000"]);
    }
    cmd.args(["--sanitize", "--intervals"])
        .arg(&iv)
        .arg("--stats-json")
        .arg(&st)
        .env("SMT_JOBS", jobs);
    let out = cmd.output().expect("run smt-experiments");
    assert!(out.status.success(), "{tag} run failed: {out:?}");
    let output = CliOutput {
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
        series: files_by_name(&iv, &[".intervals.jsonl", ".counters.trace.json"]),
        stats: files_by_name(&st, &[".json"]),
    };
    let _ = std::fs::remove_dir_all(&dir);
    output
}

/// The value of a stats record's `"fragments"` field.
fn fragments_field(record: &str) -> &str {
    record
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"fragments\":"))
        .map(|v| v.trim().trim_end_matches(','))
        .expect("stats record has a fragments field")
}

/// The stderr line a `--fragments` campaign prints, once, when a run
/// cannot replay.
const NO_REPLAY: &str = "--fragments: replay cannot engage at this width";

#[test]
fn cli_fragmented_compare_replays_and_matches_sequential_output() {
    // `compare` runs a three-run batch. Nine workers leave three cores per
    // run, so fragment replay must engage whatever the host's core count.
    // Six workers leave two cores per run and two leave one, so those runs
    // simulate sequentially, and the CLI says so once on stderr.
    let seq = cli_compare("seq", "1", false);
    assert!(!seq.series.is_empty(), "no interval files written");
    assert!(!seq.stats.is_empty(), "no stats records written");
    let without_fragments = |record: &str| -> Vec<String> {
        record
            .lines()
            .filter(|l| {
                let l = l.trim();
                !l.starts_with("\"fragments\":") && !l.starts_with("\"fragment_cycles\":")
            })
            .map(str::to_string)
            .collect()
    };
    // (workers, replays, stderr notices)
    for (jobs, replays, notices) in [("9", true, 0), ("6", false, 1), ("2", false, 1)] {
        let run = cli_compare(&format!("frag{jobs}"), jobs, true);
        let tag = format!("SMT_JOBS={jobs}");
        assert_eq!(run.stdout, seq.stdout, "{tag}: stdout differs");
        assert_eq!(
            run.series.keys().collect::<Vec<_>>(),
            seq.series.keys().collect::<Vec<_>>()
        );
        for (name, body) in &seq.series {
            assert!(run.series[name] == *body, "{tag}: {name} differs");
        }
        assert_eq!(
            run.stats.keys().collect::<Vec<_>>(),
            seq.stats.keys().collect::<Vec<_>>()
        );
        for (name, want) in &seq.stats {
            let got = &run.stats[name];
            assert_eq!(
                fragments_field(got) != "null",
                replays,
                "{tag}: {name} reads \"fragments\": {}",
                fragments_field(got)
            );
            assert_eq!(
                fragments_field(want),
                "null",
                "{name}: sequential run replayed"
            );
            assert_eq!(
                without_fragments(got),
                without_fragments(want),
                "{tag}: {name}: stats differ"
            );
        }
        let notice = format!("{NO_REPLAY}: {jobs} worker(s)");
        let found = run.stderr.lines().filter(|l| l.starts_with(&notice));
        assert_eq!(found.count(), notices, "{tag}: {}", run.stderr);
    }
}
