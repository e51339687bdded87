//! Fragment-replay speedup baseline for the time-axis parallel engine:
//! emits `BENCH_PR10.json`.
//!
//! The gated number compares one sequential probed + sanitized MEM-class
//! run against the same run executed as a Null/Null scout pass plus
//! concurrent per-fragment re-simulation (`Simulator::try_run_fragmented`)
//! at `SMT_JOBS` workers (default 4, the CI shape). Both sides produce the
//! run's full observability payload — interval series and the cycle-level
//! audit — and the stitched result must be digest-identical to the
//! sequential one; the JSON carries the equality flag so CI gates
//! correctness and speed together. Also reported: snapshot count and
//! bytes for the scout cadence, and the interval-series stitch time.
//!
//! ```text
//! SMT_JOBS=4 cargo bench -p smt-bench --bench pr10
//! ```
//!
//! The speedup gate (>= 1.4x) assumes >= `SMT_JOBS` hardware threads;
//! `available_cores` is recorded so a starved runner is diagnosable from
//! the artifact alone.

#![expect(
    clippy::disallowed_methods,
    reason = "bench targets time themselves with the wall clock; they never feed simulated state"
)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use smt_bench::black_box;
use smt_experiments::runner::parse_jobs;
use smt_obs::{IntervalConfig, IntervalProbe, IntervalSeries, Json};
use smt_pipeline::{
    FragmentOpts, RecordingSanitizer, SimConfig, SimError, Simulator, ThreadSpec, Watchdog,
};
use smt_workloads::{workload, WorkloadClass};

/// Standard (non-quick) campaign windows: the gate models a real single
/// run, not a smoke run.
const WARMUP: u64 = 20_000;
const MEASURE: u64 = 60_000;

/// Scout snapshot cadence — 8 fragments per 80k-cycle run, matching the
/// default `--fragments` campaign cadence.
const FRAGMENT_CYCLES: u64 = 10_000;

/// Interval-probe window for both sides.
const WINDOW: u64 = 4_096;

/// Timed repetitions; trial 0 is an untimed warm-up. The best per-trial
/// speedup is kept (noise rejection: both sides of every ratio run under
/// the same CPU-frequency drift).
const TRIALS: usize = 5;

fn specs() -> Vec<ThreadSpec> {
    workload(2, WorkloadClass::Mem).thread_specs()
}

fn policy() -> Box<dyn smt_pipeline::FetchPolicy> {
    dwarn_core::PolicyKind::DWarn.build()
}

/// One sequential probed + sanitized run: `(wall seconds, digest, series)`.
fn sequential(specs: &[ThreadSpec]) -> (f64, u64, IntervalSeries) {
    let mut sim = Simulator::try_with_specs(
        SimConfig::baseline(),
        policy(),
        specs,
        IntervalProbe::new(IntervalConfig { window: WINDOW }),
        RecordingSanitizer::new(),
    )
    .expect("baseline config");
    let t0 = Instant::now();
    let result = sim
        .try_run(WARMUP, MEASURE, &Watchdog::default())
        .expect("sequential run");
    let wall = t0.elapsed().as_secs_f64();
    assert!(sim.sanitizer().is_clean(), "sequential audit failed");
    (wall, result.digest(), sim.into_probe().into_series())
}

struct FragRun {
    wall: f64,
    digest: u64,
    series: IntervalSeries,
    fragments: u64,
    snapshot_bytes: u64,
    stitch_sec: f64,
}

/// One fragmented run end to end: Null/Null scout, `jobs`-wide probed +
/// sanitized replay, interval-series stitch.
fn fragmented(specs: &[ThreadSpec], jobs: usize) -> FragRun {
    let mut scout = Simulator::new(SimConfig::baseline(), policy(), specs);
    let factory = || {
        Simulator::try_with_specs(
            SimConfig::baseline(),
            policy(),
            specs,
            IntervalProbe::new(IntervalConfig { window: WINDOW }),
            RecordingSanitizer::new(),
        )
        .map_err(SimError::from)
    };
    let t0 = Instant::now();
    let report = scout
        .try_run_fragmented(
            WARMUP,
            MEASURE,
            &Watchdog::default(),
            &FragmentOpts {
                jobs,
                fragment_cycles: FRAGMENT_CYCLES,
            },
            &factory,
        )
        .expect("fragmented run");
    for frag in &report.fragments {
        assert!(
            frag.sanitizer.is_clean(),
            "fragment {} audit failed",
            frag.index
        );
    }
    let fragments = report.fragments.len() as u64;
    let snapshot_bytes = report.snapshot_bytes;
    let digest = report.result.digest();
    let parts: Vec<IntervalSeries> = report
        .fragments
        .into_iter()
        .map(|f| f.probe.into_series())
        .collect();
    let s0 = Instant::now();
    let series = IntervalSeries::stitch(parts.iter()).expect("series stitch");
    let stitch_sec = s0.elapsed().as_secs_f64();
    let wall = t0.elapsed().as_secs_f64();
    FragRun {
        wall,
        digest,
        series,
        fragments,
        snapshot_bytes,
        stitch_sec,
    }
}

fn main() {
    if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        if !"pr10".contains(filter.as_str()) {
            return;
        }
    }
    let jobs = match std::env::var("SMT_JOBS") {
        Ok(v) => parse_jobs(Some(&v)).expect("SMT_JOBS must be a positive integer"),
        Err(_) => 4,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let specs = specs();

    let mut seq_best = f64::INFINITY;
    let mut frag_best = f64::INFINITY;
    let mut stitch_best = f64::INFINITY;
    let mut speedup: f64 = 0.0;
    let mut digests_equal = true;
    let mut fragments = 0;
    let mut snapshot_bytes = 0;
    for trial in 0..=TRIALS {
        let (seq_s, seq_digest, seq_series) = sequential(&specs);
        let frag = fragmented(&specs, jobs);
        digests_equal &= frag.digest == seq_digest && frag.series.digest() == seq_series.digest();
        fragments = frag.fragments;
        snapshot_bytes = frag.snapshot_bytes;
        if trial > 0 {
            // Trial 0 is an untimed warm-up.
            seq_best = seq_best.min(seq_s);
            frag_best = frag_best.min(frag.wall);
            stitch_best = stitch_best.min(frag.stitch_sec);
            speedup = speedup.max(seq_s / frag.wall);
        }
        black_box((frag.digest, seq_digest));
    }

    eprintln!("sequential probed+sanitized    {:>9.1} ms", seq_best * 1e3);
    eprintln!(
        "fragmented, {jobs} jobs            {:>9.1} ms",
        frag_best * 1e3
    );
    eprintln!("speedup                        {speedup:>9.3}x (CI bound 1.4x at 4 jobs)");
    eprintln!("fragments                      {fragments:>9}  ({snapshot_bytes} snapshot bytes)");
    eprintln!(
        "series stitch                  {:>9.3} ms",
        stitch_best * 1e3
    );
    eprintln!("digest equality                {digests_equal:>9}");
    eprintln!("available cores                {cores:>9}");

    let json = Json::obj(vec![
        ("bench", Json::str("pr10")),
        ("schema_version", Json::U64(1)),
        ("warmup", Json::U64(WARMUP)),
        ("measure", Json::U64(MEASURE)),
        ("fragment_cycles", Json::U64(FRAGMENT_CYCLES)),
        ("jobs", Json::U64(jobs as u64)),
        ("available_cores", Json::U64(cores as u64)),
        ("trials", Json::U64(TRIALS as u64)),
        ("fragments", Json::U64(fragments)),
        ("snapshot_bytes", Json::U64(snapshot_bytes)),
        ("sequential_sec", Json::F64(seq_best)),
        ("fragmented_sec", Json::F64(frag_best)),
        ("stitch_sec", Json::F64(stitch_best)),
        ("speedup", Json::F64(speedup)),
        ("digests_equal", Json::Bool(digests_equal)),
    ]);
    let repo_root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repo_root.join("BENCH_PR10.json");
    std::fs::write(&out, json.render_pretty() + "\n").expect("write BENCH_PR10.json");
    eprintln!("wrote {}", out.display());
}
