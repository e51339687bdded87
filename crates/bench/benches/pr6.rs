//! Regression-gated probe-overhead baseline for the interval telemetry
//! engine: emits `BENCH_PR6.json` comparing simulator cycles-per-second
//! with the zero-cost `NullProbe` against the same run with the
//! `IntervalProbe` attached. The interval sampler is the first probe meant
//! to ride along on ordinary campaign runs (`--intervals`), so its
//! overhead is a product property, not a curiosity: CI fails the job when
//! the interval-probed run falls below 1/1.25 of NullProbe throughput.
//!
//! ```text
//! cargo bench -p smt-bench --bench pr6
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "bench targets time themselves with the wall clock; they never feed simulated state"
)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use dwarn_core::PolicyKind;
use smt_bench::black_box;
use smt_obs::{IntervalConfig, IntervalProbe, Json};
use smt_pipeline::{SimConfig, Simulator};
use smt_workloads::{workload, WorkloadClass};

/// Cycles simulated per measured run.
const MICRO_CYCLES: u64 = 20_000;
/// Interval window under test (the `--intervals` default).
const WINDOW: u64 = 1024;
/// Timed repetitions; the best rate is reported (noise rejection — the
/// CI gate compares a *ratio* of the two rates).
const TRIALS: usize = 3;

/// Best-of-N simulator cycles per wall-clock second on 4-MIX under DWarn
/// with the zero-cost NullProbe (the plain campaign configuration).
fn null_probe_rate() -> f64 {
    let wl = workload(4, WorkloadClass::Mix);
    let mut best = 0.0f64;
    for trial in 0..=TRIALS {
        let mut sim = Simulator::new(
            SimConfig::baseline(),
            PolicyKind::DWarn.build(),
            &wl.thread_specs(),
        );
        let t0 = Instant::now();
        black_box(sim.run(0, MICRO_CYCLES));
        let rate = MICRO_CYCLES as f64 / t0.elapsed().as_secs_f64();
        if trial > 0 {
            // Trial 0 is an untimed warm-up.
            best = best.max(rate);
        }
    }
    best
}

/// The identical run with the interval sampler attached.
fn interval_probe_rate() -> f64 {
    let wl = workload(4, WorkloadClass::Mix);
    let mut best = 0.0f64;
    for trial in 0..=TRIALS {
        let mut sim = Simulator::with_probe(
            SimConfig::baseline(),
            PolicyKind::DWarn.build(),
            &wl.thread_specs(),
            IntervalProbe::new(IntervalConfig { window: WINDOW }),
        );
        let t0 = Instant::now();
        black_box(sim.run(0, MICRO_CYCLES));
        let rate = MICRO_CYCLES as f64 / t0.elapsed().as_secs_f64();
        let series = sim.into_probe().into_series();
        // The series must actually exist — an empty probe would make the
        // overhead bound vacuous.
        assert!(
            series.total_cycles() >= MICRO_CYCLES,
            "interval probe saw {} of {MICRO_CYCLES} cycles",
            series.total_cycles()
        );
        black_box(series);
        if trial > 0 {
            best = best.max(rate);
        }
    }
    best
}

fn main() {
    if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        if !"pr6".contains(filter.as_str()) {
            return;
        }
    }

    let null_rate = null_probe_rate();
    let probed_rate = interval_probe_rate();
    let overhead = null_rate / probed_rate;
    eprintln!("cycles/sec null-probe     {null_rate:>12.0}");
    eprintln!("cycles/sec interval-probe {probed_rate:>12.0}");
    eprintln!("overhead ratio            {overhead:>12.3}x (CI bound 1.25x)");

    let json = Json::obj(vec![
        ("bench", Json::str("pr6")),
        ("schema_version", Json::U64(1)),
        ("micro_cycles_per_run", Json::U64(MICRO_CYCLES)),
        ("interval_window", Json::U64(WINDOW)),
        ("trials", Json::U64(TRIALS as u64)),
        (
            "cycles_per_sec",
            Json::obj(vec![
                ("null_probe", Json::F64(null_rate)),
                ("interval_probe", Json::F64(probed_rate)),
            ]),
        ),
        ("overhead_ratio", Json::F64(overhead)),
    ]);
    let repo_root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repo_root.join("BENCH_PR6.json");
    std::fs::write(&out, json.render_pretty() + "\n").expect("write BENCH_PR6.json");
    eprintln!("wrote {}", out.display());
}
