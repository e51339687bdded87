//! Regression-gated performance baseline for the quiescence-skipping cycle
//! engine: emits `BENCH_PR5.json` with the same schema as `BENCH_PR2.json`
//! (simulator cycles-per-second under every paper policy, full-suite wall
//! time cold and warm) plus the engine's `skip_ratio` — the fraction of
//! simulated cycles advanced in bulk — per workload class.
//!
//! ```text
//! cargo bench -p smt-bench --bench pr5
//! ```
//!
//! CI runs this, uploads the JSON as a build artifact, and fails the job
//! if the cold pass regresses more than 10% against the committed PR 2
//! baseline or the warm pass exceeds its budget.

#![expect(
    clippy::disallowed_methods,
    reason = "bench targets time themselves with the wall clock; they never feed simulated state"
)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use dwarn_core::PolicyKind;
use smt_bench::black_box;
use smt_obs::Json;
use smt_pipeline::{SimConfig, Simulator};
use smt_workloads::{workload, WorkloadClass};

/// Cycles simulated per policy microbench.
const MICRO_CYCLES: u64 = 20_000;

/// Simulator cycles per wall-clock second for one policy on 4-MIX.
fn cycles_per_sec(policy: PolicyKind) -> f64 {
    let wl = workload(4, WorkloadClass::Mix);
    // One untimed warm-up, then the timed run.
    for timed in [false, true] {
        let mut sim = Simulator::new(SimConfig::baseline(), policy.build(), &wl.thread_specs());
        let t0 = Instant::now();
        black_box(sim.run(0, MICRO_CYCLES));
        if timed {
            return MICRO_CYCLES as f64 / t0.elapsed().as_secs_f64();
        }
    }
    unreachable!()
}

/// Fraction of cycles the quiescence engine advanced in bulk for a
/// 4-thread workload of `class` under DWarn. MEM workloads spend most of
/// their time waiting on L2 misses, so they should skip the most.
fn skip_ratio(class: WorkloadClass) -> f64 {
    const WARMUP: u64 = 1_000;
    const MEASURE: u64 = 20_000;
    let wl = workload(4, class);
    let mut sim = Simulator::new(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &wl.thread_specs(),
    );
    black_box(sim.run(WARMUP, MEASURE));
    sim.skipped_cycles() as f64 / (WARMUP + MEASURE) as f64
}

/// Wall time of the cached paper suite against `campaign` — the same
/// set the CLI's `all` runs. `meta` (the one entry beyond it) is live by
/// design (its oracle math bypasses the result cache), so timing it here
/// would break the warm-pass budget this baseline exists to gate.
fn suite_wall(campaign: &smt_experiments::Campaign) -> f64 {
    let t0 = Instant::now();
    for &(name, f) in smt_experiments::suite::ALL {
        if name == "meta" {
            continue;
        }
        black_box(f(campaign));
        eprintln!("  [{name} done at {:.1}s]", t0.elapsed().as_secs_f64());
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    // `cargo bench -- <filter>`: skip entirely when a filter names another
    // bench, mirroring the Group-based targets.
    if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        if !"pr5".contains(filter.as_str()) {
            return;
        }
    }

    let mut policy_rates = Vec::new();
    for p in PolicyKind::paper_set() {
        let rate = cycles_per_sec(p);
        eprintln!("cycles/sec {:10} {:>12.0}", p.name(), rate);
        policy_rates.push((p.name(), rate));
    }

    let mut skip_ratios = Vec::new();
    for (name, class) in [
        ("ILP", WorkloadClass::Ilp),
        ("MIX", WorkloadClass::Mix),
        ("MEM", WorkloadClass::Mem),
    ] {
        let ratio = skip_ratio(class);
        eprintln!("skip ratio {name:10} {:>11.1}%", ratio * 100.0);
        skip_ratios.push((name, ratio));
    }

    let params = smt_experiments::ExpParams::standard();
    let repo_root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cache_dir = repo_root.join("target/bench-pr5-cache");
    let cache = smt_experiments::DiskCache::open(&cache_dir).expect("create bench cache dir");
    cache.clear().expect("start cold");

    eprintln!("cold suite (every simulation runs):");
    let cold = suite_wall(&smt_experiments::Campaign::with_disk_cache(params, &cache_dir).unwrap());
    eprintln!("warm suite (every result from the persistent cache):");
    let warm = suite_wall(&smt_experiments::Campaign::with_disk_cache(params, &cache_dir).unwrap());
    eprintln!("all cold: {cold:.1}s   all warm: {warm:.3}s");

    let json = Json::obj(vec![
        ("bench", Json::str("pr5")),
        ("schema_version", Json::U64(1)),
        ("micro_cycles_per_policy_run", Json::U64(MICRO_CYCLES)),
        (
            "cycles_per_sec",
            Json::obj(
                policy_rates
                    .iter()
                    .map(|&(name, rate)| (name, Json::F64(rate)))
                    .collect(),
            ),
        ),
        (
            "skip_ratio",
            Json::obj(
                skip_ratios
                    .iter()
                    .map(|&(name, ratio)| (name, Json::F64(ratio)))
                    .collect(),
            ),
        ),
        ("all_cold_seconds", Json::F64(cold)),
        ("all_warm_seconds", Json::F64(warm)),
    ]);
    let out = repo_root.join("BENCH_PR5.json");
    std::fs::write(&out, json.render_pretty() + "\n").expect("write BENCH_PR5.json");
    eprintln!("wrote {}", out.display());
}
