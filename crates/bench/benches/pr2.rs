//! Regression-gated performance baseline: emits `BENCH_PR2.json` with
//! simulator cycles-per-second under every paper policy plus the wall time
//! of the full experiment suite, cold (every simulation runs) and warm
//! (every result served from the persistent campaign cache).
//!
//! ```text
//! cargo bench -p smt-bench --bench pr2
//! ```
//!
//! CI runs this, uploads the JSON as a build artifact, and fails the job
//! if the warm pass exceeds its budget (the warm path must stay pure
//! cache-load + report-rendering, never re-simulation).

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

/// Wall time of the full experiment suite against `campaign`.
fn suite_wall(campaign: &smt_experiments::Campaign) -> f64 {
    let t0 = Instant::now();
    for &(name, f) in smt_experiments::suite::ALL {
        black_box(f(campaign));
        eprintln!("  [{name} done at {:.1}s]", t0.elapsed().as_secs_f64());
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    // `cargo bench -- <filter>`: skip entirely when a filter names another
    // bench, mirroring the Group-based targets.
    if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        if !"pr2".contains(filter.as_str()) {
            return;
        }
    }

    let mut policy_rates = Vec::new();
    for p in PolicyKind::paper_set() {
        let rate = cycles_per_sec(p);
        eprintln!("cycles/sec {:10} {:>12.0}", p.name(), rate);
        policy_rates.push((p.name(), rate));
    }

    let params = smt_experiments::ExpParams::standard();
    let repo_root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cache_dir = repo_root.join("target/bench-pr2-cache");
    let cache = smt_experiments::DiskCache::open(&cache_dir).expect("create bench cache dir");
    cache.clear().expect("start cold");

    eprintln!("cold suite (every simulation runs):");
    let cold = suite_wall(&smt_experiments::Campaign::with_disk_cache(params, &cache_dir).unwrap());
    eprintln!("warm suite (every result from the persistent cache):");
    let warm = suite_wall(&smt_experiments::Campaign::with_disk_cache(params, &cache_dir).unwrap());
    eprintln!("all cold: {cold:.1}s   all warm: {warm:.3}s");

    let json = Json::obj(vec![
        ("bench", Json::str("pr2")),
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
        ("all_cold_seconds", Json::F64(cold)),
        ("all_warm_seconds", Json::F64(warm)),
    ]);
    let out = repo_root.join("BENCH_PR2.json");
    std::fs::write(&out, json.render_pretty() + "\n").expect("write BENCH_PR2.json");
    eprintln!("wrote {}", out.display());
}
