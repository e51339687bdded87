//! Regression-gated checkpointing-overhead baseline for the
//! checkpoint/restore engine: emits `BENCH_PR8.json`.
//!
//! The gated number compares a cold campaign (fresh in-memory cache, no
//! disk cache) against the same cold campaign with checkpointing enabled:
//! the chunked run driver, periodic machine snapshots at the default
//! campaign cadence (fsync'd, atomically renamed), the journal's
//! per-event syncs, and the resume results store all run. Results are
//! bit-identical either way (the restore-equivalence suite pins that);
//! the wall-clock ratio isolates what resumability costs. CI fails the
//! job when that ratio exceeds 1.05x.
//!
//! ```text
//! cargo bench -p smt-bench --bench pr8
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "bench targets time themselves with the wall clock; they never feed simulated state"
)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use smt_bench::black_box;
use smt_experiments::{Arch, Campaign, ExpParams, RunKey};
use smt_obs::Json;
use smt_pipeline::{CheckpointOpts, RunOutcome, SimConfig, Simulator, Watchdog};
use smt_workloads::{workload, WorkloadClass};

/// Standard (non-quick) campaign windows: the gate models the real
/// `-- all` cost, not a smoke run.
const PARAMS: ExpParams = ExpParams {
    warmup: 20_000,
    measure: 60_000,
};

/// The default `--checkpoint-interval`: three mid-run snapshots per
/// 80k-cycle run.
const CKPT_INTERVAL: u64 = 20_000;

/// Timed repetitions; trial 0 is an untimed warm-up. The minimum per-pair
/// ratio is kept (noise rejection: both sides of every ratio run under
/// the same CPU-frequency drift).
const TRIALS: usize = 5;

/// A cross-section of the grid: SMT and solo paths, three policies.
fn grid() -> Vec<RunKey> {
    let two_mix = workload(2, WorkloadClass::Mix);
    let two_mem = workload(2, WorkloadClass::Mem);
    vec![
        RunKey::workload(Arch::Baseline, &two_mix, dwarn_core::PolicyKind::Icount),
        RunKey::workload(Arch::Baseline, &two_mix, dwarn_core::PolicyKind::DWarn),
        RunKey::workload(Arch::Baseline, &two_mem, dwarn_core::PolicyKind::Flush),
        RunKey::solo(Arch::Baseline, "mcf"),
    ]
}

/// Wall seconds for one cold campaign over the grid, optionally
/// checkpointing into `resume` at the default cadence.
fn timed_campaign(resume: Option<&Path>) -> f64 {
    let mut c = Campaign::new(PARAMS);
    if let Some(dir) = resume {
        let _ = std::fs::remove_dir_all(dir);
        c.set_checkpointing(dir, CKPT_INTERVAL)
            .expect("open resume dir");
    }
    let keys = grid();
    let t0 = Instant::now();
    for key in &keys {
        black_box(c.result(key));
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        if !"pr8".contains(filter.as_str()) {
            return;
        }
    }

    let resume = std::env::temp_dir().join(format!("dwarn-bench-pr8-{}", std::process::id()));

    let mut plain_best = f64::INFINITY;
    let mut ckpt_best = f64::INFINITY;
    let mut overhead = f64::INFINITY;
    for trial in 0..=TRIALS {
        let plain_s = timed_campaign(None);
        let ckpt_s = timed_campaign(Some(&resume));
        if trial > 0 {
            // Trial 0 is an untimed warm-up.
            plain_best = plain_best.min(plain_s);
            ckpt_best = ckpt_best.min(ckpt_s);
            overhead = overhead.min(ckpt_s / plain_s);
        }
    }
    let _ = std::fs::remove_dir_all(&resume);

    // Informational: what one snapshot costs to take and to persist.
    let wl = workload(2, WorkloadClass::Mix);
    let mut sim = Simulator::new(
        SimConfig::baseline(),
        dwarn_core::PolicyKind::DWarn.build(),
        &wl.thread_specs(),
    );
    let snap = {
        let seen = std::cell::Cell::new(false);
        let mut sink = |_: &smt_pipeline::MachineSnapshot| seen.set(true);
        let stop = || seen.get();
        let mut opts = CheckpointOpts {
            interval: CKPT_INTERVAL,
            sink: &mut sink,
            stop: Some(&stop),
        };
        match sim
            .try_run_checkpointed(
                PARAMS.warmup,
                PARAMS.measure,
                &Watchdog::default(),
                &mut opts,
            )
            .expect("snapshot capture run")
        {
            RunOutcome::Interrupted(s) => s,
            RunOutcome::Completed(_) => unreachable!("stops at the first checkpoint"),
        }
    };
    let snap_bytes = snap.to_bytes().len();
    let t0 = Instant::now();
    const SNAP_REPS: u32 = 100;
    for _ in 0..SNAP_REPS {
        black_box(sim.snapshot());
    }
    let snapshot_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(SNAP_REPS);

    eprintln!(
        "cold campaign, no checkpoints   {:>9.1} ms",
        plain_best * 1e3
    );
    eprintln!(
        "cold campaign, checkpointing    {:>9.1} ms",
        ckpt_best * 1e3
    );
    eprintln!("checkpointing overhead ratio    {overhead:>9.3}x (CI bound 1.05x)");
    eprintln!("snapshot size                   {snap_bytes:>9} bytes");
    eprintln!("snapshot capture                {snapshot_us:>9.1} us");

    let json = Json::obj(vec![
        ("bench", Json::str("pr8")),
        ("schema_version", Json::U64(1)),
        ("warmup", Json::U64(PARAMS.warmup)),
        ("measure", Json::U64(PARAMS.measure)),
        ("checkpoint_interval", Json::U64(CKPT_INTERVAL)),
        ("trials", Json::U64(TRIALS as u64)),
        ("grid_runs", Json::U64(grid().len() as u64)),
        ("plain_campaign_sec", Json::F64(plain_best)),
        ("checkpointed_campaign_sec", Json::F64(ckpt_best)),
        ("checkpoint_overhead_ratio", Json::F64(overhead)),
        ("snapshot_bytes", Json::U64(snap_bytes as u64)),
        ("snapshot_capture_us", Json::F64(snapshot_us)),
    ]);
    let repo_root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repo_root.join("BENCH_PR8.json");
    std::fs::write(&out, json.render_pretty() + "\n").expect("write BENCH_PR8.json");
    eprintln!("wrote {}", out.display());
}
