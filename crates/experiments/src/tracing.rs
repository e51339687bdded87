//! The `trace` subcommand: run one (architecture, workload, policy)
//! simulation under a [`RecordingProbe`] and export the capture (the event
//! timeline plus the interval series' counter tracks) as a Chrome
//! trace-event file (loadable in Perfetto / `chrome://tracing`) plus a
//! structured stats JSON. The run is named as `compare` names one, and
//! simulates the campaign's windows:
//!
//! ```text
//! cargo run -p smt-experiments -- trace DWARN @4-MIX
//! cargo run -p smt-experiments -- trace FLUSH @4-MEM @deep --quick \
//!     --detail --out traces/
//! ```

use std::path::PathBuf;

use dwarn_core::PolicyKind;
use smt_obs::{chrome_trace, IntervalConfig, Json, RecordingProbe};
use smt_pipeline::{Simulator, Watchdog};
use smt_workloads::Workload;

use crate::artifacts::RunRecord;
use crate::runner::{Arch, ExpParams};

/// Window, in cycles, of the interval series a trace records: its counter
/// tracks and the stats file's `occupancy` means come from that series.
pub const TRACE_WINDOW: u64 = 50;

/// Capacity of the event ring: beyond it the oldest events drop, and the
/// stats file's `capture.events_dropped` counts them.
const RING_EVENTS: usize = 1 << 20;

/// One `trace` run.
pub struct TraceOpts {
    pub policy: PolicyKind,
    pub workload: Workload,
    pub arch: Arch,
    pub params: ExpParams,
    /// Also capture per-instruction fetch/dispatch/issue/commit instants.
    pub detail: bool,
    pub out_dir: PathBuf,
}

/// Run the traced simulation and write `<arch>-<workload>-<policy>.trace.json`
/// and `...stats.json` under `out_dir`. Returns a human-readable summary.
///
/// Like every other CLI entry path, the simulator is built fallibly: an
/// invalid configuration is a typed error, not a panic.
pub fn run(o: &TraceOpts) -> Result<String, crate::error::ExpError> {
    use crate::error::ExpError;
    let io = |path: &std::path::Path| {
        let context = path.display().to_string();
        move |e: std::io::Error| ExpError::Io {
            context,
            detail: e.to_string(),
        }
    };
    let wl = &o.workload;
    let specs = wl.thread_specs();
    let window = IntervalConfig {
        window: TRACE_WINDOW,
    };
    let probe = RecordingProbe::new(RING_EVENTS, window).with_detail(o.detail);
    let mut sim = Simulator::try_with_probe(o.arch.config(), o.policy.build(), &specs, probe)?;
    let result = sim.try_run(o.params.warmup, o.params.measure, &Watchdog::default())?;
    // A trace is always a live execution, so the switch count exists (the
    // generic stats path leaves it null for cache-served runs).
    let switches = sim.policy().switch_log().len() as u64;
    let probe = sim.into_probe();
    let peak_iq = probe.peak_iq();
    let (ring, series) = probe.into_parts();

    let names: Vec<String> = wl.benchmarks.iter().map(|b| b.to_string()).collect();
    let trace = chrome_trace(&ring, &series, &names);

    // Exact means over every cycle of the run, warmup included.
    let total = series.total();
    let mean = |acc: u64| Json::F64(acc as f64 / total.cycles.max(1) as f64);
    let record = RunRecord {
        switches: Some(switches),
        ..RunRecord::new("trace", o.arch.as_str(), &wl.name, o.policy.name(), &result)
    };
    let mut stats = crate::artifacts::stats_json(&record);
    if let Json::Obj(pairs) = &mut stats {
        pairs.push((
            "capture".to_string(),
            Json::obj(vec![
                ("events", Json::U64(ring.len() as u64)),
                ("events_dropped", Json::U64(ring.dropped())),
                ("interval_window", Json::U64(TRACE_WINDOW)),
                ("detail", Json::Bool(o.detail)),
            ]),
        ));
        pairs.push((
            "occupancy".to_string(),
            Json::obj(vec![
                ("cycles", Json::U64(total.cycles)),
                ("avg_iq", Json::Arr(total.iq_occ_acc.map(mean).to_vec())),
                (
                    "peak_iq",
                    Json::Arr(peak_iq.iter().map(|&x| Json::U64(x as u64)).collect()),
                ),
                (
                    "avg_regs",
                    Json::Arr(vec![mean(total.regs_acc.0), mean(total.regs_acc.1)]),
                ),
                (
                    "avg_rob",
                    Json::Arr(total.threads.iter().map(|t| mean(t.rob_acc)).collect()),
                ),
            ]),
        ));
    }
    // Also feed the global --stats-json sink, when active.
    crate::artifacts::record(record);

    std::fs::create_dir_all(&o.out_dir).map_err(io(&o.out_dir))?;
    let stem = format!(
        "{}-{}-{}",
        o.arch.as_str(),
        wl.name.to_ascii_lowercase(),
        o.policy.name().to_ascii_lowercase()
    );
    let trace_path = o.out_dir.join(format!("{stem}.trace.json"));
    let stats_path = o.out_dir.join(format!("{stem}.stats.json"));
    std::fs::write(&trace_path, &trace).map_err(io(&trace_path))?;
    std::fs::write(&stats_path, stats.render_pretty()).map_err(io(&stats_path))?;

    Ok(format!(
        "traced {} / {} / {} for {} cycles (+{} warmup)\n\
         throughput {:.2} IPC, {} events captured ({} dropped), {} intervals of {} cycles\n\
         trace: {}\n\
         stats: {}",
        o.arch.as_str(),
        wl.name,
        o.policy.name(),
        o.params.measure,
        o.params.warmup,
        result.throughput(),
        ring.len(),
        ring.dropped(),
        series.intervals.len(),
        TRACE_WINDOW,
        trace_path.display(),
        stats_path.display(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_runs_and_writes_files() {
        let dir = crate::testutil::TempDir::new("smt-trace", "files");
        let o = TraceOpts {
            policy: PolicyKind::DWarn,
            workload: smt_workloads::workload(4, smt_workloads::WorkloadClass::Mix),
            arch: Arch::Baseline,
            params: ExpParams {
                warmup: 200,
                measure: 2_000,
            },
            detail: false,
            out_dir: dir.to_path_buf(),
        };
        let summary = run(&o).unwrap();
        assert!(summary.contains("trace:"));
        let trace = std::fs::read_to_string(dir.join("baseline-4-mix-dwarn.trace.json")).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["));
        // The interval series reaches the trace as counter tracks.
        assert!(trace.contains("\"cat\":\"interval\""));
        let stats = std::fs::read_to_string(dir.join("baseline-4-mix-dwarn.stats.json")).unwrap();
        assert!(stats.contains("\"throughput_ipc\""));
        assert!(stats.contains("\"interval_window\": 50"));
        let doc = Json::parse(&stats).unwrap();
        let occupancy = doc.get("occupancy").unwrap();
        // The occupancy means cover the whole run, warmup included.
        assert_eq!(occupancy.get("cycles").and_then(Json::as_u64), Some(2_200));
    }
}
