//! The `trace` subcommand: run one (architecture, workload, policy)
//! simulation under a [`RecordingProbe`] and export the capture (the event
//! timeline plus the interval series' counter tracks) as a Chrome
//! trace-event file (loadable in Perfetto / `chrome://tracing`) plus a
//! structured stats JSON.
//!
//! ```text
//! cargo run -p smt-experiments -- trace --policy dwarn --workload mix4
//! cargo run -p smt-experiments -- trace --policy flush --workload 4-MEM \
//!     --arch deep --cycles 50000 --detail --out traces/
//! ```

use std::path::PathBuf;

use dwarn_core::PolicyKind;
use smt_obs::{chrome_trace, IntervalConfig, Json, RecordingProbe};
use smt_pipeline::{Simulator, Watchdog};
use smt_workloads::WorkloadClass;

use crate::runner::Arch;

/// Window, in cycles, of the interval series a trace records: its counter
/// tracks and the stats file's `occupancy` means come from that series.
pub const TRACE_WINDOW: u64 = 50;

/// Parsed `trace` subcommand options.
pub struct TraceOpts {
    pub policy: PolicyKind,
    pub threads: usize,
    pub class: WorkloadClass,
    pub arch: Arch,
    pub warmup: u64,
    pub measure: u64,
    /// Also capture per-instruction fetch/dispatch/issue/commit instants.
    pub detail: bool,
    /// Event-ring capacity (oldest events drop beyond this).
    pub ring: usize,
    pub out_dir: PathBuf,
}

impl Default for TraceOpts {
    fn default() -> TraceOpts {
        TraceOpts {
            policy: PolicyKind::DWarn,
            threads: 4,
            class: WorkloadClass::Mix,
            arch: Arch::Baseline,
            warmup: 2_000,
            measure: 20_000,
            detail: false,
            ring: 1 << 20,
            out_dir: PathBuf::from("target/traces"),
        }
    }
}

/// Parse a workload spelling leniently: `mix4`, `4-MIX`, `4mem`, `MEM`
/// (thread count defaults to 4) all work.
fn parse_workload(s: &str) -> Result<(usize, WorkloadClass), String> {
    let lower = s.to_ascii_lowercase();
    let digits: String = lower.chars().filter(|c| c.is_ascii_digit()).collect();
    let letters: String = lower.chars().filter(|c| c.is_ascii_alphabetic()).collect();
    let class = match letters.as_str() {
        "ilp" => WorkloadClass::Ilp,
        "mix" => WorkloadClass::Mix,
        "mem" => WorkloadClass::Mem,
        other => return Err(format!("unknown workload class '{other}' in '{s}'")),
    };
    let threads = if digits.is_empty() {
        4
    } else {
        digits
            .parse::<usize>()
            .map_err(|_| format!("bad thread count in '{s}'"))?
    };
    if !(1..=8).contains(&threads) {
        return Err(format!("thread count {threads} out of range 1..=8"));
    }
    Ok((threads, class))
}

fn parse_arch(s: &str) -> Result<Arch, String> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Arch::Baseline),
        "small" => Ok(Arch::Small),
        "deep" => Ok(Arch::Deep),
        other => Err(format!("unknown arch '{other}' (baseline|small|deep)")),
    }
}

/// Parse the arguments after `trace`.
pub fn parse_args(args: &[&str]) -> Result<TraceOpts, String> {
    let mut o = TraceOpts::default();
    let mut it = args.iter();
    while let Some(&a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a {
            "--policy" => {
                let v = value(a)?;
                o.policy = PolicyKind::parse(&v).ok_or_else(|| format!("unknown policy '{v}'"))?;
            }
            "--workload" => (o.threads, o.class) = parse_workload(&value(a)?)?,
            "--arch" => o.arch = parse_arch(&value(a)?)?,
            "--warmup" => o.warmup = value(a)?.parse().map_err(|e| format!("--warmup: {e}"))?,
            "--cycles" => o.measure = value(a)?.parse().map_err(|e| format!("--cycles: {e}"))?,
            "--detail" => o.detail = true,
            "--out" => o.out_dir = PathBuf::from(value(a)?),
            other => return Err(format!("unknown trace argument '{other}'")),
        }
    }
    Ok(o)
}

/// Run the traced simulation and write `<arch>-<workload>-<policy>.trace.json`
/// and `...stats.json` under `out_dir`. Returns a human-readable summary.
///
/// Like every other CLI entry path, the workload and configuration are
/// validated up front with typed errors rather than trusted to downstream
/// panics.
pub fn run(o: &TraceOpts) -> Result<String, crate::error::ExpError> {
    use crate::error::ExpError;
    let io = |path: &std::path::Path| {
        let context = path.display().to_string();
        move |e: std::io::Error| ExpError::Io {
            context,
            detail: e.to_string(),
        }
    };
    let wl = smt_workloads::try_workload(o.threads, o.class).ok_or(ExpError::UnknownWorkload {
        threads: o.threads,
        class: o.class.as_str(),
    })?;
    let specs = wl.thread_specs();
    let cfg = o.arch.config();
    cfg.validate(specs.len())?;
    let window = IntervalConfig {
        window: TRACE_WINDOW,
    };
    let probe = RecordingProbe::new(o.ring, window).with_detail(o.detail);
    let mut sim = Simulator::with_probe(cfg, o.policy.build(), &specs, probe);
    let result = sim.try_run(o.warmup, o.measure, &Watchdog::default())?;
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
    let mut stats =
        crate::artifacts::stats_json("trace", o.arch.as_str(), &wl.name, o.policy.name(), &result);
    if let Json::Obj(pairs) = &mut stats {
        if let Some(p) = pairs.iter_mut().find(|(k, _)| k == "policy_switches") {
            p.1 = Json::U64(switches);
        }
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
    crate::artifacts::record_tagged_with_switches(
        "trace",
        o.arch.as_str(),
        &wl.name,
        o.policy.name(),
        &result,
        Some(switches),
    );

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
        o.measure,
        o.warmup,
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
    fn workload_spellings_parse() {
        assert_eq!(parse_workload("mix4").unwrap(), (4, WorkloadClass::Mix));
        assert_eq!(parse_workload("4-MIX").unwrap(), (4, WorkloadClass::Mix));
        assert_eq!(parse_workload("2mem").unwrap(), (2, WorkloadClass::Mem));
        assert_eq!(parse_workload("ILP").unwrap(), (4, WorkloadClass::Ilp));
        assert!(parse_workload("9-MIX").is_err());
        assert!(parse_workload("fft4").is_err());
    }

    #[test]
    fn args_parse_into_options() {
        let o = parse_args(&[
            "--policy",
            "flush",
            "--workload",
            "mem2",
            "--arch",
            "deep",
            "--cycles",
            "123",
            "--detail",
        ])
        .unwrap();
        assert_eq!(o.policy, PolicyKind::Flush);
        assert_eq!((o.threads, o.class), (2, WorkloadClass::Mem));
        assert_eq!(o.arch, Arch::Deep);
        assert_eq!(o.measure, 123);
        assert!(o.detail);
        assert!(parse_args(&["--policy"]).is_err());
        assert!(parse_args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn trace_runs_and_writes_files() {
        let dir = std::env::temp_dir().join("smt-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let o = TraceOpts {
            warmup: 200,
            measure: 2_000,
            out_dir: dir.clone(),
            ..TraceOpts::default()
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
        let _ = std::fs::remove_dir_all(&dir);
    }
}
