//! The `report` subcommand: phase segmentation over interval time-series.
//!
//! Reads the `*.intervals.jsonl` files an `--intervals <dir>` campaign
//! wrote (schema `smt-intervals-v1`), segments each run's per-interval IPC
//! series into phases with a change-point threshold, and renders a
//! per-run phase summary table. Everything here consumes the files through
//! [`smt_obs::Json::parse`] — the reporting path exercises the same schema
//! a user's tooling would, instead of peeking at in-process structs.

use std::path::{Path, PathBuf};

use smt_obs::Json;

use crate::error::ExpError;

/// One parsed interval (the subset of `smt-intervals-v1` the report uses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalPoint {
    pub index: u64,
    pub start_cycle: u64,
    pub cycles: u64,
    pub skipped: u64,
    /// Aggregate (all-thread) committed IPC over the interval.
    pub ipc: f64,
}

/// A maximal run of consecutive intervals with similar aggregate IPC.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// First and last interval index (inclusive).
    pub first: u64,
    pub last: u64,
    pub start_cycle: u64,
    pub cycles: u64,
    pub skipped: u64,
    pub mean_ipc: f64,
    pub intervals: usize,
}

/// One run's parsed series plus its segmentation.
#[derive(Debug, Clone)]
pub struct SeriesSummary {
    /// File stem (e.g. `baseline-4-mix-dwarn`).
    pub name: String,
    pub window: u64,
    pub threads: Vec<String>,
    pub points: Vec<IntervalPoint>,
    pub phases: Vec<Phase>,
}

/// Relative IPC deviation that opens a new phase. An interval breaks the
/// current phase when its IPC differs from the phase's running mean by
/// more than `max(PHASE_REL_TOL × mean, PHASE_ABS_TOL)` — the absolute
/// floor keeps near-idle stretches (IPC ≈ 0) from fragmenting into
/// single-interval phases over noise.
pub const PHASE_REL_TOL: f64 = 0.25;
pub const PHASE_ABS_TOL: f64 = 0.1;

/// Segment an IPC series into phases with the threshold change-point rule
/// above. Deterministic: a pure fold over the points in order.
pub fn segment(points: &[IntervalPoint]) -> Vec<Phase> {
    let mut phases: Vec<Phase> = Vec::new();
    let mut cur: Option<Phase> = None;
    for p in points {
        match cur.as_mut() {
            Some(ph)
                if (p.ipc - ph.mean_ipc).abs()
                    <= (PHASE_REL_TOL * ph.mean_ipc).max(PHASE_ABS_TOL) =>
            {
                // Extend: fold the interval into the running mean,
                // weighting by cycle count so partial tail windows don't
                // drag the mean.
                let w_old = ph.cycles as f64;
                let w_new = p.cycles as f64;
                ph.mean_ipc = (ph.mean_ipc * w_old + p.ipc * w_new) / (w_old + w_new).max(1.0);
                ph.last = p.index;
                ph.cycles += p.cycles;
                ph.skipped += p.skipped;
                ph.intervals += 1;
            }
            _ => {
                if let Some(done) = cur.take() {
                    phases.push(done);
                }
                cur = Some(Phase {
                    first: p.index,
                    last: p.index,
                    start_cycle: p.start_cycle,
                    cycles: p.cycles,
                    skipped: p.skipped,
                    mean_ipc: p.ipc,
                    intervals: 1,
                });
            }
        }
    }
    if let Some(done) = cur.take() {
        phases.push(done);
    }
    phases
}

fn io_err(context: &str, detail: impl std::fmt::Display) -> ExpError {
    ExpError::Io {
        context: context.to_string(),
        detail: detail.to_string(),
    }
}

/// Parse one `*.intervals.jsonl` file and segment it.
pub fn summarize_file(path: &Path) -> Result<SeriesSummary, ExpError> {
    let ctx = format!("reading interval series {}", path.display());
    let body = std::fs::read_to_string(path).map_err(|e| io_err(&ctx, e))?;
    let mut lines = body.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or_else(|| io_err(&ctx, "empty file"))?;
    let header = Json::parse(header_line).map_err(|e| io_err(&ctx, e))?;
    let schema = header.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "smt-intervals-v1" {
        return Err(io_err(&ctx, format!("unexpected schema {schema:?}")));
    }
    let window = header
        .get("window")
        .and_then(Json::as_u64)
        .ok_or_else(|| io_err(&ctx, "header missing window"))?;
    let threads: Vec<String> = header
        .get("threads")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .map(|t| t.as_str().unwrap_or("?").to_string())
                .collect()
        })
        .unwrap_or_default();
    let mut points = Vec::new();
    for line in lines {
        let v = Json::parse(line).map_err(|e| io_err(&ctx, e))?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| io_err(&ctx, format!("interval missing {k:?}")))
        };
        points.push(IntervalPoint {
            index: field("i")?,
            start_cycle: field("start")?,
            cycles: field("cycles")?,
            skipped: field("skipped")?,
            ipc: v
                .get("ipc")
                .and_then(Json::as_f64)
                .ok_or_else(|| io_err(&ctx, "interval missing \"ipc\""))?,
        });
    }
    let phases = segment(&points);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("?")
        .trim_end_matches(".intervals.jsonl")
        .to_string();
    Ok(SeriesSummary {
        name,
        window,
        threads,
        points,
        phases,
    })
}

/// Render one run's phase table.
pub fn render_summary(s: &SeriesSummary) -> String {
    let mut t = smt_metrics::table::TextTable::new(vec![
        "phase",
        "intervals",
        "cycles",
        "start",
        "mean IPC",
        "skipped",
    ]);
    for (i, ph) in s.phases.iter().enumerate() {
        let skip_pct = if ph.cycles == 0 {
            0.0
        } else {
            100.0 * ph.skipped as f64 / ph.cycles as f64
        };
        t.row(vec![
            format!("P{i}"),
            format!("{}..{}", ph.first, ph.last),
            ph.cycles.to_string(),
            ph.start_cycle.to_string(),
            format!("{:.3}", ph.mean_ipc),
            format!("{skip_pct:.1}%"),
        ]);
    }
    format!(
        "{} (window {}, threads [{}]): {} interval(s), {} phase(s)\n{}",
        s.name,
        s.window,
        s.threads.join(", "),
        s.points.len(),
        s.phases.len(),
        t.render()
    )
}

/// The `report` subcommand body: summarize every `*.intervals.jsonl` under
/// `dir` (sorted by file name for a deterministic report) and render the
/// per-run phase tables.
pub fn report_dir(dir: &Path) -> Result<String, ExpError> {
    let ctx = format!("listing interval series in {}", dir.display());
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io_err(&ctx, e))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".intervals.jsonl"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(io_err(&ctx, "no *.intervals.jsonl files found"));
    }
    let mut out = String::new();
    for (i, f) in files.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_summary(&summarize_file(f)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(index: u64, ipc: f64) -> IntervalPoint {
        IntervalPoint {
            index,
            start_cycle: index * 1024,
            cycles: 1024,
            skipped: 0,
            ipc,
        }
    }

    #[test]
    fn segment_splits_on_ipc_steps_and_tolerates_noise() {
        let points: Vec<IntervalPoint> = (0..10)
            .map(|i| {
                let ipc = if i < 5 {
                    2.0 + 0.05 * (i % 2) as f64
                } else {
                    0.5
                };
                pt(i, ipc)
            })
            .collect();
        let phases = segment(&points);
        assert_eq!(phases.len(), 2, "{phases:?}");
        assert_eq!((phases[0].first, phases[0].last), (0, 4));
        assert_eq!((phases[1].first, phases[1].last), (5, 9));
        assert!((phases[1].mean_ipc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn segment_absolute_floor_keeps_idle_stretches_together() {
        // Near-zero IPC wiggle stays one phase thanks to PHASE_ABS_TOL.
        let points: Vec<IntervalPoint> = (0..6).map(|i| pt(i, 0.01 * (i % 3) as f64)).collect();
        assert_eq!(segment(&points).len(), 1);
    }

    #[test]
    fn summarize_round_trips_a_rendered_series() {
        let mut probe = smt_obs::IntervalProbe::new(smt_obs::IntervalConfig { window: 64 });
        use smt_obs::Probe;
        let on = smt_obs::Enabled::of::<smt_obs::IntervalProbe>().expect("enabled");
        for c in 0..200u64 {
            if c % 2 == 0 {
                probe.on_commit(c, 0, 0, 1);
            }
            let state = smt_obs::CycleState {
                cycle: c,
                iq: [1, 0, 0],
                regs_int: 4,
                regs_fp: 2,
                rob: &[3],
                iq_per_thread: &[1],
                outstanding_miss: &[0],
                gate: &[None],
            };
            probe.on_cycle_state(on, &state);
        }
        let series = probe.into_series();
        let dir = std::env::temp_dir().join(format!("smt-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline-solo-mcf-icount.intervals.jsonl");
        std::fs::write(&path, series.to_jsonl(&["mcf".to_string()])).unwrap();

        let s = summarize_file(&path).unwrap();
        assert_eq!(s.window, 64);
        assert_eq!(s.threads, vec!["mcf".to_string()]);
        assert_eq!(s.points.len(), series.intervals.len());
        assert!(!s.phases.is_empty());
        let rendered = report_dir(&dir).unwrap();
        assert!(rendered.contains("baseline-solo-mcf-icount"), "{rendered}");
        assert!(rendered.contains("mean IPC"), "{rendered}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
