//! Structured JSON run artifacts (`--stats-json <dir>`).
//!
//! Every simulation the CLI performs — campaign runs, solo baselines, and
//! the ad-hoc ablation sweeps — is recorded here while the flag is active,
//! then written out as one JSON document per run when the process finishes.
//! Harmonic means of relative IPCs are computed at flush time from whatever
//! `solo:<bench>` baselines the same invocation happened to run, so the
//! artifacts of e.g. `table4 --stats-json out/` are self-contained.
//!
//! The sink is a process-wide mutex because [`crate::runner::Campaign`]
//! simulates uncached keys from a worker-thread pool; `record` is a no-op
//! (one uncontended lock) until [`enable`] is called.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use smt_obs::Json;
use smt_pipeline::{SimResult, ThreadStats};

/// One recorded simulation.
pub struct RunRecord {
    /// Which experiment produced the run (e.g. `"campaign"`,
    /// `"ablation:dg-threshold"`).
    pub tag: String,
    pub arch: String,
    /// Workload name (`"4-MIX"`) or solo baseline (`"solo:mcf"`).
    pub workload: String,
    pub policy: String,
    pub result: SimResult,
    /// `(skipped_cycles, total_cycles)` when the run executed in this
    /// process; `None` for cache-served results (the quiescence engine's
    /// skip count is observation-only and deliberately kept out of the
    /// persisted [`SimResult`]).
    pub skip: Option<(u64, u64)>,
    /// Fetch-policy switch count when the run executed in this process
    /// (zero for static policies, `None` for cache-served results — like
    /// `skip`, the switch log is observational and not persisted).
    pub switches: Option<u64>,
    /// `(fragments, fragment_cycles)` when the run executed through the
    /// time-axis fragment-replay engine; `None` for sequential and
    /// cache-served runs. Observational, like `skip`: fragmented results
    /// are proven bit-identical, so nothing else in the record changes.
    pub fragments: Option<(u64, u64)>,
}

impl RunRecord {
    /// A run with no in-process execution accounting: every optional
    /// field is `None` until the caller sets it.
    pub fn new(tag: &str, arch: &str, workload: &str, policy: &str, result: &SimResult) -> Self {
        RunRecord {
            tag: tag.to_string(),
            arch: arch.to_string(),
            workload: workload.to_string(),
            policy: policy.to_string(),
            result: result.clone(),
            skip: None,
            switches: None,
            fragments: None,
        }
    }
}

/// One recorded run failure (watchdog trip, isolated panic, cache fault).
struct FailureRecord {
    what: String,
    kind: &'static str,
    detail: String,
}

struct Sink {
    dir: PathBuf,
    records: Vec<RunRecord>,
    failures: Vec<FailureRecord>,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Start collecting run artifacts, to be written under `dir` by [`flush`].
pub fn enable(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    *crate::lock_unpoisoned(&SINK) = Some(Sink {
        dir: dir.to_path_buf(),
        records: Vec::new(),
        failures: Vec::new(),
    });
    Ok(())
}

/// Record a run. No-op unless [`enable`]d.
pub fn record(run: RunRecord) {
    if let Some(sink) = crate::lock_unpoisoned(&SINK).as_mut() {
        sink.records.push(run);
    }
}

/// Record a failed run as a typed artifact. No-op unless [`enable`]d (the
/// campaign additionally keeps its own in-memory failure list either way).
pub fn record_failure(what: &str, error: &crate::error::ExpError) {
    let mut sink = crate::lock_unpoisoned(&SINK);
    if let Some(sink) = sink.as_mut() {
        sink.failures.push(FailureRecord {
            what: what.to_string(),
            kind: error.kind(),
            detail: error.to_string(),
        });
    }
}

/// Write one JSON file per recorded run (plus `failures.json` when any run
/// failed) and disable the sink. Returns the number of files written and
/// the directory, or `None` when not enabled.
pub fn flush() -> std::io::Result<Option<(usize, PathBuf)>> {
    let Some(sink) = crate::lock_unpoisoned(&SINK).take() else {
        return Ok(None);
    };
    let solos = solo_ipcs(&sink.records);
    let mut written = 0;
    for (i, rec) in sink.records.iter().enumerate() {
        let path = sink.dir.join(format!(
            "{i:03}-{}.json",
            sanitize(&format!("{}-{}-{}", rec.arch, rec.workload, rec.policy))
        ));
        std::fs::write(&path, run_json(rec, &solos).render_pretty())?;
        written += 1;
    }
    if !sink.failures.is_empty() {
        let items: Vec<Json> = sink
            .failures
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("run", Json::str(f.what.clone())),
                    ("kind", Json::str(f.kind.to_string())),
                    ("error", Json::str(f.detail.clone())),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("schema", Json::str("smt-failures-v1")),
            ("schema_version", Json::U64(1)),
            ("failures", Json::Arr(items)),
        ]);
        std::fs::write(sink.dir.join("failures.json"), doc.render_pretty())?;
        written += 1;
    }
    Ok(Some((written, sink.dir)))
}

/// The stats document for one run, outside the sink — the `trace`
/// subcommand writes this next to its Chrome trace. Relative IPCs and the
/// Hmean are null (no solo baselines in a single-run export).
pub fn stats_json(run: &RunRecord) -> Json {
    run_json(run, &[])
}

/// Single-threaded ICOUNT IPCs per (arch, benchmark), from the recorded
/// `solo:` baselines — the relative-IPC denominators.
fn solo_ipcs(records: &[RunRecord]) -> Vec<(String, String, f64)> {
    records
        .iter()
        .filter_map(|r| {
            let bench = r.workload.strip_prefix("solo:")?;
            Some((r.arch.clone(), bench.to_string(), r.result.ipcs()[0]))
        })
        .collect()
}

/// The benchmark running on each hardware context, when derivable from the
/// workload name.
fn benchmarks_of(workload: &str) -> Option<Vec<String>> {
    if let Some(bench) = workload.strip_prefix("solo:") {
        return Some(vec![bench.to_string()]);
    }
    let wl = crate::runner::workload_by_name(workload).ok()?;
    Some(wl.benchmarks.iter().map(|b| b.to_string()).collect())
}

pub(crate) fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

fn thread_json(
    index: usize,
    bench: Option<&str>,
    s: &ThreadStats,
    rel: Option<f64>,
    r: &SimResult,
) -> Json {
    let mut pairs = vec![
        ("index", Json::U64(index as u64)),
        (
            "benchmark",
            bench.map_or(Json::Null, |b| Json::str(b.to_string())),
        ),
        ("ipc", Json::F64(s.ipc(r.cycles))),
        ("relative_ipc", rel.map_or(Json::Null, Json::F64)),
    ];
    pairs.extend(s.named().map(|(k, v)| (k, Json::U64(v))));
    if let Some(m) = r.mem.get(index) {
        let mut mem: Vec<(&str, Json)> = m.named().map(|(k, v)| (k, Json::U64(v))).collect();
        mem.push(("l1_miss_rate", Json::F64(m.l1_miss_rate())));
        mem.push(("l2_miss_rate", Json::F64(m.l2_miss_rate())));
        pairs.push(("mem", Json::obj(mem)));
    }
    Json::obj(pairs)
}

/// The stats document for one run: identity, headline metrics, and the full
/// per-thread breakdown (IPC, gating/stall cycles, wrong-path fetches,
/// memory behaviour).
fn run_json(rec: &RunRecord, solos: &[(String, String, f64)]) -> Json {
    let r = &rec.result;
    let benches = benchmarks_of(&rec.workload);
    // Per-thread relative IPCs where this invocation also ran the solo
    // baseline; Hmean only when every thread has one.
    let rels: Vec<Option<f64>> = (0..r.threads.len())
        .map(|t| {
            let b = benches.as_ref()?.get(t)?;
            let solo = solos.iter().find(|(a, s, _)| *a == rec.arch && s == b)?.2;
            Some(r.threads[t].ipc(r.cycles) / solo)
        })
        .collect();
    let hmean = if rec.workload.starts_with("solo:") {
        None
    } else if rels.iter().all(|r| r.is_some()) && !rels.is_empty() {
        Some(smt_metrics::hmean(
            &rels.iter().copied().flatten().collect::<Vec<_>>(),
        ))
    } else {
        None
    };

    let threads: Vec<Json> = r
        .threads
        .iter()
        .enumerate()
        .map(|(t, s)| {
            let bench = benches.as_ref().and_then(|b| b.get(t)).map(String::as_str);
            thread_json(t, bench, s, rels[t], r)
        })
        .collect();

    let sum = |f: fn(&ThreadStats) -> u64| -> u64 { r.threads.iter().map(f).sum() };
    Json::obj(vec![
        ("schema", Json::str("smt-stats-v3")),
        ("schema_version", Json::U64(3)),
        ("experiment", Json::str(rec.tag.clone())),
        ("arch", Json::str(rec.arch.clone())),
        ("workload", Json::str(rec.workload.clone())),
        ("policy", Json::str(rec.policy.clone())),
        ("cycles", Json::U64(r.cycles)),
        // Fraction of simulated cycles the quiescence engine bulk-advanced.
        // Null for cache-served results: skip accounting is observational
        // (results are bit-identical either way) and not persisted.
        (
            "skip_ratio",
            rec.skip.map_or(Json::Null, |(skipped, total)| {
                Json::F64(if total == 0 {
                    0.0
                } else {
                    skipped as f64 / total as f64
                })
            }),
        ),
        // Fetch-policy switches the run's policy performed (zero for the
        // static policies). Null for cache-served results, like skip_ratio.
        (
            "policy_switches",
            rec.switches.map_or(Json::Null, Json::U64),
        ),
        // Fragment-replay shape (v3): how many time-axis fragments the
        // run was split into and the fragment length in cycles. Null for
        // sequential and cache-served runs; fragmented results are proven
        // digest-identical, so these are purely execution metadata.
        (
            "fragments",
            rec.fragments.map_or(Json::Null, |(n, _)| Json::U64(n)),
        ),
        (
            "fragment_cycles",
            rec.fragments.map_or(Json::Null, |(_, c)| Json::U64(c)),
        ),
        ("throughput_ipc", Json::F64(r.throughput())),
        ("hmean_relative_ipc", hmean.map_or(Json::Null, Json::F64)),
        (
            "branch_mispredict_rate",
            Json::F64(r.branch_mispredict_rate),
        ),
        (
            "totals",
            Json::obj(vec![
                ("fetched", Json::U64(r.total_fetched())),
                (
                    "wrong_path_fetched",
                    Json::U64(r.total_wrong_path_fetched()),
                ),
                ("wrong_path_fraction", Json::F64(r.wrong_path_fraction())),
                ("committed", Json::U64(sum(|t| t.committed))),
                ("flush_squashed", Json::U64(r.total_flush_squashed())),
                ("flushed_fraction", Json::F64(r.flushed_fraction())),
                ("gated_cycles", Json::U64(sum(|t| t.gated_cycles))),
                ("blocked_cycles", Json::U64(sum(|t| t.blocked_cycles))),
                ("dispatch_stalls", Json::U64(sum(|t| t.dispatch_stalls))),
            ]),
        ),
        ("threads", Json::Arr(threads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_result(ipcs: &[f64]) -> SimResult {
        SimResult {
            cycles: 1_000,
            threads: ipcs
                .iter()
                .map(|&i| ThreadStats {
                    committed: (i * 1_000.0) as u64,
                    fetched: (i * 1_500.0) as u64,
                    wrong_path_fetched: 10,
                    ..Default::default()
                })
                .collect(),
            mem: vec![],
            branch_mispredict_rate: 0.05,
        }
    }

    #[test]
    fn benchmarks_derive_from_workload_names() {
        assert_eq!(benchmarks_of("solo:mcf"), Some(vec!["mcf".to_string()]));
        let mix = benchmarks_of("4-MIX").unwrap();
        assert_eq!(mix.len(), 4);
        assert_eq!(benchmarks_of("weird"), None);
    }

    #[test]
    fn run_json_includes_hmean_when_solos_recorded() {
        let wl = smt_workloads::workload(2, smt_workloads::WorkloadClass::Mix);
        let rec = RunRecord {
            tag: "campaign".into(),
            arch: "baseline".into(),
            workload: wl.name.clone(),
            policy: "DWARN".into(),
            result: fake_result(&[1.0, 1.0]),
            skip: Some((250, 1_000)),
            switches: Some(3),
            fragments: Some((8, 10_000)),
        };
        let solos: Vec<(String, String, f64)> = wl
            .benchmarks
            .iter()
            .map(|b| ("baseline".to_string(), b.to_string(), 2.0))
            .collect();
        let doc = run_json(&rec, &solos).render();
        assert!(doc.contains("\"hmean_relative_ipc\":0.5"), "{doc}");
        assert!(doc.contains("\"wrong_path_fetched\":20"), "{doc}");
        assert!(doc.contains("\"schema\":\"smt-stats-v3\""), "{doc}");
        assert!(doc.contains("\"schema_version\":3"), "{doc}");
        assert!(doc.contains("\"skip_ratio\":0.25"), "{doc}");
        assert!(doc.contains("\"policy_switches\":3"), "{doc}");
        assert!(doc.contains("\"fragments\":8"), "{doc}");
        assert!(doc.contains("\"fragment_cycles\":10000"), "{doc}");

        // Without solo baselines the Hmean is null, not wrong.
        let doc = run_json(&rec, &[]).render();
        assert!(doc.contains("\"hmean_relative_ipc\":null"), "{doc}");
    }

    #[test]
    fn skip_ratio_is_null_for_cache_served_runs() {
        let rec = RunRecord::new(
            "trace",
            "baseline",
            "2-MIX",
            "ICOUNT",
            &fake_result(&[1.0, 1.0]),
        );
        let doc = stats_json(&rec).render();
        assert!(doc.contains("\"skip_ratio\":null"), "{doc}");
        assert!(doc.contains("\"fragments\":null"), "{doc}");
        assert!(doc.contains("\"fragment_cycles\":null"), "{doc}");
    }

    #[test]
    fn filenames_are_sanitized() {
        assert_eq!(
            sanitize("baseline-solo:mcf-ICOUNT"),
            "baseline-solo-mcf-icount"
        );
    }
}
