//! Beyond the paper: adaptive meta-policies and the oracle bounds that
//! frame them.
//!
//! The paper picks one fetch policy per run. This experiment asks what a
//! policy that *re-decides* every interval window can recover: each
//! switching meta-policy ([`dwarn_core::MetaPolicy`]) samples interval
//! metrics at window boundaries and hands fetch control to one of
//! {DWarn, STALL, FLUSH, ICOUNT}. Two oracle bounds frame the selectors:
//!
//! * **best-static** — the best single candidate for the whole run,
//!   chosen in hindsight (what a perfect *offline* selector achieves);
//! * **per-interval oracle** — stitch, per interval window, the candidate
//!   that committed the most instructions in that window (what a perfect
//!   *online* selector with zero switch cost could achieve).
//!
//! Every run is an ordinary grid run of the campaign, asked for its
//! interval series ([`Campaign::series`]), so the campaign's flags reach
//! it as they reach every other experiment's runs. Every number in the
//! tables shares one denominator: the full run's cycle count, with
//! per-interval committed counts taken from each run's [`IntervalSeries`].
//! That makes the ordering invariant *exact integer arithmetic*, not a
//! float comparison:
//!
//! ```text
//! worst static  ≤  best static  ≤  per-interval oracle
//! ```
//!
//! because `Σᵢ maxₚ c[p][i] ≥ maxₚ Σᵢ c[p][i] ≥ minₚ Σᵢ c[p][i]` for any
//! committed-count matrix. The report asserts it on every workload.
//!
//! Reproduce: `cargo run --release -p smt-experiments -- meta`
//! (add `--quick` for short windows, `--sanitize` to audit every run,
//! `--intervals <dir>` to keep every run's series).

use dwarn_core::meta::DEFAULT_WINDOW as DEFAULT_META_WINDOW;
use dwarn_core::PolicyKind;
use smt_metrics::table::TextTable;
use smt_obs::IntervalSeries;
use smt_workloads::{all_workloads, Workload};

use crate::runner::{Arch, Campaign, RunKey};

/// The candidate set the meta-policies switch over, in the order
/// [`dwarn_core::MetaPolicy::default_candidates`] installs them. The
/// oracle bounds are computed over exactly this set.
pub const CANDIDATES: [PolicyKind; 4] = [
    PolicyKind::DWarn,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Icount,
];

/// One workload's results: per-policy full-run IPC and Hmean, selector
/// switch counts, and the two oracle bounds.
pub struct MetaRow {
    pub workload: String,
    /// Full-run throughput IPC per static candidate, [`CANDIDATES`] order.
    pub static_ipc: Vec<f64>,
    /// Full-run throughput IPC per selector, [`PolicyKind::meta_set`] order.
    pub meta_ipc: Vec<f64>,
    /// Hmean of relative IPCs per static candidate (same order).
    pub static_hmean: Vec<f64>,
    /// Hmean of relative IPCs per selector (same order).
    pub meta_hmean: Vec<f64>,
    /// Fetch-policy switches each selector performed (same order).
    pub switches: Vec<u64>,
    /// The best-static bound and which candidate achieves it.
    pub best_static: f64,
    pub best_static_name: &'static str,
    pub worst_static: f64,
    /// The per-interval oracle bound (IPC and Hmean of the stitched run).
    pub oracle_ipc: f64,
    pub oracle_hmean: f64,
    /// `worst static ≤ best static ≤ oracle`, checked on the underlying
    /// integer committed counts.
    pub ordering_ok: bool,
}

/// Total committed instructions per interval window (all threads).
fn committed_per_interval(s: &IntervalSeries) -> Vec<u64> {
    s.intervals
        .iter()
        .map(|iv| iv.threads.iter().map(|t| t.committed).sum())
        .collect()
}

/// Total committed instructions per thread over the whole series.
fn committed_per_thread(s: &IntervalSeries) -> Vec<u64> {
    s.total().threads.iter().map(|t| t.committed).collect()
}

/// Hmean of relative IPCs for per-thread committed counts over `cycles`.
fn hmean_of(committed: &[u64], cycles: u64, solos: &[f64]) -> f64 {
    let ipcs: Vec<f64> = committed
        .iter()
        .map(|&c| c as f64 / cycles as f64)
        .collect();
    smt_metrics::hmean(&smt_metrics::relative_ipcs(&ipcs, solos))
}

/// The runs of one workload's row, in the order [`compute_row`] reads
/// their series: the static candidates, then the selectors.
fn row_keys(wl: &Workload) -> Vec<RunKey> {
    CANDIDATES
        .into_iter()
        .chain(PolicyKind::meta_set())
        .map(|k| RunKey::workload(Arch::Baseline, wl, k))
        .collect()
}

/// Derive one workload's row from the series of its [`row_keys`] runs.
fn compute_row(campaign: &Campaign, wl: &Workload, series: &[IntervalSeries]) -> MetaRow {
    let solos: Vec<f64> = wl
        .benchmarks
        .iter()
        .map(|b| campaign.solo_ipc(Arch::Baseline, b))
        .collect();

    let (static_series, meta_series) = series.split_at(CANDIDATES.len());
    let cycles = static_series[0].total().cycles;
    for s in static_series {
        assert_eq!(
            s.total().cycles,
            cycles,
            "{}: fixed-length runs must cover identical cycle ranges",
            wl.name
        );
    }

    // Per-candidate totals, and the stitched per-interval oracle. All
    // integer sums over the same fixed windows, so the ordering invariant
    // below is exact.
    let per_interval: Vec<Vec<u64>> = static_series.iter().map(committed_per_interval).collect();
    let static_committed: Vec<u64> = per_interval.iter().map(|c| c.iter().sum()).collect();
    let windows = per_interval.iter().map(Vec::len).max().unwrap_or(0);
    let mut oracle_committed = 0u64;
    let mut oracle_per_thread = vec![0u64; wl.benchmarks.len()];
    for i in 0..windows {
        let winner = (0..CANDIDATES.len())
            .max_by_key(|&p| per_interval[p].get(i).copied().unwrap_or(0))
            .unwrap_or(0);
        oracle_committed += per_interval[winner].get(i).copied().unwrap_or(0);
        if let Some(iv) = static_series[winner].intervals.get(i) {
            for (t, w) in iv.threads.iter().enumerate() {
                oracle_per_thread[t] += w.committed;
            }
        }
    }
    let best = (0..CANDIDATES.len())
        .max_by_key(|&p| static_committed[p])
        .unwrap_or(0);
    let best_committed = static_committed[best];
    let worst_committed = static_committed.iter().copied().min().unwrap_or(0);
    let ordering_ok = worst_committed <= best_committed && best_committed <= oracle_committed;

    let mut meta_ipc = Vec::new();
    let mut meta_hmean = Vec::new();
    let mut switches = Vec::new();
    for series in meta_series {
        let committed = committed_per_thread(series);
        meta_ipc.push(committed.iter().sum::<u64>() as f64 / cycles as f64);
        meta_hmean.push(hmean_of(&committed, cycles, &solos));
        switches.push(series.total().policy_switches);
    }

    let static_hmean: Vec<f64> = static_series
        .iter()
        .map(|s| hmean_of(&committed_per_thread(s), cycles, &solos))
        .collect();
    MetaRow {
        workload: wl.name.clone(),
        static_ipc: static_committed
            .iter()
            .map(|&c| c as f64 / cycles as f64)
            .collect(),
        meta_ipc,
        static_hmean,
        meta_hmean,
        switches,
        best_static: best_committed as f64 / cycles as f64,
        best_static_name: CANDIDATES[best].name(),
        worst_static: worst_committed as f64 / cycles as f64,
        oracle_ipc: oracle_committed as f64 / cycles as f64,
        oracle_hmean: hmean_of(&oracle_per_thread, cycles, &solos),
        ordering_ok,
    }
}

/// Compute the rows of `wls`: their solo baselines as one prefetch
/// batch, then every row's series runs as one series batch.
fn compute_rows(campaign: &Campaign, wls: &[Workload]) -> Vec<MetaRow> {
    campaign.prefetch(&Campaign::solo_grid(Arch::Baseline, wls));
    let keys: Vec<RunKey> = wls.iter().flat_map(row_keys).collect();
    let series = campaign.series(&keys);
    wls.iter()
        .zip(series.chunks(CANDIDATES.len() + PolicyKind::meta_set().len()))
        .map(|(wl, series)| compute_row(campaign, wl, series))
        .collect()
}

/// Compute every workload's row.
pub fn compute(campaign: &Campaign) -> Vec<MetaRow> {
    compute_rows(campaign, &all_workloads())
}

/// Render the results chapter: full-run IPC table, Hmean table, selector
/// switch counts, and the ordering-invariant verdict.
pub fn report(campaign: &Campaign) -> String {
    let rows = compute(campaign);
    let metas = PolicyKind::meta_set();

    let mut cols = vec!["workload".to_string()];
    cols.extend(CANDIDATES.iter().map(|k| k.name().to_string()));
    cols.extend(metas.iter().map(|k| k.name().to_string()));
    cols.push("best-static".to_string());
    cols.push("iv-oracle".to_string());

    let mut ipc_t = TextTable::new(cols.iter().map(String::as_str).collect());
    let mut hm_t = TextTable::new(cols.iter().map(String::as_str).collect());
    let mut sw_t = TextTable::new(
        std::iter::once("workload")
            .chain(metas.iter().map(|k| k.name()))
            .collect(),
    );
    let mut ok = 0usize;
    for r in &rows {
        let mut ipc_row = vec![r.workload.clone()];
        ipc_row.extend(r.static_ipc.iter().map(|v| format!("{v:.2}")));
        ipc_row.extend(r.meta_ipc.iter().map(|v| format!("{v:.2}")));
        ipc_row.push(format!("{:.2} ({})", r.best_static, r.best_static_name));
        ipc_row.push(format!("{:.2}", r.oracle_ipc));
        ipc_t.row(ipc_row);

        let mut hm_row = vec![r.workload.clone()];
        hm_row.extend(r.static_hmean.iter().map(|v| format!("{v:.2}")));
        hm_row.extend(r.meta_hmean.iter().map(|v| format!("{v:.2}")));
        hm_row.push(format!(
            "{:.2}",
            r.static_hmean.iter().cloned().fold(f64::MIN, f64::max)
        ));
        hm_row.push(format!("{:.2}", r.oracle_hmean));
        hm_t.row(hm_row);

        let mut sw_row = vec![r.workload.clone()];
        sw_row.extend(r.switches.iter().map(|s| s.to_string()));
        sw_t.row(sw_row);

        ok += usize::from(r.ordering_ok);
    }
    let verdict = if ok == rows.len() {
        format!("ordering invariant: OK ({ok}/{} workloads)", rows.len())
    } else {
        format!(
            "ordering invariant: VIOLATED on {} workload(s)",
            rows.len() - ok
        )
    };
    format!(
        "Meta-policy study — interval-driven dynamic selection over {{DWARN, STALL, FLUSH, ICOUNT}}\n\
         (window = {DEFAULT_META_WINDOW} cycles; all IPCs full-run, from each run's interval series;\n\
         best-static = best single candidate in hindsight, iv-oracle = per-window stitched bound)\n\n\
         Full-run throughput IPC\n{}\n\
         Hmean of relative IPCs\n{}\n\
         Selector switch counts\n{}\n\
         worst static <= best static <= per-interval oracle on every workload, by integer\n\
         committed counts over identical windows: {verdict}\n",
        ipc_t.render(),
        hm_t.render(),
        sw_t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpParams;
    use crate::testutil::TempDir;
    use smt_obs::IntervalConfig;
    use smt_workloads::{workload, WorkloadClass};

    const QUICK: ExpParams = ExpParams {
        warmup: 500,
        measure: 1_500,
    };

    fn quick() -> Campaign {
        Campaign::new(QUICK)
    }

    #[test]
    fn oracle_bounds_order_on_one_workload() {
        let c = quick();
        let wl = workload(4, WorkloadClass::Mix);
        let row = &compute_rows(&c, std::slice::from_ref(&wl))[0];
        // The oracle's windows are the selectors' decision windows only
        // because the campaign's default interval window is theirs.
        assert_eq!(IntervalConfig::default().window, DEFAULT_META_WINDOW);
        assert!(row.ordering_ok);
        assert!(row.worst_static <= row.best_static);
        assert!(row.best_static <= row.oracle_ipc);
        assert_eq!(row.static_ipc.len(), CANDIDATES.len());
        assert_eq!(row.meta_ipc.len(), PolicyKind::meta_set().len());
    }

    #[test]
    fn sanitized_rows_match_plain_rows() {
        // The sanitizer is observation-only; the row's numbers must not
        // move when it is attached (and the run must come back clean).
        // The audited campaign warms a disk cache, where the plain one's
        // series requests must still simulate: a stored result has no
        // series. The last campaign attaches every observer on that warm
        // cache and must leave one interval file per run. A series batch
        // of seven runs replays fragments only from 21 workers up, so
        // replay of a series run is pinned in `tests/fragments.rs`, by
        // `campaign_fragmented_results_match_sequential_campaign`.
        let wl = workload(2, WorkloadClass::Mem);
        let solos = Campaign::solo_grid(Arch::Baseline, std::slice::from_ref(&wl));
        let cache = TempDir::new("dwarn-meta", "cache");
        let on_cache = || Campaign::with_disk_cache(QUICK, &cache).unwrap();
        let row = |c: &Campaign| compute_rows(c, std::slice::from_ref(&wl)).remove(0);
        let mut audited = on_cache();
        audited.set_sanitize(true);
        let a = row(&audited);
        let plain = row(&on_cache());
        let iv = TempDir::new("dwarn-meta", "intervals");
        let mut observed = on_cache();
        observed.set_sanitize(true);
        observed
            .set_intervals(&iv, IntervalConfig::default().window)
            .unwrap();
        let b = row(&observed);
        for r in [&a, &b] {
            assert_eq!(plain.static_ipc, r.static_ipc);
            assert_eq!(plain.meta_ipc, r.meta_ipc);
            assert_eq!(plain.switches, r.switches);
            assert_eq!(plain.oracle_ipc, r.oracle_ipc);
        }
        // Two solos, four statics and three selectors, named by run label.
        let mut runs = solos;
        runs.extend(Campaign::grid(
            Arch::Baseline,
            std::slice::from_ref(&wl),
            &[&CANDIDATES[..], &PolicyKind::meta_set()].concat(),
        ));
        let mut want: Vec<String> = runs
            .iter()
            .map(|k| format!("{}.intervals.jsonl", crate::artifacts::sanitize(&k.label())))
            .collect();
        let mut got: Vec<String> = std::fs::read_dir(&*iv)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".intervals.jsonl"))
            .collect();
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn report_renders_with_verdict() {
        let c = quick();
        let s = report(&c);
        assert!(s.contains("ordering invariant: OK"), "{s}");
        assert!(s.contains("META-IPC"));
        assert!(s.contains("iv-oracle"));
        assert!(s.contains("8-MEM"));
    }
}
