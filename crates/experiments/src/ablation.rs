//! Ablations the paper reports in prose:
//!
//! * §5: the DG outstanding-miss threshold — the paper found n = 1 best
//!   ("a low value can lead to over-stalling, a high value causes that ...
//!   internal shared resources \[are\] clogged").
//! * §5: the STALL/FLUSH L2-declare threshold — 15 cycles was best for the
//!   baseline architecture.
//! * §3/§5.2: DWarn's hybrid rule — gating declared L2 misses below three
//!   threads vs. pure priority reduction.

use dwarn_core::{DWarn, DataGating, PolicyKind};
use smt_metrics::table::TextTable;
use smt_pipeline::{FetchPolicy, SimConfig};
use smt_workloads::{workload, Workload, WorkloadClass};

use crate::artifacts::RunRecord;
use crate::runner::{Campaign, CustomRun, Request};

/// One declared custom run and the stats record it leaves: `tag` names
/// the experiment, `workload` the row. Experiments declare every point
/// before anything runs, so their runs go to the campaign as one batch.
pub(crate) struct Point {
    run: CustomRun,
    workload: String,
    tag: String,
}

impl Point {
    /// `desc` must pin down the policy *and its parameters* (it is the
    /// policy part of the run's description); the built policy's own
    /// `name()` is what the stats record carries.
    pub(crate) fn new(
        cfg: SimConfig,
        wl: &Workload,
        desc: &str,
        policy: impl Fn() -> Box<dyn FetchPolicy> + Sync + 'static,
        tag: &str,
    ) -> Point {
        Point {
            run: CustomRun::new(cfg, wl, desc, policy),
            workload: wl.name.clone(),
            tag: tag.to_string(),
        }
    }

    pub(crate) fn request(&self) -> Request<'_> {
        Request::Custom(&self.run)
    }

    /// The run's throughput, recorded as a stats artifact. After the
    /// point's batch this reads the campaign's memo; alone, it simulates.
    pub(crate) fn throughput(&self, campaign: &Campaign) -> f64 {
        let CustomRun {
            cfg,
            specs,
            policy_desc,
            build,
        } = &self.run;
        let name = build().name();
        let result = campaign.run_custom(cfg, specs, policy_desc, build);
        crate::artifacts::record(RunRecord::new(
            &self.tag,
            "baseline",
            &self.workload,
            name,
            &result,
        ));
        result.throughput()
    }
}

/// One ablation table: each row's label and its runs, one per
/// throughput column.
struct Sweep {
    /// Title and the paper's claim, printed above the table.
    heading: &'static str,
    columns: Vec<&'static str>,
    rows: Vec<(String, Vec<Point>)>,
    /// Append DWarn's gain over ICOUNT, the row's second run over its
    /// first.
    gain: bool,
}

impl Sweep {
    fn requests(&self) -> impl Iterator<Item = Request<'_>> {
        self.rows
            .iter()
            .flat_map(|(_, points)| points.iter().map(Point::request))
    }

    fn render(&self, campaign: &Campaign) -> String {
        let mut t = TextTable::new(self.columns.clone());
        for (label, points) in &self.rows {
            let tputs: Vec<f64> = points.iter().map(|p| p.throughput(campaign)).collect();
            let mut row = vec![label.clone()];
            row.extend(tputs.iter().map(|x| format!("{x:.2}")));
            if self.gain {
                let gain = smt_metrics::improvement_pct(tputs[1], tputs[0]);
                row.push(format!("{gain:+.1}%"));
            }
            t.row(row);
        }
        format!("{}\n\n{}", self.heading, t.render())
    }

    /// Batch this sweep's runs, then render it.
    fn report(&self, campaign: &Campaign) -> String {
        campaign.prefetch(self.requests());
        self.render(campaign)
    }
}

/// The runs of [`dg_threshold_sweep`].
fn dg_threshold() -> Sweep {
    let tag = "ablation:dg-threshold";
    let rows = [
        workload(4, WorkloadClass::Mix),
        workload(4, WorkloadClass::Mem),
    ]
    .iter()
    .map(|wl| {
        let mut runs: Vec<Point> = [1u32, 2, 4]
            .into_iter()
            .map(|n| {
                // n = 1 is the paper's DG, which Figure 1 runs: under its
                // grid description it is the same simulation.
                let desc = match n {
                    1 => PolicyKind::Dg.cache_desc(),
                    n => format!("DG(n={n})"),
                };
                Point::new(
                    SimConfig::baseline(),
                    wl,
                    &desc,
                    move || Box::new(DataGating::with_threshold(n)),
                    tag,
                )
            })
            .collect();
        runs.push(Point::new(
            SimConfig::baseline(),
            wl,
            "ICOUNT",
            || PolicyKind::Icount.build(),
            tag,
        ));
        (wl.name.clone(), runs)
    })
    .collect();
    Sweep {
        heading: "Ablation — DG outstanding-miss threshold (throughput)\n\
                  Paper: n = 1 presents the best overall results.",
        columns: vec!["workload", "n=1", "n=2", "n=4", "ICOUNT"],
        rows,
        gain: false,
    }
}

/// The runs of [`declare_threshold_sweep`].
fn declare_threshold() -> Sweep {
    let wl = workload(4, WorkloadClass::Mem);
    let rows = [PolicyKind::Stall, PolicyKind::Flush]
        .into_iter()
        .map(|kind| {
            let runs = [8u64, 15, 30, 60]
                .into_iter()
                .map(|thr| {
                    let mut cfg = SimConfig::baseline();
                    cfg.l2_declare_threshold = thr;
                    let tag = format!("ablation:declare-thr{thr}");
                    Point::new(cfg, &wl, kind.name(), move || kind.build(), &tag)
                })
                .collect();
            (kind.name().to_string(), runs)
        })
        .collect();
    Sweep {
        heading: "Ablation — L2-declare threshold (throughput, 4-MEM)\n\
                  Paper: 15 cycles presents the best overall results for the baseline.",
        columns: vec!["policy", "thr=8", "thr=15", "thr=30", "thr=60"],
        rows,
        gain: false,
    }
}

/// The runs of [`dwarn_hybrid_ablation`].
fn dwarn_hybrid() -> Sweep {
    let tag = "ablation:hybrid-rule";
    let rows = [
        (2, WorkloadClass::Mix),
        (2, WorkloadClass::Mem),
        (4, WorkloadClass::Mix),
        (4, WorkloadClass::Mem),
    ]
    .into_iter()
    .map(|(threads, class)| {
        let wl = workload(threads, class);
        let runs = vec![
            Point::new(
                SimConfig::baseline(),
                &wl,
                "DWARN",
                || Box::new(DWarn::new()),
                tag,
            ),
            Point::new(
                SimConfig::baseline(),
                &wl,
                "DWARN(prio-only)",
                || Box::new(DWarn::priority_only()),
                tag,
            ),
            Point::new(
                SimConfig::baseline(),
                &wl,
                "ICOUNT",
                || PolicyKind::Icount.build(),
                tag,
            ),
        ];
        (wl.name.clone(), runs)
    })
    .collect();
    Sweep {
        heading: "Ablation — DWarn hybrid rule (throughput)\n\
                  Paper §3: with fewer than three threads, priority reduction alone cannot\n\
                  keep a Dmiss thread from slowly filling the machine; the hybrid gates\n\
                  declared L2 misses there. At 4+ threads the two variants coincide.",
        columns: vec!["workload", "DWarn(hybrid)", "DWarn(prio-only)", "ICOUNT"],
        rows,
        gain: false,
    }
}

/// The runs of [`fetch_mechanism_sweep`].
fn fetch_mechanism() -> Sweep {
    let wl = workload(4, WorkloadClass::Mix);
    let rows = [(1u32, 4u32), (1, 8), (2, 4), (2, 8), (4, 8)]
        .into_iter()
        .map(|(threads, width)| {
            let mut cfg = SimConfig::baseline();
            cfg.fetch_threads = threads;
            cfg.fetch_width = width;
            let tag = format!("ablation:fetch-{threads}.{width}");
            let runs = vec![
                Point::new(
                    cfg.clone(),
                    &wl,
                    "ICOUNT",
                    || PolicyKind::Icount.build(),
                    &tag,
                ),
                Point::new(cfg, &wl, "DWARN", || PolicyKind::DWarn.build(), &tag),
            ];
            (format!("{threads}.{width}"), runs)
        })
        .collect();
    Sweep {
        heading: "Ablation — fetch mechanism (ICOUNT x.y), 4-MIX throughput\n\
                  Paper probes x.y at 2.8 (baseline/deep) and 1.4 (small machine).",
        columns: vec!["mechanism", "ICOUNT", "DWARN", "DWarn gain"],
        rows,
        gain: true,
    }
}

/// DG threshold sweep on 4-MIX and 4-MEM.
pub fn dg_threshold_sweep(campaign: &Campaign) -> String {
    dg_threshold().report(campaign)
}

/// STALL/FLUSH declare-threshold sweep on 4-MEM.
pub fn declare_threshold_sweep(campaign: &Campaign) -> String {
    declare_threshold().report(campaign)
}

/// DWarn hybrid-rule ablation: hybrid vs. priority-only on the 2-thread
/// workloads (where the rule matters) and 4-thread workloads (where it is
/// inactive by design).
pub fn dwarn_hybrid_ablation(campaign: &Campaign) -> String {
    dwarn_hybrid().report(campaign)
}

/// Fetch-mechanism sweep: the x.y axis the paper probes at two points
/// (1.4 in §6's small machine, 2.8 everywhere else), swept continuously.
/// The paper's §3 prediction: the fewer threads that can fetch per cycle,
/// the less DWarn's priority reduction leaks — and at 1.X the Dmiss
/// group cannot fetch at all while a Normal thread exists.
pub fn fetch_mechanism_sweep(campaign: &Campaign) -> String {
    fetch_mechanism().report(campaign)
}

/// All ablations, their runs batched together.
pub fn report(campaign: &Campaign) -> String {
    let sweeps = [
        dg_threshold(),
        declare_threshold(),
        dwarn_hybrid(),
        fetch_mechanism(),
    ];
    campaign.prefetch(sweeps.iter().flat_map(Sweep::requests));
    let parts: Vec<String> = sweeps.iter().map(|s| s.render(campaign)).collect();
    parts.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpParams;

    #[test]
    fn hybrid_equals_prio_only_at_four_threads() {
        // At 4 threads, DWarn's hybrid rule is inactive by construction,
        // so the two variants must produce *identical* runs.
        let c = Campaign::new(ExpParams {
            warmup: 2_000,
            measure: 6_000,
        });
        let wl = workload(4, WorkloadClass::Mix);
        let hybrid = Point::new(
            SimConfig::baseline(),
            &wl,
            "DWARN",
            || Box::new(DWarn::new()),
            "test",
        );
        let prio = Point::new(
            SimConfig::baseline(),
            &wl,
            "DWARN(prio-only)",
            || Box::new(DWarn::priority_only()),
            "test",
        );
        assert_eq!(hybrid.throughput(&c), prio.throughput(&c));
    }

    #[test]
    fn ablation_reports_render() {
        let c = Campaign::new(ExpParams {
            warmup: 500,
            measure: 2_000,
        });
        let s = dg_threshold_sweep(&c);
        assert!(s.contains("n=1"));
        let s = declare_threshold_sweep(&c);
        assert!(s.contains("thr=15"));
    }
}
