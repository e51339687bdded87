//! Beyond the paper: the extension policies raced where the paper's
//! results say they should matter.
//!
//! The paper's one loss for DWarn is the 6/8-thread MEM regime, where
//! FLUSH's resource-freeing squash beats priority reduction. The natural
//! follow-up — DWarn's early warning plus FLUSH's late cure — is
//! `DWarnFlush`; this experiment measures whether it closes that gap
//! without giving up DWarn's wins elsewhere.

use dwarn_core::{DWarnFlush, DWarnThreshold, PolicyKind};
use smt_metrics::table::TextTable;
use smt_pipeline::{FetchPolicy, SimConfig};
use smt_workloads::{all_workloads, Workload};

use crate::ablation::Point;
use crate::runner::Campaign;

/// One workload's runs: DWarn, FLUSH, and the two extensions. Each
/// description pins the policy and its parameters.
fn row(wl: &Workload) -> [Point; 4] {
    let point = |desc, policy: fn() -> Box<dyn FetchPolicy>| {
        Point::new(SimConfig::baseline(), wl, desc, policy, "extensions")
    };
    [
        point("DWARN", || PolicyKind::DWarn.build()),
        point("FLUSH", || PolicyKind::Flush.build()),
        point("DWARN+FLUSH", || Box::new(DWarnFlush::new())),
        point("DWARN-K(k=2)", || Box::new(DWarnThreshold::new(2))),
    ]
}

/// Throughput of DWarn, FLUSH, and the two extensions over all workloads,
/// their runs batched together.
pub fn report(campaign: &Campaign) -> String {
    let rows: Vec<(String, [Point; 4])> = all_workloads()
        .iter()
        .map(|wl| (wl.name.clone(), row(wl)))
        .collect();
    campaign.prefetch(rows.iter().flat_map(|(_, r)| r.iter().map(Point::request)));
    let mut t = TextTable::new(vec![
        "workload",
        "DWARN",
        "FLUSH",
        "DWARN+FLUSH",
        "DWARN-K2",
    ]);
    let mut wins = 0usize;
    for (name, [dwarn, flush, combo, k2]) in &rows {
        let dwarn = dwarn.throughput(campaign);
        let flush = flush.throughput(campaign);
        let combo = combo.throughput(campaign);
        let k2 = k2.throughput(campaign);
        if combo >= dwarn.max(flush) * 0.99 {
            wins += 1;
        }
        t.row(vec![
            name.clone(),
            format!("{dwarn:.2}"),
            format!("{flush:.2}"),
            format!("{combo:.2}"),
            format!("{k2:.2}"),
        ]);
    }
    format!(
        "Extension study — combining DWarn's early warning with FLUSH's late cure\n\
         (DWARN+FLUSH = DWarn priorities, plus squash-on-declared-L2-miss at 6+ threads;\n\
         DWARN-K2 = demote a thread only at 2+ in-flight L1 misses)\n\n{}\n\
         DWARN+FLUSH matches-or-beats the better of its two parents on {wins}/{total} workloads.\n",
        t.render(),
        total = rows.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpParams;
    use smt_workloads::{workload, WorkloadClass};

    #[test]
    fn combo_recovers_flush_advantage_on_8_mem() {
        // The whole point of the extension: on 8-MEM, DWarn+FLUSH should
        // behave like FLUSH (which beats plain DWarn there).
        let c = Campaign::new(ExpParams {
            warmup: 8_000,
            measure: 20_000,
        });
        let wl = workload(8, WorkloadClass::Mem);
        let [dwarn, _, combo, _] = row(&wl).map(|p| p.throughput(&c));
        assert!(
            combo > dwarn,
            "DWarn+FLUSH {combo} should beat plain DWarn {dwarn} on 8-MEM"
        );
    }

    #[test]
    fn combo_equals_dwarn_below_six_threads() {
        // Below the activation point the two policies are the same machine.
        let c = Campaign::new(ExpParams {
            warmup: 3_000,
            measure: 8_000,
        });
        let wl = workload(4, WorkloadClass::Mix);
        let [dwarn, _, combo, _] = row(&wl).map(|p| p.throughput(&c));
        assert_eq!(dwarn, combo);
    }

    #[test]
    fn report_renders() {
        let c = Campaign::new(ExpParams {
            warmup: 500,
            measure: 1_500,
        });
        let s = report(&c);
        assert!(s.contains("DWARN+FLUSH"));
        assert!(s.contains("8-MEM"));
    }
}
