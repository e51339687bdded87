//! DWarn — the paper's contribution.
//!
//! **Detection moment:** the L1 data-cache miss — reliable (every L2 miss is
//! first an L1 miss) and early (known ~5 cycles after the load is fetched,
//! long before an L2 miss can be declared).
//!
//! **Response action:** *reduce priority* (a new RA in the paper's
//! taxonomy). Each cycle the threads are classified into the **Dmiss**
//! group (one or more in-flight L1 data misses — the per-context miss
//! counter of the paper's hardware sketch) and the **Normal** group; Normal
//! threads fetch first, each group internally ordered by ICOUNT. Threads
//! are never fetch-stalled outright: if the Normal threads cannot fill the
//! fetch bandwidth, Dmiss threads use the rest, which is what saves DWarn
//! from DG/PDG's resource under-use when few threads run — and not every L1
//! miss becomes an L2 miss, so the caution is warranted.
//!
//! **Hybrid rule (§3):** with fewer than three running threads, priority
//! reduction alone cannot keep a Dmiss thread out of the machine (fetch
//! fragmentation leaves bandwidth that the Dmiss thread soaks up), so a
//! second RA kicks in: once a load is *declared* to miss in L2, its thread
//! is gated until the load resolves. With three or more threads the
//! priority reduction alone suffices. The paper's evaluated DWarn is this
//! hybrid; [`DWarn::priority_only`] gives the pure-priority variant for
//! ablation.

use smt_pipeline::{FetchPolicy, PolicyView};

use crate::taxonomy::{Classification, DetectionMoment, ResponseAction};

/// The DWarn fetch policy.
#[derive(Debug, Clone, Copy)]
pub struct DWarn {
    /// Apply the gate-on-declared-L2-miss RA when fewer than this many
    /// threads are running (the paper uses 3: "if there are less than three
    /// threads running").
    hybrid_below: usize,
}

impl DWarn {
    /// The paper's DWarn: hybrid, gating declared L2 misses for 2-thread
    /// workloads.
    pub fn new() -> DWarn {
        DWarn { hybrid_below: 3 }
    }

    /// Pure priority-reduction variant (no gating at any thread count) —
    /// the ablation of the hybrid rule.
    pub fn priority_only() -> DWarn {
        DWarn { hybrid_below: 0 }
    }

    pub fn classification() -> Classification {
        Classification::new(DetectionMoment::L1, ResponseAction::ReducePriority)
    }

    /// The two-group priority order: Normal (no in-flight L1-D misses)
    /// first, Dmiss after, ICOUNT within each group. Fills `out` in place.
    pub(crate) fn grouped_order_into(view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
        // Stable partition: Normal group keeps ICOUNT order, then Dmiss.
        crate::stall_flush::stable_partition(out, |t| view.threads[t].dmiss_count > 0);
    }
}

impl Default for DWarn {
    fn default() -> Self {
        Self::new()
    }
}

impl FetchPolicy for DWarn {
    fn name(&self) -> &'static str {
        "DWARN"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        Self::grouped_order_into(view, out);
        if view.num_threads() < self.hybrid_below {
            // Hybrid RA: gate threads with a declared L2 miss outstanding —
            // but, as with STALL/FLUSH, never gate the last runnable thread.
            crate::stall_flush::retain_ungated_keep_one(out, view);
        }
    }

    /// The sanitizer's `INV013` check: DWarn's published order must obey the
    /// paper's two-group rule and the hybrid gating rule.
    fn audit_order(&self, view: &PolicyView, order: &[usize]) -> Result<(), String> {
        let hybrid_active = view.num_threads() < self.hybrid_below;
        // Group rule: a thread is in the Dmiss group iff it has an
        // outstanding L1 data miss; Normal threads fetch first, ICOUNT
        // ascending within each group (ties by thread index).
        let key = |t: usize| {
            let v = &view.threads[t];
            ((v.dmiss_count > 0) as u32, v.icount, t)
        };
        for w in order.windows(2) {
            if key(w[0]) > key(w[1]) {
                return Err(format!(
                    "thread {} (dmiss={} icount={}) ordered before thread {} \
                     (dmiss={} icount={}), violating Normal-first / ICOUNT order",
                    w[0],
                    view.threads[w[0]].dmiss_count,
                    view.threads[w[0]].icount,
                    w[1],
                    view.threads[w[1]].dmiss_count,
                    view.threads[w[1]].icount,
                ));
            }
        }
        // Gating rule: threads are only ever omitted by the hybrid RA —
        // declared L2 miss outstanding, fewer threads than the threshold —
        // and never all of them.
        if view.num_threads() > 0 && order.is_empty() {
            return Err("every thread gated (the keep-one rule forbids this)".into());
        }
        for t in 0..view.num_threads() {
            if order.contains(&t) {
                continue;
            }
            if !hybrid_active {
                return Err(format!(
                    "thread {t} gated with {} threads running (DWarn only gates below {})",
                    view.num_threads(),
                    self.hybrid_below
                ));
            }
            if view.threads[t].declared_l2 == 0 {
                return Err(format!(
                    "thread {t} gated without a declared L2 miss outstanding"
                ));
            }
        }
        Ok(())
    }

    /// Warn levels for the interval telemetry: 0 = Normal group, 1 = Dmiss
    /// group (priority reduced), 2 = gated by the hybrid declared-L2 rule.
    /// Pure function of the view, like `fetch_order_into` — required so
    /// levels are frozen across quiescence-skipped spans.
    fn warn_level(&self, view: &PolicyView, thread: usize) -> u8 {
        let v = &view.threads[thread];
        if v.declared_l2 > 0 && view.num_threads() < self.hybrid_below {
            2
        } else if v.dmiss_count > 0 {
            1
        } else {
            0
        }
    }

    // Pure function of the view: the quiescence engine may skip idle spans.
    fn quiescence_safe(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_pipeline::ThreadView;

    fn tv(icount: u32, dmiss: u32, declared: u32) -> ThreadView {
        ThreadView {
            icount,
            dmiss_count: dmiss,
            declared_l2: declared,
            ..Default::default()
        }
    }

    fn view(threads: &[ThreadView]) -> PolicyView<'_> {
        PolicyView { cycle: 0, threads }
    }

    #[test]
    fn normal_threads_fetch_before_dmiss_threads() {
        // Thread 1 has the lowest ICOUNT but an in-flight L1 miss.
        let threads = vec![tv(9, 0, 0), tv(1, 1, 0), tv(4, 0, 0)];
        let order = DWarn::new().fetch_order(&view(&threads));
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn icount_orders_within_each_group() {
        let threads = vec![tv(9, 2, 0), tv(5, 1, 0), tv(7, 0, 0), tv(2, 0, 0)];
        let order = DWarn::new().fetch_order(&view(&threads));
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn dmiss_threads_are_never_dropped_at_four_threads() {
        let threads = vec![tv(1, 3, 2), tv(2, 1, 1), tv(3, 0, 0), tv(4, 0, 0)];
        let order = DWarn::new().fetch_order(&view(&threads));
        assert_eq!(order.len(), 4, "DWarn never stalls threads at 4+ threads");
    }

    #[test]
    fn hybrid_gates_declared_l2_misses_with_two_threads() {
        let threads = vec![tv(1, 1, 1), tv(9, 0, 0)];
        let order = DWarn::new().fetch_order(&view(&threads));
        assert_eq!(order, vec![1], "declared thread is gated at 2 threads");
        // Before declaration, the thread is only deprioritized.
        let threads = vec![tv(1, 1, 0), tv(9, 0, 0)];
        let order = DWarn::new().fetch_order(&view(&threads));
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn priority_only_never_gates() {
        let threads = vec![tv(1, 1, 1), tv(9, 0, 0)];
        let order = DWarn::priority_only().fetch_order(&view(&threads));
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn reduces_to_icount_when_no_misses() {
        let threads = vec![tv(5, 0, 0), tv(2, 0, 0), tv(8, 0, 0)];
        let order = DWarn::new().fetch_order(&view(&threads));
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn audit_accepts_every_order_the_policy_produces() {
        let scenarios = vec![
            vec![tv(9, 0, 0), tv(1, 1, 0), tv(4, 0, 0)],
            vec![tv(9, 2, 0), tv(5, 1, 0), tv(7, 0, 0), tv(2, 0, 0)],
            vec![tv(1, 1, 1), tv(9, 0, 0)],
            vec![tv(1, 1, 1), tv(9, 0, 1)], // all declared: keep-one applies
            vec![tv(5, 0, 0)],
        ];
        for threads in scenarios {
            let mut p = DWarn::new();
            let v = view(&threads);
            let order = p.fetch_order(&v);
            assert_eq!(
                p.audit_order(&v, &order),
                Ok(()),
                "own order rejected for {threads:?} -> {order:?}"
            );
        }
    }

    #[test]
    fn audit_rejects_dmiss_thread_ahead_of_normal_thread() {
        let threads = vec![tv(9, 0, 0), tv(1, 1, 0)];
        let p = DWarn::new();
        // Correct order is [0, 1]; a Dmiss thread first violates the group
        // rule even though its ICOUNT is lower.
        let err = p.audit_order(&view(&threads), &[1, 0]).unwrap_err();
        assert!(err.contains("Normal-first"), "{err}");
    }

    #[test]
    fn audit_rejects_icount_disorder_within_a_group() {
        let threads = vec![tv(9, 0, 0), tv(1, 0, 0)];
        let p = DWarn::new();
        let err = p.audit_order(&view(&threads), &[0, 1]).unwrap_err();
        assert!(err.contains("ICOUNT"), "{err}");
    }

    #[test]
    fn audit_rejects_gating_without_a_declared_miss() {
        // Two threads, hybrid active: omitting an undeclared thread is a
        // violation.
        let threads = vec![tv(1, 1, 0), tv(9, 0, 0)];
        let p = DWarn::new();
        let err = p.audit_order(&view(&threads), &[1]).unwrap_err();
        assert!(err.contains("without a declared L2 miss"), "{err}");
    }

    #[test]
    fn audit_rejects_gating_at_or_above_the_hybrid_threshold() {
        // Three threads: DWarn never gates, only deprioritizes.
        let threads = vec![tv(1, 1, 1), tv(5, 0, 0), tv(9, 0, 0)];
        let p = DWarn::new();
        let err = p.audit_order(&view(&threads), &[1, 2]).unwrap_err();
        assert!(err.contains("only gates below"), "{err}");
    }

    #[test]
    fn audit_rejects_the_empty_order() {
        let threads = vec![tv(1, 1, 1), tv(9, 0, 1)];
        let p = DWarn::new();
        let err = p.audit_order(&view(&threads), &[]).unwrap_err();
        assert!(err.contains("keep-one"), "{err}");
    }

    #[test]
    fn warn_levels_track_group_and_hybrid_state() {
        let p = DWarn::new();
        // 2 threads (hybrid active): declared → 2, dmiss-only → 1, clean → 0.
        let threads = vec![tv(1, 1, 1), tv(9, 0, 0)];
        let v = view(&threads);
        assert_eq!(p.warn_level(&v, 0), 2);
        assert_eq!(p.warn_level(&v, 1), 0);
        let threads = vec![tv(1, 1, 0), tv(9, 0, 0)];
        assert_eq!(p.warn_level(&view(&threads), 0), 1);
        // 4 threads: hybrid inactive, a declared miss is still only level 1.
        let threads = vec![tv(1, 1, 1), tv(2, 0, 0), tv(3, 0, 0), tv(4, 0, 0)];
        assert_eq!(p.warn_level(&view(&threads), 0), 1);
        // Priority-only variant never reaches level 2.
        let threads = vec![tv(1, 1, 1), tv(9, 0, 0)];
        assert_eq!(DWarn::priority_only().warn_level(&view(&threads), 0), 1);
    }

    #[test]
    fn classification_is_the_novel_cell() {
        assert_eq!(
            DWarn::classification(),
            Classification::new(DetectionMoment::L1, ResponseAction::ReducePriority)
        );
    }
}
