//! STALL and FLUSH (Tullsen & Brown \[11\]).
//!
//! Both use the "X cycles after issue" detection moment: a load that has
//! spent more than a threshold (15 cycles on the baseline) in the memory
//! hierarchy is *declared* an L2 miss (data TLB misses exceed the threshold
//! too and therefore also trigger, as the paper specifies). STALL's response
//! action fetch-gates the offending thread until the load resolves (with a
//! 2-cycle advance indication); FLUSH additionally squashes the thread's
//! instructions after the load, freeing the shared resources they hold.
//! Both always keep at least one thread running.

use smt_pipeline::{DeclareAction, FetchPolicy, PolicyView};

use crate::taxonomy::{Classification, DetectionMoment, ResponseAction};

/// Drop threads with a declared long-latency load from `order` in place,
/// but never gate the last runnable thread ("this mechanism always keeps
/// one thread running"). Shared by STALL, FLUSH, DWarn's hybrid rule, and
/// the DWarn+FLUSH extension.
pub(crate) fn retain_ungated_keep_one(order: &mut Vec<usize>, view: &PolicyView) {
    let best = order.first().copied();
    order.retain(|&t| view.threads[t].declared_l2 == 0);
    if order.is_empty() {
        order.extend(best);
    }
}

/// Stable in-place partition of a thread order: entries where `demote`
/// holds move after the rest, both groups keeping their relative order.
/// Equivalent to a stable sort by the predicate, without the general
/// sort's dispatch overhead (orders hold at most the context count, ≤ 8).
pub(crate) fn stable_partition(order: &mut [usize], demote: impl Fn(usize) -> bool) {
    let mut insert = 0;
    for i in 0..order.len() {
        let t = order[i];
        if !demote(t) {
            // Shift the demoted run one slot right, then place `t` at the
            // boundary — both groups keep their relative order.
            order.copy_within(insert..i, insert + 1);
            order[insert] = t;
            insert += 1;
        }
    }
}

/// Shared gating logic: ICOUNT order, minus declared threads, keep-one.
fn stall_order_into(view: &PolicyView, out: &mut Vec<usize>) {
    view.icount_order_into(out);
    retain_ungated_keep_one(out, view);
}

/// STALL: declare ⇒ fetch-gate the thread until the load resolves.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stall;

impl Stall {
    pub fn new() -> Stall {
        Stall
    }

    pub fn classification() -> Classification {
        Classification::new(DetectionMoment::XCyclesAfterIssue, ResponseAction::Gate)
    }
}

impl FetchPolicy for Stall {
    fn name(&self) -> &'static str {
        "STALL"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        stall_order_into(view, out);
    }

    // Pure function of the view: the quiescence engine may skip idle spans.
    fn quiescence_safe(&self) -> bool {
        true
    }
}

/// FLUSH: declare ⇒ squash the thread's instructions after the offending
/// load *and* fetch-gate until it resolves.
#[derive(Debug, Default, Clone, Copy)]
pub struct Flush;

impl Flush {
    pub fn new() -> Flush {
        Flush
    }

    pub fn classification() -> Classification {
        Classification::new(DetectionMoment::XCyclesAfterIssue, ResponseAction::Squash)
    }
}

impl FetchPolicy for Flush {
    fn name(&self) -> &'static str {
        "FLUSH"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        stall_order_into(view, out);
    }

    fn declare_action(&self) -> DeclareAction {
        DeclareAction::FlushAfterLoad
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

    fn tv(icount: u32, declared: u32) -> ThreadView {
        ThreadView {
            icount,
            declared_l2: declared,
            ..Default::default()
        }
    }

    #[test]
    fn stall_gates_declared_threads() {
        let threads = vec![tv(5, 0), tv(1, 2), tv(3, 0)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        // Thread 1 has the lowest ICOUNT but is gated.
        assert_eq!(Stall::new().fetch_order(&v), vec![2, 0]);
    }

    #[test]
    fn stall_keeps_one_thread_running() {
        let threads = vec![tv(5, 1), tv(1, 2)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        // Both declared: keep the best-ICOUNT one.
        assert_eq!(Stall::new().fetch_order(&v), vec![1]);
    }

    #[test]
    fn single_thread_is_never_stopped() {
        let threads = vec![tv(9, 4)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        assert_eq!(Stall::new().fetch_order(&v), vec![0]);
        assert_eq!(Flush::new().fetch_order(&v), vec![0]);
    }

    #[test]
    fn flush_requests_the_squash_action() {
        assert_eq!(Flush::new().declare_action(), DeclareAction::FlushAfterLoad);
        assert_eq!(Stall::new().declare_action(), DeclareAction::None);
    }

    #[test]
    fn classifications_match_table_1() {
        assert_eq!(
            Stall::classification(),
            Classification::new(DetectionMoment::XCyclesAfterIssue, ResponseAction::Gate)
        );
        assert_eq!(
            Flush::classification(),
            Classification::new(DetectionMoment::XCyclesAfterIssue, ResponseAction::Squash)
        );
    }

    /// Shadow model: seeded random orders of up to 8 threads (subsets and
    /// permutations) and random demotion masks, against a stable sort by
    /// the predicate.
    #[test]
    fn stable_partition_matches_a_stable_sort_by_the_predicate() {
        let mut rng = smt_trace::Rng::new(7);
        for case in 0..2_000 {
            let n = rng.range(0, 9) as usize;
            let mut order: Vec<usize> = (0..8).filter(|_| rng.chance(0.7)).collect();
            order.truncate(n);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mask = rng.below(256);
            let demote = |t: usize| mask >> t & 1 == 1;
            let mut want = order.clone();
            want.sort_by_key(|&t| demote(t));
            stable_partition(&mut order, demote);
            assert_eq!(order, want, "case {case}, mask {mask:#010b}");
        }
    }
}
