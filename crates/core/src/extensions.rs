//! Extensions beyond the paper's evaluated policies — the "what would we
//! try next" directions its conclusions point at.
//!
//! * [`DWarnFlush`]: DWarn's early, gentle response (priority reduction on
//!   L1 miss) combined with FLUSH's late, drastic one (squash on declared
//!   L2 miss). The paper's results beg for this: DWarn wins everywhere
//!   except the 6/8-thread MEM workloads, where "it is more preferable to
//!   free resources by flushing the delinquent threads than to freeze
//!   resources" — so flush exactly there.
//! * [`DWarnThreshold`]: DWarn with a configurable Dmiss-entry threshold
//!   (the paper's counter compares against zero; k > 1 tolerates isolated
//!   misses before demoting a thread).

use smt_pipeline::{DeclareAction, FetchPolicy, PolicyView};
use smt_trace::snapio;

use crate::dwarn::DWarn;

/// DWarn priorities + FLUSH's squash response on declared L2 misses.
///
/// `flush_at_or_above` controls when the squash response activates: the
/// paper's data says flushing only pays under heavy MEM pressure, so the
/// default flushes at 6+ threads and behaves exactly like (hybrid) DWarn
/// below that.
#[derive(Debug, Clone, Copy)]
pub struct DWarnFlush {
    inner: DWarn,
    flush_at_or_above: usize,
    /// Set per cycle from the view; drives `declare_action`.
    flushing: bool,
}

impl DWarnFlush {
    /// Flush on declared L2 misses at 6+ threads (the regime where FLUSH
    /// beats DWarn in the paper), plain hybrid DWarn below.
    pub fn new() -> DWarnFlush {
        Self::with_flush_threshold(6)
    }

    /// Custom activation point for the squash response.
    pub fn with_flush_threshold(flush_at_or_above: usize) -> DWarnFlush {
        DWarnFlush {
            inner: DWarn::new(),
            flush_at_or_above,
            flushing: false,
        }
    }
}

impl Default for DWarnFlush {
    fn default() -> Self {
        Self::new()
    }
}

impl FetchPolicy for DWarnFlush {
    fn name(&self) -> &'static str {
        "DWARN+FLUSH"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        self.flushing = view.num_threads() >= self.flush_at_or_above;
        self.inner.fetch_order_into(view, out);
        if self.flushing {
            // While flushing is active, gate declared threads (as FLUSH
            // does) on top of the DWarn grouping — keep one runnable.
            crate::stall_flush::retain_ungated_keep_one(out, view);
        }
    }

    fn declare_action(&self) -> DeclareAction {
        if self.flushing {
            DeclareAction::FlushAfterLoad
        } else {
            DeclareAction::None
        }
    }

    // `flushing` is recomputed from the (constant) thread count on every
    // call, so a repeated call with the same view is indistinguishable from
    // one: the quiescence engine may skip idle spans.
    fn quiescence_safe(&self) -> bool {
        true
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        snapio::Snap::save_state(self, out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        snapio::load_section(bytes, "DWARN+FLUSH policy state", |r| {
            snapio::Snap::load_state(self, r)
        })
    }
}

// `flushing` is read by `declare_action` between the fetch that set it and
// the next one, so it is evolving state a snapshot must carry.
smt_trace::snap_fields! {
    DWarnFlush { flushing }
    derived { inner, flush_at_or_above }
}

/// DWarn with a configurable in-flight-miss threshold for Dmiss membership.
#[derive(Debug, Clone, Copy)]
pub struct DWarnThreshold {
    k: u32,
}

impl DWarnThreshold {
    /// Demote a thread only once it has `k` or more in-flight L1-D misses
    /// (`k = 1` is the paper's DWarn grouping, without the hybrid gate).
    pub fn new(k: u32) -> DWarnThreshold {
        assert!(k >= 1);
        DWarnThreshold { k }
    }
}

impl FetchPolicy for DWarnThreshold {
    fn name(&self) -> &'static str {
        "DWARN-K"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
        crate::stall_flush::stable_partition(out, |t| view.threads[t].dmiss_count >= self.k);
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

    #[test]
    fn dwarn_flush_is_plain_dwarn_below_threshold() {
        let mut p = DWarnFlush::new(); // flush at 6+
        let threads = vec![tv(1, 1, 1), tv(9, 0, 0), tv(4, 0, 0), tv(2, 0, 0)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        let order = p.fetch_order(&v);
        assert_eq!(order.len(), 4, "no gating at 4 threads");
        assert_eq!(p.declare_action(), DeclareAction::None);
    }

    #[test]
    fn dwarn_flush_flushes_at_six_threads() {
        let mut p = DWarnFlush::new();
        let threads = vec![
            tv(1, 1, 1),
            tv(9, 0, 0),
            tv(4, 0, 0),
            tv(2, 0, 0),
            tv(3, 1, 0),
            tv(5, 0, 0),
        ];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        let order = p.fetch_order(&v);
        assert_eq!(order.len(), 5, "declared thread 0 is gated");
        assert!(!order.contains(&0));
        assert_eq!(p.declare_action(), DeclareAction::FlushAfterLoad);
        // Dmiss thread 4 still fetches, just last.
        assert_eq!(*order.last().unwrap(), 4);
    }

    #[test]
    fn dwarn_flush_keeps_one_running() {
        let mut p = DWarnFlush::with_flush_threshold(2);
        let threads = vec![tv(5, 1, 1), tv(1, 1, 2)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        assert_eq!(p.fetch_order(&v).len(), 1);
    }

    #[test]
    fn dwarn_flush_state_round_trips_the_flushing_flag() {
        let mut p = DWarnFlush::with_flush_threshold(2);
        let threads = vec![tv(5, 1, 1), tv(1, 1, 2)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        let _ = p.fetch_order(&v);
        assert_eq!(p.declare_action(), DeclareAction::FlushAfterLoad);
        let mut bytes = Vec::new();
        p.save_state(&mut bytes);
        // A fresh policy has not fetched yet: declare_action differs until
        // the snapshot state is loaded.
        let mut q = DWarnFlush::with_flush_threshold(2);
        assert_eq!(q.declare_action(), DeclareAction::None);
        q.load_state(&bytes).unwrap();
        assert_eq!(q.declare_action(), DeclareAction::FlushAfterLoad);
        assert!(q.load_state(&[]).is_err(), "truncated state is an error");
    }

    #[test]
    fn dwarn_threshold_tolerates_isolated_misses() {
        let mut k2 = DWarnThreshold::new(2);
        let threads = vec![tv(9, 1, 0), tv(1, 2, 0), tv(5, 0, 0)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        // Thread 0 (1 miss) stays in the Normal group under k=2; thread 1
        // (2 misses) is demoted despite the lowest ICOUNT.
        assert_eq!(k2.fetch_order(&v), vec![2, 0, 1]);
        // Under k=1 both missing threads are demoted (ICOUNT within group).
        let mut k1 = DWarnThreshold::new(1);
        assert_eq!(k1.fetch_order(&v), vec![2, 1, 0]);
    }
}
