//! The fetch-policy interface.
//!
//! An I-fetch policy decides, every cycle, which threads may fetch and in
//! what priority order. It observes the per-thread state the paper's
//! policies use — ICOUNT occupancy, outstanding L1 data-cache misses,
//! declared L2 misses — through [`PolicyView`], and tracks load lifecycles
//! through [`PolicyEvent`]s. The policy *implementations* (ICOUNT, STALL,
//! FLUSH, DG, PDG, DWarn) live in the `dwarn-core` crate; the trait lives
//! here, next to its call site in the fetch stage.

/// Per-thread state visible to a fetch policy at the start of a cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadView {
    /// Instructions in pre-issue stages (fetch queue + rename + issue
    /// queues): the ICOUNT priority key.
    pub icount: u32,
    /// Outstanding L1 data-cache misses (the paper's per-context data miss
    /// counter: incremented on each data-cache miss, decremented on fill).
    pub dmiss_count: u32,
    /// Outstanding loads *declared* to miss in L2 (spent longer in the
    /// hierarchy than the declare threshold, minus the early-resolve
    /// notice).
    pub declared_l2: u32,
    /// True while the thread cannot fetch anyway (I-cache miss pending or
    /// fetch queue full). Informational: the fetch engine skips such
    /// threads regardless of policy order.
    pub fetch_blocked: bool,
}

/// Snapshot handed to the policy each cycle.
#[derive(Debug, Clone)]
pub struct PolicyView<'a> {
    pub cycle: u64,
    pub threads: &'a [ThreadView],
}

impl PolicyView<'_> {
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Thread indices sorted by ascending ICOUNT (the ICOUNT fetch order).
    pub fn icount_order(&self) -> Vec<usize> {
        let mut order = Vec::new();
        self.icount_order_into(&mut order);
        order
    }

    /// As [`PolicyView::icount_order`], filling `out` in place (cleared
    /// first) so the per-cycle fetch path reuses one buffer instead of
    /// allocating. Hand-rolled insertion sort: the list is at most the
    /// hardware context count (≤ 8), where the general sort's dispatch
    /// overhead dominates the per-cycle cost.
    pub fn icount_order_into(&self, out: &mut Vec<usize>) {
        out.clear();
        for t in 0..self.threads.len() {
            let key = self.threads[t].icount;
            let mut i = out.len();
            out.push(t);
            // Ties break by thread index; `t` is the largest index so far,
            // so a strict comparison keeps the order identical to sorting
            // by `(icount, t)`.
            while i > 0 && self.threads[out[i - 1]].icount > key {
                out[i] = out[i - 1];
                i -= 1;
            }
            out[i] = t;
        }
    }
}

/// Load-lifecycle and thread events delivered to the policy. `load_id` is a
/// unique id per dynamic load (its global sequence number), letting stateful
/// policies (PDG) track individual loads across events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyEvent {
    /// A load was fetched. PDG consults its miss predictor here.
    LoadFetched {
        thread: usize,
        pc: u64,
        load_id: u64,
    },
    /// The load's cache outcome became known (at cache access).
    LoadL1Outcome {
        thread: usize,
        pc: u64,
        load_id: u64,
        l1_miss: bool,
        /// True when the access also missed in L2 (only possible with
        /// `l1_miss`). DC-PRED trains its L2-miss predictor on this.
        l2_miss: bool,
    },
    /// The load's data returned (cache fill); outstanding-miss state clears.
    LoadFilled {
        thread: usize,
        pc: u64,
        load_id: u64,
    },
    /// The load was squashed (branch misprediction or FLUSH) after being
    /// fetched; any per-load policy state must be dropped.
    LoadSquashed {
        thread: usize,
        pc: u64,
        load_id: u64,
    },
    /// A load of this thread has been declared a (probable) L2 miss: it
    /// spent more than the declare threshold in the hierarchy.
    L2MissDeclared { thread: usize, load_id: u64 },
    /// A previously declared load is about to return (the 2-cycle advance
    /// indication).
    DeclaredLoadResolved { thread: usize, load_id: u64 },
    /// `count` instructions of this thread retired this cycle. Batched —
    /// delivered at most once per thread per cycle, with `count` covering
    /// every retirement of that thread in the cycle — and only to policies
    /// that opt in through [`FetchPolicy::wants_commit_events`]; the
    /// commit stage checks a flag cached at construction, so policies
    /// that keep the default pay one predictable branch per retirement
    /// and nothing else. Composite policies use this to integrate
    /// per-interval IPC without reading simulator statistics; batching
    /// keeps that integration at ~one virtual call per cycle instead of
    /// one per retired µop (the difference is the bulk of the meta-policy
    /// composite's host-time overhead).
    Committed { thread: usize, count: u32 },
}

/// One recorded policy transition of a switching (composite) policy: at
/// `cycle`, fetch-priority control moved from the `from` candidate to the
/// `to` candidate. Exposed through [`FetchPolicy::switch_log`] so campaign
/// code can report switch counts without the simulator tracking them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySwitch {
    /// Cycle at which the new candidate took effect (a window boundary).
    pub cycle: u64,
    /// Name of the candidate that was active before the switch.
    pub from: &'static str,
    /// Name of the candidate that is active from `cycle` on.
    pub to: &'static str,
}

/// What the simulator should do when a load is declared an L2 miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclareAction {
    /// Nothing structural (the policy may still gate fetch).
    None,
    /// Squash the offending thread's instructions younger than the load and
    /// keep the thread fetch-stalled until the load resolves (FLUSH).
    FlushAfterLoad,
}

/// A fetch policy. Implementations are expected to be deterministic
/// functions of the view + the event history.
pub trait FetchPolicy {
    /// Short name as used in the paper's figures (e.g. "DWARN").
    fn name(&self) -> &'static str;

    /// Threads allowed to fetch this cycle, highest priority first, written
    /// into `out` (cleared first). Threads not listed are gated. The fetch
    /// engine additionally skips threads that cannot fetch (I-cache miss
    /// pending, full fetch queue).
    ///
    /// This is the method the simulator calls every cycle; `out` is a
    /// buffer owned by the simulator and reused across cycles, so a policy
    /// that fills it in place keeps the fetch stage allocation-free.
    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>);

    /// Allocating convenience wrapper around
    /// [`FetchPolicy::fetch_order_into`] (tests, diagnostics).
    fn fetch_order(&mut self, view: &PolicyView) -> Vec<usize> {
        let mut out = Vec::new();
        self.fetch_order_into(view, &mut out);
        out
    }

    /// Observe a load-lifecycle event.
    fn on_event(&mut self, _ev: &PolicyEvent) {}

    /// Sanitizer hook: verify that `order` — the fetch order this policy
    /// just produced from `view` — satisfies the policy's own documented
    /// invariants (e.g. for DWarn: Normal-group threads precede Dmiss-group
    /// threads, ICOUNT ascends within each group, and the hybrid rule gates
    /// only declared-L2-miss threads below the thread-count threshold).
    ///
    /// Called once per cycle when a sanitizer is attached, never otherwise.
    /// `order` is guaranteed in-range and duplicate-free (the simulator
    /// checks that first). Returns a description of the first inconsistency
    /// found; the simulator reports it as an `INV013` violation. The
    /// default claims nothing.
    fn audit_order(&self, _view: &PolicyView, _order: &[usize]) -> Result<(), String> {
        Ok(())
    }

    /// Structural response when an L2 miss is declared.
    fn declare_action(&self) -> DeclareAction {
        DeclareAction::None
    }

    /// Whether this policy ever returns resource caps. The dispatch stage
    /// only builds the per-cycle view and queries
    /// [`FetchPolicy::resource_caps`] when this is true, keeping the
    /// common (non-capping) policies off that per-cycle cost.
    fn uses_resource_caps(&self) -> bool {
        false
    }

    /// Per-thread resource caps for this cycle (the LIMIT-RESOURCES response
    /// action of DC-PRED): `Some(f)` restricts the thread to fraction `f` of
    /// each shared back-end pool (issue-queue entries, renameable
    /// registers) at dispatch. `None` = unrestricted. The default policy
    /// restricts nobody. Only called when
    /// [`FetchPolicy::uses_resource_caps`] returns true.
    fn resource_caps(&mut self, view: &PolicyView) -> Vec<Option<f32>> {
        vec![None; view.num_threads()]
    }

    /// Telemetry: the policy's warn level for `thread` given `view` — e.g.
    /// DWarn reports 1 while a thread sits in the demoted Dmiss priority
    /// group and 2 while the hybrid rule gates it outright. Must be a pure
    /// function of the view (no internal state, no [`PolicyView::cycle`]
    /// reads) so that levels are frozen across quiescent spans; the
    /// simulator samples it only when a probe is attached and reports
    /// *transitions* through the probe's `on_warn_change` hook. The
    /// default — policies with no warn concept — is a constant 0.
    fn warn_level(&self, _view: &PolicyView, _thread: usize) -> u8 {
        0
    }

    /// Whether the quiescence-skipping engine may fast-forward the clock
    /// while this policy is attached.
    ///
    /// Opting in asserts a contract: [`FetchPolicy::fetch_order_into`] is a
    /// *pure, idempotent* function of the [`PolicyView`] thread states —
    /// it keeps no per-cycle mutable state, does not read
    /// [`PolicyView::cycle`] (except as allowed by
    /// [`FetchPolicy::skip_horizon`], below), and calling it twice with the
    /// same view is indistinguishable from calling it once. Under that
    /// contract, cycles in which no thread can fetch, dispatch, issue, or
    /// commit produce the same fetch order every cycle, so the engine can
    /// account for the whole idle span in closed form. Policies with
    /// per-cycle internal dynamics (or resource caps, which feed dispatch
    /// every cycle) must return `false`, which pins them to the naive
    /// loop. There is no default: every policy states its contract.
    ///
    /// A switching policy may opt in *and* read [`PolicyView::cycle`] — but
    /// only to compare it against the boundary it publishes through
    /// [`FetchPolicy::skip_horizon`]. The engine never skips across that
    /// boundary and always executes the boundary cycle naively, so between
    /// boundaries the policy's behavior is cycle-independent and the
    /// contract holds span by span.
    fn quiescence_safe(&self) -> bool;

    /// The earliest future cycle this policy must observe *naively* — the
    /// quiescence engine caps every bulk advance so it never lands past the
    /// horizon, and runs the horizon cycle itself through the naive loop
    /// (where [`FetchPolicy::fetch_order_into`] is guaranteed to be
    /// called). Switching policies return their next window boundary here
    /// so that selector decisions land on exactly the same cycle whether
    /// skipping is on or off. `None` (the default, for every static
    /// policy) leaves spans unbounded.
    ///
    /// A returned horizon `<= now` pins the *current* cycle to the naive
    /// loop (the engine refuses to skip at all this cycle).
    fn skip_horizon(&self, _now: u64) -> Option<u64> {
        None
    }

    /// The name of the policy currently making fetch decisions — for a
    /// composite (switching) policy, the active candidate; for everything
    /// else, [`FetchPolicy::name`] itself (the default). The fetch stage
    /// samples this only when a probe is attached and reports *changes*
    /// through the probe's `on_policy_switch` hook.
    fn active_policy(&self) -> &'static str {
        self.name()
    }

    /// Whether this policy wants [`PolicyEvent::Committed`] notifications.
    /// The simulator caches the answer at construction; leaving the default
    /// `false` keeps the commit stage's retirement loop free of policy
    /// calls.
    fn wants_commit_events(&self) -> bool {
        false
    }

    /// The transitions a switching policy has performed so far, oldest
    /// first. Static policies never switch; the default is empty. Campaign
    /// code reads this after a run to report switch counts in stats
    /// artifacts.
    fn switch_log(&self) -> &[PolicySwitch] {
        &[]
    }

    /// Checkpoint hook: serialize the policy's *evolving* state (per-load
    /// tracking maps, predictor tables, selector estimates, interval-window
    /// phase, switch logs) into `out`. Stateless policies — anything whose
    /// fetch order is a pure function of the view — keep the default empty
    /// body. The simulator embeds these bytes in its
    /// [`MachineSnapshot`](crate::snapshot::MachineSnapshot) and hands them
    /// back through [`FetchPolicy::load_state`] on restore.
    fn save_state(&self, _out: &mut Vec<u8>) {}

    /// Checkpoint hook: restore state written by
    /// [`FetchPolicy::save_state`] into an identically-constructed policy.
    /// Implementations must reject malformed or mismatched bytes with a
    /// descriptive error (never panic) and should treat their state as
    /// unspecified after a failure. The default accepts only an empty
    /// section, so a stateful snapshot can never be silently dropped by a
    /// stateless policy.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "policy {} is stateless but the snapshot carries {} bytes of policy state",
                self.name(),
                bytes.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl FetchPolicy for Dummy {
        fn name(&self) -> &'static str {
            "DUMMY"
        }
        fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
            view.icount_order_into(out);
        }
        fn quiescence_safe(&self) -> bool {
            false
        }
    }

    #[test]
    fn icount_order_sorts_ascending_with_stable_ties() {
        let threads = vec![
            ThreadView {
                icount: 5,
                ..Default::default()
            },
            ThreadView {
                icount: 2,
                ..Default::default()
            },
            ThreadView {
                icount: 5,
                ..Default::default()
            },
            ThreadView {
                icount: 0,
                ..Default::default()
            },
        ];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        assert_eq!(v.icount_order(), vec![3, 1, 0, 2]);
    }

    #[test]
    fn default_declare_action_is_none() {
        let d = Dummy;
        assert_eq!(d.declare_action(), DeclareAction::None);
    }

    /// Shadow model: seeded random views of 1 to 8 threads with ICOUNTs
    /// drawn from a narrow range (so ties are common), against a stable
    /// sort of the thread indices by ICOUNT.
    #[test]
    fn icount_order_matches_a_stable_sort_by_icount() {
        let mut rng = smt_trace::Rng::new(11);
        let mut out = Vec::new();
        for case in 0..2_000 {
            let threads: Vec<ThreadView> = (0..rng.range(1, 9))
                .map(|_| ThreadView {
                    icount: rng.below(4) as u32,
                    ..Default::default()
                })
                .collect();
            let view = PolicyView {
                cycle: 0,
                threads: &threads,
            };
            let mut want: Vec<usize> = (0..threads.len()).collect();
            want.sort_by_key(|&t| threads[t].icount);
            view.icount_order_into(&mut out);
            assert_eq!(out, want, "case {case}");
        }
    }
}
