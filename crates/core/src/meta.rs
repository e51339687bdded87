//! Meta-policies: interval-driven dynamic fetch-policy selection.
//!
//! The paper evaluates *static* fetch policies, and our reproductions show
//! them trading places across workload classes: FLUSH wins on MEM-heavy
//! mixes at depth, DWarn on balanced mixes, ICOUNT when everything is
//! cache-resident. [`MetaPolicy`] goes beyond the paper by making the
//! *selection itself* a policy: it runs one candidate at a time, samples
//! interval metrics (committed instructions, L1/L2 miss rates) over fixed
//! cycle windows — the same windows the interval telemetry engine uses —
//! and re-decides the active candidate at every window boundary through a
//! pluggable [`SelectorKind`] rule.
//!
//! Switching interacts with two machine-honesty mechanisms:
//!
//! * **Quiescence skipping** — the selector must observe every boundary on
//!   its exact cycle, so `MetaPolicy` publishes its next boundary through
//!   [`FetchPolicy::skip_horizon`]; the engine never skips across it and
//!   steps the boundary cycle naively, making switching runs bit-identical
//!   with skipping on or off.
//! * **Sanitizer INV013** — [`MetaPolicy::audit_order`] first verifies that
//!   the most recent switch landed on a window boundary (a mid-interval
//!   switch is a policy-contract violation) and then delegates to the
//!   *active* candidate's own audit, so a switching run is held to the same
//!   per-cycle standard as a static one.

use smt_pipeline::{DeclareAction, FetchPolicy, PolicyEvent, PolicySwitch, PolicyView};
use smt_trace::snapio::{self, ensure, Snap, SnapError, SnapReader};

use crate::dwarn::DWarn;
use crate::icount::Icount;
use crate::stall_flush::{Flush, Stall};

/// Default decision-window length in cycles. Matches the interval
/// telemetry engine's default window so selector decisions line up with
/// the exported interval series.
pub const DEFAULT_WINDOW: u64 = 1024;

/// EMA smoothing factor for the per-candidate IPC estimates of the
/// IPC-greedy and epsilon selectors.
const EMA_ALPHA: f64 = 0.25;
/// IPC-greedy hysteresis: a rival candidate must beat the active one's
/// estimate by this relative margin before a switch is taken.
const HYSTERESIS: f64 = 0.05;
/// Miss-rate selector thresholds on the per-interval L1 data-miss rate.
const MISS_LO: f64 = 0.02;
const MISS_HI: f64 = 0.08;
/// Epsilon-explore rate: explore on 1-in-`EPS_DEN` boundaries.
const EPS_DEN: u64 = 8;
/// Default stream seed for the epsilon selector's deterministic RNG.
const DEFAULT_SEED: u64 = 0x5EED_D11A_57E9_C0DE;

/// Candidate indices in the canonical candidate set
/// ([`MetaPolicy::default_candidates`]): DWarn 0, STALL 1, FLUSH 2,
/// ICOUNT 3. The miss-rate selector's thresholds map onto these (STALL is
/// reachable only through the greedy/epsilon selectors).
const IDX_DWARN: usize = 0;
const IDX_FLUSH: usize = 2;
const IDX_ICOUNT: usize = 3;

/// The selection rule a [`MetaPolicy`] applies at each window boundary.
/// `Copy`, so it can ride inside the `Copy` policy registry
/// ([`crate::PolicyKind::Meta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// Threshold the interval's L1 data-miss rate: high-pressure intervals
    /// run FLUSH, moderate ones DWarn, cache-resident ones plain ICOUNT.
    MissRate,
    /// Hysteresis-damped greedy: keep an EMA IPC estimate per candidate,
    /// try every candidate once, then run the argmax — switching only when
    /// a rival's estimate beats the active one by the hysteresis margin
    /// (`HYSTERESIS`).
    IpcGreedy,
    /// Epsilon-explore: as greedy (without hysteresis), but on 1-in-8
    /// boundaries a deterministic splitmix64 stream picks a uniformly
    /// random candidate for one interval.
    Epsilon,
}

impl SelectorKind {
    /// All selectors, in documentation order.
    pub fn all() -> [SelectorKind; 3] {
        [
            SelectorKind::MissRate,
            SelectorKind::IpcGreedy,
            SelectorKind::Epsilon,
        ]
    }

    /// The meta-policy display name this selector produces.
    pub fn policy_name(self) -> &'static str {
        match self {
            SelectorKind::MissRate => "META-MISS",
            SelectorKind::IpcGreedy => "META-IPC",
            SelectorKind::Epsilon => "META-EPS",
        }
    }

    /// Short description for cache keys and docs.
    fn describe(self) -> String {
        match self {
            SelectorKind::MissRate => format!("miss-rate(lo={MISS_LO},hi={MISS_HI})"),
            SelectorKind::IpcGreedy => {
                format!("ipc-greedy(alpha={EMA_ALPHA},hyst={HYSTERESIS})")
            }
            SelectorKind::Epsilon => {
                format!("eps-explore(alpha={EMA_ALPHA},eps=1/{EPS_DEN},seed={DEFAULT_SEED:#x})")
            }
        }
    }
}

/// Per-interval metric accumulators, reset at each boundary. Fed by
/// [`PolicyEvent`]s only — events are delivered exclusively on naively
/// stepped cycles and a quiescent span by definition commits and misses
/// nothing, so the accumulators are bit-identical across skip modes.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalAccum {
    committed: u64,
    loads: u64,
    l1_misses: u64,
    l2_misses: u64,
}

smt_trace::snap_fields!(IntervalAccum {
    committed,
    loads,
    l1_misses,
    l2_misses,
});

impl IntervalAccum {
    fn ipc(&self, window: u64) -> f64 {
        self.committed as f64 / window as f64
    }

    fn miss_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.loads as f64
        }
    }
}

/// Selector state machine. Estimates use `f64::INFINITY` as the
/// "never tried" sentinel, which makes the greedy argmax visit every
/// candidate once before settling.
#[derive(Debug, Clone)]
enum Selector {
    MissRate,
    IpcGreedy { est: Vec<f64> },
    Epsilon { est: Vec<f64>, rng: u64 },
}

impl Selector {
    fn new(kind: SelectorKind, candidates: usize, seed: u64) -> Selector {
        match kind {
            SelectorKind::MissRate => Selector::MissRate,
            SelectorKind::IpcGreedy => Selector::IpcGreedy {
                est: vec![f64::INFINITY; candidates],
            },
            SelectorKind::Epsilon => Selector::Epsilon {
                est: vec![f64::INFINITY; candidates],
                rng: seed,
            },
        }
    }

    /// Decide the candidate for the next interval, given the metrics of
    /// the interval that just ended under candidate `active`.
    fn select(&mut self, active: usize, window: u64, m: &IntervalAccum) -> usize {
        match self {
            Selector::MissRate => {
                let rate = m.miss_rate();
                if rate >= MISS_HI {
                    IDX_FLUSH
                } else if rate >= MISS_LO {
                    IDX_DWARN
                } else {
                    IDX_ICOUNT
                }
            }
            Selector::IpcGreedy { est } => {
                update_ema(&mut est[active], m.ipc(window));
                let best = argmax(est);
                if est[best].is_infinite() || est[best] > est[active] * (1.0 + HYSTERESIS) {
                    best
                } else {
                    active
                }
            }
            Selector::Epsilon { est, rng } => {
                update_ema(&mut est[active], m.ipc(window));
                let r = splitmix64(rng);
                if r.is_multiple_of(EPS_DEN) {
                    ((r / EPS_DEN) % est.len() as u64) as usize
                } else {
                    argmax(est)
                }
            }
        }
    }
}

/// EMA update with the untried-sentinel convention: the first real sample
/// replaces the optimistic `INFINITY` outright.
fn update_ema(est: &mut f64, sample: f64) {
    if est.is_infinite() {
        *est = sample;
    } else {
        *est = EMA_ALPHA * sample + (1.0 - EMA_ALPHA) * *est;
    }
}

/// Index of the largest estimate; ties break to the lowest index, so the
/// untried-first exploration order is deterministic.
fn argmax(est: &[f64]) -> usize {
    let mut best = 0;
    for (i, &e) in est.iter().enumerate().skip(1) {
        if e > est[best] {
            best = i;
        }
    }
    best
}

/// The splitmix64 step: a full-period, statistically solid 64-bit stream
/// from one u64 of state — the same generator the fast-path hash maps use,
/// kept local so the policy layer stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A switching composite fetch policy: runs one candidate at a time and
/// re-selects at fixed window boundaries from interval metrics.
///
/// See the [module docs](self) for the switching semantics and how they
/// interact with quiescence skipping and the sanitizer.
pub struct MetaPolicy {
    name: &'static str,
    candidates: Vec<Box<dyn FetchPolicy>>,
    active: usize,
    selector: Option<Selector>,
    window: u64,
    next_boundary: u64,
    accum: IntervalAccum,
    switches: Vec<PolicySwitch>,
    /// Whether any candidate opted into [`PolicyEvent::Committed`]
    /// notifications (cached at construction); when none did, commit
    /// events stop at the composite's accumulator instead of fanning out.
    fan_out_commits: bool,
    /// Test hook: perform an (illegal, unless boundary-aligned) switch at
    /// exactly this cycle — the INV013 mutation test's trigger.
    force_switch_at: Option<u64>,
}

impl MetaPolicy {
    /// The standard meta-policy: the canonical candidate set under
    /// `selector`, deciding every [`DEFAULT_WINDOW`] cycles.
    pub fn new(selector: SelectorKind) -> MetaPolicy {
        Self::with_window(selector, DEFAULT_WINDOW)
    }

    /// As [`MetaPolicy::new`] with an explicit window length (cycles per
    /// decision interval; must be ≥ 1).
    pub fn with_window(selector: SelectorKind, window: u64) -> MetaPolicy {
        assert!(window >= 1, "decision window must be at least one cycle");
        let candidates = Self::default_candidates();
        MetaPolicy {
            name: selector.policy_name(),
            selector: Some(Selector::new(selector, candidates.len(), DEFAULT_SEED)),
            fan_out_commits: candidates.iter().any(|c| c.wants_commit_events()),
            candidates,
            active: IDX_DWARN,
            window,
            next_boundary: window,
            accum: IntervalAccum::default(),
            switches: Vec::new(),
            force_switch_at: None,
        }
    }

    /// A meta-policy locked to a single candidate: all the switching
    /// machinery (boundaries, horizon, accumulators) runs, but the
    /// selector never fires — by construction this must be bit-identical
    /// to running the candidate directly, which the determinism suite
    /// pins.
    pub fn locked(candidate: Box<dyn FetchPolicy>) -> MetaPolicy {
        MetaPolicy {
            name: "META-LOCK",
            fan_out_commits: candidate.wants_commit_events(),
            candidates: vec![candidate],
            active: 0,
            selector: None,
            window: DEFAULT_WINDOW,
            next_boundary: DEFAULT_WINDOW,
            accum: IntervalAccum::default(),
            switches: Vec::new(),
            force_switch_at: None,
        }
    }

    /// The canonical candidate set, in selector index order:
    /// DWarn, STALL, FLUSH, ICOUNT. All four are quiescence-safe and
    /// cap-free, so the composite stays skippable.
    pub fn default_candidates() -> Vec<Box<dyn FetchPolicy>> {
        vec![
            Box::new(DWarn::new()),
            Box::new(Stall::new()),
            Box::new(Flush::new()),
            Box::new(Icount::new()),
        ]
    }

    /// Cache-key description: every parameter that affects simulated
    /// behavior (selector rule and constants, window, candidate set), so
    /// campaign cache entries for meta runs can never collide with static
    /// runs or with a reconfigured meta.
    pub fn cache_desc(selector: SelectorKind, window: u64) -> String {
        format!(
            "{}[w={window};cands=DWARN,STALL,FLUSH,ICOUNT;sel={}]",
            selector.policy_name(),
            selector.describe()
        )
    }

    /// Sanitizer-mutation hook: schedule a switch at exactly `cycle`,
    /// regardless of window alignment. The INV013 mutation test uses a
    /// non-boundary cycle to prove the audit catches mid-interval
    /// switches; production constructors never set this.
    #[doc(hidden)]
    pub fn force_switch_at(mut self, cycle: u64) -> MetaPolicy {
        self.force_switch_at = Some(cycle);
        self
    }

    /// The decision-window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Name of the candidate currently holding fetch control.
    pub fn active_name(&self) -> &'static str {
        self.candidates[self.active].name()
    }

    /// Process the boundary at `cycle`: score the interval that just
    /// ended, maybe switch, and open the next interval. Called from
    /// `fetch_order_into` exactly once per boundary — the skip engine pins
    /// boundary cycles to the naive loop, and advancing `next_boundary`
    /// makes a repeated call in the same cycle a no-op (the idempotence
    /// the quiescence contract requires).
    fn on_boundary(&mut self, cycle: u64) {
        let accum = std::mem::take(&mut self.accum);
        if let Some(sel) = &mut self.selector {
            let choice = sel.select(self.active, self.window, &accum);
            if choice != self.active {
                self.switch_to(choice, cycle);
            }
        }
        while cycle >= self.next_boundary {
            self.next_boundary += self.window;
        }
    }

    fn switch_to(&mut self, choice: usize, cycle: u64) {
        self.switches.push(PolicySwitch {
            cycle,
            from: self.candidates[self.active].name(),
            to: self.candidates[choice].name(),
        });
        self.active = choice;
    }

    /// Restore the state [`FetchPolicy::save_state`] writes into a
    /// meta-policy with the same candidate set and selector.
    #[deny(unused_variables)]
    fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        const MAX_SWITCHES: usize = 1 << 24;
        let MetaPolicy {
            name: _,
            candidates,
            active,
            selector,
            window,
            next_boundary,
            accum,
            switches,
            fan_out_commits: _,
            force_switch_at: _,
        } = self;
        active.load_state(r)?;
        ensure(*active < candidates.len(), || {
            format!(
                "active candidate {active} out of range (have {})",
                candidates.len()
            )
        })?;
        next_boundary.load_state(r)?;
        ensure(
            *next_boundary > 0 && next_boundary.is_multiple_of(*window),
            || {
                format!(
                    "next boundary {next_boundary} is not a positive multiple of the \
                     {window}-cycle window"
                )
            },
        )?;
        accum.load_state(r)?;
        let tag = r.u8()?;
        match (selector, tag) {
            (None, 0) | (Some(Selector::MissRate), 1) => {}
            (Some(Selector::IpcGreedy { est }), 2) => est.load_state(r)?,
            (Some(Selector::Epsilon { est, rng }), 3) => {
                est.load_state(r)?;
                rng.load_state(r)?;
            }
            _ => {
                return Err(SnapError::malformed(format!(
                    "selector tag {tag} does not match this meta-policy's \
                     configured selector"
                )));
            }
        }
        // Snapshots carry candidate names, not indices, so a candidate-set
        // mismatch is a typed error rather than a silent mislabel.
        let resolve = |s: &str| {
            candidates
                .iter()
                .map(|c| c.name())
                .find(|n| *n == s)
                .ok_or_else(|| {
                    SnapError::malformed(format!("switch log names unknown candidate {s:?}"))
                })
        };
        let n_switches = r.len_capped(MAX_SWITCHES)?;
        switches.clear();
        for _ in 0..n_switches {
            let cycle = r.u64()?;
            let from = resolve(r.str()?)?;
            let to = resolve(r.str()?)?;
            switches.push(PolicySwitch { cycle, from, to });
        }
        for c in candidates.iter_mut() {
            let bytes = r.bytes()?;
            c.load_state(bytes).map_err(SnapError::malformed)?;
        }
        Ok(())
    }
}

impl FetchPolicy for MetaPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        if view.cycle >= self.next_boundary {
            self.on_boundary(view.cycle);
        }
        if self.force_switch_at == Some(view.cycle) {
            self.force_switch_at = None;
            let next = (self.active + 1) % self.candidates.len();
            self.switch_to(next, view.cycle);
        }
        self.candidates[self.active].fetch_order_into(view, out);
    }

    fn on_event(&mut self, ev: &PolicyEvent) {
        match *ev {
            PolicyEvent::Committed { count, .. } => {
                self.accum.committed += count as u64;
                // Commit events exist for the composite's own accumulator;
                // when no candidate opted into them (cached at
                // construction — none of the canonical set does), the
                // warm-keeping fan-out below would be one no-op virtual
                // call per candidate per event for nothing.
                if !self.fan_out_commits {
                    return;
                }
            }
            PolicyEvent::LoadL1Outcome {
                l1_miss, l2_miss, ..
            } => {
                self.accum.loads += 1;
                self.accum.l1_misses += l1_miss as u64;
                self.accum.l2_misses += l2_miss as u64;
            }
            _ => {}
        }
        // Inactive candidates keep observing, so a stateful candidate's
        // predictor is warm when control reaches it.
        for c in &mut self.candidates {
            c.on_event(ev);
        }
    }

    /// INV013 for a composite: the most recent switch must sit on a window
    /// boundary (selector decisions are only legal there), and the order
    /// itself must satisfy the *active* candidate's own published
    /// invariants.
    fn audit_order(&self, view: &PolicyView, order: &[usize]) -> Result<(), String> {
        if let Some(last) = self.switches.last() {
            if !last.cycle.is_multiple_of(self.window) {
                return Err(format!(
                    "switch {} -> {} at cycle {} is not aligned to the {}-cycle \
                     decision window",
                    last.from, last.to, last.cycle, self.window
                ));
            }
        }
        self.candidates[self.active].audit_order(view, order)
    }

    fn declare_action(&self) -> DeclareAction {
        self.candidates[self.active].declare_action()
    }

    fn uses_resource_caps(&self) -> bool {
        self.candidates.iter().any(|c| c.uses_resource_caps())
    }

    fn resource_caps(&mut self, view: &PolicyView) -> Vec<Option<f32>> {
        self.candidates[self.active].resource_caps(view)
    }

    fn warn_level(&self, view: &PolicyView, thread: usize) -> u8 {
        self.candidates[self.active].warn_level(view, thread)
    }

    /// Safe iff every candidate is: between boundaries the composite
    /// behaves exactly like its (quiescence-safe) active candidate, and
    /// the engine pins boundary cycles to the naive loop through
    /// [`MetaPolicy::skip_horizon`](FetchPolicy::skip_horizon).
    fn quiescence_safe(&self) -> bool {
        self.candidates.iter().all(|c| c.quiescence_safe())
    }

    fn skip_horizon(&self, _now: u64) -> Option<u64> {
        Some(self.next_boundary)
    }

    fn active_policy(&self) -> &'static str {
        self.active_name()
    }

    fn wants_commit_events(&self) -> bool {
        true
    }

    fn switch_log(&self) -> &[PolicySwitch] {
        &self.switches
    }

    /// Snapshot everything a mid-window restore needs: the active
    /// candidate, the open interval's boundary and accumulators, the
    /// selector's learned state, the switch log (diagnostic, but part of
    /// the published result), and each candidate's own state. The
    /// `force_switch_at` test hook is deliberately *not* serialized — it
    /// is injected per-run by the mutation tests, never by campaigns.
    #[deny(unused_variables)]
    fn save_state(&self, out: &mut Vec<u8>) {
        let MetaPolicy {
            name: _,
            candidates,
            active,
            selector,
            window: _,
            next_boundary,
            accum,
            switches,
            fan_out_commits: _,
            force_switch_at: _,
        } = self;
        active.save_state(out);
        next_boundary.save_state(out);
        accum.save_state(out);
        match selector {
            None => snapio::put_u8(out, 0),
            Some(Selector::MissRate) => snapio::put_u8(out, 1),
            Some(Selector::IpcGreedy { est }) => {
                snapio::put_u8(out, 2);
                est.save_state(out);
            }
            Some(Selector::Epsilon { est, rng }) => {
                snapio::put_u8(out, 3);
                est.save_state(out);
                rng.save_state(out);
            }
        }
        snapio::put_usize(out, switches.len());
        for PolicySwitch { cycle, from, to } in switches {
            cycle.save_state(out);
            snapio::put_str(out, from);
            snapio::put_str(out, to);
        }
        let mut scratch = Vec::new();
        for c in candidates {
            scratch.clear();
            c.save_state(&mut scratch);
            snapio::put_bytes(out, &scratch);
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        snapio::load_section(bytes, "meta-policy state", |r| self.load_snap(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_pipeline::ThreadView;

    fn tv(icount: u32, dmiss: u32) -> ThreadView {
        ThreadView {
            icount,
            dmiss_count: dmiss,
            ..Default::default()
        }
    }

    fn commit_n(p: &mut MetaPolicy, n: u64) {
        p.on_event(&PolicyEvent::Committed {
            thread: 0,
            count: n as u32,
        });
    }

    fn miss_loads(p: &mut MetaPolicy, loads: u64, misses: u64) {
        for i in 0..loads {
            p.on_event(&PolicyEvent::LoadL1Outcome {
                thread: 0,
                pc: 0x1000 + i * 8,
                load_id: i,
                l1_miss: i < misses,
                l2_miss: false,
            });
        }
    }

    fn order_at(p: &mut MetaPolicy, cycle: u64, threads: &[ThreadView]) -> Vec<usize> {
        p.fetch_order(&PolicyView { cycle, threads })
    }

    #[test]
    fn starts_on_dwarn_and_matches_it_between_boundaries() {
        let mut meta = MetaPolicy::new(SelectorKind::IpcGreedy);
        let mut dwarn = DWarn::new();
        let threads = vec![tv(9, 0), tv(1, 1), tv(4, 0)];
        let v = PolicyView {
            cycle: 10,
            threads: &threads,
        };
        assert_eq!(meta.fetch_order(&v), dwarn.fetch_order(&v));
        assert_eq!(meta.active_policy(), "DWARN");
        assert!(meta.switch_log().is_empty());
    }

    #[test]
    fn miss_rate_selector_maps_pressure_to_candidates() {
        let threads = vec![tv(1, 0), tv(2, 0), tv(3, 0), tv(4, 0)];
        // High pressure: 20% misses -> FLUSH.
        let mut p = MetaPolicy::new(SelectorKind::MissRate);
        miss_loads(&mut p, 100, 20);
        order_at(&mut p, DEFAULT_WINDOW, &threads);
        assert_eq!(p.active_policy(), "FLUSH");
        // Moderate: 4% -> DWARN (already active: no switch recorded).
        let mut p = MetaPolicy::new(SelectorKind::MissRate);
        miss_loads(&mut p, 100, 4);
        order_at(&mut p, DEFAULT_WINDOW, &threads);
        assert_eq!(p.active_policy(), "DWARN");
        assert!(p.switch_log().is_empty());
        // Cache-resident: no misses -> ICOUNT.
        let mut p = MetaPolicy::new(SelectorKind::MissRate);
        miss_loads(&mut p, 100, 0);
        order_at(&mut p, DEFAULT_WINDOW, &threads);
        assert_eq!(p.active_policy(), "ICOUNT");
        assert_eq!(p.switch_log().len(), 1);
        assert_eq!(p.switch_log()[0].cycle, DEFAULT_WINDOW);
    }

    #[test]
    fn greedy_selector_tries_every_candidate_then_settles_on_the_best() {
        let mut p = MetaPolicy::new(SelectorKind::IpcGreedy);
        let threads = vec![tv(1, 0), tv(2, 0)];
        // Feed identical mediocre intervals; the optimistic-init argmax
        // must visit all four candidates before revisiting any.
        let mut seen = vec![p.active_policy()];
        for b in 1..=3 {
            commit_n(&mut p, 512);
            order_at(&mut p, b * DEFAULT_WINDOW, &threads);
            seen.push(p.active_policy());
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "all candidates explored: {seen:?}");
        // Now make the current candidate look great; the hysteresis keeps
        // the selector parked there.
        let parked = p.active_policy();
        for b in 4..=8 {
            commit_n(&mut p, 4096);
            order_at(&mut p, b * DEFAULT_WINDOW, &threads);
            assert_eq!(p.active_policy(), parked);
        }
    }

    #[test]
    fn epsilon_selector_is_deterministic() {
        let run = || {
            let mut p = MetaPolicy::new(SelectorKind::Epsilon);
            let threads = vec![tv(1, 0), tv(2, 0)];
            let mut names = Vec::new();
            for b in 1..=32 {
                commit_n(&mut p, 100 + (b % 7) * 50);
                order_at(&mut p, b * DEFAULT_WINDOW, &threads);
                names.push(p.active_policy());
            }
            names
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn boundary_processing_is_idempotent_within_a_cycle() {
        let mut p = MetaPolicy::new(SelectorKind::MissRate);
        let threads = vec![tv(1, 0), tv(2, 0), tv(3, 0), tv(4, 0)];
        miss_loads(&mut p, 100, 20);
        let first = order_at(&mut p, DEFAULT_WINDOW, &threads);
        let switches = p.switch_log().len();
        // The quiescence probe may re-call at the same cycle.
        let second = order_at(&mut p, DEFAULT_WINDOW, &threads);
        assert_eq!(first, second);
        assert_eq!(p.switch_log().len(), switches, "no double switch");
        assert_eq!(p.skip_horizon(DEFAULT_WINDOW), Some(2 * DEFAULT_WINDOW));
    }

    #[test]
    fn audit_accepts_boundary_switches_and_rejects_misaligned_ones() {
        let threads = vec![tv(1, 0), tv(2, 0), tv(3, 0), tv(4, 0)];
        let mut p = MetaPolicy::new(SelectorKind::MissRate);
        miss_loads(&mut p, 100, 20);
        let v = PolicyView {
            cycle: DEFAULT_WINDOW,
            threads: &threads,
        };
        let order = p.fetch_order(&v);
        assert_eq!(p.audit_order(&v, &order), Ok(()));

        // A forced mid-interval switch must be flagged.
        let mut p = MetaPolicy::new(SelectorKind::MissRate).force_switch_at(DEFAULT_WINDOW + 7);
        let v = PolicyView {
            cycle: DEFAULT_WINDOW + 7,
            threads: &threads,
        };
        let order = p.fetch_order(&v);
        let err = p.audit_order(&v, &order).unwrap_err();
        assert!(err.contains("not aligned"), "{err}");
    }

    #[test]
    fn audit_delegates_to_the_active_candidate() {
        let mut p = MetaPolicy::new(SelectorKind::IpcGreedy);
        // Active candidate is DWarn: a Dmiss thread ordered first violates
        // DWarn's own group rule and must surface through the composite.
        let threads = vec![tv(9, 0), tv(1, 1)];
        let v = PolicyView {
            cycle: 5,
            threads: &threads,
        };
        let _ = p.fetch_order(&v);
        let err = p.audit_order(&v, &[1, 0]).unwrap_err();
        assert!(err.contains("Normal-first"), "{err}");
    }

    #[test]
    fn locked_meta_never_switches() {
        let mut p = MetaPolicy::locked(Box::new(Flush::new()));
        let threads = vec![tv(1, 0), tv(2, 0)];
        for b in 1..=8 {
            commit_n(&mut p, 100);
            order_at(&mut p, b * DEFAULT_WINDOW, &threads);
        }
        assert_eq!(p.active_policy(), "FLUSH");
        assert!(p.switch_log().is_empty());
    }

    #[test]
    fn composite_contract_flags_match_the_candidate_set() {
        let p = MetaPolicy::new(SelectorKind::IpcGreedy);
        assert!(p.quiescence_safe());
        assert!(!p.uses_resource_caps());
        assert!(p.wants_commit_events());
        assert_eq!(p.skip_horizon(0), Some(DEFAULT_WINDOW));
    }

    #[test]
    fn state_round_trips_mid_window_for_every_selector() {
        let threads = vec![tv(1, 0), tv(2, 0), tv(3, 0), tv(4, 0)];
        for kind in SelectorKind::all() {
            let mut p = MetaPolicy::new(kind);
            // Drive through a few boundaries to exercise the selector,
            // then leave an interval half-open.
            for b in 1..=3 {
                commit_n(&mut p, 100 + b * 64);
                miss_loads(&mut p, 50, 5 * b);
                order_at(&mut p, b * DEFAULT_WINDOW, &threads);
            }
            commit_n(&mut p, 77);
            miss_loads(&mut p, 10, 3);

            let mut bytes = Vec::new();
            p.save_state(&mut bytes);
            let mut q = MetaPolicy::new(kind);
            q.load_state(&bytes).unwrap();
            assert_eq!(q.active_policy(), p.active_policy(), "{kind:?}");
            assert_eq!(q.switch_log(), p.switch_log(), "{kind:?}");
            assert_eq!(q.skip_horizon(0), p.skip_horizon(0), "{kind:?}");
            let mut again = Vec::new();
            q.save_state(&mut again);
            assert_eq!(again, bytes, "{kind:?}: reserialization byte-identical");

            // The restored composite keeps making the same decisions.
            for b in 4..=8 {
                commit_n(&mut p, 300);
                commit_n(&mut q, 300);
                miss_loads(&mut p, 20, 1);
                miss_loads(&mut q, 20, 1);
                let a = order_at(&mut p, b * DEFAULT_WINDOW, &threads);
                let bq = order_at(&mut q, b * DEFAULT_WINDOW, &threads);
                assert_eq!(a, bq, "{kind:?}: post-restore divergence");
                assert_eq!(p.active_policy(), q.active_policy(), "{kind:?}");
            }
        }
    }

    #[test]
    fn load_state_rejects_shape_and_content_mismatches() {
        let mut p = MetaPolicy::new(SelectorKind::Epsilon);
        let threads = vec![tv(1, 0), tv(2, 0), tv(3, 0), tv(4, 0)];
        commit_n(&mut p, 100);
        order_at(&mut p, DEFAULT_WINDOW, &threads);
        let mut bytes = Vec::new();
        p.save_state(&mut bytes);

        // A different selector refuses the tagged state.
        let err = MetaPolicy::new(SelectorKind::MissRate)
            .load_state(&bytes)
            .unwrap_err();
        assert!(err.contains("selector"), "{err}");

        // A locked meta has one candidate: the active index is range-checked
        // (the epsilon snapshot explored past candidate 0 by now).
        if p.active_policy() != "DWARN" {
            let err = MetaPolicy::locked(Box::new(DWarn::new()))
                .load_state(&bytes)
                .unwrap_err();
            assert!(!err.is_empty());
        }

        // Truncation is an error, not a partial load.
        assert!(MetaPolicy::new(SelectorKind::Epsilon)
            .load_state(&bytes[..bytes.len() - 1])
            .is_err());

        // A misaligned boundary is rejected.
        let mut q = MetaPolicy::with_window(SelectorKind::Epsilon, DEFAULT_WINDOW + 1);
        assert!(q.load_state(&bytes).is_err());
    }

    #[test]
    fn cache_desc_pins_every_selector_parameter() {
        for s in SelectorKind::all() {
            let d = MetaPolicy::cache_desc(s, DEFAULT_WINDOW);
            assert!(d.starts_with(s.policy_name()), "{d}");
            assert!(d.contains("w=1024"), "{d}");
            assert!(d.contains("cands=DWARN,STALL,FLUSH,ICOUNT"), "{d}");
        }
        assert_ne!(
            MetaPolicy::cache_desc(SelectorKind::IpcGreedy, 1024),
            MetaPolicy::cache_desc(SelectorKind::IpcGreedy, 256),
            "window is part of the key"
        );
    }
}
