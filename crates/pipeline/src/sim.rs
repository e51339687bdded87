//! The cycle-level SMT simulator.
//!
//! One [`Simulator`] owns the whole machine: per-thread front-ends, the
//! shared back-end resources, the memory hierarchy, the branch unit, and the
//! fetch policy under evaluation. Each cycle runs commit → issue → dispatch
//! → fetch (plus an event-processing phase), so a stage's outputs become
//! visible to earlier stages only on the following cycle.
//!
//! The machine is execution-driven along the *trace-defined* correct path
//! (branch outcomes and memory addresses come from the trace), and fetches
//! and executes wrong-path instructions synthesized from the static program
//! after a misprediction — the same structure as the paper's SMTSIM-derived
//! simulator.

use std::collections::VecDeque;

use smt_obs::{CycleState, Enabled, GateReason, NullProbe, Probe, SquashKind};
use smt_trace::snapio::{self, ensure, Codec, Seq, Snap, SnapError, SnapReader};
use smt_trace::{BenchProfile, DynInst, OpClass, INST_BYTES, NUM_ARCH_REGS};
use smt_uarch::{
    BranchUnit, FuKind, FuPools, IqKind, IssueQueues, MemHierarchy, RegPool, RobCounters,
    ThreadMemStats,
};

use crate::config::SimConfig;
use crate::error::{ConfigError, ProgressSnapshot, SimError, ThreadProgress, Watchdog};
use crate::events::{Ev, EvKind, EventWheel};
use crate::frontend::ThreadFront;
use crate::inflight::{Handle, InFlight, Slab, Stage};
use crate::policy::{DeclareAction, FetchPolicy, PolicyEvent, PolicyView, ThreadView};
use crate::sanitizer::{InvariantCode, InvariantViolation, NullSanitizer, Sanitizer};
use crate::snapshot::{cfg_fingerprint, MachineSnapshot, SnapshotError};
use crate::stats::{SimResult, ThreadStats};

/// Cycle period of the cache tag-array integrity audit (`INV014`): scanning
/// every set of every cache is the one audit whose cost scales with machine
/// size rather than occupancy, so it runs periodically instead of per cycle.
const TAG_AUDIT_PERIOD: u64 = 256;

/// Event-wheel horizon in cycles (power of two). Covers the longest common
/// scheduling distance — a TLB-missing memory access plus bank-queue slack —
/// so spill-over to the heap is rare even on the deep configuration.
const EVENT_HORIZON: usize = 1024;

/// Upper bound on pooled waiter vectors; enough for every in-flight
/// instruction of the largest configuration to hold one.
const WAITER_POOL_CAP: usize = 4096;

/// Snapshot cap on a ROB or ready-list length: far above any machine, low
/// enough that a corrupt length fails before it is trusted.
const MAX_LIST: usize = 1 << 24;

/// One hardware context's program: which benchmark to run, with which trace
/// seed and stream shift.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    pub profile: BenchProfile,
    pub seed: u64,
    pub skip: u64,
}

impl ThreadSpec {
    pub fn new(profile: BenchProfile) -> ThreadSpec {
        ThreadSpec {
            profile,
            seed: 0xDC_AC4E_0001,
            skip: 0,
        }
    }
}

/// Reason for a squash, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SquashReason {
    Mispredict,
    Flush,
}

/// A deliberate single-point invariant corruption, applied by
/// [`Simulator::inject_for_test`] so mutation tests can prove the sanitizer
/// actually catches each invariant class. Most corruptions *inflate* state
/// (leak a resource, add a phantom count) rather than underflow it, so they
/// reach the audit instead of tripping a fast-path `debug_assert!` first;
/// the few that remove state ([`Mutation::DropRobEntry`]) rely on the test
/// forcing an audit before the machine steps again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Mutation {
    /// Allocate an int physical register nobody holds (`INV001`).
    LeakIntReg,
    /// Allocate an fp physical register nobody holds (`INV002`).
    LeakFpReg,
    /// Allocate an int issue-queue entry nobody holds (`INV003`).
    LeakIqEntry,
    /// Allocate a ROB slot of thread 0 with no matching ROB entry
    /// (`INV004`).
    LeakRobSlot,
    /// Inflate thread 0's ICOUNT counter (`INV006`).
    InflateIcount,
    /// Inflate thread 0's outstanding-L1-D-miss counter — the thread would
    /// sort into DWarn's Dmiss group without an outstanding miss (`INV009`).
    PhantomDmiss,
    /// Inflate thread 0's declared-L2-miss counter (`INV010`).
    PhantomDeclared,
    /// File an event one cycle in the past, as if a drain were missed
    /// (`INV007`).
    PastDueEvent,
    /// Swap the two oldest ROB entries of thread 0 (`INV005`).
    RobAgeSwap,
    /// Inflate the event wheel's cached length without filing an event
    /// (`INV008`).
    SkewEventLen,
    /// Drop thread 0's oldest ROB entry without retiring its slab slot —
    /// a lost in-flight instruction (`INV011`).
    DropRobEntry,
    /// Duplicate a valid tag within one cache set (`INV014`).
    DuplicateCacheTag,
}

/// The SMT processor simulator.
///
/// Generic over an observability [`Probe`]; the default [`NullProbe`] has
/// empty inlined hooks and `ENABLED = false`, so an unprobed simulator
/// compiles to exactly the unobserved machine (the probe-only bookkeeping
/// below is guarded by `P::ENABLED`, a compile-time constant).
///
/// Also generic over a [`Sanitizer`]; the default [`NullSanitizer`]
/// likewise has `ENABLED = false`, so the per-cycle invariant audit
/// monomorphizes away entirely unless a real sanitizer (e.g.
/// [`RecordingSanitizer`](crate::sanitizer::RecordingSanitizer)) is
/// attached via [`Simulator::try_with_specs`]. The audit is
/// observation-only: sanitized and unsanitized runs are bit-identical.
///
/// The fetch policy is held as `Box<dyn FetchPolicy>`: the paper's
/// policies, the ablation variants, custom policies and test doubles all
/// run through the same per-cycle virtual call.
pub struct Simulator<P: Probe = NullProbe, S: Sanitizer = NullSanitizer> {
    cfg: SimConfig,
    policy: Box<dyn FetchPolicy>,
    probe: P,
    sanitizer: S,
    /// Probe-only: the gate reason currently reported for each thread
    /// (`None` = fetching normally). Maintained only when `P::ENABLED`.
    gate_state: Vec<Option<GateReason>>,
    /// Probe-only: the policy warn level last reported per thread
    /// ([`FetchPolicy::warn_level`]). Maintained only when `P::ENABLED`.
    warn_state: Vec<u8>,
    /// Probe-only: the candidate name the policy last reported as active
    /// ([`FetchPolicy::active_policy`]); switches are delivered as
    /// transitions through `on_policy_switch`. Maintained only when
    /// `P::ENABLED`.
    active_state: &'static str,
    /// Probe-only scratch for the end-of-cycle [`CycleState`] snapshot:
    /// taken, filled, and restored around the probe call, so the probed
    /// steady-state loop performs no heap allocation either.
    obs_rob: Vec<u32>,
    obs_iq: Vec<u32>,
    obs_out: Vec<u32>,
    obs_gate: Vec<Option<GateReason>>,

    fronts: Vec<ThreadFront>,
    slab: Slab,
    robs: Vec<VecDeque<Handle>>,
    rename_int: Vec<[Option<Handle>; NUM_ARCH_REGS as usize]>,
    rename_fp: Vec<[Option<Handle>; NUM_ARCH_REGS as usize]>,

    regs_int: RegPool,
    regs_fp: RegPool,
    iqs: IssueQueues,
    fus: FuPools,
    rob_count: RobCounters,
    hier: MemHierarchy,
    branches: BranchUnit,

    events: EventWheel,
    /// Per-IQ-kind ready lists (lazily cleaned of stale handles).
    ready: [Vec<Handle>; 3],

    // --- Reusable hot-loop scratch (capacity persists across cycles so the
    // --- steady-state cycle loop performs no heap allocation).
    /// Events due this cycle, drained from the wheel.
    due_buf: Vec<Ev>,
    /// Issue candidates collected from the ready lists.
    cands_buf: Vec<(u64, Handle, IqKind)>,
    /// Per-thread policy views, rebuilt in place each cycle.
    view_buf: Vec<ThreadView>,
    /// The policy's fetch order, filled in place each cycle.
    order_buf: Vec<usize>,
    /// Recycled waiter vectors: handed to instructions at fetch, reclaimed
    /// at wakeup/commit/squash, so consumer subscription never allocates in
    /// steady state.
    waiter_pool: Vec<Vec<Handle>>,

    icount: Vec<u32>,
    dmiss: Vec<u32>,
    declared: Vec<u32>,
    /// Per-thread issue-queue entries currently held (all kinds combined).
    iq_held: Vec<u32>,
    /// Per-thread physical registers currently held (int + fp combined).
    regs_held: Vec<u32>,

    now: Clock,
    seq: u64,
    rr: usize,

    stats: Vec<ThreadStats>,
    total_committed: u64,

    // --- Quiescence-skipping engine state.
    /// Runtime switch for the quiescence engine (the `--no-skip` escape
    /// hatch clears it); on by default.
    skip_enabled: bool,
    /// Whether the attached policy's contract permits skipping at all
    /// ([`FetchPolicy::quiescence_safe`] and no resource caps), cached at
    /// construction.
    skip_ok: bool,
    /// Whether the attached policy opted into [`PolicyEvent::Committed`]
    /// notifications ([`FetchPolicy::wants_commit_events`]), cached at
    /// construction so the retirement loop pays one predictable branch.
    policy_wants_commits: bool,
    /// Cycles advanced in bulk by the quiescence engine (diagnostics).
    skipped_cycles: u64,
    /// Quiescent spans taken (diagnostics).
    skip_spans: u64,
}

fn iq_index(kind: IqKind) -> usize {
    match kind {
        IqKind::Int => 0,
        IqKind::Fp => 1,
        IqKind::LdSt => 2,
    }
}

/// Per-run watchdog bookkeeping for [`Simulator::try_run`]. Reads simulator
/// counters, never writes them — guarded runs stay bit-identical.
#[derive(Debug)]
struct WatchState {
    /// Cycles stepped in this guarded run (warmup + measure).
    cycles: u64,
    /// Machine-wide commit count at the last observed commit.
    last_commit_total: u64,
    /// Cycle of the last observed commit (run start if none yet).
    last_commit_cycle: u64,
    /// When the guarded run started, for the wall-clock budget.
    started: std::time::Instant,
}

impl WatchState {
    #[expect(
        clippy::disallowed_methods,
        reason = "watchdog wall-clock budget; sampled off the hot path and never feeds simulated state"
    )]
    fn new<P: Probe, S: Sanitizer>(sim: &Simulator<P, S>) -> WatchState {
        WatchState {
            cycles: 0,
            last_commit_total: sim.total_committed,
            last_commit_cycle: sim.now.get(),
            started: std::time::Instant::now(),
        }
    }

    /// Longest quiescent span the watchdog tolerates being advanced in bulk
    /// without losing bit-identical abort behavior: every cycle at which a
    /// per-step [`WatchState::check`] could fire — the no-commit trip, the
    /// cycle-budget trip, a wall-clock checkpoint — must still be reached
    /// by a naive step so the error (and its snapshot) comes out exactly as
    /// the unskipped loop would produce it. Quiescent spans commit nothing,
    /// so the no-commit trip cycle is fully determined up front.
    fn skip_cap<P: Probe, S: Sanitizer>(&self, sim: &Simulator<P, S>, wd: &Watchdog) -> u64 {
        let mut cap = u64::MAX;
        if wd.no_commit_cycles > 0 {
            let trip = self.last_commit_cycle + wd.no_commit_cycles - 1;
            cap = cap.min(trip.saturating_sub(sim.now.get()));
        }
        if wd.max_cycles > 0 {
            cap = cap.min((wd.max_cycles - 1).saturating_sub(self.cycles));
        }
        if wd.max_wall.is_some() {
            // Stop short of the next wall-clock checkpoint so the check
            // itself runs on a naive step, at the exact naive cycle.
            let interval = Watchdog::WALL_CHECK_INTERVAL;
            let next = (self.cycles / interval + 1) * interval;
            cap = cap.min(next - 1 - self.cycles);
        }
        cap
    }

    /// Account `k` cycles advanced in bulk by the quiescence engine. The
    /// span was capped by [`WatchState::skip_cap`], so no per-step check
    /// could have fired inside it.
    fn bulk_advance(&mut self, k: u64) {
        self.cycles += k;
    }

    /// Called once per stepped cycle: two compares on the happy path, the
    /// wall clock only every [`Watchdog::WALL_CHECK_INTERVAL`] cycles.
    #[inline]
    fn check<P: Probe, S: Sanitizer>(
        &mut self,
        sim: &Simulator<P, S>,
        wd: &Watchdog,
    ) -> Result<(), SimError> {
        self.cycles += 1;
        if sim.total_committed != self.last_commit_total {
            self.last_commit_total = sim.total_committed;
            self.last_commit_cycle = sim.now.get();
        } else if wd.no_commit_cycles > 0 {
            let stalled = sim.now.get().saturating_sub(self.last_commit_cycle);
            if stalled >= wd.no_commit_cycles {
                return Err(SimError::NoForwardProgress {
                    stalled_for: stalled,
                    snapshot: self.snapshot(sim),
                });
            }
        }
        if wd.max_cycles > 0 && self.cycles >= wd.max_cycles {
            return Err(SimError::CycleBudgetExceeded {
                budget: wd.max_cycles,
                snapshot: self.snapshot(sim),
            });
        }
        if let Some(budget) = wd.max_wall {
            if self.cycles.is_multiple_of(Watchdog::WALL_CHECK_INTERVAL)
                && self.started.elapsed() > budget
            {
                return Err(SimError::WallClockExceeded {
                    budget,
                    snapshot: self.snapshot(sim),
                });
            }
        }
        Ok(())
    }

    fn snapshot<P: Probe, S: Sanitizer>(&self, sim: &Simulator<P, S>) -> Box<ProgressSnapshot> {
        let mut s = sim.progress_snapshot();
        s.last_commit_cycle = self.last_commit_cycle;
        Box::new(s)
    }
}

pub use clock::Clock;

/// The cycle counter, with the only two pieces of code that set its value:
/// [`Simulator::try_with_specs`], which starts it at cycle 0, and
/// [`Simulator::advance_clock`].
mod clock {
    use super::*;

    /// The simulator's cycle counter. Its field is private to this module
    /// and it has no arithmetic, so no other code can write it: a skip,
    /// a restore or a naive step all move the clock through
    /// `advance_clock`, whose closed-form accounting (round-robin offset,
    /// watchdog checkpoints, skip statistics) depends on seeing every
    /// advance.
    ///
    /// ```compile_fail,E0368
    /// fn tick(now: &mut smt_pipeline::Clock) {
    ///     *now += 1;
    /// }
    /// ```
    ///
    /// ```compile_fail,E0423
    /// let rewound = smt_pipeline::Clock(0);
    /// ```
    #[derive(Debug)]
    pub struct Clock(u64);

    impl Clock {
        /// The current cycle.
        pub(crate) fn get(&self) -> u64 {
            self.0
        }
    }

    impl<P: Probe, S: Sanitizer> Simulator<P, S> {
        /// The full constructor: thread specs, probe *and* sanitizer. Every
        /// other constructor delegates here.
        pub fn try_with_specs(
            cfg: SimConfig,
            policy: Box<dyn FetchPolicy>,
            specs: &[ThreadSpec],
            probe: P,
            sanitizer: S,
        ) -> Result<Simulator<P, S>, ConfigError> {
            cfg.validate(specs.len())?;
            // Skipping requires the policy's idempotence contract and is
            // incompatible with per-cycle resource caps (they feed dispatch
            // every cycle, skipped or not).
            let skip_ok = policy.quiescence_safe() && !policy.uses_resource_caps();
            let policy_wants_commits = policy.wants_commit_events();
            let active_state = policy.active_policy();
            let n = specs.len();
            let reserved = cfg.arch_regs_per_thread() * n as u32;
            let mut hier = MemHierarchy::new(cfg.l1i, cfg.l1d, cfg.l2, cfg.tlb, cfg.timing, n);
            // Each context gets a disjoint address-space base. Establish the
            // steady state the profiles are calibrated for: hot sets
            // L1-resident, warm sets and code images L2-resident, and the
            // resident regions' translations in the DTLB. A short simulation
            // window cannot reach this state by demand misses alone (one lap of
            // a warm set takes longer than practical windows).
            let mut fronts = Vec::with_capacity(n);
            for (t, s) in specs.iter().enumerate() {
                let base = Simulator::thread_addr_base(t);
                let front = ThreadFront::new(&s.profile, s.seed, base, s.skip);
                let (hs, hb) = smt_trace::stream::hot_region(base);
                hier.prewarm_l1d(hs, hb);
                hier.prewarm_l2(base, front.trace.program().code_bytes());
                hier.prewarm_dtlb(t, hs, hb);
                for line in smt_trace::stream::warm_lines(base, &s.profile) {
                    hier.prewarm_l2(line, 1);
                    hier.prewarm_dtlb(t, line, 1);
                }
                fronts.push(front);
            }
            Ok(Simulator {
                fronts,
                slab: Slab::new(),
                robs: (0..n).map(|_| VecDeque::new()).collect(),
                rename_int: vec![[None; NUM_ARCH_REGS as usize]; n],
                rename_fp: vec![[None; NUM_ARCH_REGS as usize]; n],
                regs_int: RegPool::new(cfg.phys_int, reserved),
                regs_fp: RegPool::new(cfg.phys_fp, reserved),
                iqs: IssueQueues::new(cfg.iq_int, cfg.iq_fp, cfg.iq_ldst),
                fus: FuPools::new(cfg.fu_int, cfg.fu_fp, cfg.fu_ldst),
                rob_count: RobCounters::new(cfg.rob_per_thread, n),
                hier,
                branches: BranchUnit::new(cfg.predictor, n),
                events: EventWheel::new(EVENT_HORIZON),
                ready: [Vec::new(), Vec::new(), Vec::new()],
                due_buf: Vec::new(),
                cands_buf: Vec::new(),
                view_buf: Vec::with_capacity(n),
                order_buf: Vec::with_capacity(n),
                waiter_pool: Vec::new(),
                icount: vec![0; n],
                dmiss: vec![0; n],
                declared: vec![0; n],
                iq_held: vec![0; n],
                regs_held: vec![0; n],
                now: Clock(0),
                seq: 0,
                rr: 0,
                stats: vec![ThreadStats::default(); n],
                total_committed: 0,
                policy,
                cfg,
                probe,
                sanitizer,
                gate_state: vec![None; n],
                warn_state: vec![0; n],
                active_state,
                obs_rob: Vec::with_capacity(n),
                obs_iq: Vec::with_capacity(n),
                obs_out: Vec::with_capacity(n),
                obs_gate: Vec::with_capacity(n),
                skip_enabled: true,
                skip_ok,
                policy_wants_commits,
                skipped_cycles: 0,
                skip_spans: 0,
            })
        }

        /// The engine's single clock-advance point: naive steps, bulk
        /// quiescence skips and checkpoint-restore rebases all come
        /// through here. Advances the round-robin offset exactly as
        /// `cycles` naive steps would. Arithmetic wraps so a restore can
        /// rebase onto an arbitrary absolute cycle via
        /// `target.wrapping_sub(now)`, exact in u64 even when the target
        /// precedes the current clock (the restore then reinstates the
        /// checkpointed round-robin offset verbatim).
        pub(super) fn advance_clock(&mut self, cycles: u64) {
            self.now.0 = self.now.0.wrapping_add(cycles);
            self.rr = ((self.rr as u64).wrapping_add(cycles) % self.num_threads() as u64) as usize;
        }
    }
}

impl Simulator<NullProbe, NullSanitizer> {
    /// Build a simulator for `specs` (one entry per hardware context) under
    /// `policy`. Each context gets a disjoint address-space base.
    ///
    /// Panics on an invalid configuration; [`Simulator::try_new`] is the
    /// fallible form.
    pub fn new(cfg: SimConfig, policy: Box<dyn FetchPolicy>, specs: &[ThreadSpec]) -> Self {
        Simulator::try_new(cfg, policy, specs).expect("invalid configuration")
    }

    /// As [`Simulator::new`], but an invalid configuration is returned as a
    /// typed [`ConfigError`] instead of panicking.
    pub fn try_new(
        cfg: SimConfig,
        policy: Box<dyn FetchPolicy>,
        specs: &[ThreadSpec],
    ) -> Result<Self, ConfigError> {
        Simulator::try_with_specs(cfg, policy, specs, NullProbe, NullSanitizer)
    }
}

impl Simulator {
    /// The default per-context address base: disjoint per context, staggered
    /// by a prime number of cache lines (149 of the L1's 512 sets) so
    /// different threads' images spread across the whole set space instead
    /// of fighting over the same 2 ways of a narrow set range.
    pub fn thread_addr_base(t: usize) -> u64 {
        (((t as u64) + 1) << 40) | ((t as u64) * 149 * 64)
    }
}

impl<S: Sanitizer> Simulator<NullProbe, S> {
    /// As [`Simulator::try_new`] with an explicit sanitizer — the
    /// convenience entry point for sanitized (invariant-checked) runs.
    pub fn try_sanitized(
        cfg: SimConfig,
        policy: Box<dyn FetchPolicy>,
        specs: &[ThreadSpec],
        sanitizer: S,
    ) -> Result<Self, ConfigError> {
        Simulator::try_with_specs(cfg, policy, specs, NullProbe, sanitizer)
    }
}

impl<P: Probe> Simulator<P, NullSanitizer> {
    /// As [`Simulator::new`], with an explicit observability probe.
    pub fn with_probe(
        cfg: SimConfig,
        policy: Box<dyn FetchPolicy>,
        specs: &[ThreadSpec],
        probe: P,
    ) -> Self {
        Self::try_with_probe(cfg, policy, specs, probe).expect("invalid configuration")
    }

    /// As [`Simulator::with_probe`], returning a typed [`ConfigError`] on an
    /// invalid configuration.
    pub fn try_with_probe(
        cfg: SimConfig,
        policy: Box<dyn FetchPolicy>,
        specs: &[ThreadSpec],
        probe: P,
    ) -> Result<Self, ConfigError> {
        Simulator::try_with_specs(cfg, policy, specs, probe, NullSanitizer)
    }
}

impl<P: Probe, S: Sanitizer> Simulator<P, S> {
    /// The attached sanitizer (e.g. to read recorded violations).
    pub fn sanitizer(&self) -> &S {
        &self.sanitizer
    }

    /// Consume the simulator and return the sanitizer.
    pub fn into_sanitizer(self) -> S {
        self.sanitizer
    }

    /// Consume the simulator and return the probe (e.g. to export a
    /// recording after the final window).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Consume the simulator and return both observers (probe and
    /// sanitizer) — the fragment-replay workers hand both back to the
    /// stitcher in one move.
    pub fn into_observers(self) -> (P, S) {
        (self.probe, self.sanitizer)
    }

    pub fn num_threads(&self) -> usize {
        self.fronts.len()
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn cycle(&self) -> u64 {
        self.now.get()
    }

    /// The attached fetch policy (e.g. to read a switching policy's
    /// [`FetchPolicy::switch_log`] after a run).
    pub fn policy(&self) -> &dyn FetchPolicy {
        &*self.policy
    }

    pub fn total_committed(&self) -> u64 {
        self.total_committed
    }

    fn schedule(&mut self, at: u64, kind: EvKind, h: Handle, seq: u64) {
        self.events.push(self.now.get(), Ev { at, seq, kind, h });
    }

    /// Advance the machine one cycle.
    pub fn step(&mut self) {
        self.process_events();
        self.commit();
        self.issue();
        self.dispatch();
        self.fetch();
        if let Some(on) = Enabled::of::<S>() {
            self.audit_cycle(on);
        }
        if let Some(on) = Enabled::of::<P>() {
            self.feed_cycle_probe(on, 1, false);
        }
        self.advance_clock(1);
    }

    /// Probe-only: deliver the end-of-cycle resource snapshot to the probe —
    /// one [`Probe::on_cycle_state`] per naive step, or one
    /// [`Probe::on_quiescent_span`] covering a bulk advance (every snapshot
    /// quantity is frozen across a quiescent span, so the single call
    /// carries exactly what `span` per-cycle calls would have). Out of line
    /// and callable only with the probe's [`Enabled`] proof, so the
    /// unprobed simulator keeps its exact pre-telemetry code.
    #[inline(never)]
    fn feed_cycle_probe(&mut self, on: Enabled, span: u64, skipped: bool) {
        let n = self.num_threads();
        let mut rob = std::mem::take(&mut self.obs_rob);
        let mut iq = std::mem::take(&mut self.obs_iq);
        let mut out = std::mem::take(&mut self.obs_out);
        let mut gate = std::mem::take(&mut self.obs_gate);
        rob.clear();
        iq.clear();
        out.clear();
        gate.clear();
        for t in 0..n {
            rob.push(self.robs[t].len() as u32);
            iq.push(self.iq_held[t]);
            out.push(self.dmiss[t]);
            gate.push(self.gate_state[t]);
        }
        let (regs_int, regs_fp) = self.regs_in_use();
        let state = CycleState {
            cycle: self.now.get(),
            iq: self.iq_usage(),
            regs_int,
            regs_fp,
            rob: &rob,
            iq_per_thread: &iq,
            outstanding_miss: &out,
            gate: &gate,
        };
        if skipped {
            self.probe.on_quiescent_span(on, &state, span);
        } else {
            debug_assert_eq!(span, 1);
            self.probe.on_cycle_state(on, &state);
        }
        self.obs_rob = rob;
        self.obs_iq = iq;
        self.obs_out = out;
        self.obs_gate = gate;
    }

    /// Disable or re-enable the quiescence-skipping engine (the `--no-skip`
    /// escape hatch). Skip-enabled and skip-disabled runs are bit-identical
    /// in every statistic; only wall-clock differs.
    pub fn set_skip_enabled(&mut self, on: bool) {
        self.skip_enabled = on;
    }

    /// Whether guarded runs may skip quiescent spans: the policy's contract
    /// allows it and the escape hatch is open.
    fn skip_active(&self) -> bool {
        self.skip_ok && self.skip_enabled
    }

    /// Cycles advanced in bulk by the quiescence engine so far.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Quiescent spans taken by the engine so far.
    pub fn skip_spans(&self) -> u64 {
        self.skip_spans
    }

    /// Quiescence probe + bulk advance: if no stage can change machine
    /// state this cycle, find the earliest cycle at which anything *can*
    /// act (an event falls due, a fetch-queue head matures, an I-cache
    /// fill lands), advance the clock straight to it — at most `cap`
    /// cycles — and account every per-cycle statistic of the skipped span
    /// in closed form. Returns the number of cycles skipped (0 = the
    /// machine is not quiescent, or `cap` was 0).
    ///
    /// Determinism argument, stage by stage, for a span in which this
    /// probe found nothing actionable:
    /// * **events** — none fall due before the frontier (the wheel's
    ///   `next_due` is a frontier bound), so `process_events` is a no-op.
    /// * **commit** — no ROB head is `Done`, and only a `Complete` event
    ///   can make one `Done`.
    /// * **issue** — the ready lists are empty, and only dispatch or a
    ///   wakeup event refills them.
    /// * **dispatch** — every queue head is either immature
    ///   (`ready_at` bounds the frontier) or resource-blocked; blocked
    ///   stays blocked because resources are only freed by commit, issue,
    ///   or squash, all impossible in the span. Blocked heads accrue
    ///   `dispatch_stalls` each cycle — added in closed form.
    /// * **fetch** — every selected thread is I-cache-blocked or
    ///   queue-full. Queue fullness is frozen (no dispatch drains, no
    ///   fetch fills); every thread's `icache_ready_at` bounds the
    ///   frontier, so the policy's view (and therefore its order, by the
    ///   [`FetchPolicy::quiescence_safe`] contract) and the per-thread
    ///   gated/blocked classification are constant — `gated_cycles` /
    ///   `blocked_cycles` accrue per cycle, added in closed form. The
    ///   probe's gate-state classification is likewise frozen, so no
    ///   gate/ungate transitions are missed.
    ///
    /// The sanitizer's per-cycle audit does not run for skipped cycles;
    /// it is observation-only, and every audited quantity is frozen
    /// across the span anyway (INV007's past-due scan sees the bulk
    /// advance as an atomic jump to the frontier, which by construction
    /// strands no event behind `now`).
    fn try_skip(&mut self, cap: u64) -> u64 {
        if cap == 0 {
            return 0;
        }
        let now = self.now.get();
        // A switching policy's declared horizon (its next window boundary)
        // caps every span, and the horizon cycle itself is pinned to the
        // naive loop: the selector decision then lands on exactly the same
        // cycle whether skipping is on or off, which is what makes a
        // cycle-comparing composite policy quiescence-safe at all (see
        // [`FetchPolicy::skip_horizon`]).
        let cap = match self.policy.skip_horizon(now) {
            Some(h) if h <= now => return 0,
            Some(h) => cap.min(h - now),
            None => cap,
        };
        let n = self.num_threads();

        // Commit: a Done ROB head retires this cycle.
        for rob in &self.robs {
            if let Some(&h) = rob.front() {
                if matches!(self.slab.stage(h), Some(Stage::Done)) {
                    return 0;
                }
            }
        }
        // Issue: anything on a ready list can issue now or next cycle;
        // stale entries are compacted away within one naive step, so a
        // non-empty list simply defers skipping by a cycle.
        if self.ready.iter().any(|r| !r.is_empty()) {
            return 0;
        }
        // Events: something due this very cycle means the machine acts now.
        // The O(1) probe runs before the (distance-proportional) frontier
        // scan so failed attempts stay cheap.
        if self.events.has_due(now) {
            return 0;
        }
        // Dispatch: an eligible, unblocked queue head dispatches now; an
        // immature head bounds the frontier; a resource-blocked head
        // stays blocked for the whole span and stalls every cycle.
        let mut frontier = u64::MAX;
        let mut stall_mask: u64 = 0;
        for t in 0..n {
            let Some(&h) = self.fronts[t].queue.front() else {
                continue;
            };
            match self.slab.stage(h) {
                Some(Stage::Frontend { ready_at }) if ready_at > now => {
                    frontier = frontier.min(ready_at);
                }
                Some(Stage::Frontend { .. }) => {
                    if self.dispatch_head_unblocked(t, h) {
                        return 0;
                    }
                    stall_mask |= 1 << t;
                }
                _ => return 0, // defensive: unexpected queue-head state
            }
        }
        // Fetch: replicate the fetch stage's thread selection on the
        // current view. The quiescence contract makes the extra
        // `fetch_order_into` call unobservable.
        let mut views = std::mem::take(&mut self.view_buf);
        self.fill_thread_views(&mut views);
        let mut order = std::mem::take(&mut self.order_buf);
        self.policy.fetch_order_into(
            &PolicyView {
                cycle: now,
                threads: &views,
            },
            &mut order,
        );
        let mut would_fetch = false;
        let mut threads_used = 0u32;
        for &t in &order {
            if threads_used == self.cfg.fetch_threads {
                break;
            }
            if now < self.fronts[t].icache_ready_at {
                continue;
            }
            threads_used += 1;
            if self.fronts[t].queue.len() as u32 >= self.cfg.fetch_queue {
                continue;
            }
            would_fetch = true; // this thread accesses the I-cache now
            break;
        }
        let mut gated_mask: u64 = 0;
        let mut blocked_mask: u64 = 0;
        if !would_fetch {
            for (t, v) in views.iter().enumerate() {
                if !order.contains(&t) {
                    gated_mask |= 1 << t;
                } else if v.fetch_blocked {
                    blocked_mask |= 1 << t;
                }
            }
            // Any I-cache fill landing flips a view bit (and possibly the
            // policy's order), so every pending fill bounds the frontier.
            for f in &self.fronts {
                if f.icache_ready_at > now {
                    frontier = frontier.min(f.icache_ready_at);
                }
            }
        }
        let put_back = |s: &mut Self, mut order: Vec<usize>, mut views: Vec<ThreadView>| {
            order.clear();
            s.order_buf = order;
            views.clear();
            s.view_buf = views;
        };
        if would_fetch {
            put_back(self, order, views);
            return 0;
        }
        // The wheel bounds the frontier last: its scan cost is proportional
        // to the distance covered, so it only runs once every cheaper
        // not-quiescent exit has been ruled out, amortized against the
        // cycles the skip saves.
        if let Some(at) = self.events.next_due(now) {
            debug_assert!(at > now, "has_due probe rejected due-now events");
            frontier = frontier.min(at);
        }
        if frontier == u64::MAX {
            // A dead machine (no pending work at all) is left to the naive
            // loop so the watchdog trips with its exact naive timing.
            put_back(self, order, views);
            return 0;
        }

        let k = (frontier - now).min(cap);
        debug_assert!(k >= 1);
        // Probe-only: the naive fetch at this cycle would refresh the
        // gate/warn classifications *before* discovering it cannot fetch,
        // so replicate that refresh here — transitions land on the span's
        // first cycle, keeping probed series bit-identical under skip.
        // The classification is then frozen for the whole span (the view
        // is frozen — that is what made the span skippable).
        self.refresh_probe_gates(&views, &order);
        put_back(self, order, views);
        for t in 0..n {
            if gated_mask >> t & 1 == 1 {
                self.stats[t].gated_cycles += k;
            } else if blocked_mask >> t & 1 == 1 {
                self.stats[t].blocked_cycles += k;
            }
            if stall_mask >> t & 1 == 1 {
                self.stats[t].dispatch_stalls += k;
            }
        }
        self.skipped_cycles += k;
        self.skip_spans += 1;
        if let Some(on) = Enabled::of::<P>() {
            self.feed_cycle_probe(on, k, true);
        }
        self.advance_clock(k);
        k
    }

    /// Would `dispatch` move thread `t`'s mature queue head into the
    /// back end this cycle? Mirrors the all-or-nothing resource check of
    /// the dispatch stage.
    fn dispatch_head_unblocked(&self, t: usize, h: Handle) -> bool {
        let inst = self.slab.get(h).expect("queue handles are live");
        let class = inst.inst.class;
        let dest = inst.inst.dest;
        let kind = IqKind::for_class(class);
        let needs_fp_reg = dest.is_some() && class.dest_is_fp();
        let needs_int_reg = dest.is_some() && !class.dest_is_fp();
        self.rob_count.free(t) > 0
            && self.iqs.free(kind) > 0
            && (!needs_int_reg || self.regs_int.free() > 0)
            && (!needs_fp_reg || self.regs_fp.free() > 0)
    }

    /// Run `warmup` cycles, reset statistics, run `measure` cycles, and
    /// report the measured window.
    ///
    /// Guarded by the default [`Watchdog`] (livelock detection only): a
    /// machine that stops committing panics with a [`ProgressSnapshot`]
    /// instead of spinning forever. Campaign code should prefer
    /// [`Simulator::try_run`], which returns the abort as a typed
    /// [`SimError`]. The watchdog is observation-only, so guarded results
    /// are bit-identical to unguarded ones.
    pub fn run(&mut self, warmup: u64, measure: u64) -> SimResult {
        self.try_run(warmup, measure, &Watchdog::default())
            .unwrap_or_else(|e| panic!("simulation aborted: {e}"))
    }

    /// As [`Simulator::run`], but aborts with a typed [`SimError`] when the
    /// watchdog detects no forward progress or a budget overrun. This is
    /// the checkpointed driver with no sink and no stop request: each
    /// phase runs as one chunk, and the run always completes or aborts.
    pub fn try_run(
        &mut self,
        warmup: u64,
        measure: u64,
        wd: &Watchdog,
    ) -> Result<SimResult, SimError> {
        let mut watch = WatchState::new(self);
        let mut phase = RunPhase::new(warmup, measure);
        match self.drive_checkpointed(&mut phase, &mut watch, wd, None)? {
            RunOutcome::Completed(result) => Ok(result),
            RunOutcome::Interrupted(_) => unreachable!("only a stop request interrupts a run"),
        }
    }

    /// The cumulative counters a measured window is the delta against.
    fn run_bases(&self) -> RunBases {
        RunBases {
            stats: self.stats.clone(),
            mem: (0..self.num_threads())
                .map(|t| self.hier.thread_stats(t))
                .collect(),
            pred: (self.branches.predictions, self.branches.mispredictions),
        }
    }

    /// Build the measured-window deltas.
    fn window_result(&self, measure: u64, base: RunBases) -> SimResult {
        let threads: Vec<ThreadStats> = self
            .stats
            .iter()
            .zip(&base.stats)
            .map(|(a, b)| a.delta(b))
            .collect();
        let mem = (0..self.num_threads())
            .map(|t| self.hier.thread_stats(t).delta(&base.mem[t]))
            .collect();
        let preds = self.branches.predictions - base.pred.0;
        let mis = self.branches.mispredictions - base.pred.1;
        SimResult {
            cycles: measure,
            threads,
            mem,
            branch_mispredict_rate: if preds == 0 {
                0.0
            } else {
                mis as f64 / preds as f64
            },
        }
    }

    /// Capture the forward-progress counters the watchdog reports on abort.
    /// Purely observational — never touches simulation state.
    pub fn progress_snapshot(&self) -> ProgressSnapshot {
        let threads = (0..self.num_threads())
            .map(|t| ThreadProgress {
                icount: self.icount[t],
                dmiss: self.dmiss[t],
                declared: self.declared[t],
                iq_held: self.iq_held[t],
                regs_held: self.regs_held[t],
                rob: self.robs[t].len(),
                fetch_queue: self.fronts[t].queue.len(),
                committed: self.stats[t].committed,
            })
            .collect();
        ProgressSnapshot {
            cycle: self.now.get(),
            last_commit_cycle: 0, // filled in by the watchdog
            total_committed: self.total_committed,
            policy: self.policy.name(),
            threads,
            iq_usage: self.iq_usage(),
            regs_in_use: (self.regs_int.in_use(), self.regs_fp.in_use()),
        }
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    fn process_events(&mut self) {
        if !self.events.has_due(self.now.get()) {
            return;
        }
        let mut due = std::mem::take(&mut self.due_buf);
        self.events.drain_due(self.now.get(), &mut due);
        for ev in &due {
            if self.slab.get(ev.h).is_none() {
                continue; // squashed
            }
            match ev.kind {
                EvKind::Wakeup => self.on_wakeup(ev.h),
                EvKind::Complete => self.on_complete(ev.h),
                EvKind::L1Outcome => self.on_l1_outcome(ev.h),
                EvKind::Fill => self.on_fill(ev.h),
                EvKind::Declare => self.on_declare(ev.h),
                EvKind::ResolveNotice => self.on_resolve_notice(ev.h),
            }
        }
        due.clear();
        self.due_buf = due;
    }

    /// Result broadcast: wake consumers so their execution dovetails with
    /// this instruction's completing execution.
    fn on_wakeup(&mut self, h: Handle) {
        let inst = self.slab.get_mut(h).expect("checked live");
        inst.result_ready = true;
        let waiters = std::mem::take(&mut inst.waiters);
        self.wake_all(&waiters);
        self.reclaim_waiters(waiters);
    }

    /// Return a spent waiter vector to the pool so its capacity is reused by
    /// a later fetch instead of being freed.
    fn reclaim_waiters(&mut self, mut ws: Vec<Handle>) {
        if ws.capacity() > 0 && self.waiter_pool.len() < WAITER_POOL_CAP {
            ws.clear();
            self.waiter_pool.push(ws);
        }
    }

    fn wake_all(&mut self, waiters: &[Handle]) {
        for &w in waiters {
            let Some(wi) = self.slab.get_mut(w) else {
                continue;
            };
            debug_assert!(wi.remaining_srcs > 0);
            wi.remaining_srcs -= 1;
            let srcs_ready = wi.remaining_srcs == 0;
            let iq = wi.iq;
            if srcs_ready && self.slab.stage(w) == Some(Stage::Waiting) {
                self.slab.set_stage(w, Stage::Ready { at: self.now.get() });
                if let Some(kind) = iq {
                    self.ready[iq_index(kind)].push(w);
                }
            }
        }
    }

    fn on_complete(&mut self, h: Handle) {
        let seq = self.slab.seq_of(h).expect("checked live");
        self.slab.set_stage(h, Stage::Done);
        let inst = self.slab.get_mut(h).expect("checked live");
        inst.result_ready = true;
        let waiters = std::mem::take(&mut inst.waiters);
        let thread = inst.thread;
        let d = inst.inst;
        let mispredicted = inst.mispredicted;

        // Stores update the tag state when they complete (commit-time drain
        // would be equivalent for this timing-free model).
        if d.class == OpClass::Store {
            if let Some(addr) = d.mem_addr {
                self.hier.store(addr);
            }
        }

        // Branch resolution: train predictors on correct-path branches only
        // (hardware does not commit wrong-path history either).
        if d.class.is_branch() && !d.wrong_path {
            self.branches
                .resolve(thread, d.pc, d.ctrl, d.taken, d.next_pc, mispredicted);
        }

        // Wake any consumers that subscribed after the wakeup broadcast
        // (none in the common case).
        self.wake_all(&waiters);
        self.reclaim_waiters(waiters);

        // Misprediction recovery: squash younger, redirect fetch.
        if mispredicted {
            let replay = self.squash_younger(thread, seq, SquashReason::Mispredict);
            assert!(
                replay.is_empty(),
                "everything younger than a live mispredicted branch is wrong-path"
            );
            let front = &mut self.fronts[thread];
            front.on_wrong_path = false;
            front.fetch_pc = d.next_pc;
        }
    }

    fn on_l1_outcome(&mut self, h: Handle) {
        let load_id = self.slab.seq_of(h).expect("checked live");
        let inst = self.slab.get_mut(h).expect("checked live");
        let mem = inst.mem.expect("outcome event only for executed loads");
        let (thread, pc) = (inst.thread, inst.inst.pc);
        if mem.l1_miss {
            inst.dmiss_counted = true;
            self.dmiss[thread] += 1;
        }
        self.policy.on_event(&PolicyEvent::LoadL1Outcome {
            thread,
            pc,
            load_id,
            l1_miss: mem.l1_miss,
            l2_miss: mem.l2_miss,
        });
    }

    fn on_fill(&mut self, h: Handle) {
        let load_id = self.slab.seq_of(h).expect("checked live");
        let inst = self.slab.get_mut(h).expect("checked live");
        let (thread, pc) = (inst.thread, inst.inst.pc);
        if inst.dmiss_counted {
            inst.dmiss_counted = false;
            debug_assert!(self.dmiss[thread] > 0);
            self.dmiss[thread] -= 1;
        }
        self.probe.on_l1_miss_end(self.now.get(), thread, load_id);
        self.policy.on_event(&PolicyEvent::LoadFilled {
            thread,
            pc,
            load_id,
        });
    }

    fn on_declare(&mut self, h: Handle) {
        let load_id = self.slab.seq_of(h).expect("checked live");
        let seq = load_id;
        let inst = self.slab.get_mut(h).expect("checked live");
        let thread = inst.thread;
        inst.declared = true;
        self.declared[thread] += 1;
        self.probe.on_l2_declare(self.now.get(), thread, load_id);
        self.policy
            .on_event(&PolicyEvent::L2MissDeclared { thread, load_id });
        if self.policy.declare_action() == DeclareAction::FlushAfterLoad {
            let replay = self.squash_younger(thread, seq, SquashReason::Flush);
            self.fronts[thread].restore_for_replay(replay);
        }
    }

    fn on_resolve_notice(&mut self, h: Handle) {
        let load_id = self.slab.seq_of(h).expect("checked live");
        let inst = self.slab.get_mut(h).expect("checked live");
        let thread = inst.thread;
        if inst.declared {
            inst.declared = false;
            debug_assert!(self.declared[thread] > 0);
            self.declared[thread] -= 1;
        }
        self.probe.on_l2_resolve(self.now.get(), thread, load_id);
        self.policy
            .on_event(&PolicyEvent::DeclaredLoadResolved { thread, load_id });
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        let n = self.num_threads();
        let mut budget = self.cfg.commit_width;
        for k in 0..n {
            let t = (self.rr + k) % n;
            let mut retired = 0u32;
            while budget > 0 {
                let Some(&h) = self.robs[t].front() else {
                    break;
                };
                let Some((Stage::Done, seq)) = self.slab.stage_seq(h) else {
                    break;
                };
                self.robs[t].pop_front();
                let mut inst = self.slab.remove(h).expect("live");
                self.reclaim_waiters(std::mem::take(&mut inst.waiters));
                debug_assert!(
                    !inst.inst.wrong_path,
                    "wrong-path instructions never reach the ROB head"
                );
                budget -= 1;
                self.rob_count.release(t);
                if inst.holds_reg {
                    if inst.inst.class.dest_is_fp() {
                        self.regs_fp.release();
                    } else {
                        self.regs_int.release();
                    }
                    debug_assert!(self.regs_held[t] > 0);
                    self.regs_held[t] -= 1;
                }
                // Architectural rename repair.
                if let Some(d) = inst.inst.dest {
                    let table = if inst.inst.class.dest_is_fp() {
                        &mut self.rename_fp[t]
                    } else {
                        &mut self.rename_int[t]
                    };
                    if table[d as usize] == Some(h) {
                        table[d as usize] = None;
                    }
                }
                self.stats[t].committed += 1;
                self.total_committed += 1;
                retired += 1;
                self.probe.on_commit(self.now.get(), t, seq, inst.inst.pc);
                if inst.inst.class.is_branch() {
                    self.stats[t].branches += 1;
                    if inst.mispredicted {
                        self.stats[t].branch_mispredicts += 1;
                    }
                }
            }
            // Batched: one event per thread per cycle, not one per µop.
            if self.policy_wants_commits && retired > 0 {
                self.policy.on_event(&PolicyEvent::Committed {
                    thread: t,
                    count: retired,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    fn issue(&mut self) {
        self.fus.new_cycle();
        let mut budget = self.cfg.issue_width;

        // Collect issue candidates from the three ready lists, compacting
        // not-yet-ready entries in place and dropping stale ones.
        let mut cands = std::mem::take(&mut self.cands_buf);
        debug_assert!(cands.is_empty());
        for kind in IqKind::ALL {
            let idx = iq_index(kind);
            let mut keep = 0;
            for i in 0..self.ready[idx].len() {
                let h = self.ready[idx][i];
                // A squashed (no longer live) handle is silently dropped.
                match self.slab.stage_seq(h) {
                    Some((Stage::Ready { at }, seq)) if at <= self.now.get() => {
                        cands.push((seq, h, kind));
                    }
                    Some((Stage::Ready { .. }, _)) => {
                        self.ready[idx][keep] = h;
                        keep += 1;
                    }
                    _ => {} // issued or otherwise gone; drop
                }
            }
            self.ready[idx].truncate(keep);
        }
        // Sequence numbers are unique, so any sort yields the same order;
        // insertion sort beats the general sort's dispatch overhead on the
        // small, nearly-sorted lists the common cycle produces.
        if cands.len() <= 16 {
            for i in 1..cands.len() {
                let mut j = i;
                while j > 0 && cands[j - 1].0 > cands[j].0 {
                    cands.swap(j - 1, j);
                    j -= 1;
                }
            }
        } else {
            cands.sort_unstable_by_key(|c| c.0);
        }

        for &(seq, h, kind) in &cands {
            if budget == 0 {
                // Out of issue bandwidth: everything else stays ready.
                self.ready[iq_index(kind)].push(h);
                continue;
            }
            let (class, thread, mem_addr, wrong_path) = {
                let inst = self.slab.get(h).expect("live candidate");
                (
                    inst.inst.class,
                    inst.thread,
                    inst.inst.mem_addr,
                    inst.inst.wrong_path,
                )
            };
            if !self.fus.issue(FuKind::for_class(class)) {
                self.ready[iq_index(kind)].push(h);
                continue;
            }
            budget -= 1;
            let exec_start = self.now.get() + self.cfg.issue_to_exec;
            self.probe.on_issue(self.now.get(), thread, seq);
            // Leave the issue queue.
            self.iqs.release(kind);
            debug_assert!(self.iq_held[thread] > 0);
            self.iq_held[thread] -= 1;
            debug_assert!(self.icount[thread] > 0);
            self.icount[thread] -= 1;

            let complete_at = if class == OpClass::Load {
                let addr = mem_addr.expect("loads carry an address");
                let acc = self.hier.load_probed(
                    thread,
                    addr,
                    exec_start,
                    wrong_path,
                    seq,
                    &mut self.probe,
                );
                let inst = self.slab.get_mut(h).expect("live");
                inst.mem = Some(acc);
                inst.iq = None;
                // The L1 outcome becomes known one cycle into the access.
                self.schedule(exec_start + 1, EvKind::L1Outcome, h, seq);
                if acc.l1_miss {
                    self.schedule(acc.complete_at, EvKind::Fill, h, seq);
                }
                // Declaration: the load spent longer in the hierarchy than an
                // L2 access needs (the STALL/FLUSH detection rule).
                let declare_at = exec_start + self.cfg.l2_declare_threshold;
                let notice_at = acc
                    .complete_at
                    .saturating_sub(self.cfg.early_resolve_notice);
                if notice_at > declare_at {
                    self.schedule(declare_at, EvKind::Declare, h, seq);
                    self.schedule(notice_at, EvKind::ResolveNotice, h, seq);
                }
                acc.complete_at
            } else {
                let inst = self.slab.get_mut(h).expect("live");
                inst.iq = None;
                exec_start + class.base_latency()
            };
            self.slab.set_stage(h, Stage::Executing { complete_at });
            // Result broadcast one issue-to-exec bubble before completion,
            // so dependent ops execute back-to-back through the bypass.
            let wake_at = complete_at
                .saturating_sub(self.cfg.issue_to_exec)
                .max(self.now.get() + 1);
            if wake_at < complete_at {
                self.schedule(wake_at, EvKind::Wakeup, h, seq);
            }
            self.schedule(complete_at, EvKind::Complete, h, seq);
        }
        cands.clear();
        self.cands_buf = cands;
    }

    // ------------------------------------------------------------------
    // Dispatch (rename + queue insertion)
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let n = self.num_threads();
        let mut budget = self.cfg.dispatch_width;
        // LIMIT-RESOURCES response action (DC-PRED): the policy may cap the
        // share of the shared pools a thread can hold while it is suspected
        // of an L2 miss. Skipped entirely for the (common) policies that
        // never cap.
        let caps = if self.policy.uses_resource_caps() {
            let mut views = std::mem::take(&mut self.view_buf);
            self.fill_thread_views(&mut views);
            let caps = self.policy.resource_caps(&PolicyView {
                cycle: self.now.get(),
                threads: &views,
            });
            debug_assert_eq!(caps.len(), n);
            views.clear();
            self.view_buf = views;
            caps
        } else {
            Vec::new()
        };
        let iq_total = (self.cfg.iq_int + self.cfg.iq_fp + self.cfg.iq_ldst) as f32;
        let reg_total = (self.cfg.phys_int + self.cfg.phys_fp
            - 2 * self.cfg.arch_regs_per_thread() * n as u32) as f32;
        for k in 0..n {
            let t = (self.rr + k) % n;
            while budget > 0 {
                if let Some(frac) = caps.get(t).copied().flatten() {
                    let iq_cap = (iq_total * frac).max(1.0) as u32;
                    let reg_cap = (reg_total * frac).max(1.0) as u32;
                    if self.iq_held[t] >= iq_cap || self.regs_held[t] >= reg_cap {
                        self.stats[t].dispatch_stalls += 1;
                        break;
                    }
                }
                let Some(&h) = self.fronts[t].queue.front() else {
                    break;
                };
                let Some((Stage::Frontend { ready_at }, seq)) = self.slab.stage_seq(h) else {
                    unreachable!("queued instructions are in Frontend stage")
                };
                if ready_at > self.now.get() {
                    break;
                }
                let (class, dest, srcs) = {
                    let inst = self.slab.get(h).expect("queue handles are live");
                    (inst.inst.class, inst.inst.dest, inst.inst.srcs)
                };
                // Resource check (all-or-nothing).
                let kind = IqKind::for_class(class);
                let needs_fp_reg = dest.is_some() && class.dest_is_fp();
                let needs_int_reg = dest.is_some() && !class.dest_is_fp();
                let ok = self.rob_count.free(t) > 0
                    && self.iqs.free(kind) > 0
                    && (!needs_int_reg || self.regs_int.free() > 0)
                    && (!needs_fp_reg || self.regs_fp.free() > 0);
                if !ok {
                    self.stats[t].dispatch_stalls += 1;
                    break; // head-of-line blocking for this thread
                }
                assert!(self.rob_count.alloc(t));
                assert!(self.iqs.alloc(kind));
                self.iq_held[t] += 1;
                if needs_int_reg {
                    assert!(self.regs_int.alloc());
                }
                if needs_fp_reg {
                    assert!(self.regs_fp.alloc());
                }
                if dest.is_some() {
                    self.regs_held[t] += 1;
                }
                self.fronts[t].queue.pop_front();
                budget -= 1;
                self.probe.on_dispatch(self.now.get(), t, seq);

                // Rename: wire sources to in-flight producers.
                let src_is_fp = class == OpClass::FpAlu;
                let mut remaining: u8 = 0;
                for src in srcs.into_iter().flatten() {
                    let producer = if src_is_fp {
                        self.rename_fp[t][src as usize]
                    } else {
                        self.rename_int[t][src as usize]
                    };
                    if let Some(p) = producer {
                        if let Some(pi) = self.slab.get_mut(p) {
                            if !pi.result_ready {
                                pi.waiters.push(h);
                                remaining += 1;
                            }
                        }
                    }
                }
                // Rename: claim the destination.
                let mut prev_producer = None;
                if let Some(d) = dest {
                    let table = if class.dest_is_fp() {
                        &mut self.rename_fp[t]
                    } else {
                        &mut self.rename_int[t]
                    };
                    prev_producer = table[d as usize];
                    table[d as usize] = Some(h);
                }

                let inst = self.slab.get_mut(h).expect("live");
                inst.remaining_srcs = remaining;
                inst.iq = Some(kind);
                inst.holds_reg = dest.is_some();
                inst.prev_producer = prev_producer;
                if remaining == 0 {
                    self.slab.set_stage(
                        h,
                        Stage::Ready {
                            at: self.now.get() + 1,
                        },
                    );
                    self.ready[iq_index(kind)].push(h);
                } else {
                    self.slab.set_stage(h, Stage::Waiting);
                }
                self.robs[t].push_back(h);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    /// Rebuild the per-thread policy views in `out` (cleared first); the
    /// caller owns the buffer so the per-cycle path never allocates.
    fn fill_thread_views(&self, out: &mut Vec<ThreadView>) {
        out.clear();
        for t in 0..self.num_threads() {
            out.push(ThreadView {
                icount: self.icount[t],
                dmiss_count: self.dmiss[t],
                declared_l2: self.declared[t],
                fetch_blocked: self.fronts[t].blocked(self.now.get(), self.cfg.fetch_queue),
            });
        }
    }

    /// Probe-only: report warn-level and gate-state *transitions* for the
    /// fetch order `order` the policy chose from `views` this cycle, so a
    /// recording probe sees episodes (begin/end) rather than per-cycle
    /// ticks. The gate classification mirrors the fetch loop's skip
    /// conditions. `fetch` refreshes every naive cycle and `try_skip` at
    /// the head of a bulk-advanced span, across which it stays frozen.
    /// An unprobed simulator compiles this to nothing.
    fn refresh_probe_gates(&mut self, views: &[ThreadView], order: &[usize]) {
        let Some(on) = Enabled::of::<P>() else {
            return;
        };
        let now = self.now.get();
        let pv = PolicyView {
            cycle: now,
            threads: views,
        };
        for t in 0..self.num_threads() {
            let lvl = self.policy.warn_level(&pv, t);
            if lvl != self.warn_state[t] {
                self.probe
                    .on_warn_change(on, now, t, self.warn_state[t], lvl);
                self.warn_state[t] = lvl;
            }
            let reason = if !order.contains(&t) {
                Some(GateReason::Policy)
            } else if now < self.fronts[t].icache_ready_at {
                Some(GateReason::IcacheMiss)
            } else if self.fronts[t].queue.len() as u32 >= self.cfg.fetch_queue {
                Some(GateReason::FetchQueueFull)
            } else {
                None
            };
            if reason != self.gate_state[t] {
                if let Some(old) = self.gate_state[t] {
                    self.probe.on_ungate(on, now, t, old);
                }
                if let Some(new) = reason {
                    self.probe.on_gate(on, now, t, new);
                }
                self.gate_state[t] = reason;
            }
        }
    }

    fn fetch(&mut self) {
        let mut views = std::mem::take(&mut self.view_buf);
        self.fill_thread_views(&mut views);
        let mut order = std::mem::take(&mut self.order_buf);
        self.policy.fetch_order_into(
            &PolicyView {
                cycle: self.now.get(),
                threads: &views,
            },
            &mut order,
        );
        debug_assert!(
            order.iter().all(|&t| t < self.num_threads()),
            "policy returned an invalid thread index"
        );
        if S::ENABLED {
            self.audit_fetch_order(&views, &order);
        }

        // Gating statistics.
        for (t, v) in views.iter().enumerate() {
            if !order.contains(&t) {
                self.stats[t].gated_cycles += 1;
            } else if v.fetch_blocked {
                self.stats[t].blocked_cycles += 1;
            }
        }

        // Probe-only: policy switches happen inside `fetch_order_into` (at
        // window boundaries, which always step naively), so sampling here
        // sees every transition on its exact cycle.
        if P::ENABLED {
            let active = self.policy.active_policy();
            if active != self.active_state {
                self.probe
                    .on_policy_switch(self.now.get(), self.active_state, active);
                self.active_state = active;
            }
        }
        self.refresh_probe_gates(&views, &order);

        let mut remaining = self.cfg.fetch_width;
        let mut threads_used = 0u32;
        let line_bytes = self.cfg.l1i.line_bytes;

        for &t in &order {
            if remaining == 0 || threads_used == self.cfg.fetch_threads {
                break;
            }
            // A thread waiting on an I-cache fill is skipped entirely (the
            // fetch unit selects among ready threads). A thread whose fetch
            // queue is full, however, *consumes* its slot and delivers
            // nothing: the selection already happened, and the slot is not
            // re-offered to lower-priority (e.g. Dmiss) threads.
            if self.now.get() < self.fronts[t].icache_ready_at {
                continue;
            }
            threads_used += 1;
            if self.fronts[t].queue.len() as u32 >= self.cfg.fetch_queue {
                continue;
            }

            // I-cache access for this fetch block.
            let pc0 = self.fronts[t].fetch_pc;
            let acc = self.hier.ifetch(pc0, self.now.get());
            if acc.miss {
                self.fronts[t].icache_ready_at = acc.complete_at;
                self.probe
                    .on_ifetch_miss(self.now.get(), t, pc0, acc.complete_at);
                continue;
            }

            let line_end = (pc0 | (line_bytes - 1)) + 1;
            while remaining > 0
                && self.fronts[t].fetch_pc < line_end
                && self.fronts[t].fetch_pc >= pc0
                && (self.fronts[t].queue.len() as u32) < self.cfg.fetch_queue
            {
                let d = self.fronts[t].next_to_fetch();
                remaining -= 1;
                let (ends_block, mispredicted) = self.fetch_one(t, d);
                if ends_block {
                    break;
                }
                let _ = mispredicted;
            }
        }

        order.clear();
        self.order_buf = order;
        views.clear();
        self.view_buf = views;
    }

    /// Install one fetched instruction; returns (`predicted-taken branch —
    /// fetch block ends`, `branch was mispredicted`).
    fn fetch_one(&mut self, t: usize, d: DynInst) -> (bool, bool) {
        let mut ends_block = false;
        let mut mispredicted = false;

        if d.class.is_branch() {
            let pred = self.branches.predict(t, d.pc, d.ctrl);
            let pred_next = if pred.taken {
                pred.target.unwrap_or(d.pc + INST_BYTES)
            } else {
                d.pc + INST_BYTES
            };
            let pred_next = self.fronts[t].wrap_pc(pred_next);
            if !d.wrong_path {
                mispredicted = pred_next != d.next_pc;
                if mispredicted {
                    self.fronts[t].on_wrong_path = true;
                }
            }
            self.fronts[t].fetch_pc = pred_next;
            // A predicted-taken branch ends the fetch block (fragmentation),
            // even if its target lies in the same cache line.
            ends_block = pred.taken && pred.target.is_some();
        } else if !d.wrong_path {
            // Correct-path sequential flow (handles the wrap at the end of
            // the code image).
            self.fronts[t].fetch_pc = d.next_pc;
            ends_block = d.next_pc != d.pc + INST_BYTES;
        } else {
            self.fronts[t].fetch_pc = self.fronts[t].wrap_pc(d.pc + INST_BYTES);
        }

        self.seq += 1;
        let seq = self.seq;
        let fetch_next_pc = self.fronts[t].fetch_pc;
        let is_load = d.class == OpClass::Load;
        let pc = d.pc;
        let wrong_path = d.wrong_path;
        let stage = Stage::Frontend {
            ready_at: self.now.get() + self.cfg.frontend_latency,
        };
        let h = self.slab.insert(
            seq,
            stage,
            InFlight {
                thread: t,
                inst: d,
                remaining_srcs: 0,
                waiters: self.waiter_pool.pop().unwrap_or_default(),
                iq: None,
                holds_reg: false,
                prev_producer: None,
                result_ready: false,
                mem: None,
                dmiss_counted: false,
                declared: false,
                fetch_next_pc,
                mispredicted,
                squashed: false,
            },
        );
        self.fronts[t].queue.push_back(h);
        self.icount[t] += 1;
        self.stats[t].fetched += 1;
        if wrong_path {
            self.stats[t].wrong_path_fetched += 1;
        }
        self.probe.on_fetch(self.now.get(), t, pc, seq, wrong_path);
        if is_load {
            self.policy.on_event(&PolicyEvent::LoadFetched {
                thread: t,
                pc,
                load_id: seq,
            });
        }
        (ends_block, mispredicted)
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Squash all instructions of `thread` strictly younger than
    /// `older_than`. Returns the squashed correct-path instructions,
    /// oldest-first, for replay.
    fn squash_younger(
        &mut self,
        thread: usize,
        older_than: u64,
        reason: SquashReason,
    ) -> Vec<DynInst> {
        let mut replay_rev: Vec<DynInst> = Vec::new();

        // Fetch queue holds the youngest instructions; drain it first.
        while let Some(&h) = self.fronts[thread].queue.back() {
            let seq = self.slab.seq_of(h).expect("queue handles live");
            if seq <= older_than {
                break;
            }
            self.fronts[thread].queue.pop_back();
            self.squash_one(h, reason, &mut replay_rev);
        }
        // Then the ROB, youngest-first (rename repair relies on this order).
        while let Some(&h) = self.robs[thread].back() {
            let seq = self.slab.seq_of(h).expect("ROB handles live");
            if seq <= older_than {
                break;
            }
            self.robs[thread].pop_back();
            self.squash_one(h, reason, &mut replay_rev);
        }

        replay_rev.reverse();
        replay_rev
    }

    fn squash_one(&mut self, h: Handle, reason: SquashReason, replay_rev: &mut Vec<DynInst>) {
        let (stage, seq) = self.slab.stage_seq(h).expect("live");
        let mut inst = self.slab.remove(h).expect("live");
        self.reclaim_waiters(std::mem::take(&mut inst.waiters));
        let t = inst.thread;
        match stage {
            Stage::Frontend { .. } => {
                debug_assert!(self.icount[t] > 0);
                self.icount[t] -= 1;
            }
            Stage::Waiting | Stage::Ready { .. } => {
                debug_assert!(self.icount[t] > 0);
                self.icount[t] -= 1;
                self.iqs
                    .release(inst.iq.expect("pre-issue instructions hold an IQ entry"));
                debug_assert!(self.iq_held[t] > 0);
                self.iq_held[t] -= 1;
                self.rob_count.release(t);
            }
            Stage::Executing { .. } | Stage::Done => {
                self.rob_count.release(t);
            }
        }
        if inst.holds_reg {
            if inst.inst.class.dest_is_fp() {
                self.regs_fp.release();
            } else {
                self.regs_int.release();
            }
            debug_assert!(self.regs_held[t] > 0);
            self.regs_held[t] -= 1;
        }
        // Rename repair (walked youngest-first by the caller).
        if matches!(
            stage,
            Stage::Waiting | Stage::Ready { .. } | Stage::Executing { .. } | Stage::Done
        ) {
            if let Some(dreg) = inst.inst.dest {
                let table = if inst.inst.class.dest_is_fp() {
                    &mut self.rename_fp[t]
                } else {
                    &mut self.rename_int[t]
                };
                if table[dreg as usize] == Some(h) {
                    table[dreg as usize] =
                        inst.prev_producer.filter(|&p| self.slab.get(p).is_some());
                }
            }
        }
        // Load bookkeeping: outstanding counters and per-load policy state.
        if inst.inst.class == OpClass::Load {
            if inst.dmiss_counted {
                debug_assert!(self.dmiss[t] > 0);
                self.dmiss[t] -= 1;
            }
            if inst.declared {
                debug_assert!(self.declared[t] > 0);
                self.declared[t] -= 1;
            }
            self.policy.on_event(&PolicyEvent::LoadSquashed {
                thread: t,
                pc: inst.inst.pc,
                load_id: seq,
            });
        }
        match reason {
            SquashReason::Mispredict => self.stats[t].squashed_mispredict += 1,
            SquashReason::Flush => self.stats[t].squashed_flush += 1,
        }
        let kind = match reason {
            SquashReason::Mispredict => SquashKind::Mispredict,
            SquashReason::Flush => SquashKind::Flush,
        };
        self.probe.on_squash(self.now.get(), t, seq, kind);
        if !inst.inst.wrong_path {
            replay_rev.push(inst.inst);
        }
    }

    // ------------------------------------------------------------------
    // Sanitizer audit (compiled out unless S::ENABLED)
    // ------------------------------------------------------------------

    /// File one violation with the attached sanitizer, stamped with the
    /// current cycle and a full machine snapshot.
    #[cold]
    fn report_violation(
        &mut self,
        code: InvariantCode,
        thread: Option<usize>,
        expected: u64,
        actual: u64,
        detail: String,
    ) {
        let snapshot = Box::new(self.progress_snapshot());
        self.sanitizer.on_violation(InvariantViolation {
            code,
            cycle: self.now.get(),
            thread,
            expected,
            actual,
            detail,
            snapshot,
        });
    }

    /// Validate the fetch order the policy just produced (`INV012`), then
    /// let the policy check its own ordering/gating rules (`INV013`).
    ///
    /// Never inlined: with a real sanitizer attached this keeps the audit
    /// out of the fetch stage's instruction stream; with `NullSanitizer`
    /// the call site is compiled out entirely.
    #[inline(never)]
    fn audit_fetch_order(&mut self, views: &[ThreadView], order: &[usize]) {
        let n = self.num_threads();
        for (i, &t) in order.iter().enumerate() {
            if t >= n {
                self.report_violation(
                    InvariantCode::PolicyOrder,
                    None,
                    n as u64,
                    t as u64,
                    format!("fetch order names out-of-range thread {t} of {n}"),
                );
                return; // the policy audit cannot index such an order
            }
            if order[..i].contains(&t) {
                self.report_violation(
                    InvariantCode::PolicyOrder,
                    Some(t),
                    1,
                    2,
                    format!("thread {t} listed twice in the fetch order"),
                );
                return;
            }
        }
        let verdict = self.policy.audit_order(
            &PolicyView {
                cycle: self.now.get(),
                threads: views,
            },
            order,
        );
        if let Err(detail) = verdict {
            self.report_violation(InvariantCode::PolicyGating, None, 0, 1, detail);
        }
    }

    /// The end-of-cycle whole-machine audit: every invariant in the catalog
    /// except the fetch-stage `INV012`/`INV013` (checked where the order is
    /// produced). Read-only over machine state; violations are collected
    /// first and reported after, so in the clean steady state the local
    /// `Vec` stays empty and never allocates.
    ///
    /// Never inlined, for the same code-placement reason as
    /// [`Simulator::audit_fetch_order`].
    #[inline(never)]
    fn audit_cycle(&mut self, _on: Enabled) {
        use InvariantCode as C;
        let n = self.num_threads();
        let mut found: Vec<(C, Option<usize>, u64, u64, String)> = Vec::new();

        // INV011: every live instruction is in exactly one queue / ROB.
        let queued: usize = self.fronts.iter().map(|f| f.queue.len()).sum();
        let robbed: usize = self.robs.iter().map(|r| r.len()).sum();
        if queued + robbed != self.slab.live() {
            found.push((
                C::SlabConservation,
                None,
                (queued + robbed) as u64,
                self.slab.live() as u64,
                format!(
                    "fetch queues hold {queued}, ROBs hold {robbed}, slab reports {} live",
                    self.slab.live()
                ),
            ));
        }

        let mut int_holders = 0u32;
        let mut fp_holders = 0u32;
        let mut iq_by_kind = [0u32; 3];
        for t in 0..n {
            // INV004: ROB counters track the deques; handles resolve.
            let rob_len = self.robs[t].len() as u64;
            let rob_used = self.rob_count.used(t) as u64;
            if rob_used != rob_len {
                found.push((
                    C::RobConservation,
                    Some(t),
                    rob_len,
                    rob_used,
                    "ROB occupancy counter diverges from the ROB deque".into(),
                ));
            }
            let mut dead = 0u64;
            let mut prev_seq: Option<u64> = None;
            let mut age_bad: Option<(u64, u64)> = None;
            let mut pre_issue_rob = 0u32;
            let mut t_int = 0u32;
            let mut t_fp = 0u32;
            let mut dmiss_live = 0u32;
            let mut declared_live = 0u32;
            for &h in &self.robs[t] {
                let Some((inst, seq, stage)) = self.slab.lookup(h) else {
                    dead += 1;
                    continue;
                };
                if inst.thread != t {
                    found.push((
                        C::RobConservation,
                        Some(t),
                        t as u64,
                        inst.thread as u64,
                        format!(
                            "seq {seq} in thread {t}'s ROB belongs to thread {}",
                            inst.thread
                        ),
                    ));
                }
                // INV005: sequence numbers strictly ascend head to tail.
                if let Some(p) = prev_seq {
                    if seq <= p && age_bad.is_none() {
                        age_bad = Some((p, seq));
                    }
                }
                prev_seq = Some(seq);
                if matches!(stage, Stage::Waiting | Stage::Ready { .. }) {
                    pre_issue_rob += 1;
                    match inst.iq {
                        Some(kind) => iq_by_kind[iq_index(kind)] += 1,
                        None => found.push((
                            C::IqConservation,
                            Some(t),
                            1,
                            0,
                            format!("pre-issue seq {seq} holds no IQ entry"),
                        )),
                    }
                }
                if inst.holds_reg {
                    if inst.inst.class.dest_is_fp() {
                        t_fp += 1;
                    } else {
                        t_int += 1;
                    }
                }
                // INV009: each counted L1-D miss is a load whose recorded
                // hierarchy outcome says "L1 miss, fill still in flight".
                if inst.dmiss_counted {
                    dmiss_live += 1;
                    match inst.mem {
                        None => found.push((
                            C::DmissConsistency,
                            Some(t),
                            1,
                            0,
                            format!("dmiss-counted seq {seq} has no memory outcome"),
                        )),
                        Some(m) => {
                            if !m.l1_miss {
                                found.push((
                                    C::DmissConsistency,
                                    Some(t),
                                    1,
                                    0,
                                    format!("dmiss-counted seq {seq} hit in L1"),
                                ));
                            }
                            if m.complete_at <= self.now.get() {
                                found.push((
                                    C::DmissConsistency,
                                    Some(t),
                                    self.now.get() + 1,
                                    m.complete_at,
                                    format!(
                                        "dmiss-counted seq {seq} fill was due at cycle {}",
                                        m.complete_at
                                    ),
                                ));
                            }
                            if m.l2_miss && !m.l1_miss {
                                found.push((
                                    C::DmissConsistency,
                                    Some(t),
                                    0,
                                    1,
                                    format!("seq {seq} reports an L2 miss without an L1 miss"),
                                ));
                            }
                        }
                    }
                }
                // INV010: each declared L2 miss still awaits its resolve
                // notice.
                if inst.declared {
                    declared_live += 1;
                    match inst.mem {
                        None => found.push((
                            C::DeclaredConsistency,
                            Some(t),
                            1,
                            0,
                            format!("declared seq {seq} has no memory outcome"),
                        )),
                        Some(m) => {
                            let notice_at =
                                m.complete_at.saturating_sub(self.cfg.early_resolve_notice);
                            if notice_at <= self.now.get() {
                                found.push((
                                    C::DeclaredConsistency,
                                    Some(t),
                                    self.now.get() + 1,
                                    notice_at,
                                    format!(
                                        "declared seq {seq} resolve notice was due at cycle \
                                         {notice_at}"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            if dead > 0 {
                found.push((
                    C::RobConservation,
                    Some(t),
                    0,
                    dead,
                    "ROB holds handles to removed instructions".into(),
                ));
            }
            if let Some((p, s)) = age_bad {
                found.push((
                    C::RobAgeOrder,
                    Some(t),
                    p + 1,
                    s,
                    format!("seq {s} follows seq {p} in the ROB (commit order is fetch order)"),
                ));
            }
            // INV006: ICOUNT == pre-issue occupancy (fetch queue + IQ).
            let pre_issue = self.fronts[t].queue.len() as u64 + pre_issue_rob as u64;
            if pre_issue != self.icount[t] as u64 {
                found.push((
                    C::IcountConsistency,
                    Some(t),
                    pre_issue,
                    self.icount[t] as u64,
                    "ICOUNT counter diverges from pre-issue occupancy".into(),
                ));
            }
            // INV003: per-thread IQ holdings.
            if pre_issue_rob != self.iq_held[t] {
                found.push((
                    C::IqConservation,
                    Some(t),
                    pre_issue_rob as u64,
                    self.iq_held[t] as u64,
                    "per-thread IQ holdings counter diverges".into(),
                ));
            }
            // INV001 per-thread (the counter is int+fp combined).
            if t_int + t_fp != self.regs_held[t] {
                found.push((
                    C::RegConservationInt,
                    Some(t),
                    (t_int + t_fp) as u64,
                    self.regs_held[t] as u64,
                    "per-thread register holdings counter diverges (int+fp combined)".into(),
                ));
            }
            // INV009/INV010: the per-thread counters the policy reads.
            if dmiss_live != self.dmiss[t] {
                found.push((
                    C::DmissConsistency,
                    Some(t),
                    dmiss_live as u64,
                    self.dmiss[t] as u64,
                    "outstanding L1-D miss counter diverges from live dmiss-counted loads \
                     (the thread would be misclassified into the wrong DWarn group)"
                        .into(),
                ));
            }
            if declared_live != self.declared[t] {
                found.push((
                    C::DeclaredConsistency,
                    Some(t),
                    declared_live as u64,
                    self.declared[t] as u64,
                    "declared-L2-miss counter diverges from live declared loads".into(),
                ));
            }
            int_holders += t_int;
            fp_holders += t_fp;
        }

        // INV001/INV002: freelist conservation — a leak shows as in_use >
        // holders, a double-free as in_use < holders.
        if int_holders != self.regs_int.in_use() {
            found.push((
                C::RegConservationInt,
                None,
                int_holders as u64,
                self.regs_int.in_use() as u64,
                "int freelist in-use count diverges from live holders (leak or double-free)".into(),
            ));
        }
        if fp_holders != self.regs_fp.in_use() {
            found.push((
                C::RegConservationFp,
                None,
                fp_holders as u64,
                self.regs_fp.in_use() as u64,
                "fp freelist in-use count diverges from live holders (leak or double-free)".into(),
            ));
        }

        // INV003: shared IQ occupancy, per kind.
        for kind in IqKind::ALL {
            let counted = iq_by_kind[iq_index(kind)];
            let used = self.iqs.used(kind);
            if counted != used {
                found.push((
                    C::IqConservation,
                    None,
                    counted as u64,
                    used as u64,
                    format!("{kind:?} IQ occupancy diverges from pre-issue instructions"),
                ));
            }
        }

        // INV007/INV008: event-wheel sanity.
        let wheel = self.events.audit(self.now.get());
        if let Some((at, seq)) = wheel.past_due {
            found.push((
                C::EventPastDue,
                None,
                self.now.get() + 1,
                at,
                format!("event for seq {seq} due at cycle {at} is still queued"),
            ));
        }
        if wheel.queued != wheel.cached_len {
            found.push((
                C::EventLenMismatch,
                None,
                wheel.queued as u64,
                wheel.cached_len as u64,
                "event-wheel cached length diverges from queued events".into(),
            ));
        }

        // INV014: cache tag-array integrity, periodically (its cost scales
        // with cache size, not occupancy).
        if self.now.get().is_multiple_of(TAG_AUDIT_PERIOD) {
            if let Err(detail) = self.hier.audit_tags() {
                found.push((C::CacheTagIntegrity, None, 0, 1, detail));
            }
        }

        for (code, thread, expected, actual, detail) in found {
            self.report_violation(code, thread, expected, actual, detail);
        }
    }

    /// Run the whole-machine audit immediately (mutation tests): the
    /// per-cycle audit only fires inside [`Simulator::step`], but a test
    /// that just injected a corruption wants the verdict deterministically,
    /// before the machine can evolve.
    #[doc(hidden)]
    pub fn force_audit(&mut self) {
        if let Some(on) = Enabled::of::<S>() {
            self.audit_cycle(on);
            // The tag audit inside `audit_cycle` is periodic (its cost
            // scales with cache size); a forced audit runs it regardless
            // so tag mutations get a deterministic verdict.
            if !self.now.get().is_multiple_of(TAG_AUDIT_PERIOD) {
                if let Err(detail) = self.hier.audit_tags() {
                    self.report_violation(InvariantCode::CacheTagIntegrity, None, 0, 1, detail);
                }
            }
        }
    }

    /// Deliberately corrupt one machine invariant (mutation tests; see
    /// [`Mutation`]). Returns false when the corruption could not be
    /// applied (e.g. a pool already exhausted or an empty ROB).
    #[doc(hidden)]
    pub fn inject_for_test(&mut self, m: Mutation) -> bool {
        match m {
            Mutation::LeakIntReg => self.regs_int.alloc(),
            Mutation::LeakFpReg => self.regs_fp.alloc(),
            Mutation::LeakIqEntry => self.iqs.alloc(IqKind::Int),
            Mutation::LeakRobSlot => self.rob_count.alloc(0),
            Mutation::InflateIcount => {
                self.icount[0] += 1;
                true
            }
            Mutation::PhantomDmiss => {
                self.dmiss[0] += 1;
                true
            }
            Mutation::PhantomDeclared => {
                self.declared[0] += 1;
                true
            }
            Mutation::PastDueEvent => {
                // A handle no live slot matches, so the event is inert even
                // if it ever drains.
                let h = Handle {
                    idx: u32::MAX,
                    gen: u32::MAX,
                };
                self.events.inject_unchecked(Ev {
                    at: self.now.get().saturating_sub(1),
                    seq: 0,
                    kind: EvKind::Wakeup,
                    h,
                });
                true
            }
            Mutation::RobAgeSwap => {
                if self.robs[0].len() >= 2 {
                    self.robs[0].swap(0, 1);
                    true
                } else {
                    false
                }
            }
            Mutation::SkewEventLen => {
                self.events.skew_len_for_test();
                true
            }
            Mutation::DropRobEntry => self.robs[0].pop_front().is_some(),
            Mutation::DuplicateCacheTag => self.hier.corrupt_duplicate_tag_for_test(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests
    // ------------------------------------------------------------------

    /// Current issue-queue occupancy: [int, fp, ldst].
    pub fn iq_usage(&self) -> [u32; 3] {
        [
            self.iqs.used(IqKind::Int),
            self.iqs.used(IqKind::Fp),
            self.iqs.used(IqKind::LdSt),
        ]
    }

    /// Current outstanding L1-D miss count of a thread (policy-visible).
    pub fn dmiss_count(&self, thread: usize) -> u32 {
        self.dmiss[thread]
    }
}

impl<P: Probe, S: Sanitizer> Simulator<P, S> {
    /// Physical registers currently held (int, fp) — diagnostics.
    pub fn regs_in_use(&self) -> (u32, u32) {
        (self.regs_int.in_use(), self.regs_fp.in_use())
    }

    /// Correct-path instructions emitted by a thread's trace — diagnostics.
    pub fn trace_emitted(&self, thread: usize) -> u64 {
        self.fronts[thread].trace.emitted()
    }
}

// ----------------------------------------------------------------------
// Checkpoint / restore
// ----------------------------------------------------------------------

/// How a checkpointed run ended: it either ran its budgets to completion
/// like [`Simulator::try_run`], or a stop request interrupted it and the
/// resumable machine state is handed back instead.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished; the measured-window result, exactly as
    /// [`Simulator::try_run`] would have produced it.
    Completed(SimResult),
    /// A [`CheckpointOpts::stop`] request interrupted the run between
    /// chunks. The snapshot carries run state
    /// ([`MachineSnapshot::has_run_state`]) and seeds
    /// [`Simulator::restore_run`] / [`Simulator::resume_run`].
    Interrupted(MachineSnapshot),
}

/// Measurement bases captured at the warmup/measure boundary (the window
/// result is the delta of cumulative counters against these).
#[derive(Debug)]
struct RunBases {
    stats: Vec<ThreadStats>,
    mem: Vec<ThreadMemStats>,
    pred: (u64, u64),
}

/// Where an in-progress guarded run stands: remaining budgets plus the
/// measurement bases once warmup has completed.
#[derive(Debug)]
struct RunPhase {
    warmup_left: u64,
    measure_left: u64,
    measure_total: u64,
    bases: Option<RunBases>,
}

impl RunPhase {
    /// A run that has not started yet.
    fn new(warmup: u64, measure: u64) -> RunPhase {
        RunPhase {
            warmup_left: warmup,
            measure_left: measure,
            measure_total: measure,
            bases: None,
        }
    }
}

/// An in-progress run decoded from a snapshot by
/// [`Simulator::restore_run`], ready to be continued by
/// [`Simulator::resume_run`]. Opaque: its contents mirror the private run
/// bookkeeping of the checkpointed driver.
#[derive(Debug)]
pub struct PendingRun {
    phase: RunPhase,
    watch: WatchState,
}

/// Checkpointing controls for [`Simulator::try_run_checkpointed`] /
/// [`Simulator::resume_run`].
pub struct CheckpointOpts<'a> {
    /// Emit a checkpoint every `interval` simulated cycles (the run is
    /// driven in chunks of this size). `0` disables periodic checkpoints:
    /// the run executes each phase in one chunk and the sink only sees the
    /// final watchdog-trip checkpoint, if any.
    pub interval: u64,
    /// Receives every emitted checkpoint (periodic ones, and the final
    /// resumable checkpoint emitted when the watchdog aborts the run).
    pub sink: &'a mut dyn FnMut(&MachineSnapshot),
    /// Polled between chunks; returning `true` interrupts the run with
    /// [`RunOutcome::Interrupted`] (the caller owns the returned snapshot,
    /// so it is *not* also sent to the sink).
    pub stop: Option<&'a dyn Fn() -> bool>,
}

impl<P: Probe, S: Sanitizer> Simulator<P, S> {
    /// Serialize the complete evolving machine state (everything
    /// [`Simulator::step`] can change). Scratch buffers, configuration,
    /// construction-time caches, the attached observers, and the cached
    /// active-candidate name are excluded: restore targets an
    /// identically-constructed simulator that already has them (the name
    /// is re-derived from the restored policy).
    #[deny(unused_variables)]
    fn save_machine(&self, out: &mut Vec<u8>) {
        let Simulator {
            cfg: _,
            policy: _,
            probe: _,
            sanitizer: _,
            gate_state,
            warn_state,
            active_state: _,
            obs_rob: _,
            obs_iq: _,
            obs_out: _,
            obs_gate: _,
            fronts,
            slab,
            robs,
            rename_int,
            rename_fp,
            regs_int,
            regs_fp,
            iqs,
            fus,
            rob_count,
            hier,
            branches,
            events,
            ready,
            due_buf: _,
            cands_buf: _,
            view_buf: _,
            order_buf: _,
            waiter_pool: _,
            icount,
            dmiss,
            declared,
            iq_held,
            regs_held,
            now,
            seq,
            rr,
            stats,
            total_committed,
            skip_enabled: _,
            skip_ok: _,
            policy_wants_commits: _,
            skipped_cycles,
            skip_spans,
        } = self;
        now.get().save_state(out);
        seq.save_state(out);
        rr.save_state(out);
        snapio::put_usize(out, fronts.len());
        fronts.save_state(out);
        slab.save_state(out);
        for rob in robs {
            Seq(MAX_LIST).save(rob, out);
        }
        rename_int.save_state(out);
        rename_fp.save_state(out);
        regs_int.save_state(out);
        regs_fp.save_state(out);
        iqs.save_state(out);
        fus.save_state(out);
        rob_count.save_state(out);
        hier.save_state(out);
        branches.save_state(out);
        events.save_state(out);
        // Ready lists verbatim, stale handles included: lazy cleanup is
        // part of machine behavior (a restored run must compact the same
        // entries on the same cycles the uninterrupted run would).
        for list in ready {
            Seq(MAX_LIST).save(list, out);
        }
        for counters in [icount, dmiss, declared, iq_held, regs_held] {
            counters.save_state(out);
        }
        stats.save_state(out);
        total_committed.save_state(out);
        skipped_cycles.save_state(out);
        skip_spans.save_state(out);
        gate_state.save_state(out);
        warn_state.save_state(out);
    }

    /// Restore the machine section into this (identically-constructed)
    /// simulator. On error the machine state is unspecified — discard the
    /// simulator (the caller-facing [`Simulator::restore`] documents this).
    #[deny(unused_variables)]
    fn load_machine(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Simulator {
            cfg: _,
            policy: _,
            probe: _,
            sanitizer: _,
            gate_state,
            warn_state,
            active_state: _,
            obs_rob: _,
            obs_iq: _,
            obs_out: _,
            obs_gate: _,
            fronts,
            slab,
            robs,
            rename_int,
            rename_fp,
            regs_int,
            regs_fp,
            iqs,
            fus,
            rob_count,
            hier,
            branches,
            events,
            ready,
            due_buf: _,
            cands_buf: _,
            view_buf: _,
            order_buf: _,
            waiter_pool: _,
            icount,
            dmiss,
            declared,
            iq_held,
            regs_held,
            now,
            seq,
            rr,
            stats,
            total_committed,
            skip_enabled: _,
            skip_ok: _,
            policy_wants_commits: _,
            skipped_cycles,
            skip_spans,
        } = self;
        let n = fronts.len();
        // The clock is rebased through the engine's single advance point
        // below (`advance_clock`, the only code that can move a `Clock`):
        // the wrapping delta lands exactly on the checkpointed cycle even
        // when the snapshot predates this machine's clock.
        let target = r.u64()?;
        let clock_delta = target.wrapping_sub(now.get());
        seq.load_state(r)?;
        rr.load_state(r)?;
        ensure(*rr < n, || {
            format!("round-robin offset {rr} with {n} threads")
        })?;
        let snap_fronts = r.usize()?;
        ensure(snap_fronts == n, || {
            format!("snapshot has {snap_fronts} front-ends, simulator has {n}")
        })?;
        fronts.load_state(r)?;
        slab.load_state(r)?;
        for rob in robs {
            Seq(MAX_LIST).load(rob, r)?;
        }
        rename_int.load_state(r)?;
        rename_fp.load_state(r)?;
        regs_int.load_state(r)?;
        regs_fp.load_state(r)?;
        iqs.load_state(r)?;
        fus.load_state(r)?;
        rob_count.load_state(r)?;
        hier.load_state(r)?;
        branches.load_state(r)?;
        events.load_state(target, r)?;
        for list in ready {
            Seq(MAX_LIST).load(list, r)?;
        }
        for counters in [icount, dmiss, declared, iq_held, regs_held] {
            counters.load_state(r)?;
        }
        stats.load_state(r)?;
        total_committed.load_state(r)?;
        skipped_cycles.load_state(r)?;
        skip_spans.load_state(r)?;
        gate_state.load_state(r)?;
        warn_state.load_state(r)?;
        // The round-robin offset the clock advance derives is replaced by
        // the checkpointed one.
        let rr = *rr;
        self.advance_clock(clock_delta);
        self.rr = rr;
        // Scratch hygiene: the hot-loop buffers are rebuilt each cycle, but
        // a restored simulator should not carry another run's leftovers.
        self.due_buf.clear();
        self.cands_buf.clear();
        self.view_buf.clear();
        self.order_buf.clear();
        Ok(())
    }

    /// Capture the complete machine state as a versioned, checksummed
    /// [`MachineSnapshot`] (no run-in-progress state; see
    /// [`Simulator::try_run_checkpointed`] for resumable checkpoints).
    ///
    /// The snapshot covers everything [`Simulator::step`] can change —
    /// front-ends (trace RNGs and positions, fetch queues, replay buffers),
    /// the in-flight slab, ROBs, rename tables, back-end resource pools,
    /// the cache hierarchy and predictor tables, the event wheel, per-thread
    /// counters and statistics, the quiescence diagnostics, and the policy
    /// and probe state sections — so [`Simulator::restore`] into an
    /// identically-constructed simulator continues bit-identically.
    /// Serialization is deterministic: equal machine state produces equal
    /// bytes (and equal [`MachineSnapshot::digest`]s).
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut machine = Vec::with_capacity(4096);
        self.save_machine(&mut machine);
        let mut policy = Vec::new();
        self.policy.save_state(&mut policy);
        let mut probe = Vec::new();
        self.probe.save_state(&mut probe);
        MachineSnapshot {
            num_threads: self.num_threads(),
            policy_name: self.policy.name().to_string(),
            cfg_fingerprint: cfg_fingerprint(&self.cfg),
            cycle: self.now.get(),
            machine,
            policy,
            probe,
            run: None,
        }
    }

    /// Restore a [`MachineSnapshot`] into this simulator. The simulator
    /// must be *identically constructed* — same configuration, same thread
    /// specs, same policy — which the snapshot's identity header verifies
    /// (thread count, policy name, configuration fingerprint); a mismatch
    /// is [`SnapshotError::IdentityMismatch`]. After a successful restore,
    /// stepping this simulator is bit-identical to stepping the one the
    /// snapshot was taken from.
    ///
    /// On error the machine state is unspecified: discard the simulator
    /// and construct a fresh one (the campaign runner falls back to plain
    /// re-simulation on any checkpoint defect).
    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<(), SnapshotError> {
        let n = self.num_threads();
        if snap.num_threads != n {
            return Err(SnapshotError::IdentityMismatch(format!(
                "snapshot has {} threads, simulator has {n}",
                snap.num_threads
            )));
        }
        if snap.policy_name != self.policy.name() {
            return Err(SnapshotError::IdentityMismatch(format!(
                "snapshot policy {:?}, simulator policy {:?}",
                snap.policy_name,
                self.policy.name()
            )));
        }
        let fp = cfg_fingerprint(&self.cfg);
        if snap.cfg_fingerprint != fp {
            return Err(SnapshotError::IdentityMismatch(format!(
                "snapshot configuration fingerprint {:#018x}, simulator {fp:#018x}",
                snap.cfg_fingerprint
            )));
        }
        let mut r = SnapReader::new(&snap.machine);
        self.load_machine(&mut r)?;
        r.finish("machine section")?;
        self.policy
            .load_state(&snap.policy)
            .map_err(SnapshotError::Policy)?;
        if P::ENABLED {
            // The cached active-candidate name is probe bookkeeping derived
            // from the policy; re-derive it from the just-restored policy
            // rather than serializing a &'static str.
            self.active_state = self.policy.active_policy();
        }
        if snap.probe.is_empty() {
            // A probe-stateless snapshot (taken by a NullProbe host, e.g.
            // the fragment-replay scout pass): keep this simulator's own
            // probe untouched and re-prime the warn mirror, which the
            // stateless host never maintained. `warn_level` is a pure
            // function of the per-thread dmiss/declared counters, and
            // those are only mutated by event handlers and squashes —
            // never by the post-refresh tail of the fetch stage — so the
            // value computed here equals the one a probed run carried
            // across this very cycle boundary, and the next fetch (or
            // span-head) refresh reports exactly the transitions the
            // sequential probed run would. The gate mirror needs no
            // priming: per-cycle gate accounting is recomputed from live
            // machine state before every probe feed (only the episodic
            // on_gate/on_ungate edge hooks can see one spurious
            // transition at the seam — a documented seam invariant).
            if P::ENABLED {
                let mut views = std::mem::take(&mut self.view_buf);
                self.fill_thread_views(&mut views);
                let pv = PolicyView {
                    cycle: self.now.get(),
                    threads: &views,
                };
                for t in 0..n {
                    self.warn_state[t] = self.policy.warn_level(&pv, t);
                }
                views.clear();
                self.view_buf = views;
            }
        } else {
            self.probe
                .load_state(&snap.probe)
                .map_err(SnapshotError::Probe)?;
        }
        Ok(())
    }

    /// Cumulative per-thread statistics since cycle 0 (warmup included).
    /// The fragment-replay stitcher reads these at fragment seams to prove
    /// neighbouring fragments agree counter for counter.
    pub fn all_thread_stats(&self) -> &[ThreadStats] {
        &self.stats
    }

    /// Advance `cycles` cycles under the watchdog, letting the quiescence
    /// engine take provably idle spans in bulk (when the attached policy
    /// permits it and the escape hatch is open) — bit-identical to
    /// stepping `cycles` times and checking after each step. This is the
    /// engine's only stepping loop. `progressed` reports how many cycles
    /// actually advanced: on a watchdog abort the caller needs the exact
    /// remaining budget for the resumable checkpoint. A stepped cycle
    /// counts *before* the watchdog verdict: the step completed even when
    /// the check then aborts the run.
    fn run_guarded_counted(
        &mut self,
        cycles: u64,
        watch: &mut WatchState,
        wd: &Watchdog,
        progressed: &mut u64,
    ) -> Result<(), SimError> {
        let skip = self.skip_active();
        let mut left = cycles;
        while left > 0 {
            if skip {
                let cap = watch.skip_cap(self, wd).min(left);
                let k = self.try_skip(cap);
                if k > 0 {
                    watch.bulk_advance(k);
                    *progressed += k;
                    left -= k;
                    continue;
                }
            }
            self.step();
            *progressed += 1;
            watch.check(self, wd)?;
            left -= 1;
        }
        Ok(())
    }

    /// Snapshot the machine *plus* the state of the in-progress run:
    /// remaining warmup/measure budgets, the measurement bases (once
    /// captured), and the watchdog's progress counters. The wall-clock
    /// start is deliberately not serialized — on resume the wall budget
    /// restarts, since time spent before a crash is not time spent in the
    /// resumed process.
    #[deny(unused_variables)]
    fn snapshot_with_run(&self, phase: &RunPhase, watch: &WatchState) -> MachineSnapshot {
        let RunPhase {
            warmup_left,
            measure_left,
            measure_total,
            bases,
        } = phase;
        let WatchState {
            cycles,
            last_commit_total,
            last_commit_cycle,
            started: _,
        } = watch;
        let mut snap = self.snapshot();
        let mut run = Vec::new();
        warmup_left.save_state(&mut run);
        measure_left.save_state(&mut run);
        measure_total.save_state(&mut run);
        snapio::put_bool(&mut run, bases.is_some());
        if let Some(RunBases { stats, mem, pred }) = bases {
            stats.save_state(&mut run);
            mem.save_state(&mut run);
            pred.save_state(&mut run);
        }
        cycles.save_state(&mut run);
        last_commit_total.save_state(&mut run);
        last_commit_cycle.save_state(&mut run);
        snap.run = Some(run);
        snap
    }

    /// The run driver behind every run entry point: advance the run in
    /// `interval`-sized chunks, emitting a resumable checkpoint after each
    /// chunk, polling the stop request between chunks, and upgrading a
    /// watchdog abort with a final resumable checkpoint before returning
    /// the typed error. Without `opts` each phase runs as one chunk and no
    /// checkpoint is taken.
    ///
    /// Chunking is behavior-neutral: the only effect of a chunk boundary
    /// is that a quiescent span crossing it is taken as two bulk advances
    /// instead of one, which changes the [`Simulator::skip_spans`]
    /// diagnostic only — every statistic, probed series sum, and the
    /// [`SimResult`] are bit-identical to the unchunked run.
    fn drive_checkpointed(
        &mut self,
        phase: &mut RunPhase,
        watch: &mut WatchState,
        wd: &Watchdog,
        mut opts: Option<&mut CheckpointOpts<'_>>,
    ) -> Result<RunOutcome, SimError> {
        let interval = opts.as_ref().map_or(0, |o| o.interval);
        loop {
            // The bases are captured at the warmup/measure boundary. A
            // checkpoint emitted exactly on the boundary carries
            // `bases: None`; the resumed run re-captures them from the
            // restored (identical) machine state, so the two capture sites
            // agree byte for byte.
            if phase.warmup_left == 0 && phase.bases.is_none() {
                phase.bases = Some(self.run_bases());
            }
            let in_warmup = phase.warmup_left > 0;
            let left = if in_warmup {
                phase.warmup_left
            } else {
                phase.measure_left
            };
            if left == 0 {
                break;
            }
            let chunk = if interval == 0 {
                left
            } else {
                interval.min(left)
            };
            let mut progressed = 0u64;
            let res = self.run_guarded_counted(chunk, watch, wd, &mut progressed);
            if in_warmup {
                phase.warmup_left -= progressed;
            } else {
                phase.measure_left -= progressed;
            }
            if let Err(e) = res {
                // Watchdog trip: alongside the observation-only progress
                // snapshot inside `e`, leave a *resumable* checkpoint so
                // the campaign can continue (e.g. with a larger budget)
                // instead of restarting from cycle zero.
                if let Some(o) = opts.as_deref_mut() {
                    let snap = self.snapshot_with_run(phase, watch);
                    (o.sink)(&snap);
                }
                return Err(e);
            }
            if phase.warmup_left == 0 && phase.measure_left == 0 {
                break;
            }
            let Some(o) = opts.as_deref_mut() else {
                continue;
            };
            if let Some(stop) = o.stop {
                if stop() {
                    return Ok(RunOutcome::Interrupted(
                        self.snapshot_with_run(phase, watch),
                    ));
                }
            }
            if interval > 0 {
                let snap = self.snapshot_with_run(phase, watch);
                (o.sink)(&snap);
            }
        }
        // A run with no measured window ends on the warmup boundary.
        let bases = phase.bases.take().unwrap_or_else(|| self.run_bases());
        Ok(RunOutcome::Completed(
            self.window_result(phase.measure_total, bases),
        ))
    }

    /// As [`Simulator::try_run`], emitting a resumable checkpoint every
    /// [`CheckpointOpts::interval`] cycles and honoring a stop request
    /// between chunks. A completed run returns exactly the [`SimResult`]
    /// `try_run` would have (checkpointing is observation-only); an
    /// interrupted run hands back the resumable snapshot; a watchdog abort
    /// emits a final resumable checkpoint through the sink and then
    /// returns the typed [`SimError`] unchanged.
    pub fn try_run_checkpointed(
        &mut self,
        warmup: u64,
        measure: u64,
        wd: &Watchdog,
        opts: &mut CheckpointOpts<'_>,
    ) -> Result<RunOutcome, SimError> {
        let mut watch = WatchState::new(self);
        let mut phase = RunPhase::new(warmup, measure);
        self.drive_checkpointed(&mut phase, &mut watch, wd, Some(opts))
    }

    /// Restore a run-carrying snapshot ([`MachineSnapshot::has_run_state`])
    /// into this identically-constructed simulator and decode the
    /// in-progress run state. Pass the result to [`Simulator::resume_run`]
    /// to continue the run. A machine-only snapshot is
    /// [`SnapshotError::NoRunState`].
    #[deny(unused_variables)]
    pub fn restore_run(&mut self, snap: &MachineSnapshot) -> Result<PendingRun, SnapshotError> {
        let Some(run_bytes) = &snap.run else {
            return Err(SnapshotError::NoRunState);
        };
        self.restore(snap)?;
        let n = self.num_threads();
        let mut phase = RunPhase::new(0, 0);
        let mut watch = WatchState::new(self);
        let RunPhase {
            warmup_left,
            measure_left,
            measure_total,
            bases,
        } = &mut phase;
        let WatchState {
            cycles,
            last_commit_total,
            last_commit_cycle,
            started: _,
        } = &mut watch;
        let r = &mut SnapReader::new(run_bytes);
        warmup_left.load_state(r)?;
        measure_left.load_state(r)?;
        measure_total.load_state(r)?;
        if measure_left > measure_total {
            return Err(SnapshotError::Malformed(format!(
                "run section: {measure_left} measure cycles left of {measure_total} total"
            )));
        }
        *bases = if r.bool()? {
            let mut b = RunBases {
                stats: vec![ThreadStats::default(); n],
                mem: vec![ThreadMemStats::default(); n],
                pred: (0, 0),
            };
            b.stats.load_state(r)?;
            b.mem.load_state(r)?;
            b.pred.load_state(r)?;
            Some(b)
        } else {
            None
        };
        cycles.load_state(r)?;
        last_commit_total.load_state(r)?;
        last_commit_cycle.load_state(r)?;
        r.finish("run section")?;
        Ok(PendingRun { phase, watch })
    }

    /// Continue a run restored by [`Simulator::restore_run`], with the same
    /// checkpointing contract as [`Simulator::try_run_checkpointed`]. The
    /// completed result is bit-identical to the run never having been
    /// interrupted. One exception by design: the watchdog's *wall-clock*
    /// budget restarts at resume time (simulated-cycle budgets and the
    /// no-forward-progress counter carry over exactly).
    #[expect(
        clippy::disallowed_methods,
        reason = "watchdog wall-clock budget; sampled off the hot path and never feeds simulated state"
    )]
    pub fn resume_run(
        &mut self,
        pending: PendingRun,
        wd: &Watchdog,
        opts: &mut CheckpointOpts<'_>,
    ) -> Result<RunOutcome, SimError> {
        let PendingRun {
            mut phase,
            mut watch,
        } = pending;
        watch.started = std::time::Instant::now();
        self.drive_checkpointed(&mut phase, &mut watch, wd, Some(opts))
    }
}
