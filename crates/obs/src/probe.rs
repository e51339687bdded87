//! The [`Probe`] trait: the simulator's observability hook points.
//!
//! The simulator (`smt-pipeline`) is generic over `P: Probe` and calls these
//! hooks from its fetch/dispatch/issue/commit/squash paths; the memory
//! hierarchy (`smt-uarch`) calls them from the data-cache access path. All
//! methods have empty default bodies, so a probe implements only what it
//! cares about — and the no-op [`NullProbe`] compiles away entirely.
//!
//! Hooks whose arguments cost per-cycle bookkeeping (gate-transition
//! tracking, warn levels, end-of-cycle state) take an [`Enabled`]
//! proof, which only an enabled [`Observer`] yields, so a default run pays
//! nothing at all and a hook call outside its gate does not compile.

/// Why a thread did not deliver instructions in a fetch cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum GateReason {
    /// The fetch policy excluded the thread from its fetch order
    /// (DWarn priority-group demotion, DG/PDG/STALL/FLUSH gating, ...).
    #[default]
    Policy,
    /// The thread is waiting on an instruction-cache fill.
    IcacheMiss,
    /// The thread's fetch queue is full (back-end pressure).
    FetchQueueFull,
}

smt_trace::snap_tags!(GateReason {
    Policy = 0,
    IcacheMiss = 1,
    FetchQueueFull = 2,
});

impl GateReason {
    pub const ALL: [GateReason; 3] = [
        GateReason::Policy,
        GateReason::IcacheMiss,
        GateReason::FetchQueueFull,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            GateReason::Policy => "policy",
            GateReason::IcacheMiss => "icache-miss",
            GateReason::FetchQueueFull => "fetch-queue-full",
        }
    }

    pub fn index(self) -> usize {
        match self {
            GateReason::Policy => 0,
            GateReason::IcacheMiss => 1,
            GateReason::FetchQueueFull => 2,
        }
    }
}

/// Why an in-flight instruction was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SquashKind {
    /// Branch-misprediction recovery.
    Mispredict,
    /// The FLUSH policy's response action to a declared L2 miss.
    Flush,
}

impl SquashKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SquashKind::Mispredict => "mispredict",
            SquashKind::Flush => "flush",
        }
    }
}

/// End-of-cycle resource snapshot handed to [`Probe::on_cycle_state`] and
/// [`Probe::on_quiescent_span`]. Built by the simulator once per cycle (or
/// once per bulk-advanced span) only when [`Observer::ENABLED`] is true; the
/// slices borrow the simulator's scratch buffers, so no per-cycle
/// allocation occurs after warm-up.
#[derive(Debug)]
pub struct CycleState<'a> {
    /// The cycle this state describes (the first cycle of the span for
    /// [`Probe::on_quiescent_span`]).
    pub cycle: u64,
    /// Shared issue-queue occupancy [int, fp, ldst].
    pub iq: [u32; 3],
    /// Physical integer registers in use beyond the architectural
    /// reservation.
    pub regs_int: u32,
    /// Physical floating-point registers in use.
    pub regs_fp: u32,
    /// Per-thread ROB occupancy.
    pub rob: &'a [u32],
    /// Per-thread issue-queue entries held (all kinds combined).
    pub iq_per_thread: &'a [u32],
    /// Per-thread outstanding L1 data-cache misses (the paper's per-context
    /// miss counter).
    pub outstanding_miss: &'a [u32],
    /// Per-thread gate state at the end of the fetch stage: `None` while
    /// fetching, `Some(reason)` while gated.
    pub gate: &'a [Option<GateReason>],
}

/// An observer the simulator compiles out when it is disabled: a [`Probe`]
/// or the pipeline's invariant sanitizer.
pub trait Observer {
    /// `false` only for the null observers: the simulator then drops, at
    /// compile time, every piece of bookkeeping that exists purely to feed
    /// this observer.
    const ENABLED: bool = true;
}

/// Forwarding to a `&mut O` keeps the referent's flag.
impl<O: Observer + ?Sized> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;
}

/// Proof that an enabled observer is attached: a zero-sized value that
/// only [`Enabled::of`] builds, and only for an observer whose `ENABLED`
/// is true. The hooks that need per-cycle state built for them take one,
/// so a call outside an `ENABLED` branch does not compile. Nothing else
/// can make one:
///
/// ```compile_fail,E0423
/// let forged = smt_obs::Enabled(());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Enabled(());

impl Enabled {
    /// `Some` exactly when `O` is enabled: a constant per monomorphization.
    #[inline(always)]
    pub fn of<O: Observer + ?Sized>() -> Option<Enabled> {
        O::ENABLED.then_some(Enabled(()))
    }
}

/// Observability hook points. All hooks default to nothing; `cycle` is the
/// simulator cycle the event occurred in, `seq` the global dynamic-instruction
/// sequence number (also used as `load_id` for loads). Hooks that take an
/// [`Enabled`] proof are only ever called on an enabled probe.
pub trait Probe: Observer {
    /// An instruction entered the fetch queue.
    fn on_fetch(&mut self, _cycle: u64, _thread: usize, _pc: u64, _seq: u64, _wrong_path: bool) {}

    /// An instruction was renamed and dispatched into the issue queues.
    fn on_dispatch(&mut self, _cycle: u64, _thread: usize, _seq: u64) {}

    /// An instruction left an issue queue for a functional unit.
    fn on_issue(&mut self, _cycle: u64, _thread: usize, _seq: u64) {}

    /// A correct-path instruction retired from the ROB head.
    fn on_commit(&mut self, _cycle: u64, _thread: usize, _seq: u64, _pc: u64) {}

    /// An in-flight instruction was squashed.
    fn on_squash(&mut self, _cycle: u64, _thread: usize, _seq: u64, _kind: SquashKind) {}

    /// A thread transitioned from fetching to not-fetching for `reason`.
    /// A reason *change* while gated is delivered as ungate(old), gate(new).
    fn on_gate(&mut self, _on: Enabled, _cycle: u64, _thread: usize, _reason: GateReason) {}

    /// A thread's gate (for `reason`) was lifted.
    fn on_ungate(&mut self, _on: Enabled, _cycle: u64, _thread: usize, _reason: GateReason) {}

    /// A data-cache access missed in L1: the miss lifetime begins. Emitted
    /// by the memory hierarchy at access time. `l2_miss` tells whether the
    /// access also missed in L2 (known at access time in this model).
    fn on_l1_miss_begin(
        &mut self,
        _cycle: u64,
        _thread: usize,
        _load_id: u64,
        _addr: u64,
        _l2_miss: bool,
    ) {
    }

    /// The missing line's fill returned: the miss lifetime ends. Not
    /// delivered for loads squashed while their miss was outstanding.
    fn on_l1_miss_end(&mut self, _cycle: u64, _thread: usize, _load_id: u64) {}

    /// A load was *declared* a probable L2 miss (time-in-hierarchy
    /// exceeded the declare threshold) — the STALL/FLUSH/DWarn trigger.
    fn on_l2_declare(&mut self, _cycle: u64, _thread: usize, _load_id: u64) {}

    /// A previously declared load is about to resolve (the early-resolve
    /// advance notice).
    fn on_l2_resolve(&mut self, _cycle: u64, _thread: usize, _load_id: u64) {}

    /// An instruction-cache miss stalled a thread's fetch until `ready_at`.
    fn on_ifetch_miss(&mut self, _cycle: u64, _thread: usize, _addr: u64, _ready_at: u64) {}

    /// End-of-cycle resource state for one normally-stepped cycle. The
    /// interval sampler accumulates its time-series here.
    fn on_cycle_state(&mut self, _on: Enabled, _state: &CycleState<'_>) {}

    /// End-of-cycle resource state covering a quiescence-skipped span of
    /// `span` cycles starting at `state.cycle`. Every per-cycle quantity in
    /// `state` is provably constant across the span (that is what made the
    /// span skippable), so a probe that adds `span × value` observes exactly
    /// what `span` calls to [`Probe::on_cycle_state`] would have produced.
    fn on_quiescent_span(&mut self, _on: Enabled, _state: &CycleState<'_>, _span: u64) {}

    /// The fetch policy's telemetry warn level for a thread changed (e.g.
    /// DWarn's Normal → Dmiss group demotion, or the hybrid L2 gate).
    fn on_warn_change(&mut self, _on: Enabled, _cycle: u64, _thread: usize, _from: u8, _to: u8) {}

    /// A composite (switching) fetch policy handed control to a different
    /// candidate: `from`/`to` are candidate names as reported by the
    /// policy's `active_policy`. Static policies never fire this; switching
    /// policies fire it only at window boundaries, which are always stepped
    /// naively (the quiescence engine caps spans at the policy's declared
    /// horizon), so the delivered cycle is exact in both skip modes.
    fn on_policy_switch(&mut self, _cycle: u64, _from: &'static str, _to: &'static str) {}

    /// Serialize the probe's evolving state for a machine snapshot. Probes
    /// with no evolving state append nothing; stateful probes define their
    /// layout with `smt_trace::snapio`, and the snapshot engine treats the
    /// section as opaque bytes.
    fn save_state(&self, _out: &mut Vec<u8>) {}

    /// Restore the state captured by [`Probe::save_state`]. Called with
    /// exactly the bytes that `save_state` produced for this probe type;
    /// an error string rejects a section that does not decode.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// The disabled probe: every hook is a no-op and [`Observer::ENABLED`] is
/// `false`, so an un-instrumented simulator monomorphizes to exactly the
/// code it had before probes existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Observer for NullProbe {
    const ENABLED: bool = false;
}

impl Probe for NullProbe {}

/// Forwarding to a `&mut P` lets call sites hand out temporary probe
/// borrows (the memory hierarchy receives `&mut P` from the simulator).
impl<P: Probe> Probe for &mut P {
    fn on_fetch(&mut self, cycle: u64, thread: usize, pc: u64, seq: u64, wrong_path: bool) {
        (**self).on_fetch(cycle, thread, pc, seq, wrong_path)
    }
    fn on_dispatch(&mut self, cycle: u64, thread: usize, seq: u64) {
        (**self).on_dispatch(cycle, thread, seq)
    }
    fn on_issue(&mut self, cycle: u64, thread: usize, seq: u64) {
        (**self).on_issue(cycle, thread, seq)
    }
    fn on_commit(&mut self, cycle: u64, thread: usize, seq: u64, pc: u64) {
        (**self).on_commit(cycle, thread, seq, pc)
    }
    fn on_squash(&mut self, cycle: u64, thread: usize, seq: u64, kind: SquashKind) {
        (**self).on_squash(cycle, thread, seq, kind)
    }
    fn on_gate(&mut self, on: Enabled, cycle: u64, thread: usize, reason: GateReason) {
        (**self).on_gate(on, cycle, thread, reason)
    }
    fn on_ungate(&mut self, on: Enabled, cycle: u64, thread: usize, reason: GateReason) {
        (**self).on_ungate(on, cycle, thread, reason)
    }
    fn on_l1_miss_begin(&mut self, cycle: u64, thread: usize, load_id: u64, addr: u64, l2: bool) {
        (**self).on_l1_miss_begin(cycle, thread, load_id, addr, l2)
    }
    fn on_l1_miss_end(&mut self, cycle: u64, thread: usize, load_id: u64) {
        (**self).on_l1_miss_end(cycle, thread, load_id)
    }
    fn on_l2_declare(&mut self, cycle: u64, thread: usize, load_id: u64) {
        (**self).on_l2_declare(cycle, thread, load_id)
    }
    fn on_l2_resolve(&mut self, cycle: u64, thread: usize, load_id: u64) {
        (**self).on_l2_resolve(cycle, thread, load_id)
    }
    fn on_ifetch_miss(&mut self, cycle: u64, thread: usize, addr: u64, ready_at: u64) {
        (**self).on_ifetch_miss(cycle, thread, addr, ready_at)
    }
    fn on_cycle_state(&mut self, on: Enabled, state: &CycleState<'_>) {
        (**self).on_cycle_state(on, state)
    }
    fn on_quiescent_span(&mut self, on: Enabled, state: &CycleState<'_>, span: u64) {
        (**self).on_quiescent_span(on, state, span)
    }
    fn on_warn_change(&mut self, on: Enabled, cycle: u64, thread: usize, from: u8, to: u8) {
        (**self).on_warn_change(on, cycle, thread, from, to)
    }
    fn on_policy_switch(&mut self, cycle: u64, from: &'static str, to: &'static str) {
        (**self).on_policy_switch(cycle, from, to)
    }
    fn save_state(&self, out: &mut Vec<u8>) {
        (**self).save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).load_state(bytes)
    }
}
