//! Interval telemetry: fixed-window time-series of a run.
//!
//! The paper's policies act on *phase behavior* — L1/L2 miss bursts, IQ
//! pressure — which whole-run aggregates cannot show. [`IntervalProbe`]
//! slices a run into fixed cycle windows (default 1 024) and records a
//! per-interval, per-thread time-series: committed instructions (IPC),
//! fetch and gate breakdown by [`GateReason`], L1D/L2 miss counts,
//! outstanding-miss / IQ / ROB occupancy integrals, wrong-path fetches,
//! policy warn-level transitions, and the cycles elided by quiescence
//! skipping.
//!
//! ## Skip-span accounting
//!
//! The quiescence-skipping engine proves every per-cycle quantity constant
//! across a span before bulk-advancing the clock, and then reports the
//! whole span through [`Probe::on_quiescent_span`]. The probe splits the
//! span across interval boundaries and adds `k × value` per window —
//! exactly what `k` individual [`Probe::on_cycle_state`] calls would have
//! accumulated (all accumulators are integers, so the sums are associative
//! bit-for-bit). The series is therefore **bit-identical** between skipped
//! and `--no-skip` runs; only the [`Interval::skipped`] meta-counter — how
//! many of the window's cycles were bulk-advanced — differs, and it is
//! deliberately excluded from [`IntervalSeries::digest`] for the same
//! reason `Simulator::skipped_cycles` stays out of `SimResult`.

use smt_trace::snap_fields;
use smt_trace::snapio::{self, ensure, Fnv1a, Same, Seq};

use crate::chrome::{process_name, thread_label, PID};
use crate::json::Json;
use crate::probe::{CycleState, Enabled, GateReason, Observer, Probe};

/// Configuration for [`IntervalProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalConfig {
    /// Window length in cycles. Must be non-zero.
    pub window: u64,
}

impl Default for IntervalConfig {
    fn default() -> Self {
        IntervalConfig { window: 1024 }
    }
}

/// Per-thread counters for one interval window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadWindow {
    /// Correct-path instructions committed in the window.
    pub committed: u64,
    /// Instructions fetched (correct-path + wrong-path).
    pub fetched: u64,
    /// The wrong-path subset of `fetched`.
    pub wrong_path_fetched: u64,
    /// Cycles spent gated, by [`GateReason::index`].
    pub gate_cycles: [u64; 3],
    /// L1 data-cache misses begun in the window.
    pub l1d_misses: u64,
    /// The L2-missing subset of `l1d_misses`.
    pub l2_misses: u64,
    /// Cycle-integral of outstanding L1D misses (divide by the window's
    /// `cycles` for the mean occupancy).
    pub outstanding_acc: u64,
    /// Cycle-integral of ROB occupancy.
    pub rob_acc: u64,
    /// Cycle-integral of issue-queue entries held.
    pub iq_acc: u64,
    /// Policy warn-level transitions observed in the window.
    pub warn_transitions: u64,
}

/// One finalized interval window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interval {
    /// Window index (`start_cycle / window`).
    pub index: u64,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Cycles accounted so far (equals the window length for all but a
    /// trailing partial window).
    pub cycles: u64,
    /// Cycles of this window that were bulk-advanced by quiescence
    /// skipping. Meta-telemetry: excluded from [`IntervalSeries::digest`].
    pub skipped: u64,
    /// Cycle-integral of shared issue-queue occupancy [int, fp, ldst].
    pub iq_occ_acc: [u64; 3],
    /// Cycle-integral of physical registers in use (int, fp).
    pub regs_acc: (u64, u64),
    /// Fetch-policy switches (composite policies handing control to a
    /// different candidate) that landed in this window. Switches occur
    /// only on naively stepped boundary cycles, so the count is
    /// bit-identical across skip modes and *included* in the digest.
    pub policy_switches: u64,
    pub threads: Vec<ThreadWindow>,
}

/// The finished time-series: every window of the run in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSeries {
    /// Window length in cycles.
    pub window: u64,
    pub num_threads: usize,
    pub intervals: Vec<Interval>,
}

impl IntervalSeries {
    /// Order- and content-exact FNV-1a digest of the series, mirroring
    /// `SimResult::digest`. Every counter is included **except**
    /// [`Interval::skipped`]: skip elision is meta-telemetry about *how*
    /// the run was executed, not *what* it did, and excluding it is what
    /// lets skipped and `--no-skip` runs share one golden digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.window);
        h.u64(self.num_threads as u64);
        h.u64(self.intervals.len() as u64);
        for iv in &self.intervals {
            h.u64(iv.index);
            h.u64(iv.start_cycle);
            h.u64(iv.cycles);
            for &q in &iv.iq_occ_acc {
                h.u64(q);
            }
            h.u64(iv.regs_acc.0);
            h.u64(iv.regs_acc.1);
            h.u64(iv.policy_switches);
            h.u64(iv.threads.len() as u64);
            for t in &iv.threads {
                h.u64(t.committed);
                h.u64(t.fetched);
                h.u64(t.wrong_path_fetched);
                for &g in &t.gate_cycles {
                    h.u64(g);
                }
                h.u64(t.l1d_misses);
                h.u64(t.l2_misses);
                h.u64(t.outstanding_acc);
                h.u64(t.rob_acc);
                h.u64(t.iq_acc);
                h.u64(t.warn_transitions);
            }
        }
        h.finish()
    }

    /// The whole series as one window: every counter summed over all
    /// intervals, per thread and machine-wide. `index` and `start_cycle`
    /// are 0, so the result reads as a single window starting at cycle 0.
    pub fn total(&self) -> Interval {
        let mut acc = Interval {
            threads: vec![ThreadWindow::default(); self.num_threads],
            ..Interval::default()
        };
        for iv in &self.intervals {
            add_interval(&mut acc, iv);
        }
        acc
    }

    /// Stitch per-fragment series (from a fragmented replay) into the
    /// series a sequential run would have produced.
    ///
    /// Every fragment's probe starts fresh at cycle 0, so its series
    /// carries leading empty windows (`roll` keeps series contiguous)
    /// and `intervals[j].index == j` holds in every part. Stitching is
    /// therefore a field-wise **sum** by window index: empty leading
    /// windows add nothing, and the partial window each seam splits in
    /// two sums back to the sequential window exactly (all counters
    /// are plain integers or cycle-integrals, both additive). The
    /// result is digest-identical to the sequential series.
    pub fn stitch<'a, I>(parts: I) -> Result<IntervalSeries, String>
    where
        I: IntoIterator<Item = &'a IntervalSeries>,
    {
        let mut acc: Option<IntervalSeries> = None;
        for part in parts {
            let acc = match &mut acc {
                None => {
                    acc = Some(part.clone());
                    continue;
                }
                Some(a) => a,
            };
            if part.window != acc.window {
                return Err(format!(
                    "window mismatch while stitching: {} vs {}",
                    acc.window, part.window
                ));
            }
            acc.num_threads = acc.num_threads.max(part.num_threads);
            for (j, iv) in part.intervals.iter().enumerate() {
                if j < acc.intervals.len() {
                    merge_interval(&mut acc.intervals[j], iv)?;
                } else {
                    acc.intervals.push(iv.clone());
                }
            }
        }
        let mut out = acc.ok_or_else(|| "no series to stitch".to_string())?;
        let n = out.num_threads;
        for iv in &mut out.intervals {
            iv.threads.resize(n, ThreadWindow::default());
        }
        Ok(out)
    }

    /// Render the series as JSONL (`smt-intervals-v1`): one header line
    /// naming the window, thread count, and per-thread benchmark labels,
    /// then one line per interval with both raw integer counters and
    /// derived per-cycle means (IPC, occupancy averages).
    pub fn to_jsonl(&self, thread_names: &[String]) -> String {
        let mut out = String::new();
        let names: Vec<Json> = (0..self.num_threads)
            .map(|t| {
                thread_names
                    .get(t)
                    .map(|n| Json::str(n.clone()))
                    .unwrap_or_else(|| Json::str(format!("t{t}")))
            })
            .collect();
        out.push_str(
            &Json::obj(vec![
                ("schema", Json::str("smt-intervals-v1")),
                ("schema_version", Json::U64(1)),
                ("window", Json::U64(self.window)),
                ("num_threads", Json::U64(self.num_threads as u64)),
                ("threads", Json::Arr(names)),
            ])
            .render(),
        );
        out.push('\n');
        for iv in &self.intervals {
            let c = iv.cycles.max(1) as f64;
            let threads: Vec<Json> = iv
                .threads
                .iter()
                .map(|t| {
                    Json::obj(vec![
                        ("committed", Json::U64(t.committed)),
                        ("ipc", Json::F64(t.committed as f64 / c)),
                        ("fetched", Json::U64(t.fetched)),
                        ("wrong_path_fetched", Json::U64(t.wrong_path_fetched)),
                        (
                            "gate_cycles",
                            Json::Arr(t.gate_cycles.iter().map(|&g| Json::U64(g)).collect()),
                        ),
                        ("l1d_misses", Json::U64(t.l1d_misses)),
                        ("l2_misses", Json::U64(t.l2_misses)),
                        ("outstanding_avg", Json::F64(t.outstanding_acc as f64 / c)),
                        ("rob_avg", Json::F64(t.rob_acc as f64 / c)),
                        ("iq_avg", Json::F64(t.iq_acc as f64 / c)),
                        ("warn_transitions", Json::U64(t.warn_transitions)),
                    ])
                })
                .collect();
            out.push_str(
                &Json::obj(vec![
                    ("i", Json::U64(iv.index)),
                    ("start", Json::U64(iv.start_cycle)),
                    ("cycles", Json::U64(iv.cycles)),
                    ("skipped", Json::U64(iv.skipped)),
                    (
                        "ipc",
                        Json::F64(iv.threads.iter().map(|t| t.committed).sum::<u64>() as f64 / c),
                    ),
                    (
                        "iq_avg",
                        Json::Arr(
                            iv.iq_occ_acc
                                .iter()
                                .map(|&q| Json::F64(q as f64 / c))
                                .collect(),
                        ),
                    ),
                    (
                        "regs_avg",
                        Json::Arr(vec![
                            Json::F64(iv.regs_acc.0 as f64 / c),
                            Json::F64(iv.regs_acc.1 as f64 / c),
                        ]),
                    ),
                    ("policy_switches", Json::U64(iv.policy_switches)),
                    ("threads", Json::Arr(threads)),
                ])
                .render(),
            );
            out.push('\n');
        }
        out
    }

    /// Export the series as Chrome trace-event counter tracks (`ph: "C"`),
    /// sharing the event-track convention — PID 1, one cycle = 1 µs — so a
    /// counter trace stacks with the event-track trace of the same run in
    /// Perfetto. Per interval: per-thread IPC and L1D-miss tracks, a
    /// gate-cycles track by reason, shared-occupancy means, a
    /// skipped-cycles track, and a policy-switch track (non-zero only for
    /// switching meta-policies). [`crate::chrome_trace`] appends the same
    /// tracks to a captured event timeline.
    pub fn counter_trace(&self, thread_names: &[String]) -> String {
        let mut out: Vec<Json> = Vec::with_capacity(self.intervals.len() * 6 + 1);
        out.push(process_name());
        self.push_counter_events(thread_names, &mut out);
        Json::obj(vec![
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj(vec![
                    ("cycles_per_us", Json::U64(1)),
                    ("interval_window", Json::U64(self.window)),
                ]),
            ),
        ])
        .render()
    }

    /// Append the series' counter-track events (`cat: "interval"`) to
    /// `out`: the one emitter behind both [`IntervalSeries::counter_trace`]
    /// and [`crate::chrome_trace`].
    pub(crate) fn push_counter_events(&self, thread_names: &[String], out: &mut Vec<Json>) {
        let base = |name: &str, cycle: u64| -> Vec<(String, Json)> {
            vec![
                ("name".to_string(), Json::str(name)),
                ("cat".to_string(), Json::str("interval")),
                ("ph".to_string(), Json::str("C")),
                ("ts".to_string(), Json::U64(cycle)),
                ("pid".to_string(), Json::U64(PID)),
                ("tid".to_string(), Json::U64(0)),
            ]
        };
        let label = |t: usize| thread_label(thread_names, t);
        for iv in &self.intervals {
            let c = iv.cycles.max(1) as f64;
            let ts = iv.start_cycle;
            let mut ipc = base("interval ipc", ts);
            ipc.push((
                "args".to_string(),
                Json::Obj(
                    iv.threads
                        .iter()
                        .enumerate()
                        .map(|(t, w)| (label(t), Json::F64(w.committed as f64 / c)))
                        .collect(),
                ),
            ));
            out.push(Json::Obj(ipc));
            let mut miss = base("interval l1d misses", ts);
            miss.push((
                "args".to_string(),
                Json::Obj(
                    iv.threads
                        .iter()
                        .enumerate()
                        .map(|(t, w)| (label(t), Json::U64(w.l1d_misses)))
                        .collect(),
                ),
            ));
            out.push(Json::Obj(miss));
            let gates: [u64; 3] = GateReason::ALL.map(|r| {
                iv.threads
                    .iter()
                    .map(|w| w.gate_cycles[r.index()])
                    .sum::<u64>()
            });
            let mut gate = base("interval gate cycles", ts);
            gate.push((
                "args".to_string(),
                Json::Obj(
                    GateReason::ALL
                        .iter()
                        .map(|r| (r.as_str().to_string(), Json::U64(gates[r.index()])))
                        .collect(),
                ),
            ));
            out.push(Json::Obj(gate));
            let mut occ = base("interval occupancy", ts);
            occ.push((
                "args".to_string(),
                Json::obj(vec![
                    ("iq_int", Json::F64(iv.iq_occ_acc[0] as f64 / c)),
                    ("iq_fp", Json::F64(iv.iq_occ_acc[1] as f64 / c)),
                    ("iq_ldst", Json::F64(iv.iq_occ_acc[2] as f64 / c)),
                    ("regs_int", Json::F64(iv.regs_acc.0 as f64 / c)),
                    ("regs_fp", Json::F64(iv.regs_acc.1 as f64 / c)),
                ]),
            ));
            out.push(Json::Obj(occ));
            let mut skip = base("skipped cycles", ts);
            skip.push((
                "args".to_string(),
                Json::obj(vec![("skipped", Json::U64(iv.skipped))]),
            ));
            out.push(Json::Obj(skip));
            let mut switches = base("policy switches", ts);
            switches.push((
                "args".to_string(),
                Json::obj(vec![("switches", Json::U64(iv.policy_switches))]),
            ));
            out.push(Json::Obj(switches));
        }
    }
}

/// The interval sampler. Attach via `Simulator::with_probe` (or the
/// campaign's `--intervals` flag, or inside a [`crate::RecordingProbe`])
/// and call [`IntervalProbe::into_series`] after the run. An enabled
/// [`Probe`] (`ENABLED = true`); the simulator's per-cycle state feeding
/// stays compiled out for `NullProbe` runs.
#[derive(Debug, Clone, Default)]
pub struct IntervalProbe {
    window: u64,
    num_threads: usize,
    cur_start: u64,
    cur: Interval,
    intervals: Vec<Interval>,
}

impl IntervalProbe {
    pub fn new(config: IntervalConfig) -> Self {
        assert!(config.window > 0, "interval window must be non-zero");
        IntervalProbe {
            window: config.window,
            num_threads: 0,
            cur_start: 0,
            cur: Interval::default(),
            intervals: Vec::new(),
        }
    }

    pub fn window(&self) -> u64 {
        self.window
    }

    /// Finalize windows so `cycle` falls inside the current one. Windows
    /// between the last activity and `cycle` are emitted (empty) to keep
    /// the series contiguous.
    fn roll(&mut self, cycle: u64) {
        while cycle >= self.cur_start + self.window {
            self.finalize_current();
        }
    }

    fn finalize_current(&mut self) {
        let mut done = std::mem::take(&mut self.cur);
        done.index = self.cur_start / self.window;
        done.start_cycle = self.cur_start;
        done.threads
            .resize(self.num_threads, ThreadWindow::default());
        self.intervals.push(done);
        self.cur_start += self.window;
    }

    fn thread_mut(&mut self, t: usize) -> &mut ThreadWindow {
        if t >= self.cur.threads.len() {
            self.cur.threads.resize(t + 1, ThreadWindow::default());
        }
        self.num_threads = self.num_threads.max(t + 1);
        &mut self.cur.threads[t]
    }

    /// Add `k` cycles of the (constant) `state` to the current window.
    fn accumulate(&mut self, state: &CycleState<'_>, k: u64, skipped: bool) {
        self.cur.cycles += k;
        if skipped {
            self.cur.skipped += k;
        }
        for i in 0..3 {
            self.cur.iq_occ_acc[i] += k * state.iq[i] as u64;
        }
        self.cur.regs_acc.0 += k * state.regs_int as u64;
        self.cur.regs_acc.1 += k * state.regs_fp as u64;
        for t in 0..state.rob.len() {
            let gate = state.gate.get(t).copied().flatten();
            let (rob, iq, out) = (
                state.rob[t] as u64,
                state.iq_per_thread[t] as u64,
                state.outstanding_miss[t] as u64,
            );
            let w = self.thread_mut(t);
            w.rob_acc += k * rob;
            w.iq_acc += k * iq;
            w.outstanding_acc += k * out;
            if let Some(r) = gate {
                w.gate_cycles[r.index()] += k;
            }
        }
    }

    /// Consume the probe, finalizing any trailing partial window.
    pub fn into_series(mut self) -> IntervalSeries {
        if self.cur.cycles > 0
            || self.cur.policy_switches > 0
            || self
                .cur
                .threads
                .iter()
                .any(|t| *t != ThreadWindow::default())
        {
            self.finalize_current();
        }
        let n = self.num_threads;
        for iv in &mut self.intervals {
            iv.threads.resize(n, ThreadWindow::default());
        }
        IntervalSeries {
            window: self.window,
            num_threads: n,
            intervals: self.intervals,
        }
    }
}

/// Field-wise sum of one part's interval into the accumulator of the
/// same window.
fn merge_interval(acc: &mut Interval, part: &Interval) -> Result<(), String> {
    if (acc.index, acc.start_cycle) != (part.index, part.start_cycle) {
        return Err(format!(
            "interval alignment mismatch: ({}, {}) vs ({}, {})",
            acc.index, acc.start_cycle, part.index, part.start_cycle
        ));
    }
    add_interval(acc, part);
    Ok(())
}

/// Add every counter of `part` to `acc`, leaving `acc`'s `index` and
/// `start_cycle`. `part` is destructured exhaustively, so a new
/// [`Interval`] field does not compile until it is summed here.
fn add_interval(acc: &mut Interval, part: &Interval) {
    let Interval {
        index: _,
        start_cycle: _,
        cycles,
        skipped,
        iq_occ_acc,
        regs_acc,
        policy_switches,
        threads,
    } = part;
    acc.cycles += cycles;
    acc.skipped += skipped;
    for (a, p) in acc.iq_occ_acc.iter_mut().zip(iq_occ_acc) {
        *a += p;
    }
    acc.regs_acc.0 += regs_acc.0;
    acc.regs_acc.1 += regs_acc.1;
    acc.policy_switches += policy_switches;
    if acc.threads.len() < threads.len() {
        acc.threads.resize(threads.len(), ThreadWindow::default());
    }
    for (a, w) in acc.threads.iter_mut().zip(threads) {
        merge_thread_window(a, w);
    }
}

/// Field-wise sum of one part's per-thread window into the accumulator,
/// destructured exhaustively like [`merge_interval`].
fn merge_thread_window(acc: &mut ThreadWindow, w: &ThreadWindow) {
    let ThreadWindow {
        committed,
        fetched,
        wrong_path_fetched,
        gate_cycles,
        l1d_misses,
        l2_misses,
        outstanding_acc,
        rob_acc,
        iq_acc,
        warn_transitions,
    } = w;
    acc.committed += committed;
    acc.fetched += fetched;
    acc.wrong_path_fetched += wrong_path_fetched;
    for (a, g) in acc.gate_cycles.iter_mut().zip(gate_cycles) {
        *a += g;
    }
    acc.l1d_misses += l1d_misses;
    acc.l2_misses += l2_misses;
    acc.outstanding_acc += outstanding_acc;
    acc.rob_acc += rob_acc;
    acc.iq_acc += iq_acc;
    acc.warn_transitions += warn_transitions;
}

const MAX_SNAPSHOT_THREADS: usize = 1 << 10;
const MAX_SNAPSHOT_INTERVALS: usize = 1 << 28;

snap_fields!(ThreadWindow {
    committed,
    fetched,
    wrong_path_fetched,
    gate_cycles,
    l1d_misses,
    l2_misses,
    outstanding_acc,
    rob_acc,
    iq_acc,
    warn_transitions,
});

snap_fields!(Interval {
    index,
    start_cycle,
    cycles,
    skipped,
    iq_occ_acc,
    regs_acc,
    policy_switches,
    threads: Seq(MAX_SNAPSHOT_THREADS),
});

// The window is configuration, written so a probe of a different window
// rejects the section.
snap_fields! {
    IntervalProbe {
        window: Same,
        num_threads,
        cur_start,
        cur,
        intervals: Seq(MAX_SNAPSHOT_INTERVALS),
    }
    check {
        ensure(*num_threads <= MAX_SNAPSHOT_THREADS, || {
            format!("interval-probe thread count {num_threads} exceeds {MAX_SNAPSHOT_THREADS}")
        })?;
    }
}

impl Observer for IntervalProbe {}

impl Probe for IntervalProbe {
    fn on_fetch(&mut self, cycle: u64, thread: usize, _pc: u64, _seq: u64, wrong_path: bool) {
        self.roll(cycle);
        let w = self.thread_mut(thread);
        w.fetched += 1;
        if wrong_path {
            w.wrong_path_fetched += 1;
        }
    }

    fn on_commit(&mut self, cycle: u64, thread: usize, _seq: u64, _pc: u64) {
        self.roll(cycle);
        self.thread_mut(thread).committed += 1;
    }

    fn on_l1_miss_begin(
        &mut self,
        cycle: u64,
        thread: usize,
        _load_id: u64,
        _addr: u64,
        l2_miss: bool,
    ) {
        self.roll(cycle);
        let w = self.thread_mut(thread);
        w.l1d_misses += 1;
        if l2_miss {
            w.l2_misses += 1;
        }
    }

    fn on_warn_change(&mut self, _on: Enabled, cycle: u64, thread: usize, _from: u8, _to: u8) {
        self.roll(cycle);
        self.thread_mut(thread).warn_transitions += 1;
    }

    fn on_policy_switch(&mut self, cycle: u64, _from: &'static str, _to: &'static str) {
        self.roll(cycle);
        self.cur.policy_switches += 1;
    }

    fn on_cycle_state(&mut self, _on: Enabled, state: &CycleState<'_>) {
        self.roll(state.cycle);
        self.accumulate(state, 1, false);
    }

    fn on_quiescent_span(&mut self, _on: Enabled, state: &CycleState<'_>, span: u64) {
        // Split the span across window boundaries; within each window the
        // closed-form `take × value` addition matches `take` per-cycle
        // accumulations exactly (all accumulators are integers).
        let mut cycle = state.cycle;
        let mut left = span;
        while left > 0 {
            self.roll(cycle);
            let take = (self.cur_start + self.window - cycle).min(left);
            self.accumulate(state, take, true);
            cycle += take;
            left -= take;
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        snapio::Snap::save_state(self, out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        snapio::load_section(bytes, "interval-probe state", |r| {
            snapio::Snap::load_state(self, r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Enabled {
        Enabled::of::<IntervalProbe>().expect("the interval probe is enabled")
    }

    fn state<'a>(
        cycle: u64,
        rob: &'a [u32],
        iq_per_thread: &'a [u32],
        outstanding: &'a [u32],
        gate: &'a [Option<GateReason>],
    ) -> CycleState<'a> {
        CycleState {
            cycle,
            iq: [3, 1, 2],
            regs_int: 10,
            regs_fp: 4,
            rob,
            iq_per_thread,
            outstanding_miss: outstanding,
            gate,
        }
    }

    #[test]
    fn span_accounting_matches_per_cycle_accounting_bit_for_bit() {
        let rob = [7u32, 2];
        let iqt = [4u32, 1];
        let out = [1u32, 0];
        let gate = [Some(GateReason::Policy), None];

        // Per-cycle: 2500 individual cycles spanning window boundaries.
        let mut a = IntervalProbe::new(IntervalConfig { window: 1024 });
        for c in 0..2500u64 {
            a.on_cycle_state(on(), &state(c, &rob, &iqt, &out, &gate));
        }
        // Bulk: one span of 2500 cycles starting at 0.
        let mut b = IntervalProbe::new(IntervalConfig { window: 1024 });
        b.on_quiescent_span(on(), &state(0, &rob, &iqt, &out, &gate), 2500);

        let (sa, sb) = (a.into_series(), b.into_series());
        assert_eq!(sa.digest(), sb.digest());
        assert_eq!(sa.intervals.len(), 3);
        assert_eq!(sb.total().skipped, 2500);
        assert_eq!(sa.total().skipped, 0); // only the meta-counter differs
        assert_eq!(sa.intervals[0].threads[0].gate_cycles[0], 1024);
        assert_eq!(sa.intervals[2].cycles, 2500 - 2 * 1024);
    }

    #[test]
    fn stitched_fragments_match_the_sequential_series_bit_for_bit() {
        let rob = [7u32, 2];
        let iqt = [4u32, 1];
        let out = [1u32, 0];
        let gate = [Some(GateReason::Policy), None];

        // Sequential reference: 2500 cycles plus a few discrete events.
        let mut full = IntervalProbe::new(IntervalConfig { window: 1024 });
        for c in 0..2500u64 {
            full.on_cycle_state(on(), &state(c, &rob, &iqt, &out, &gate));
            if c % 700 == 3 {
                full.on_commit(c, 0, 0, 0);
                full.on_l1_miss_begin(c, 1, 0, 0, c % 1400 == 3);
            }
        }
        let full = full.into_series();

        // Fragmented: fresh probes, seams at 900 and 2048 (the latter on
        // a window boundary, the former mid-window).
        let seams = [0u64, 900, 2048, 2500];
        let mut parts = Vec::new();
        for pair in seams.windows(2) {
            let mut p = IntervalProbe::new(IntervalConfig { window: 1024 });
            for c in pair[0]..pair[1] {
                p.on_cycle_state(on(), &state(c, &rob, &iqt, &out, &gate));
                if c % 700 == 3 {
                    p.on_commit(c, 0, 0, 0);
                    p.on_l1_miss_begin(c, 1, 0, 0, c % 1400 == 3);
                }
            }
            parts.push(p.into_series());
        }

        let stitched = IntervalSeries::stitch(parts.iter()).unwrap();
        assert_eq!(stitched, full);
        assert_eq!(stitched.digest(), full.digest());
    }

    #[test]
    fn stitch_rejects_window_mismatch_and_empty_input() {
        let a = IntervalProbe::new(IntervalConfig { window: 10 }).into_series();
        let b = IntervalProbe::new(IntervalConfig { window: 20 }).into_series();
        assert!(IntervalSeries::stitch([&a, &b]).is_err());
        assert!(IntervalSeries::stitch(std::iter::empty()).is_err());
    }

    #[test]
    fn events_land_in_their_window() {
        let mut p = IntervalProbe::new(IntervalConfig { window: 100 });
        p.on_commit(5, 0, 0, 0);
        p.on_fetch(150, 1, 0, 0, true);
        p.on_l1_miss_begin(250, 0, 0, 0, true);
        p.on_warn_change(on(), 250, 0, 0, 1);
        let s = p.into_series();
        assert_eq!(s.intervals.len(), 3);
        assert_eq!(s.intervals[0].threads[0].committed, 1);
        assert_eq!(s.intervals[1].threads[1].wrong_path_fetched, 1);
        assert_eq!(s.intervals[2].threads[0].l2_misses, 1);
        assert_eq!(s.intervals[2].threads[0].warn_transitions, 1);
        // Every interval is padded to the full thread count.
        assert!(s.intervals.iter().all(|iv| iv.threads.len() == 2));
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_interval() {
        let mut p = IntervalProbe::new(IntervalConfig { window: 10 });
        let rob = [1u32];
        let iqt = [1u32];
        let out = [0u32];
        let gate = [None];
        for c in 0..25u64 {
            if c == 3 {
                p.on_commit(c, 0, 0, 0);
            }
            p.on_cycle_state(on(), &state(c, &rob, &iqt, &out, &gate));
        }
        let s = p.into_series();
        let jsonl = s.to_jsonl(&["mcf".to_string()]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[0].contains("\"schema\":\"smt-intervals-v1\""));
        assert!(lines[0].contains("\"threads\":[\"mcf\"]"));
        assert!(lines[1].contains("\"committed\":1"));
        assert!(lines[3].contains("\"cycles\":5"));
    }

    #[test]
    fn counter_trace_is_golden() {
        let mut p = IntervalProbe::new(IntervalConfig { window: 4 });
        let rob = [2u32];
        let iqt = [1u32];
        let out = [1u32];
        let gate = [Some(GateReason::IcacheMiss)];
        p.on_quiescent_span(on(), &state(0, &rob, &iqt, &out, &gate), 4);
        p.on_commit(4, 0, 0, 0);
        p.on_cycle_state(on(), &state(4, &rob, &iqt, &out, &gate));
        let s = p.into_series();
        let trace = s.counter_trace(&["mcf".to_string()]);
        // Structure: a metadata record plus six counter tracks per interval,
        // stacking with the PR 1 event tracks (same PID, ts in cycles).
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("\"name\":\"interval ipc\""));
        assert!(trace.contains("\"t0 mcf\":1"));
        assert!(trace.contains("\"icache-miss\":4"));
        assert!(trace.contains("\"skipped\":4"));
        assert!(trace.contains("\"interval_window\":4"));
        // Golden digest of the full export: any change to the counter-track
        // schema must be deliberate (update this value when it is).
        let h = snapio::fnv1a(trace.as_bytes());
        assert_eq!(
            h,
            golden_trace_digest(),
            "counter-track export drifted:\n{trace}"
        );
    }

    // The recorded golden value lives in a helper so the assertion message
    // above can print the trace on mismatch.
    // Updated deliberately for PR 7: the export gained the policy-switch
    // counter track (and interval records gained `policy_switches`).
    fn golden_trace_digest() -> u64 {
        0xff0d_ab4a_f9ae_3f9b
    }

    #[test]
    fn policy_switches_land_in_their_window_and_feed_the_digest() {
        let mut p = IntervalProbe::new(IntervalConfig { window: 100 });
        p.on_commit(5, 0, 0, 0);
        p.on_policy_switch(100, "DWARN", "FLUSH");
        p.on_policy_switch(200, "FLUSH", "ICOUNT");
        p.on_policy_switch(200, "ICOUNT", "DWARN");
        let s = p.into_series();
        assert_eq!(s.intervals[0].policy_switches, 0);
        assert_eq!(s.intervals[1].policy_switches, 1);
        assert_eq!(s.intervals[2].policy_switches, 2);
        let jsonl = s.to_jsonl(&["mcf".to_string()]);
        assert!(jsonl.contains("\"policy_switches\":2"));
        assert!(s
            .counter_trace(&[])
            .contains("\"name\":\"policy switches\""));

        // Unlike `skipped`, the switch count is digest-relevant: switches
        // happen on naively stepped cycles in both skip modes.
        let mut q = IntervalProbe::new(IntervalConfig { window: 100 });
        q.on_commit(5, 0, 0, 0);
        let mut r = IntervalProbe::new(IntervalConfig { window: 100 });
        r.on_commit(5, 0, 0, 0);
        r.on_policy_switch(50, "DWARN", "STALL");
        assert_ne!(q.into_series().digest(), r.into_series().digest());
    }

    #[test]
    fn probe_state_round_trips_mid_run() {
        let rob = [3u32, 1];
        let iqt = [2u32, 0];
        let out = [1u32, 0];
        let gate = [None, Some(GateReason::Policy)];
        let mut orig = IntervalProbe::new(IntervalConfig { window: 100 });
        for c in 0..250u64 {
            orig.on_cycle_state(on(), &state(c, &rob, &iqt, &out, &gate));
        }
        orig.on_commit(250, 0, 0, 0);
        orig.on_policy_switch(250, "DWARN", "FLUSH");

        let mut buf = Vec::new();
        orig.save_state(&mut buf);
        let mut restored = IntervalProbe::new(IntervalConfig { window: 100 });
        restored.load_state(&buf).unwrap();

        // Continue both identically; series must match exactly.
        for p in [&mut orig, &mut restored] {
            for c in 251..400u64 {
                p.on_cycle_state(on(), &state(c, &rob, &iqt, &out, &gate));
            }
        }
        let (sa, sb) = (orig.into_series(), restored.into_series());
        assert_eq!(sa, sb);
        assert_eq!(sa.digest(), sb.digest());

        // Mismatched window and truncated sections are typed errors.
        let mut wrong = IntervalProbe::new(IntervalConfig { window: 64 });
        assert!(wrong.load_state(&buf).is_err());
        let mut short = IntervalProbe::new(IntervalConfig { window: 100 });
        assert!(short.load_state(&buf[..buf.len() - 5]).is_err());
        // Empty bytes are the reset-to-start convention, not an error.
        let mut fresh = IntervalProbe::new(IntervalConfig { window: 100 });
        assert!(
            fresh.load_state(&[]).is_err(),
            "empty is rejected here: the probe always saves a header"
        );
    }

    #[test]
    fn digest_ignores_skipped_but_not_counters() {
        let mut a = IntervalProbe::new(IntervalConfig { window: 8 });
        let rob = [1u32];
        let iqt = [0u32];
        let out = [0u32];
        let gate = [None];
        a.on_quiescent_span(on(), &state(0, &rob, &iqt, &out, &gate), 8);
        let mut b = IntervalProbe::new(IntervalConfig { window: 8 });
        for c in 0..8u64 {
            b.on_cycle_state(on(), &state(c, &rob, &iqt, &out, &gate));
        }
        let (sa, sb) = (a.into_series(), b.into_series());
        assert_eq!(sa.digest(), sb.digest());

        let mut c = IntervalProbe::new(IntervalConfig { window: 8 });
        for cy in 0..8u64 {
            c.on_cycle_state(on(), &state(cy, &rob, &iqt, &out, &gate));
        }
        c.on_commit(2, 0, 0, 0);
        assert_ne!(c.into_series().digest(), sa.digest());
    }
}
