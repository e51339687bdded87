//! Time-axis parallel fragment replay.
//!
//! A simulation of `W + M` cycles is embarrassingly *non*-parallel in
//! space (every cycle depends on the previous one) but parallel in
//! time once checkpoints exist: a cheap **scout** pass runs the whole
//! simulation with null observers and drops a [`MachineSnapshot`]
//! every `fragment_cycles` cycles, then a worker pool restores each
//! snapshot into a fresh simulator carrying the *real* probe and
//! sanitizer and re-simulates only its fragment. A stitcher
//! concatenates the per-fragment outputs and proves the final result
//! bit-identical to a sequential run via the golden-digest discipline.
//!
//! The engine leans entirely on the PR 8 checkpoint path: a fragment
//! is exactly one `drive_checkpointed` chunk, so fragment boundaries
//! in the replay pass land on the same cycles the scout snapshotted
//! (same interval, and `warmup_left`/`measure_left` travel inside the
//! snapshot's run section). Seam invariants — why a fragment's first
//! cycle observes the same warn/gate classifications the sequential
//! run did — are documented in DESIGN.md §14.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use smt_obs::Probe;

use crate::error::{SimError, Watchdog};
use crate::policy::PolicySwitch;
use crate::sanitizer::Sanitizer;
use crate::sim::{CheckpointOpts, RunOutcome, Simulator};
use crate::snapshot::MachineSnapshot;
use crate::stats::{SimResult, ThreadStats};

/// Tuning knobs for [`Simulator::try_run_fragmented`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentOpts {
    /// Worker threads for the replay pass. Must be ≥ 1; the driver
    /// clamps to the fragment count, so oversizing is harmless.
    pub jobs: usize,
    /// Cycles per fragment. Must be ≥ 1. Chunks never straddle the
    /// warmup/measure boundary (the checkpoint engine splits there),
    /// so a warmup that is not a multiple of this produces one short
    /// fragment — still digest-exact.
    pub fragment_cycles: u64,
}

/// One replayed fragment: the slice of simulated time it covered,
/// cumulative stats at both seams, the policy switches it observed,
/// and the observers it carried (handed back for stitching).
#[derive(Debug)]
pub struct FragmentReplay<P, S> {
    /// Position in the fragment sequence (0-based).
    pub index: usize,
    /// First cycle this fragment simulated (inclusive).
    pub start_cycle: u64,
    /// Cycle the fragment stopped at (exclusive).
    pub end_cycle: u64,
    /// Cumulative per-thread stats at `start_cycle` (all-default for
    /// fragment 0, a restored snapshot's counters otherwise).
    pub start_stats: Vec<ThreadStats>,
    /// Cumulative per-thread stats at `end_cycle`.
    pub end_stats: Vec<ThreadStats>,
    /// Policy switches whose cycle falls in `[start_cycle, end_cycle)`.
    /// `MetaPolicy` serializes its full switch log into the snapshot,
    /// so each fragment sees history from cycle 0 and the driver
    /// filters to the half-open window — the union partitions the
    /// sequential log exactly.
    pub switches: Vec<PolicySwitch>,
    /// The probe this fragment's simulator carried.
    pub probe: P,
    /// The sanitizer this fragment's simulator carried.
    pub sanitizer: S,
    /// The completed-run result; `Some` only on the final fragment.
    pub result: Option<SimResult>,
}

impl<P, S> FragmentReplay<P, S> {
    /// Per-thread stats accrued inside this fragment alone.
    pub fn stats_delta_vec(&self) -> Vec<ThreadStats> {
        self.end_stats
            .iter()
            .zip(self.start_stats.iter())
            .map(|(e, s)| e.delta(s))
            .collect()
    }
}

/// Output of a fragmented run: the stitched result (digest-equal to a
/// sequential run), every fragment with its observers, and scout-pass
/// bookkeeping for benches and stats records.
#[derive(Debug)]
pub struct FragmentReport<P, S> {
    /// The final [`SimResult`], taken from the last fragment and
    /// digest-checked against the scout pass.
    pub result: SimResult,
    /// All fragments in time order.
    pub fragments: Vec<FragmentReplay<P, S>>,
    /// The full-run policy-switch log, stitched from the fragments.
    pub switches: Vec<PolicySwitch>,
    /// Cycles the scout pass fast-forwarded via quiescence skipping.
    pub scout_skipped: u64,
    /// Total serialized bytes across all scout snapshots.
    pub snapshot_bytes: u64,
}

fn frag_err(fragment: Option<usize>, detail: impl Into<String>) -> SimError {
    SimError::Fragment {
        fragment,
        detail: detail.into(),
    }
}

/// The scout-to-worker snapshot feed: snapshots appear in time order
/// while the scout is still running, and `done` flips once the scout
/// completes (fixing the fragment count at `snaps.len() + 1`).
struct ScoutFeed {
    snaps: Vec<MachineSnapshot>,
    done: bool,
}

/// Replay one fragment on a freshly built simulator.
///
/// Fragment 0 starts from cycle 0 (no snapshot exists for it); every
/// later fragment restores the snapshot at its start seam. The
/// always-true stop predicate halts the checkpoint engine after
/// exactly one chunk, so a non-final fragment must come back
/// `Interrupted` and the final one `Completed` — anything else is a
/// seam defect and errors out.
#[expect(
    clippy::too_many_arguments,
    reason = "a fragment worker takes its seam, window, observers and run options by value"
)]
fn replay_fragment<P2, S2>(
    index: usize,
    is_last: bool,
    factory: &(dyn Fn() -> Result<Simulator<P2, S2>, SimError> + Sync),
    snap: Option<&MachineSnapshot>,
    warmup: u64,
    measure: u64,
    wd: &Watchdog,
    fragment_cycles: u64,
) -> Result<FragmentReplay<P2, S2>, SimError>
where
    P2: Probe,
    S2: Sanitizer,
{
    let mut sim = factory().map_err(|e| {
        frag_err(
            Some(index),
            format!("replay simulator construction failed: {e}"),
        )
    })?;
    let mut sink = |_s: &MachineSnapshot| {};
    let stop = || true;
    let mut opts = CheckpointOpts {
        interval: fragment_cycles,
        sink: &mut sink,
        stop: Some(&stop),
    };

    let (start_cycle, start_stats, outcome);
    match snap {
        None => {
            start_cycle = 0;
            start_stats = sim.all_thread_stats().to_vec();
            outcome = sim.try_run_checkpointed(warmup, measure, wd, &mut opts)?;
        }
        Some(snap) => {
            let pending = sim
                .restore_run(snap)
                .map_err(|e| frag_err(Some(index), format!("snapshot restore failed: {e}")))?;
            start_cycle = snap.cycle();
            start_stats = sim.all_thread_stats().to_vec();
            outcome = sim.resume_run(pending, wd, &mut opts)?;
        }
    }

    let end_cycle = sim.cycle();
    let end_stats = sim.all_thread_stats().to_vec();
    let switches: Vec<PolicySwitch> = sim
        .policy()
        .switch_log()
        .iter()
        .copied()
        .filter(|s| s.cycle >= start_cycle && s.cycle < end_cycle)
        .collect();
    let result = match outcome {
        RunOutcome::Completed(r) => {
            if !is_last {
                return Err(frag_err(
                    Some(index),
                    "fragment completed the run before the final fragment",
                ));
            }
            Some(r)
        }
        RunOutcome::Interrupted(_) => {
            if is_last {
                return Err(frag_err(
                    Some(index),
                    "final fragment did not complete the run",
                ));
            }
            None
        }
    };
    let (probe, sanitizer) = sim.into_observers();
    Ok(FragmentReplay {
        index,
        start_cycle,
        end_cycle,
        start_stats,
        end_stats,
        switches,
        probe,
        sanitizer,
        result,
    })
}

impl<P, S> Simulator<P, S>
where
    P: Probe,
    S: Sanitizer,
{
    /// Run this simulator as the **scout**, then replay every fragment
    /// concurrently on simulators produced by `factory` and stitch the
    /// results.
    ///
    /// `self` should carry null observers (that is the point — the
    /// scout pays no probe or sanitizer tax), but any configuration
    /// works: the replay pass restores only machine/policy/run state,
    /// never the scout's probe. `factory` must build a simulator with
    /// the *same* config fingerprint, thread count, and policy name
    /// (snapshot identity rules) carrying the real observers; it is
    /// called once per fragment, from worker threads.
    ///
    /// On success the stitched [`FragmentReport::result`] is
    /// digest-identical to what a sequential run of either simulator
    /// would produce, the per-fragment seams have been cross-checked
    /// counter for counter, and the summed fragment deltas equal the
    /// scout's own totals. Any violation returns
    /// [`SimError::Fragment`] — always a defect report, never a
    /// tolerable outcome.
    pub fn try_run_fragmented<P2, S2>(
        &mut self,
        warmup: u64,
        measure: u64,
        wd: &Watchdog,
        opts: &FragmentOpts,
        factory: &(dyn Fn() -> Result<Simulator<P2, S2>, SimError> + Sync),
    ) -> Result<FragmentReport<P2, S2>, SimError>
    where
        P2: Probe + Send,
        S2: Sanitizer + Send,
    {
        if opts.jobs == 0 {
            return Err(frag_err(None, "jobs must be at least 1"));
        }
        if opts.fragment_cycles == 0 {
            return Err(frag_err(None, "fragment_cycles must be at least 1"));
        }

        // The fragment count is fixed by the chunking alone (each phase
        // runs in `ceil(phase / fragment_cycles)` chunks, regardless of
        // quiescence skipping), so the worker pool can be sized before
        // the scout runs.
        let total = ((warmup.div_ceil(opts.fragment_cycles)
            + measure.div_ceil(opts.fragment_cycles)) as usize)
            .max(1);
        let workers = opts.jobs.min(total);

        // Scout and replay run overlapped: the scout streams snapshots
        // into a condvar-guarded feed from the caller's thread while
        // workers replay each fragment as soon as its start snapshot —
        // and the knowledge of whether it is the final fragment — is
        // available. A fragment is known non-final the moment the
        // snapshot at its *end* seam appears; the tail fragment waits
        // for `done`. An atomic cursor hands out indices; the first
        // error wins, flags the rest to drain, and stops the scout via
        // its stop predicate.
        let feed = Mutex::new(ScoutFeed {
            snaps: Vec::new(),
            done: false,
        });
        let ready = Condvar::new();
        let out: Mutex<Vec<Option<FragmentReplay<P2, S2>>>> = Mutex::new(Vec::new());
        out.lock().unwrap().resize_with(total, || None);
        let first_err: Mutex<Option<SimError>> = Mutex::new(None);
        let failed = AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let fail = |e: SimError| {
            let mut slot = first_err.lock().unwrap();
            if slot.is_none() {
                *slot = Some(e);
            }
            failed.store(true, Ordering::Relaxed);
            drop(feed.lock().unwrap());
            ready.notify_all();
        };
        let scout_outcome = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return;
                    }
                    // Wait until fragment `i` is dispatchable: its start
                    // snapshot exists (trivial for fragment 0) and its
                    // is_last status is decidable.
                    let (is_last, snap) = {
                        let mut st = feed.lock().unwrap();
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                return;
                            }
                            let have = st.snaps.len();
                            if have > i {
                                break (false, (i > 0).then(|| st.snaps[i - 1].clone()));
                            }
                            if st.done {
                                if have < i {
                                    // Fewer fragments than predicted —
                                    // the seam checks below will report
                                    // the hole; nothing left to replay.
                                    return;
                                }
                                break (i == have, (i > 0).then(|| st.snaps[i - 1].clone()));
                            }
                            st = ready.wait(st).unwrap();
                        }
                    };
                    match replay_fragment(
                        i,
                        is_last,
                        factory,
                        snap.as_ref(),
                        warmup,
                        measure,
                        wd,
                        opts.fragment_cycles,
                    ) {
                        Ok(frag) => {
                            out.lock().unwrap()[i] = Some(frag);
                        }
                        Err(e) => {
                            fail(e);
                            return;
                        }
                    }
                });
            }

            // Scout pass on this thread: null-observer run feeding the
            // workers a snapshot at every chunk boundary. The engine
            // emits through the sink after each non-final chunk, so
            // `snaps.len() + 1` fragments cover the run.
            let mut sink = |s: &MachineSnapshot| {
                feed.lock().unwrap().snaps.push(s.clone());
                ready.notify_all();
            };
            let stop = || failed.load(Ordering::Relaxed);
            let mut copts = CheckpointOpts {
                interval: opts.fragment_cycles,
                sink: &mut sink,
                stop: Some(&stop),
            };
            let outcome = self.try_run_checkpointed(warmup, measure, wd, &mut copts);
            {
                let mut st = feed.lock().unwrap();
                st.done = true;
                if !matches!(outcome, Ok(RunOutcome::Completed(_))) {
                    failed.store(true, Ordering::Relaxed);
                }
            }
            ready.notify_all();
            outcome
        });
        let scout_result = match scout_outcome? {
            RunOutcome::Completed(r) => r,
            RunOutcome::Interrupted(_) => {
                // The stop predicate only fires on a worker failure.
                return Err(first_err
                    .into_inner()
                    .unwrap()
                    .unwrap_or_else(|| frag_err(None, "scout pass was interrupted")));
            }
        };
        if let Some(e) = first_err.into_inner().unwrap() {
            return Err(e);
        }
        let scout_end_stats = self.all_thread_stats().to_vec();
        let scout_skipped = self.skipped_cycles();
        let snapshot_bytes: u64 = feed
            .into_inner()
            .unwrap()
            .snaps
            .iter()
            .map(|s| s.to_bytes().len() as u64)
            .sum();
        let mut fragments: Vec<FragmentReplay<P2, S2>> = Vec::with_capacity(total);
        for (i, slot) in out.into_inner().unwrap().into_iter().enumerate() {
            fragments.push(slot.ok_or_else(|| frag_err(Some(i), "fragment never replayed"))?);
        }

        // Stitch-time verification. Each check is a seam invariant the
        // design argues must hold; failing any one means the replay did
        // not reproduce the scout and the caller must fall back.
        let first = &fragments[0];
        if first.start_cycle != 0 {
            return Err(frag_err(
                Some(0),
                "first fragment does not start at cycle 0",
            ));
        }
        if first
            .start_stats
            .iter()
            .any(|s| *s != ThreadStats::default())
        {
            return Err(frag_err(
                Some(0),
                "first fragment starts with non-zero stats",
            ));
        }
        for w in fragments.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.end_cycle != b.start_cycle {
                return Err(frag_err(
                    Some(b.index),
                    format!(
                        "seam cycle mismatch: fragment {} ended at {} but fragment {} starts at {}",
                        a.index, a.end_cycle, b.index, b.start_cycle
                    ),
                ));
            }
            if a.end_stats != b.start_stats {
                return Err(frag_err(
                    Some(b.index),
                    format!(
                        "seam stats mismatch between fragments {} and {}",
                        a.index, b.index
                    ),
                ));
            }
        }
        let n = scout_end_stats.len();
        let mut totals = vec![ThreadStats::default(); n];
        for frag in &fragments {
            for (t, d) in frag.stats_delta_vec().iter().enumerate() {
                totals[t].add(d);
            }
        }
        if totals != scout_end_stats {
            return Err(frag_err(
                None,
                "summed fragment stats deltas disagree with the scout totals",
            ));
        }
        let result = fragments
            .last_mut()
            .and_then(|f| f.result.take())
            .ok_or_else(|| frag_err(None, "final fragment carried no result"))?;
        if result.digest() != scout_result.digest() {
            return Err(frag_err(
                None,
                format!(
                    "stitched digest {:#018x} != scout digest {:#018x}",
                    result.digest(),
                    scout_result.digest()
                ),
            ));
        }
        let switches: Vec<PolicySwitch> = fragments
            .iter()
            .flat_map(|f| f.switches.iter().copied())
            .collect();
        Ok(FragmentReport {
            result,
            fragments,
            switches,
            scout_skipped,
            snapshot_bytes,
        })
    }
}
