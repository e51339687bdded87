//! Forward-progress watchdog integration tests.
//!
//! A fetch policy that never lets any thread fetch starves the machine: no
//! instruction ever commits and an unguarded run loop would spin forever.
//! These tests pin that [`Simulator::try_run`] aborts such runs with a
//! typed [`SimError::NoForwardProgress`] carrying a structured snapshot —
//! and that the watchdog never perturbs a healthy run.

use std::time::Duration;

use smt_pipeline::{FetchPolicy, PolicyView, SimConfig, SimError, Simulator, ThreadSpec, Watchdog};
use smt_trace::all_benchmarks;

/// A policy that gates every thread every cycle — a pure livelock.
struct NeverFetch;

impl FetchPolicy for NeverFetch {
    fn name(&self) -> &'static str {
        "NEVER"
    }

    fn fetch_order_into(&mut self, _view: &PolicyView, out: &mut Vec<usize>) {
        out.clear();
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
}

/// The paper's ICOUNT baseline, for the healthy-run control tests.
struct Icount;

impl FetchPolicy for Icount {
    fn name(&self) -> &'static str {
        "ICOUNT"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
}

fn specs(n: usize) -> Vec<ThreadSpec> {
    (0..n)
        .map(|i| ThreadSpec {
            profile: all_benchmarks()[i % 12].clone(),
            seed: 11 + i as u64,
            skip: 0,
        })
        .collect()
}

#[test]
fn starved_machine_aborts_with_no_forward_progress() {
    let mut sim =
        Simulator::try_new(SimConfig::baseline(), Box::new(NeverFetch), &specs(2)).unwrap();
    let wd = Watchdog {
        no_commit_cycles: 2_000,
        ..Watchdog::default()
    };
    // Far more cycles than the budget: without the watchdog this would run
    // 100k cycles of nothing.
    let err = sim.try_run(0, 100_000, &wd).unwrap_err();
    match &err {
        SimError::NoForwardProgress {
            stalled_for,
            snapshot,
        } => {
            assert!(*stalled_for >= 2_000, "stalled_for = {stalled_for}");
            // Aborted promptly, not at the end of the window.
            assert!(snapshot.cycle <= 2_100, "aborted at {}", snapshot.cycle);
            assert_eq!(snapshot.total_committed, 0);
            assert_eq!(snapshot.last_commit_cycle, 0);
            assert_eq!(snapshot.policy, "NEVER");
            assert_eq!(snapshot.threads.len(), 2);
            // Nothing was ever fetched, so the whole machine is empty.
            for t in &snapshot.threads {
                assert_eq!(t.committed, 0);
                assert_eq!(t.rob, 0);
            }
        }
        other => panic!("expected NoForwardProgress, got {other}"),
    }
    // The snapshot renders per-thread lines and the stall cycle.
    let msg = err.to_string();
    assert!(msg.contains("no forward progress"), "{msg}");
    assert!(msg.contains("t0["), "{msg}");
    assert!(msg.contains("t1["), "{msg}");
}

#[test]
fn healthy_run_is_untouched_by_the_default_watchdog() {
    let mk = || Simulator::try_new(SimConfig::baseline(), Box::new(Icount), &specs(2)).unwrap();
    let guarded = mk()
        .try_run(500, 2_000, &Watchdog::default())
        .expect("healthy run must not trip the watchdog");
    let unguarded = mk()
        .try_run(500, 2_000, &Watchdog::disabled())
        .expect("disabled watchdog never fails");
    // Observation-only: bit-identical results either way.
    assert_eq!(guarded.digest(), unguarded.digest());
    assert!(guarded.throughput() > 0.0);
}

#[test]
fn cycle_budget_bounds_a_runaway_window() {
    let mut sim = Simulator::try_new(SimConfig::baseline(), Box::new(Icount), &specs(2)).unwrap();
    let wd = Watchdog {
        max_cycles: 1_000,
        ..Watchdog::default()
    };
    let err = sim.try_run(0, 50_000, &wd).unwrap_err();
    match err {
        SimError::CycleBudgetExceeded { budget, snapshot } => {
            assert_eq!(budget, 1_000);
            assert_eq!(snapshot.cycle, 1_000);
            // A healthy machine was making progress when the budget hit.
            assert!(snapshot.total_committed > 0);
        }
        other => panic!("expected CycleBudgetExceeded, got {other}"),
    }
}

#[test]
fn wall_clock_budget_trips_at_the_check_interval() {
    let mut sim = Simulator::try_new(SimConfig::baseline(), Box::new(Icount), &specs(1)).unwrap();
    let wd = Watchdog {
        max_wall: Some(Duration::ZERO),
        ..Watchdog::default()
    };
    let err = sim.try_run(0, 50_000, &wd).unwrap_err();
    match err {
        SimError::WallClockExceeded { snapshot, .. } => {
            // The clock is only consulted every WALL_CHECK_INTERVAL cycles.
            assert_eq!(snapshot.cycle, Watchdog::WALL_CHECK_INTERVAL);
        }
        other => panic!("expected WallClockExceeded, got {other}"),
    }
}

#[test]
fn starved_budgetless_watchdog_reports_within_default_threshold() {
    // The default watchdog (as used by `Simulator::run`) catches the
    // livelock too, just with the larger default threshold.
    let mut sim =
        Simulator::try_new(SimConfig::baseline(), Box::new(NeverFetch), &specs(1)).unwrap();
    let err = sim
        .try_run(
            0,
            Watchdog::DEFAULT_NO_COMMIT_CYCLES * 4,
            &Watchdog::default(),
        )
        .unwrap_err();
    let snap = err.snapshot().expect("watchdog errors carry a snapshot");
    assert!(snap.cycle <= Watchdog::DEFAULT_NO_COMMIT_CYCLES + 100);
}
