//! End-to-end pipeline tests using a minimal ICOUNT policy defined here
//! (the real policy implementations live in `dwarn-core`, which depends on
//! this crate).

use smt_pipeline::{
    CheckpointOpts, FetchPolicy, MachineSnapshot, NullProbe, PolicyView, RecordingSanitizer,
    RunOutcome, SimConfig, Simulator, SnapshotError, ThreadSpec, Watchdog,
};
use smt_trace::profile;

struct IcountTest;

impl FetchPolicy for IcountTest {
    fn name(&self) -> &'static str {
        "ICOUNT-TEST"
    }
    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
}

fn sim(specs: Vec<ThreadSpec>) -> Simulator {
    Simulator::new(SimConfig::baseline(), Box::new(IcountTest), &specs)
}

/// As [`sim`], with every cycle audited by the sanitizer.
fn sanitized(specs: Vec<ThreadSpec>) -> Simulator<NullProbe, RecordingSanitizer> {
    Simulator::try_sanitized(
        SimConfig::baseline(),
        Box::new(IcountTest) as Box<dyn FetchPolicy>,
        &specs,
        RecordingSanitizer::new(),
    )
    .unwrap()
}

fn assert_clean(s: &Simulator<NullProbe, RecordingSanitizer>) {
    assert!(
        s.sanitizer().is_clean(),
        "{}",
        s.sanitizer().render_report()
    );
}

fn spec(p: smt_trace::BenchProfile, seed: u64, skip: u64) -> ThreadSpec {
    ThreadSpec {
        profile: p,
        seed,
        skip,
    }
}

#[test]
fn single_ilp_thread_commits_with_reasonable_ipc() {
    let mut s = sim(vec![spec(profile::bzip2(), 1, 0)]);
    let r = s.run(5_000, 20_000);
    let ipc = r.ipcs()[0];
    assert!(
        ipc > 1.0,
        "an ILP benchmark on an 8-wide machine should exceed IPC 1, got {ipc}"
    );
    assert!(ipc <= 8.0, "cannot exceed machine width, got {ipc}");
}

#[test]
fn single_mem_thread_is_memory_bound() {
    let mut s = sim(vec![spec(profile::mcf(), 1, 0)]);
    let r = s.run(5_000, 20_000);
    let ipc = r.ipcs()[0];
    assert!(
        ipc < 1.0,
        "mcf misses to memory on ~9% of instructions; IPC must be low, got {ipc}"
    );
    assert!(ipc > 0.01, "but it must make progress, got {ipc}");
}

#[test]
fn ilp_thread_outruns_mem_thread() {
    let mut a = sim(vec![spec(profile::bzip2(), 1, 0)]);
    let mut b = sim(vec![spec(profile::mcf(), 1, 0)]);
    let ra = a.run(5_000, 20_000);
    let rb = b.run(5_000, 20_000);
    assert!(ra.ipcs()[0] > 3.0 * rb.ipcs()[0]);
}

#[test]
fn simulation_is_deterministic() {
    let specs = vec![spec(profile::gzip(), 3, 0), spec(profile::twolf(), 4, 0)];
    let mut a = sim(specs.clone());
    let mut b = sim(specs);
    let ra = a.run(2_000, 10_000);
    let rb = b.run(2_000, 10_000);
    assert_eq!(ra.threads, rb.threads);
    assert_eq!(ra.mem, rb.mem);
}

#[test]
fn invariants_hold_throughout_a_mixed_run() {
    let mut s = sanitized(vec![
        spec(profile::gzip(), 1, 0),
        spec(profile::mcf(), 2, 0),
        spec(profile::twolf(), 3, 0),
        spec(profile::bzip2(), 4, 0),
    ]);
    for _ in 0..10_000 {
        s.step();
    }
    assert_clean(&s);
    assert!(s.total_committed() > 0);
}

#[test]
fn two_threads_share_the_machine() {
    let mut s = sim(vec![
        spec(profile::gzip(), 1, 0),
        spec(profile::bzip2(), 2, 0),
    ]);
    let r = s.run(5_000, 20_000);
    // Both threads must make progress under ICOUNT.
    assert!(r.ipcs()[0] > 0.1, "thread 0 starved: {:?}", r.ipcs());
    assert!(r.ipcs()[1] > 0.1, "thread 1 starved: {:?}", r.ipcs());
    // And the total must exceed what a fair half-machine would give either.
    assert!(r.throughput() > 1.0);
}

#[test]
fn mem_stats_match_profile_targets_in_isolation() {
    // Table 2a reproduction at the pipeline level: run mcf alone and check
    // the realized L1/L2 miss rates against the profile's calibration.
    let p = profile::mcf();
    let mut s = sim(vec![spec(p.clone(), 7, 0)]);
    let r = s.run(10_000, 60_000);
    let m = &r.mem[0];
    assert!(m.loads > 1_000, "need a meaningful sample, got {}", m.loads);
    let l1 = m.l1_miss_rate();
    let l2 = m.l2_miss_rate();
    assert!(
        (l1 - p.l1_miss_rate).abs() < 0.08,
        "L1 miss rate {l1} vs target {}",
        p.l1_miss_rate
    );
    assert!(
        (l2 - p.l2_miss_rate).abs() < 0.08,
        "L2 miss rate {l2} vs target {}",
        p.l2_miss_rate
    );
}

#[test]
fn branch_mispredictions_occur_but_are_bounded() {
    let mut s = sim(vec![spec(profile::twolf(), 5, 0)]);
    let r = s.run(5_000, 30_000);
    let rate = r.branch_mispredict_rate;
    assert!(rate > 0.005, "some branches must mispredict, rate {rate}");
    assert!(rate < 0.30, "gshare should do better than {rate}");
    // Misprediction squashes must have happened.
    assert!(r.threads[0].squashed_mispredict > 0);
}

#[test]
fn small_config_runs_and_is_slower() {
    let specs = vec![spec(profile::gzip(), 1, 0), spec(profile::bzip2(), 2, 0)];
    let mut big = Simulator::new(SimConfig::baseline(), Box::new(IcountTest), &specs);
    let mut small = Simulator::new(SimConfig::small(), Box::new(IcountTest), &specs);
    let rb = big.run(5_000, 20_000);
    let rs = small.run(5_000, 20_000);
    assert!(
        rs.throughput() < rb.throughput(),
        "a 4-wide 1.4 machine cannot beat the 8-wide 2.8 baseline: {} vs {}",
        rs.throughput(),
        rb.throughput()
    );
    assert!(rs.throughput() > 0.2);
}

#[test]
fn deep_config_runs() {
    let specs = vec![spec(profile::gzip(), 1, 0), spec(profile::mcf(), 2, 0)];
    let mut s = Simulator::new(SimConfig::deep(), Box::new(IcountTest), &specs);
    let r = s.run(5_000, 20_000);
    assert!(r.throughput() > 0.1);
}

#[test]
fn eight_threads_run_without_leaks() {
    let names = [
        "gzip", "twolf", "bzip2", "mcf", "vpr", "eon", "parser", "gap",
    ];
    let specs: Vec<ThreadSpec> = names
        .iter()
        .enumerate()
        .map(|(i, n)| spec(profile::by_name(n).unwrap(), 10 + i as u64, 0))
        .collect();
    let mut s = sanitized(specs);
    let r = s.run(3_000, 15_000);
    assert_clean(&s);
    assert!(r.throughput() > 1.0, "throughput {}", r.throughput());
    for (i, t) in r.threads.iter().enumerate() {
        assert!(t.committed > 0, "thread {i} ({}) starved", names[i]);
    }
}

#[test]
fn fetch_never_exceeds_commit_plus_squash_accounting() {
    let mut s = sim(vec![
        spec(profile::gzip(), 1, 0),
        spec(profile::mcf(), 2, 0),
    ]);
    let r = s.run(0, 20_000);
    for t in &r.threads {
        // Everything fetched is eventually committed, squashed, or still in
        // flight; over a long window fetched >= committed.
        assert!(t.fetched >= t.committed);
    }
}

// ----------------------------------------------------------------------
// Checkpoint / restore
// ----------------------------------------------------------------------

#[test]
fn restore_at_cycle_k_matches_the_straight_run() {
    let specs = vec![spec(profile::gzip(), 3, 0), spec(profile::mcf(), 4, 0)];
    let mut a = sim(specs.clone());
    for _ in 0..3_000 {
        a.step();
    }
    let snap = a.snapshot();
    assert!(!snap.has_run_state());
    // The snapshot survives the wire format.
    let snap = MachineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    for _ in 0..6_000 {
        a.step();
    }
    let straight = a.snapshot();

    let mut b = sanitized(specs);
    b.restore(&snap).unwrap();
    // Equal machine state serializes to equal bytes immediately...
    assert_eq!(b.snapshot().digest(), snap.digest());
    // ...and continues bit-identically.
    for _ in 0..6_000 {
        b.step();
    }
    assert_eq!(b.snapshot().digest(), straight.digest());
    assert_clean(&b);
}

#[test]
fn restore_rejects_a_differently_shaped_simulator() {
    let mut one = sim(vec![spec(profile::gzip(), 1, 0)]);
    one.run(0, 500);
    let snap = one.snapshot();
    let mut two = sim(vec![
        spec(profile::gzip(), 1, 0),
        spec(profile::mcf(), 2, 0),
    ]);
    assert!(matches!(
        two.restore(&snap).unwrap_err(),
        SnapshotError::IdentityMismatch(_)
    ));
    // A machine-only snapshot cannot seed a resume.
    let mut same = sim(vec![spec(profile::gzip(), 1, 0)]);
    assert_eq!(
        same.restore_run(&snap).unwrap_err(),
        SnapshotError::NoRunState
    );
    // Different configuration, same thread count and policy.
    let mut small = Simulator::new(
        SimConfig::small(),
        Box::new(IcountTest),
        &[spec(profile::gzip(), 1, 0)],
    );
    assert!(matches!(
        small.restore(&snap).unwrap_err(),
        SnapshotError::IdentityMismatch(_)
    ));
}

#[test]
fn interrupted_checkpointed_run_resumes_to_the_straight_result() {
    let specs = vec![spec(profile::twolf(), 5, 0), spec(profile::mcf(), 6, 0)];
    let wd = Watchdog::default();

    let mut a = sim(specs.clone());
    let straight = a.try_run(2_000, 10_000, &wd).unwrap();

    // Checkpoint every 1000 cycles; request a stop at the third poll.
    let polls = std::cell::Cell::new(0u32);
    let stop = || {
        polls.set(polls.get() + 1);
        polls.get() == 3
    };
    let mut periodic = Vec::new();
    let mut sink = |s: &MachineSnapshot| periodic.push(s.to_bytes());
    let mut opts = CheckpointOpts {
        interval: 1_000,
        sink: &mut sink,
        stop: Some(&stop),
    };
    let mut b = sim(specs.clone());
    let out = b
        .try_run_checkpointed(2_000, 10_000, &wd, &mut opts)
        .unwrap();
    let RunOutcome::Interrupted(snap) = out else {
        panic!("the stop request must interrupt the run");
    };
    assert!(snap.has_run_state());
    assert!(!periodic.is_empty(), "periodic checkpoints must have fired");

    // A fresh, identically-constructed simulator resumes through the wire
    // format — with a *different* checkpoint interval, which must not
    // change the result (chunking is behavior-neutral).
    let snap = MachineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let mut c = sanitized(specs);
    let pending = c.restore_run(&snap).unwrap();
    let mut sink2 = |_: &MachineSnapshot| {};
    let mut opts2 = CheckpointOpts {
        interval: 700,
        sink: &mut sink2,
        stop: None,
    };
    let RunOutcome::Completed(resumed) = c.resume_run(pending, &wd, &mut opts2).unwrap() else {
        panic!("no stop request on resume: the run must complete");
    };
    assert_eq!(resumed.cycles, straight.cycles);
    assert_eq!(resumed.threads, straight.threads);
    assert_eq!(resumed.mem, straight.mem);
    assert_eq!(
        resumed.branch_mispredict_rate.to_bits(),
        straight.branch_mispredict_rate.to_bits()
    );
    assert_clean(&c);
}

#[test]
fn checkpointed_run_without_interruption_equals_try_run() {
    let specs = vec![spec(profile::gzip(), 9, 0), spec(profile::bzip2(), 10, 0)];
    let wd = Watchdog::default();
    let mut a = sim(specs.clone());
    let straight = a.try_run(1_000, 8_000, &wd).unwrap();

    let mut count = 0usize;
    let mut sink = |_: &MachineSnapshot| count += 1;
    let mut opts = CheckpointOpts {
        interval: 500,
        sink: &mut sink,
        stop: None,
    };
    let mut b = sim(specs);
    let RunOutcome::Completed(r) = b
        .try_run_checkpointed(1_000, 8_000, &wd, &mut opts)
        .unwrap()
    else {
        panic!("no stop request: the run must complete");
    };
    assert_eq!(r.threads, straight.threads);
    assert_eq!(r.mem, straight.mem);
    assert!(count > 0, "periodic checkpoints must have fired");
}
