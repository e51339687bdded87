//! Smoke test of the campaign's run driver in every mode a campaign can
//! select for it: one quick-window request, 2-MEM under META-IPC (policy
//! switches, quiescence skips and L2 misses all occur), issued through
//! `Campaign::try_run_custom` on fresh campaigns, must reproduce one
//! pinned digest whatever observers, skip setting or resume directory the
//! campaign carries.

use std::path::PathBuf;

use dwarn_smt::core::PolicyKind;
use dwarn_smt::experiments::{Campaign, ExpParams};
use dwarn_smt::pipeline::SimConfig;
use dwarn_smt::workloads::{workload, WorkloadClass};

/// `SimResult::digest` of the request on the baseline machine.
const GOLDEN: u64 = 0x4422_b401_12fe_e8ea;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwarn-driver-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Issue the request on `c` and return its digest; the run must not
/// record a failure.
fn digest(c: &Campaign) -> u64 {
    let specs = workload(2, WorkloadClass::Mem).thread_specs();
    let policy = PolicyKind::parse("META-IPC").expect("known policy");
    let r = c
        .try_run_custom(&SimConfig::baseline(), &specs, &policy.cache_desc(), || {
            policy.build()
        })
        .expect("run succeeds");
    assert!(c.failures().is_empty(), "{:?}", c.failures());
    r.digest()
}

fn campaign(configure: impl FnOnce(&mut Campaign)) -> Campaign {
    let mut c = Campaign::new(ExpParams::quick());
    configure(&mut c);
    c
}

#[test]
fn every_driver_mode_reproduces_the_golden_digest() {
    let iv = temp_dir("intervals");
    let iv_san = temp_dir("intervals-sanitized");
    let resume = temp_dir("resume");
    let modes: Vec<(&str, Campaign)> = vec![
        ("plain", campaign(|_| {})),
        ("no-skip", campaign(|c| c.set_skip(false))),
        ("sanitize", campaign(|c| c.set_sanitize(true))),
        (
            "intervals",
            campaign(|c| c.set_intervals(&iv, 1024).expect("intervals dir")),
        ),
        (
            "sanitize+intervals",
            campaign(|c| {
                c.set_sanitize(true);
                c.set_intervals(&iv_san, 1024).expect("intervals dir");
            }),
        ),
    ];
    for (mode, c) in &modes {
        assert_eq!(digest(c), GOLDEN, "{mode}");
    }
    for dir in [&iv, &iv_san] {
        let series = std::fs::read_dir(dir)
            .expect("intervals dir")
            .filter(|e| {
                e.as_ref().is_ok_and(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .ends_with(".intervals.jsonl")
                })
            })
            .count();
        assert_eq!(
            series,
            1,
            "{} should hold one interval series",
            dir.display()
        );
    }
    // Checkpointed: the first campaign simulates with periodic snapshots,
    // the second serves the run from the resume directory's results store.
    for pass in ["checkpointed", "resumed"] {
        let c = campaign(|c| c.set_checkpointing(&resume, 1500).expect("resume dir"));
        assert_eq!(digest(&c), GOLDEN, "{pass}");
    }
    for dir in [iv, iv_san, resume] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
