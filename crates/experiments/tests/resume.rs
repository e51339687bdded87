//! Crash/interrupt–resume integration tests against the real binary.
//!
//! A campaign killed mid-run (SIGKILL: no cleanup, no handlers) or
//! interrupted (SIGINT: flush + resumable exit) must, when re-run with the
//! same `--resume` directory, finish with **no re-done and no skipped
//! work**: every run's digest matches an uninterrupted reference campaign,
//! and the journal shows at most one fresh simulation per run across both
//! invocations.

#![expect(
    clippy::disallowed_methods,
    reason = "the kill-resume harness bounds its wait on the child process with a wall-clock deadline"
)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use smt_experiments::Journal;

/// The experiment both tests drive: ~10 distinct simulations (solo
/// references plus the 4-MIX grid), small enough to finish quickly, wide
/// enough that a signal lands mid-campaign.
const EXPERIMENT: &str = "table4";

/// Mid-run checkpoint cadence: a fraction of the quick windows (5k + 15k
/// cycles), so interrupted simulations leave a resumable snapshot behind.
const CKPT_INTERVAL: &str = "1500";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwarn-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(resume: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_smt-experiments"))
        .args([
            "--quick",
            "--resume",
            resume.to_str().unwrap(),
            "--checkpoint-interval",
            CKPT_INTERVAL,
            EXPERIMENT,
        ])
        // One worker: sequential simulations, so a signal reliably lands
        // while work remains.
        .env("SMT_JOBS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn smt-experiments")
}

fn journal_path(resume: &Path) -> PathBuf {
    resume.join("journal.jsonl")
}

/// Extract a string field from one journal JSON payload (flat objects,
/// known keys — no JSON parser needed).
fn field<'a>(payload: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = payload.find(&tag)? + tag.len();
    let end = payload[start..].find('"')? + start;
    Some(&payload[start..end])
}

/// All `completed` events of a journal: `what -> (digest, sim-count)`.
/// Digests must agree across duplicate completions (cache re-serves).
fn completions(resume: &Path) -> BTreeMap<String, (String, usize)> {
    let mut out: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for payload in Journal::read_verified(&journal_path(resume)).expect("journal readable") {
        if field(&payload, "event") != Some("completed") {
            continue;
        }
        let what = field(&payload, "what")
            .expect("completed has what")
            .to_string();
        let digest = field(&payload, "digest").expect("completed has digest");
        let source = field(&payload, "source").expect("completed has source");
        let entry = out
            .entry(what.clone())
            .or_insert_with(|| (digest.to_string(), 0));
        assert_eq!(
            entry.0, digest,
            "{what}: journal records two different digests"
        );
        if source == "sim" {
            entry.1 += 1;
        }
    }
    out
}

/// Block until the journal under `resume` records at least `n` completed
/// runs, or the child exits first (fast machine): returns whether the
/// child is still running.
fn wait_for_completions(child: &mut Child, resume: &Path, n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if completions(resume).len() >= n {
            return true;
        }
        if child.try_wait().expect("try_wait").is_some() {
            return false;
        }
        assert!(
            Instant::now() < deadline,
            "campaign made no progress: {} completions",
            completions(resume).len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Run the experiment start-to-finish in a fresh resume dir and return its
/// journal's digest map — the uninterrupted reference. Each test passes its
/// own `tag`: the tests run on parallel threads, and a shared directory
/// would be deleted under the other test's running reference campaign.
fn reference(tag: &str) -> BTreeMap<String, (String, usize)> {
    let dir = temp_dir(&format!("ref-{tag}"));
    let status = spawn(&dir).wait().expect("wait");
    assert!(status.success(), "reference campaign failed: {status:?}");
    let done = completions(&dir);
    assert!(
        done.len() >= 4,
        "reference campaign recorded only {} runs",
        done.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    done
}

/// After a completed resume, no in-flight checkpoints may remain.
fn assert_no_leftover_checkpoints(resume: &Path) {
    let dir = resume.join("checkpoints");
    let leftover: Vec<_> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("snap"))
                .collect()
        })
        .unwrap_or_default();
    assert!(
        leftover.is_empty(),
        "completed campaign left checkpoints behind: {leftover:?}"
    );
}

/// Compare an interrupted-then-resumed campaign's journal against the
/// reference: identical run set, identical digests, at most one fresh
/// simulation per run across all invocations.
fn assert_resumed_matches(resume: &Path, want: &BTreeMap<String, (String, usize)>) {
    let got = completions(resume);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "resumed campaign completed a different run set"
    );
    for (what, (digest, sims)) in &got {
        assert_eq!(
            digest, &want[what].0,
            "{what}: resumed digest differs from uninterrupted reference"
        );
        assert!(
            *sims <= 1,
            "{what}: simulated {sims} times — resume re-did finished work"
        );
    }
}

#[test]
fn sigkill_mid_campaign_resumes_without_redoing_or_skipping_work() {
    let want = reference("kill");

    let dir = temp_dir("kill");
    let mut child = spawn(&dir);
    // SIGKILL once some — but not all — runs are done: no handler runs, no
    // flush happens; recovery rests entirely on the on-disk protocol.
    if wait_for_completions(&mut child, &dir, 2) {
        child.kill().expect("SIGKILL");
    }
    let _ = child.wait();

    let status = spawn(&dir).wait().expect("wait");
    assert!(status.success(), "resumed campaign failed: {status:?}");
    assert_resumed_matches(&dir, &want);
    assert_no_leftover_checkpoints(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigint_exits_resumable_and_resume_completes() {
    let want = reference("int");

    let dir = temp_dir("int");
    let mut child = spawn(&dir);
    let interrupted = wait_for_completions(&mut child, &dir, 1);
    if interrupted {
        // Ctrl-C. The run must flush what it has, store a final checkpoint
        // for anything in flight, and exit with the documented resumable
        // code (5).
        let kill = Command::new("kill")
            .args(["-INT", &child.id().to_string()])
            .status()
            .expect("send SIGINT");
        assert!(kill.success(), "kill -INT failed");
        let status = child.wait().expect("wait");
        assert_eq!(
            status.code(),
            Some(smt_experiments::error::Exit::Interrupted.code()),
            "SIGINT must exit with the documented resumable code"
        );
    } else {
        let _ = child.wait();
    }

    let status = spawn(&dir).wait().expect("wait");
    assert!(status.success(), "resumed campaign failed: {status:?}");
    assert_resumed_matches(&dir, &want);
    assert_no_leftover_checkpoints(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}
