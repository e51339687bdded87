//! Each correctness check of the benchmark, shown firing on a planted
//! fault. Every test first shows the check passing on real output, then
//! plants one fault in real state and shows the check counting it. Where
//! a check lives in a pass, the test drives that pass and counts the
//! problems it adds, which are the run's `failed`.

use std::path::{Path, PathBuf};

use smt_benchmark::adapter::{
    self, Arch, Class, MachineSnapshot, Policy, Request, Stores, Window, DEFAULT_SEED,
};
use smt_benchmark::gate;
use smt_benchmark::layers::{self, Acc};
use smt_benchmark::span::Tracer;
use smt_benchmark::workload::{self, E2e};

/// A fresh directory under the build's scratch area, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("gate-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test scratch directory");
    dir
}

fn request(threads: usize, class: Class, policy: &str, seed: u64, window: Window) -> Request {
    let p = Policy::parse(policy).expect("a policy the repository defines");
    Request::new(Arch::Baseline, threads, class, p, seed, window)
}

/// A quick-window 2-MEM request under `policy` at `seed`.
fn mem2(policy: &str, seed: u64) -> Request {
    request(2, Class::Mem, policy, seed, Window::Quick)
}

/// One pass of `requests` on a fresh probed campaign under `dir`, adding
/// its problems to `out`; returns the campaign.
fn probed(dir: &Path, requests: &[Request], out: &mut E2e) -> adapter::Campaign {
    let intervals = dir.join("intervals");
    let c = adapter::probed_campaign(&intervals, Window::Quick).expect("campaign");
    workload::probed_pass(
        &c,
        &intervals,
        requests,
        2,
        &mut Tracer::new(false),
        false,
        &mut |_| {},
        out,
    );
    c
}

/// Flip one bit in the middle of `path`.
fn flip_a_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(path, bytes).expect("write entry");
}

/// The result and every snapshot of a run of `req` with a snapshot every
/// 5 000 cycles.
fn checkpointed(req: &Request) -> (adapter::SimResult, Vec<Vec<u8>>) {
    let mut encoded = Vec::new();
    let mut sim = adapter::build(req).expect("build");
    let r = sim
        .run_checkpointed(req, 5_000, &mut |snap| encoded.push(adapter::encode(snap)))
        .expect("checkpointed run");
    assert!(!encoded.is_empty());
    (r, encoded)
}

fn last_snapshot(encoded: &[Vec<u8>]) -> MachineSnapshot {
    adapter::decode(encoded.last().expect("a snapshot")).expect("decode")
}

#[test]
fn golden_digest_check_fires_on_a_planted_digest() {
    // The committed golden holds the standard-window default-seed run.
    let req = request(2, Class::Mem, "ICOUNT", DEFAULT_SEED, Window::Standard);
    let got = adapter::digest(&adapter::plain_reference(&req).expect("plain run"));
    let observed = vec![(req.label(), got)];
    let mut golden = gate::parse_digests(include_str!("../goldens/mem-probed.digests"))
        .expect("committed golden parses");
    assert!(gate::digest_mismatches(&observed, &golden).is_empty());

    golden.insert(req.label(), got ^ 1);
    assert_eq!(gate::digest_mismatches(&observed, &golden).len(), 1);
    golden.remove(&req.label());
    assert_eq!(gate::digest_mismatches(&observed, &golden).len(), 1);
}

#[test]
fn plain_path_check_fires_on_a_planted_reference() {
    let req = mem2("DWARN", 7);
    let mut out = E2e::default();
    probed(&scratch("plain"), std::slice::from_ref(&req), &mut out);
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    let reference = |r: &Request| {
        let d = adapter::digest(&adapter::plain_reference(r).expect("plain run"));
        std::iter::once((req.label(), d)).collect()
    };
    assert!(gate::digest_mismatches(&out.digests, &reference(&req)).is_empty());

    // Planted: the reference is computed for the same request at another
    // seed, as if the plain path had been fed different inputs.
    let found = gate::digest_mismatches(&out.digests, &reference(&mem2("DWARN", 8)));
    assert_eq!(found.len(), 1);
}

#[test]
fn interval_series_check_fires_when_two_requests_share_a_description() {
    let mut out = E2e::default();
    probed(
        &scratch("series-ok"),
        &[mem2("DWARN", 5), mem2("FLUSH", 5)],
        &mut out,
    );
    assert!(out.problems.is_empty(), "{:?}", out.problems);

    // Planted: two requests that differ only in their seed get the same
    // policy description, so the second series overwrites the first.
    let mut out = E2e::default();
    probed(
        &scratch("series"),
        &[mem2("DWARN", 5), mem2("DWARN", 6)],
        &mut out,
    );
    assert_eq!(out.problems, ["1 interval series written for 2 requests"]);
}

#[test]
fn unreported_failure_check_fires_when_an_interval_export_fails() {
    let dir = scratch("failures");
    let intervals = dir.join("intervals");
    let c = adapter::probed_campaign(&intervals, Window::Quick).expect("campaign");
    // Planted: the interval directory disappears after set-up, so the run
    // succeeds but its two exports fail and the campaign records them.
    std::fs::remove_dir_all(&intervals).expect("remove interval directory");
    let mut out = E2e::default();
    let reqs = [mem2("ICOUNT", 5)];
    workload::probed_pass(
        &c,
        &intervals,
        &reqs,
        2,
        &mut Tracer::new(false),
        false,
        &mut |_| {},
        &mut out,
    );
    assert_eq!(out.digests.len(), 1, "the request itself succeeded");
    let recorded = out
        .problems
        .iter()
        .filter(|p| p.contains("beyond the requests' errors"))
        .count();
    assert_eq!(recorded, 2, "{:?}", out.problems);
    assert_eq!(
        out.problems.len(),
        3,
        "and no series was left: {:?}",
        out.problems
    );
}

#[test]
fn warm_digest_check_fires_when_a_warm_result_differs() {
    let req = mem2("META-IPC", 5);
    let mut out = E2e::default();
    let c = probed(&scratch("memo"), std::slice::from_ref(&req), &mut out);
    workload::memo_pass(
        &c,
        std::slice::from_ref(&req),
        &mut Tracer::new(false),
        &mut out,
    );
    assert!(out.problems.is_empty(), "{:?}", out.problems);

    // Planted: the warm lookup returns the result of other inputs under
    // the same label.
    let other = mem2("META-IPC", 6);
    assert_eq!(other.label(), req.label());
    workload::memo_pass(&c, &[other], &mut Tracer::new(false), &mut out);
    assert_eq!(
        out.problems,
        [format!(
            "{}: warm result differs from the cold one",
            req.label()
        )]
    );
}

#[test]
fn cold_and_warm_pass_checks_fire_on_planted_cache_states() {
    let dir = scratch("cache");
    let req = request(2, Class::Mix, "ICOUNT", DEFAULT_SEED, Window::Quick);
    let run = |expect_entries: usize| {
        let entries = adapter::cache_entries(&dir).expect("cache opens");
        assert_eq!(entries, expect_entries);
        let c = adapter::paper_campaign(&dir).expect("campaign");
        adapter::campaign_digest(&c, &req).expect("grid run");
        (entries, adapter::counters(&c))
    };

    let (entries, cold) = run(0);
    assert!(gate::cold_pass_problems(entries, cold).is_empty());
    let (_, warm) = run(1);
    assert!(gate::warm_pass_problems(warm).is_empty());

    // Planted: a "cold" pass over a cache that is already full.
    let (entries, stale) = run(1);
    assert_eq!(gate::cold_pass_problems(entries, stale).len(), 3);

    // Planted: the cache is emptied before the warm pass.
    for e in std::fs::read_dir(&dir).expect("cache directory") {
        std::fs::remove_file(e.expect("entry").path()).expect("remove entry");
    }
    let (_, rewarm) = run(0);
    assert_eq!(gate::warm_pass_problems(rewarm).len(), 1);
}

#[test]
fn warm_report_check_fires_when_the_cache_serves_a_wrong_result() {
    let cache = scratch("warm-report").join("cache");
    let suite = ["table2a"];
    let mut tracer = Tracer::new(false);
    let mut out = E2e::default();
    let c = adapter::paper_campaign(&cache).expect("campaign");
    let cold = workload::paper_cold(
        &c,
        &cache,
        &suite,
        2,
        &mut tracer,
        false,
        &mut |_| {},
        &mut out,
    );
    workload::paper_warm(&cache, &suite, &cold, &mut tracer, &mut out);
    assert!(out.problems.is_empty(), "{:?}", out.problems);

    // Planted: one entry holds another run's result under its own key, so
    // the warm pass serves it without simulating.
    let contents = adapter::cache_contents(&cache).expect("cache contents");
    let (key, _) = &contents[0];
    let (_, wrong) = contents
        .iter()
        .find(|(_, r)| adapter::digest(r) != adapter::digest(&contents[0].1))
        .expect("two distinct results");
    adapter::cache_store(&cache, key, wrong).expect("store");
    workload::paper_warm(&cache, &suite, &cold, &mut tracer, &mut out);
    assert_eq!(
        out.problems,
        ["table2a: warm report differs from the cold one"]
    );
}

#[test]
fn report_check_fires_on_a_planted_line() {
    let golden = gate::parse_reports(include_str!("../goldens/paper-all.txt"));
    assert_eq!(golden.len(), adapter::paper_suite().len());
    let mut observed: Vec<(String, String)> = golden
        .iter()
        .map(|(name, body)| {
            (
                name.clone(),
                body.strip_suffix('\n').unwrap_or(body).to_string(),
            )
        })
        .collect();
    assert!(gate::report_mismatches(&observed, &golden).is_empty());

    let (_, body) = observed
        .iter_mut()
        .find(|(name, _)| name == "fig1")
        .expect("fig1 is in the suite");
    *body = body.replacen("DWarn", "DWarm", 1);
    let found = gate::report_mismatches(&observed, &golden);
    assert_eq!(found.len(), 1);
    assert!(found[0].starts_with("fig1:"), "{found:?}");
}

#[test]
fn layer_pass_run_check_fires_on_a_planted_reference() {
    let req = mem2("FLUSH", 5);
    let want = adapter::digest(&adapter::plain_reference(&req).expect("plain run"));
    let mut stores = Stores::open(&scratch("layer")).expect("stores");
    let mut tracer = Tracer::new(true);
    let mut acc = Acc::default();
    layers::one_request(
        1,
        &req,
        Some(want),
        Some(&mut stores),
        2,
        &mut tracer,
        &mut acc,
    )
    .expect("clean layer pass");

    let found = layers::one_request(1, &req, Some(want ^ 1), None, 1, &mut tracer, &mut acc);
    assert!(found.is_err_and(|e| e.starts_with("run: digest")));
}

#[test]
fn snapshot_check_fires_on_a_flipped_byte_or_other_bytes() {
    let (_, encoded) = checkpointed(&mem2("DWARN", 5));
    let mut tracer = Tracer::new(false);
    assert!(layers::decode_checked(1, &encoded[0], &mut tracer).is_ok());

    // Planted: a flipped byte, which the decoder refuses.
    let mut flipped = encoded[0].clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert!(layers::decode_checked(1, &flipped, &mut tracer).is_err());
    // Planted: a snapshot compared with bytes it was not decoded from.
    let snap = adapter::decode(&encoded[0]).expect("decode");
    assert!(gate::reencodes(&snap, &encoded[1]).is_err());
}

#[test]
fn load_back_checks_fire_on_corrupt_or_wrong_entries() {
    let req = mem2("ICOUNT", 5);
    let (result, encoded) = checkpointed(&req);
    let snap = last_snapshot(&encoded);
    let stores = Stores::open(&scratch("load-back")).expect("stores");
    let mut tracer = Tracer::new(false);
    let key = req.label();
    let digest = adapter::digest(&result);
    let check = |stores: &Stores, tracer: &mut Tracer| {
        (
            layers::load_result_checked(1, stores, &key, digest, tracer),
            layers::load_checkpoint_checked(1, stores, &key, &snap, tracer),
        )
    };
    stores.store_result(&key, &result).expect("store result");
    stores
        .store_checkpoint(&key, &snap)
        .expect("store checkpoint");
    let (r, c) = check(&stores, &mut tracer);
    assert!(r.is_ok() && c.is_ok(), "{r:?} {c:?}");

    // Planted: a flipped byte in each file.
    flip_a_byte(&stores.result_path(&key));
    flip_a_byte(&stores.checkpoint_path(&key));
    let (r, c) = check(&stores, &mut tracer);
    assert!(r.is_err() && c.is_err());

    // Planted: each entry holds another run's state under the same key.
    let (other, other_snaps) = checkpointed(&mem2("ICOUNT", 6));
    stores.store_result(&key, &other).expect("store result");
    stores
        .store_checkpoint(&key, &last_snapshot(&other_snaps))
        .expect("store checkpoint");
    let (r, c) = check(&stores, &mut tracer);
    assert!(r.is_err_and(|e| e.contains("loaded back with digest")));
    assert!(c.is_err_and(|e| e.contains("loaded back with digest")));
}

#[test]
fn resume_check_fires_on_other_inputs() {
    let req = mem2("DWARN", 5);
    let (result, encoded) = checkpointed(&req);
    let (other, other_encoded) = checkpointed(&mem2("DWARN", 6));
    let resume = |encoded: &[Vec<u8>], want: u64| {
        let mut target = adapter::build(&req).expect("build");
        let snap = last_snapshot(encoded);
        layers::resume_checked(1, &mut target, &snap, Some(want), &mut Tracer::new(false))
    };
    resume(&encoded, adapter::digest(&result)).expect("resume reproduces the run");

    // Planted: the reference is the same request's result at another seed.
    let found = resume(&encoded, adapter::digest(&other));
    assert!(found.is_err_and(|e| e.starts_with("resume from the last checkpoint: digest")));
    // Planted: the checkpoint comes from the run at the other seed, which
    // the simulator built for this one refuses to restore.
    assert!(resume(&other_encoded, adapter::digest(&result)).is_err());
}

#[test]
fn observer_checks_fire_on_a_planted_reference() {
    let req = mem2("META-IPC", 5);
    let want = adapter::digest(&adapter::plain_reference(&req).expect("plain run"));
    let mut tracer = Tracer::new(false);
    layers::observers(1, &req, Some(want), 2, &mut tracer, &mut Acc::default())
        .expect("every observer configuration reproduces the run");

    let found = layers::observers(1, &req, Some(want ^ 1), 2, &mut tracer, &mut Acc::default());
    assert!(found.is_err_and(|e| e.starts_with("plain: digest")));
}

#[test]
fn profile_check_fires_when_profiles_differ() {
    let root = include_str!("../../Cargo.toml");
    let bench = include_str!("../Cargo.toml");
    assert_eq!(gate::profile_check(root, bench), Ok(()));

    let planted = bench.replacen("lto = true", "lto = false", 1);
    assert_ne!(planted, bench);
    assert!(gate::profile_check(root, &planted).is_err());
}
