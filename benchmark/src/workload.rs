//! The two workloads and their end-to-end passes.
//!
//! * `paper-all` runs `smt-experiments all --quick` through one campaign on
//!   an empty disk cache (the cold pass), then the same suite through fresh
//!   campaigns on the now-full cache (the warm passes).
//! * `mem-probed` issues 2/4/6/8-MEM under ICOUNT, FLUSH, DWARN and
//!   META-IPC, one `try_run_custom` call at a time, on a campaign set up as
//!   `--intervals <dir> --sanitize --fragments <n>` sets it up.
//!
//! A run repeats passes until its time is up. Every pass starts from fresh
//! directories, so every pass does the same work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, Arch, Campaign, Class, Counters, Policy, Request, Window};
use crate::gate;
use crate::host;
use crate::span::Tracer;
use crate::stats::median;

/// The seeded workload runs the CLI's default window.
const WINDOW: Window = Window::Standard;

const GOLDEN_PAPER_ALL: &str = include_str!("../goldens/paper-all.txt");
const GOLDEN_MEM_PROBED: &str = include_str!("../goldens/mem-probed.digests");

/// Warm passes after each cold pass. Warm passes take milliseconds, so
/// each run takes many and reports their median.
const WARM_PASSES_PAPER: usize = 10;
const WARM_PASSES_MEMO: usize = 100;
/// Set-ups each set-up sample times per CPU. One set-up takes a few
/// microseconds of file-system calls, whose latency moves with the host's
/// load from second to second and, on a virtual machine, with the CPU the
/// thread runs on. So a sample is the mean of a batch on every CPU, a run
/// takes one sample before each timed call so that the samples span the
/// run as the calls do, and it reports their median.
const SETUP_BATCH: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperAll,
    MemProbed,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::PaperAll, Kind::MemProbed];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperAll => "paper-all",
            Kind::MemProbed => "mem-probed",
        }
    }

    /// The seeded requests each pass issues, in order. `paper-all` has
    /// none: its inputs are the paper's fixed workloads.
    pub fn requests(self, seed: u64) -> Vec<Request> {
        if self == Kind::PaperAll {
            return Vec::new();
        }
        let policies = ["ICOUNT", "FLUSH", "DWARN", "META-IPC"]
            .map(|n| Policy::parse(n).expect("a policy the repository defines"));
        let mut out = Vec::new();
        for threads in [2, 4, 6, 8] {
            for p in policies {
                out.push(Request::new(
                    Arch::Baseline,
                    threads,
                    Class::Mem,
                    p,
                    seed,
                    WINDOW,
                ));
            }
        }
        out
    }

    /// The workload's campaign, with its directories under `dir`.
    pub fn campaign(self, dir: &Path) -> std::io::Result<Campaign> {
        match self {
            Kind::PaperAll => adapter::paper_campaign(&dir.join("cache")),
            Kind::MemProbed => adapter::probed_campaign(&dir.join("intervals"), WINDOW),
        }
    }

    fn golden_text(self) -> &'static str {
        match self {
            Kind::PaperAll => GOLDEN_PAPER_ALL,
            Kind::MemProbed => GOLDEN_MEM_PROBED,
        }
    }

    /// Where `--bless` writes this workload's golden.
    pub fn golden_path(self) -> PathBuf {
        let file = match self {
            Kind::PaperAll => "paper-all.txt",
            Kind::MemProbed => "mem-probed.digests",
        };
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("goldens")
            .join(file)
    }
}

/// What a run is asked to do.
pub struct Env {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub jobs: usize,
    pub scratch: PathBuf,
    pub main_start: Instant,
}

/// What the end-to-end passes measured and found.
#[derive(Default)]
pub struct E2e {
    /// Host seconds of each timed call, by its place in the pass, one
    /// entry per pass with spans off.
    pub calls: Vec<Vec<f64>>,
    /// The same for passes with spans on (traced runs only).
    pub calls_traced: Vec<Vec<f64>>,
    pub warm: Vec<f64>,
    /// Host seconds per set-up, one entry per batch of set-ups.
    pub setup: Vec<f64>,
    /// Host seconds from `main` until the first pass's campaign was
    /// constructed: a fresh process's whole set-up, once.
    pub first_setup: f64,
    pub fig1b_gap_pp: f64,
    pub peak_rss_mb: f64,
    /// Simulations the cold passes requested.
    pub attempted: u64,
    /// Results the warm passes looked up.
    pub warm_lookups: u64,
    /// Of those, the ones the disk cache served.
    pub warm_disk_hits: u64,
    /// One entry per failed check.
    pub problems: Vec<String>,
    /// The first pass's campaign counters.
    pub counters: Counters,
    /// Process CPU seconds over worker-seconds, per pass.
    pub busy: Vec<f64>,
    /// Entries in the pass's result store after the pass.
    pub cache_entries: usize,
    /// Each seeded request's digest, by label, in every pass.
    pub digests: Vec<(String, u64)>,
    /// Reference digest per request label (seeded workload).
    pub reference: BTreeMap<String, u64>,
    /// The last cold campaign, which holds every grid result.
    pub campaign: Option<Campaign>,
}

/// Run passes until `env.seconds` have been measured. With `traced`,
/// passes alternate between spans off and on, starting with off, and at
/// least one of each runs.
pub fn run(env: &Env, tracer: &mut Tracer, traced: bool) -> E2e {
    let mut out = E2e {
        fig1b_gap_pp: f64::NAN,
        ..E2e::default()
    };
    let requests = env.kind.requests(env.seed);
    let suite = adapter::paper_suite();
    let mut measuring: Option<Instant> = None;
    let mut last_pass = 0.0;
    for pass in 0.. {
        // Start another pass only if it should end within the budget, so
        // a run measures about `seconds` and no pass is cut short.
        let elapsed = measuring.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let required = pass == 0 || (traced && pass < 2);
        if !required && elapsed + last_pass > env.seconds {
            break;
        }
        let pass_start = Instant::now();
        let dir = env.scratch.join(format!("pass{pass}"));
        let c = match env.kind.campaign(&dir) {
            Ok(c) => c,
            Err(e) => {
                out.problems.push(format!("campaign setup: {e}"));
                break;
            }
        };
        if pass == 0 {
            out.first_setup = env.main_start.elapsed().as_secs_f64();
        }
        measuring.get_or_insert_with(Instant::now);
        let spans = traced && pass % 2 == 1;
        tracer.set_on(spans);
        let (mut setups, mut setup_problems) = (Vec::new(), Vec::new());
        let mut before_call = |k: usize| {
            let d = env.scratch.join(format!("setup{pass}-{k}"));
            setups.push(time_setups(env.kind, &d, &mut setup_problems));
        };
        match env.kind {
            Kind::PaperAll => {
                let cache = dir.join("cache");
                let cold = paper_cold(
                    &c,
                    &cache,
                    &suite,
                    env.jobs,
                    tracer,
                    spans,
                    &mut before_call,
                    &mut out,
                );
                for _ in 0..WARM_PASSES_PAPER {
                    paper_warm(&cache, &suite, &cold, tracer, &mut out);
                }
                if out.fig1b_gap_pp.is_nan() {
                    out.fig1b_gap_pp = adapter::fig1b_gap_pp(&c);
                }
                out.campaign = Some(c);
            }
            Kind::MemProbed => {
                let intervals = dir.join("intervals");
                probed_pass(
                    &c,
                    &intervals,
                    &requests,
                    env.jobs,
                    tracer,
                    spans,
                    &mut before_call,
                    &mut out,
                );
                for _ in 0..WARM_PASSES_MEMO {
                    memo_pass(&c, &requests, tracer, &mut out);
                }
            }
        }
        tracer.set_on(false);
        out.setup.extend(setups);
        out.problems.extend(setup_problems);
        last_pass = pass_start.elapsed().as_secs_f64();
    }
    out.peak_rss_mb = host::peak_rss_mb();
    if env.kind == Kind::MemProbed {
        out.reference = reference(env.kind, env.seed, &requests, &mut out.problems);
        out.problems
            .extend(gate::digest_mismatches(&out.digests, &out.reference));
        out.fig1b_gap_pp = class_fig1b_gap_pp(env.kind, &mut out.problems);
    }
    out
}

/// Time the workload's set-up: what runs between `main` and the first
/// timed call apart from parsing the arguments and creating directories,
/// that is constructing the campaign, which resolves `SMT_JOBS` and opens
/// the cache or interval directory with its stale-temp sweep. The calling
/// thread is bound to each CPU it may use in turn and times a batch there;
/// its own binding is restored afterwards. Returns the mean over CPUs of
/// host seconds per set-up.
pub fn time_setups(kind: Kind, dir: &Path, problems: &mut Vec<String>) -> f64 {
    let own = host::Affinity::current();
    let cpus = own.as_ref().map_or_else(Vec::new, |a| a.cpus());
    if cpus.is_empty() {
        return time_batch(kind, dir, problems);
    }
    let mut total = 0.0;
    for &cpu in &cpus {
        host::Affinity::only(cpu).apply();
        total += time_batch(kind, &dir.join(format!("cpu{cpu}")), problems);
    }
    if !own.is_some_and(|a| a.apply()) {
        problems.push("could not restore the thread's CPU affinity".to_string());
    }
    total / cpus.len() as f64
}

/// Time one batch of set-ups, each on its own directory under `dir`,
/// created by an untimed construction first: how long creating a directory
/// takes depends on how many the file system has just created, which is
/// the host's state, not the program's. Returns host seconds per set-up.
fn time_batch(kind: Kind, dir: &Path, problems: &mut Vec<String>) -> f64 {
    let dirs: Vec<PathBuf> = (0..SETUP_BATCH).map(|b| dir.join(b.to_string())).collect();
    for d in &dirs {
        if let Err(e) = kind.campaign(d) {
            problems.push(format!("campaign setup: {e}"));
        }
    }
    // Campaigns are kept to the end of the batch, so that the batch times
    // set-ups, not tear-downs.
    let mut made = Vec::with_capacity(SETUP_BATCH);
    let t = Instant::now();
    for d in &dirs {
        made.push(kind.campaign(d));
    }
    let secs = t.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    problems.extend(
        made.into_iter()
            .filter_map(|m| m.err().map(|e| format!("campaign setup: {e}"))),
    );
    secs
}

/// Fig. 1(b) accuracy on the workload's class. The paper's gains are for
/// its own inputs, so this reads the default-seed results of the
/// requests the quoted values need, whatever the run's seed, on the plain
/// path at the quick window `paper-all` uses: each value is the matching
/// term of `paper-all`'s gap, and it moves only when the model does.
fn class_fig1b_gap_pp(kind: Kind, problems: &mut Vec<String>) -> f64 {
    let requests = kind.requests(adapter::DEFAULT_SEED);
    let Some(class) = requests.first().map(|r| r.class) else {
        return f64::NAN;
    };
    let wanted = adapter::fig1b_policies(class);
    let mut results = Vec::new();
    for req in requests.iter().filter(|r| wanted.contains(&r.policy)) {
        let req = Request::new(
            Arch::Baseline,
            req.threads(),
            class,
            req.policy,
            adapter::DEFAULT_SEED,
            Window::Quick,
        );
        match adapter::plain_reference(&req) {
            Ok(r) => results.push((req, r)),
            Err(e) => {
                problems.push(format!("{} (Fig. 1(b) reference): {e}", req.label()));
                return f64::NAN;
            }
        }
    }
    adapter::fig1b_class_gap_pp(class, &results)
}

impl E2e {
    /// Host seconds of one pass: the sum over its calls of each call's
    /// median across passes, so that a stall in one pass moves one call's
    /// sample, not the result.
    pub fn wall_s(&self) -> f64 {
        sum_of_medians(&self.calls)
    }

    pub fn wall_traced_s(&self) -> f64 {
        sum_of_medians(&self.calls_traced)
    }

    /// Each pass's total host seconds, in order (for the detail line).
    pub fn pass_totals(&self) -> Vec<f64> {
        self.calls.iter().map(|c| c.iter().sum()).collect()
    }
}

fn sum_of_medians(calls: &[Vec<f64>]) -> f64 {
    let Some(first) = calls.first() else {
        return f64::NAN;
    };
    (0..first.len())
        .map(|i| {
            median(
                &calls
                    .iter()
                    .filter_map(|p| p.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

fn push_calls(out: &mut E2e, spans: bool, secs: Vec<f64>) {
    if spans {
        out.calls_traced.push(secs);
    } else {
        out.calls.push(secs);
    }
}

/// The cold pass of the paper suite: each entry of `suite` rendered
/// through `c`, whose disk cache under `cache` must start empty, with
/// `before_call(k)` run untimed before the `k`th. Returns the reports that
/// rendered.
#[allow(clippy::too_many_arguments)]
pub fn paper_cold(
    c: &Campaign,
    cache: &Path,
    suite: &[&str],
    jobs: usize,
    tracer: &mut Tracer,
    spans: bool,
    before_call: &mut dyn FnMut(usize),
    out: &mut E2e,
) -> Vec<(String, String)> {
    let entries_before = adapter::cache_entries(cache).unwrap_or(usize::MAX);
    let mut times = Vec::new();
    let mut cold = Vec::new();
    let (mut secs, mut cpu) = (0.0, 0.0);
    let open = tracer.enter("e2e.cold_pass", 0);
    for (k, &name) in suite.iter().enumerate() {
        before_call(k);
        let cpu_start = host::cpu_seconds();
        let t = Instant::now();
        let r = tracer.span(&format!("exp.{name}"), 0, || {
            adapter::run_experiment(c, name)
        });
        times.push(t.elapsed().as_secs_f64());
        cpu += host::cpu_seconds() - cpu_start;
        secs += times[k];
        cold.push((name.to_string(), r));
    }
    tracer.exit(open);
    push_calls(out, spans, times);
    out.busy.push(cpu / (jobs as f64 * secs));
    let counters = adapter::counters(c);
    out.attempted += counters.sim_runs;
    if out.counters == Counters::default() {
        out.counters = counters;
    }
    out.problems
        .extend(gate::cold_pass_problems(entries_before, counters));
    out.problems.extend(gate::unreported_failures(
        "cold pass",
        0,
        adapter::failure_count(c),
    ));
    let mut reports = Vec::new();
    for (name, r) in cold {
        match r {
            Ok(body) => reports.push((name, body)),
            Err(e) => out.problems.push(format!("{name}: {e}")),
        }
    }
    let golden = gate::parse_reports(Kind::PaperAll.golden_text());
    out.problems
        .extend(gate::report_mismatches(&reports, &golden));
    out.cache_entries = adapter::cache_entries(cache).unwrap_or(0);
    reports
}

/// One warm pass: a fresh campaign on the full cache under `cache`
/// renders `suite` again. It may simulate nothing, and each report must
/// equal the cold pass's.
pub fn paper_warm(
    cache: &Path,
    suite: &[&str],
    cold: &[(String, String)],
    tracer: &mut Tracer,
    out: &mut E2e,
) {
    let t = Instant::now();
    let open = tracer.enter("e2e.warm_pass", 0);
    let warm = adapter::paper_campaign(cache).map(|wc| {
        let rendered: Vec<(String, Result<String, String>)> = suite
            .iter()
            .map(|&name| {
                let r = tracer.span(&format!("warm.{name}"), 0, || {
                    adapter::run_experiment(&wc, name)
                });
                (name.to_string(), r)
            })
            .collect();
        (wc, rendered)
    });
    tracer.exit(open);
    out.warm.push(t.elapsed().as_secs_f64());
    let (wc, rendered) = match warm {
        Ok(w) => w,
        Err(e) => {
            out.problems.push(format!("warm pass setup: {e}"));
            return;
        }
    };
    let counters = adapter::counters(&wc);
    out.warm_lookups += counters.disk_hits + counters.sim_runs;
    out.warm_disk_hits += counters.disk_hits;
    out.problems.extend(gate::warm_pass_problems(counters));
    out.problems.extend(gate::unreported_failures(
        "warm pass",
        0,
        adapter::failure_count(&wc),
    ));
    out.problems
        .extend(gate::warm_report_mismatches(cold, &rendered));
}

/// One cold pass of the seeded requests on the probed campaign `c`, whose
/// interval directory is `intervals`: each request issued and timed, with
/// `before_call(k)` run untimed before the `k`th, and its digest recorded
/// for the reference check.
#[allow(clippy::too_many_arguments)]
pub fn probed_pass(
    c: &Campaign,
    intervals: &Path,
    requests: &[Request],
    jobs: usize,
    tracer: &mut Tracer,
    spans: bool,
    before_call: &mut dyn FnMut(usize),
    out: &mut E2e,
) {
    let mut times = Vec::new();
    let mut results = Vec::new();
    let (mut secs, mut cpu) = (0.0, 0.0);
    let open = tracer.enter("e2e.pass", 0);
    for (k, req) in requests.iter().enumerate() {
        before_call(k);
        let cpu_start = host::cpu_seconds();
        let t = Instant::now();
        let r = tracer.span("campaign.try_run_custom", k as u64 + 1, || {
            adapter::issue(c, req)
        });
        times.push(t.elapsed().as_secs_f64());
        cpu += host::cpu_seconds() - cpu_start;
        secs += times[k];
        results.push(r);
    }
    tracer.exit(open);
    push_calls(out, spans, times);
    out.busy.push(cpu / (jobs as f64 * secs));
    out.attempted += requests.len() as u64;

    let mut errors = 0;
    for (req, r) in requests.iter().zip(&results) {
        match r {
            Ok(res) => out.digests.push((req.label(), adapter::digest(res))),
            Err(e) => {
                errors += 1;
                out.problems.push(format!("{}: {e}", req.label()));
            }
        }
    }
    out.problems.extend(gate::unreported_failures(
        "campaign",
        errors,
        adapter::failure_count(c),
    ));
    out.problems.extend(gate::interval_series_problems(
        adapter::interval_series(intervals),
        requests.len(),
    ));
    if out.counters == Counters::default() {
        out.counters = adapter::counters(c);
    }
}

/// One warm pass of a probed campaign: every request again on the same
/// campaign, served from its memo, since a probed, sanitized campaign
/// never loads from disk. Each result must equal the cold pass's.
pub fn memo_pass(c: &Campaign, requests: &[Request], tracer: &mut Tracer, out: &mut E2e) {
    let t = Instant::now();
    let open = tracer.enter("e2e.warm_pass", 0);
    let warm: Vec<_> = requests.iter().map(|req| adapter::issue(c, req)).collect();
    tracer.exit(open);
    out.warm.push(t.elapsed().as_secs_f64());
    out.warm_lookups += requests.len() as u64;
    let warm: Vec<(String, Result<u64, String>)> = requests
        .iter()
        .zip(warm)
        .map(|(req, r)| (req.label(), r.map(|r| adapter::digest(&r))))
        .collect();
    out.problems
        .extend(gate::warm_digest_mismatches(&out.digests, &warm));
}

/// Reference digests: the committed golden at the default seed, the plain
/// path (skip off, no observers, sequential) at any other.
fn reference(
    kind: Kind,
    seed: u64,
    requests: &[Request],
    problems: &mut Vec<String>,
) -> BTreeMap<String, u64> {
    if seed == adapter::DEFAULT_SEED {
        return gate::parse_digests(kind.golden_text()).unwrap_or_else(|e| {
            problems.push(format!("golden: {e}"));
            BTreeMap::new()
        });
    }
    let mut out = BTreeMap::new();
    for req in requests {
        match adapter::plain_reference(req) {
            Ok(r) => {
                out.insert(req.label(), adapter::digest(&r));
            }
            Err(e) => problems.push(format!("{} (plain reference): {e}", req.label())),
        }
    }
    out
}

/// Regenerate `kind`'s golden from the reference paths and write it to
/// [`Kind::golden_path`].
pub fn bless(kind: Kind, scratch: &Path) -> Result<PathBuf, String> {
    let text = match kind {
        Kind::PaperAll => {
            let c = adapter::paper_campaign(&scratch.join("bless"))
                .map_err(|e| format!("campaign setup: {e}"))?;
            let mut reports = Vec::new();
            for name in adapter::paper_suite() {
                reports.push((name.to_string(), adapter::run_experiment(&c, name)?));
            }
            gate::render_reports(&reports)
        }
        Kind::MemProbed => {
            let mut digests = BTreeMap::new();
            for req in kind.requests(adapter::DEFAULT_SEED) {
                let r = adapter::plain_reference(&req)?;
                digests.insert(req.label(), adapter::digest(&r));
            }
            gate::render_digests(&digests)
        }
    };
    let path = kind.golden_path();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
