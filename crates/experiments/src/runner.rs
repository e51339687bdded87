//! The experiment campaign runner.
//!
//! Experiments share simulation results: Figure 1(b), Figure 3, Table 4 and
//! the Figure 2 series are all views over the same (architecture, workload,
//! policy) grid. [`Campaign`] memoizes each simulation, and
//! [`Campaign::prefetch`] runs a batch of uncached requests, grid keys and
//! custom runs alike, in parallel across OS threads. With
//! [`Campaign::with_disk_cache`], the memo additionally persists across
//! processes through the content-addressed store in [`crate::cache`].
//!
//! # Fault isolation
//!
//! Every simulation runs behind a panic boundary and under the simulator's
//! forward-progress watchdog; the configuration is validated before the
//! disk cache is even consulted. A failed run becomes a [`RunFailure`]
//! recorded on the campaign (and as a failure artifact) instead of taking
//! the sweep down — callers that can degrade gracefully use the `try_*`
//! entry points, while the legacy panicking accessors remain for report
//! code whose caller (the CLI) provides per-experiment isolation.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use dwarn_core::PolicyKind;
use smt_obs::{IntervalConfig, IntervalProbe, IntervalSeries, Json};
use smt_pipeline::{
    ConfigError, FetchPolicy, FragmentOpts, NullProbe, NullSanitizer, Probe, RecordingSanitizer,
    Sanitizer, SimConfig, SimError, SimResult, Simulator, ThreadSpec, Watchdog,
};
use smt_workloads::Workload;

use crate::artifacts::RunRecord;
use crate::cache::DiskCache;
use crate::error::{protect, ExpError, RunFailure};

/// Simulation window lengths.
#[derive(Debug, Clone, Copy)]
pub struct ExpParams {
    pub warmup: u64,
    pub measure: u64,
}

impl ExpParams {
    /// Default windows: long enough for steady state on every workload.
    pub fn standard() -> ExpParams {
        ExpParams {
            warmup: 20_000,
            measure: 60_000,
        }
    }

    /// Short windows (`--quick`): smoke tests, CI's golden report and the
    /// benchmark's `paper-all` workload.
    pub fn quick() -> ExpParams {
        ExpParams {
            warmup: 5_000,
            measure: 15_000,
        }
    }
}

/// The three processor configurations of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    Baseline,
    Small,
    Deep,
}

impl Arch {
    pub fn config(self) -> SimConfig {
        match self {
            Arch::Baseline => SimConfig::baseline(),
            Arch::Small => SimConfig::small(),
            Arch::Deep => SimConfig::deep(),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Arch::Baseline => "baseline",
            Arch::Small => "small",
            Arch::Deep => "deep",
        }
    }

    /// The inverse of [`Arch::as_str`].
    pub fn parse(name: &str) -> Option<Arch> {
        [Arch::Baseline, Arch::Small, Arch::Deep]
            .into_iter()
            .find(|a| a.as_str() == name)
    }
}

/// A memoized simulation request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    pub arch: Arch,
    /// Workload name ("4-MIX") or a solo run ("solo:mcf").
    pub workload: String,
    pub policy: PolicyKind,
}

impl RunKey {
    pub fn workload(arch: Arch, wl: &Workload, policy: PolicyKind) -> RunKey {
        RunKey {
            arch,
            workload: wl.name.clone(),
            policy,
        }
    }

    pub fn solo(arch: Arch, bench: &str) -> RunKey {
        RunKey {
            arch,
            workload: format!("solo:{bench}"),
            policy: PolicyKind::Icount,
        }
    }

    /// `arch/workload/policy`: the run's name in failures, progress lines
    /// and interval file names.
    pub(crate) fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.arch.as_str(),
            self.workload,
            self.policy.name()
        )
    }
}

pub(crate) fn specs_for(key: &RunKey) -> Result<Vec<ThreadSpec>, ExpError> {
    if let Some(bench) = key.workload.strip_prefix("solo:") {
        let profile = smt_trace::by_name(bench).ok_or_else(|| ExpError::UnknownBenchmark {
            given: bench.to_string(),
        })?;
        Ok(vec![ThreadSpec {
            profile,
            seed: smt_workloads::TRACE_SEED,
            skip: 0,
        }])
    } else {
        Ok(workload_by_name(&key.workload)?.thread_specs())
    }
}

/// The Table 2(b) workload named `"<threads>-<CLASS>"`, like `"4-MIX"`.
pub fn workload_by_name(name: &str) -> Result<Workload, ExpError> {
    let bad = || ExpError::BadWorkloadName {
        given: name.to_string(),
    };
    let (n, c) = name.split_once('-').ok_or_else(bad)?;
    let threads: usize = n.parse().map_err(|_| bad())?;
    let class = match c {
        "ILP" => smt_workloads::WorkloadClass::Ilp,
        "MIX" => smt_workloads::WorkloadClass::Mix,
        "MEM" => smt_workloads::WorkloadClass::Mem,
        other => {
            return Err(ExpError::UnknownWorkloadClass {
                given: other.to_string(),
            })
        }
    };
    smt_workloads::try_workload(threads, class).ok_or(ExpError::UnknownWorkload {
        threads,
        class: class.as_str(),
    })
}

/// An ad-hoc simulation outside the paper's grid: a perturbed
/// configuration, a parameterized policy, or both.
pub struct CustomRun {
    pub cfg: SimConfig,
    pub specs: Vec<ThreadSpec>,
    /// Names the policy *including its parameters* (`"DG(n=2)"`, not
    /// `"DG"`): it is the policy part of the run's description, so two
    /// different policies sharing one would alias.
    pub policy_desc: String,
    /// Builds the policy; called only when the run really simulates.
    pub build: Box<dyn Fn() -> Box<dyn FetchPolicy> + Sync>,
}

impl CustomRun {
    /// `wl` on `cfg` under the policy `build` makes.
    pub fn new(
        cfg: SimConfig,
        wl: &Workload,
        policy_desc: &str,
        build: impl Fn() -> Box<dyn FetchPolicy> + Sync + 'static,
    ) -> CustomRun {
        CustomRun {
            cfg,
            specs: wl.thread_specs(),
            policy_desc: policy_desc.to_string(),
            build: Box::new(build),
        }
    }
}

/// One request of a [`Campaign::prefetch`] batch.
pub enum Request<'a> {
    /// A point of the (architecture, workload, policy) grid.
    Grid(&'a RunKey),
    /// An ad-hoc run, as [`Campaign::try_run_custom`] takes it.
    Custom(&'a CustomRun),
}

impl<'a> From<&'a RunKey> for Request<'a> {
    fn from(key: &'a RunKey) -> Request<'a> {
        Request::Grid(key)
    }
}

impl<'a> From<&'a CustomRun> for Request<'a> {
    fn from(run: &'a CustomRun) -> Request<'a> {
        Request::Custom(run)
    }
}

/// A batch request that still has to run, with its canonical description
/// (`None` for a grid key that has none: it fails on its worker, as it
/// would on demand).
enum Job<'a> {
    Grid(&'a RunKey, Option<String>),
    Custom(&'a CustomRun, String),
}

/// Canonical one-line description of a simulation request: everything that
/// determines its result, prefixed by the cache's code-version salt. This
/// string *is* the disk-cache key (content-addressed via FNV-1a).
fn describe_run(
    cfg: &SimConfig,
    specs: &[ThreadSpec],
    policy_desc: &str,
    params: ExpParams,
) -> String {
    let mut s = format!(
        "v{} warmup={} measure={} policy={} cfg={:?} threads=",
        crate::cache::CODE_VERSION,
        params.warmup,
        params.measure,
        policy_desc,
        cfg,
    );
    for spec in specs {
        s.push_str(&format!(
            "{}:{}:{}|",
            spec.profile.name, spec.seed, spec.skip
        ));
    }
    s
}

/// Memoizing, parallel simulation campaign.
pub struct Campaign {
    pub params: ExpParams,
    /// Grid runs by key. A failed run stays here with its error, so a later
    /// lookup neither simulates it again nor records a second failure.
    cache: Mutex<HashMap<RunKey, Result<SimResult, ExpError>>>,
    /// Every result in the process by canonical run description: custom
    /// runs, failed ones included, and grid results too, so a custom
    /// request that describes a grid simulation is served by it. Grid
    /// lookups stay on `cache`: a custom result never answers a grid key,
    /// which must count its telemetry and write its stats record.
    by_desc: Mutex<HashMap<String, Result<SimResult, ExpError>>>,
    /// Cross-process persistent store, when `--cache-dir` is active.
    disk: Option<DiskCache>,
    /// Maximum worker threads for batch runs.
    parallelism: usize,
    /// Failed runs (watchdog trips, isolated panics, cache irregularities)
    /// recorded so the campaign can finish with partial results.
    failures: Mutex<Vec<RunFailure>>,
    /// Attach the cycle-level µarch sanitizer to every simulation
    /// (`--sanitize`). Disk-cache *loads* are skipped so each run actually
    /// executes under audit; results are still stored (the sanitizer is
    /// observation-only, so sanitized results are bit-identical).
    sanitize: bool,
    /// Let simulations use the quiescence-skipping engine (`--no-skip`
    /// clears it). Skipped and unskipped runs are bit-identical, so this
    /// does not enter the cache key.
    skip: bool,
    /// Attach the interval sampler to every simulation and write its
    /// time-series files here (`--intervals <dir>`). Like the sanitizer,
    /// interval runs bypass disk-cache *loads*: a cache hit would produce
    /// no series.
    intervals: Option<IntervalOpts>,
    /// Live campaign telemetry counters (always maintained; cheap).
    telemetry: Telemetry,
    /// Print per-completion progress lines on stderr (`--live`).
    live: bool,
    /// Machine-readable heartbeat stream (`events.jsonl`): one line per
    /// completed run, flushed eagerly so it can be tailed.
    heartbeat: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
    /// Fragment length in cycles for time-axis parallel replay
    /// (`--fragments <cycles>`); `None` runs every simulation
    /// sequentially.
    fragments: Option<u64>,
    /// Guards the one stderr notice that fragment replay declined a run.
    declined: Once,
    /// How many campaign workers are currently simulating: the width of
    /// the running prefetch batch, grid or custom, and 1 outside one (a
    /// lone `try_run_custom` call included). Fragment replay only engages
    /// with the cores the batch pool leaves idle: intra-run parallelism is
    /// for batches *narrower* than the machine, not for competing with
    /// the pool.
    pool_width: AtomicUsize,
    /// Progress of the current prefetch batch, for runs/sec and ETA:
    /// `(batch_total, started, completed_before_batch)`.
    batch: Mutex<Option<(usize, Instant, u64)>>,
}

/// Destination and window length for interval telemetry
/// ([`Campaign::set_intervals`]).
struct IntervalOpts {
    dir: PathBuf,
    window: u64,
}

/// Cache-layer hit/miss/coalesce counters, maintained across the whole
/// campaign (not just live batches). Relaxed ordering throughout: these are
/// monotonic event counts, never synchronization.
#[derive(Default)]
struct Telemetry {
    /// Results served from the cross-process disk cache.
    disk_hits: AtomicU64,
    /// Results that actually simulated in this process.
    sim_runs: AtomicU64,
    /// Identical results dropped because another worker raced the same key
    /// into the memo first.
    coalesced: AtomicU64,
    /// Simulations that ran by fragment replay.
    replayed: AtomicU64,
}

/// One simulation request as the run driver sees it.
struct Run<'a> {
    /// Label for failures and interval file names.
    what: &'a str,
    /// The canonical description: the cache key.
    desc: &'a str,
    cfg: &'a SimConfig,
    specs: &'a [ThreadSpec],
    /// The caller wants the run's interval series ([`Campaign::series`]):
    /// the run carries the interval probe even without `--intervals`, and
    /// never loads from disk, since a stored result has no series.
    series: bool,
}

/// What a fresh simulation hands back besides its result, by value.
/// `skipped` and `switches` feed the stats record's `skip_ratio` and
/// `policy_switches`, `fragments` its `fragments`/`fragment_cycles`;
/// the caller writes `series` under `--intervals` and hands it to a
/// series request.
struct RunAccount {
    result: SimResult,
    /// Cycles the quiescence engine skipped (the scout's, when fragmented).
    skipped: u64,
    /// Fetch-policy switches the run logged; non-zero only for the
    /// switching meta-policies. The policy counts them, not the simulator.
    switches: u64,
    /// `(fragments, fragment_cycles)` when fragment replay ran.
    fragments: Option<(u64, u64)>,
    /// The interval time-series, when the interval probe was attached.
    series: Option<IntervalSeries>,
}

impl RunAccount {
    /// The accounting of a simulator that ran `result` in one timeline.
    fn new<P: Probe, S: Sanitizer>(sim: &Simulator<P, S>, result: SimResult) -> RunAccount {
        RunAccount {
            result,
            skipped: sim.skipped_cycles(),
            switches: sim.policy().switch_log().len() as u64,
            fragments: None,
            series: None,
        }
    }
}

/// Where [`Campaign::load_or_simulate`] found a run's result.
enum Served {
    /// The disk cache.
    Stored(SimResult),
    /// A fresh simulation.
    Simulated(RunAccount),
}

/// A probe a campaign run can carry: the interval sampler, or none.
trait RunProbe: Probe + Send {
    /// The recorded time-series, if this probe records one.
    fn series(self) -> Option<IntervalSeries>;
}

impl RunProbe for NullProbe {
    fn series(self) -> Option<IntervalSeries> {
        None
    }
}

impl RunProbe for IntervalProbe {
    fn series(self) -> Option<IntervalSeries> {
        Some(self.into_series())
    }
}

/// A sanitizer a campaign run can carry: the recorder, or none.
trait RunSanitizer: Sanitizer + Send {
    /// Fail a run whose bookkeeping disagreed with itself.
    fn check(&self, what: &str) -> Result<(), ExpError>;
}

impl RunSanitizer for NullSanitizer {
    fn check(&self, _what: &str) -> Result<(), ExpError> {
        Ok(())
    }
}

impl RunSanitizer for RecordingSanitizer {
    fn check(&self, what: &str) -> Result<(), ExpError> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(ExpError::Invariant {
                what: what.to_string(),
                violations: self.total() as usize,
                first: self.first().map(ToString::to_string).unwrap_or_default(),
            })
        }
    }
}

/// Resolve a worker count from a raw `SMT_JOBS` value. `None` (variable
/// unset) falls back to the detected core count; anything set must be a
/// positive integer — `0`, empty, and non-numeric values are rejected
/// with a typed error instead of silently defaulting, because a CI box
/// that *meant* to pin the width must not quietly run at full fan-out.
pub fn parse_jobs(raw: Option<&str>) -> Result<usize, ConfigError> {
    match raw {
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(ConfigError::InvalidJobs { got: v.to_string() }),
        },
    }
}

/// How many fragment-replay workers one run gets when `parallelism`
/// workers are shared by a batch pool `pool_width` runs wide, or `None`
/// to simulate it sequentially. The run's share is `parallelism /
/// pool_width` cores. Replay engages only from a share of 3, and then
/// its workers take the whole share, with the run's scout pass beside
/// them. A share of 2 is declined because on a 2-vCPU host the scout
/// and two workers used about 1.6× the CPU and 2.4× the peak RSS of a
/// sequential run to save about 10% of its wall time. Larger shares
/// have not been measured, against a sequential run or against a plan
/// that gives the scout a core of its own (ROADMAP item 2).
pub fn replay_workers(parallelism: usize, pool_width: usize) -> Option<usize> {
    let share = parallelism / pool_width.max(1);
    (share >= 3).then_some(share)
}

impl Campaign {
    /// As [`Campaign::try_new`], panicking on a malformed `SMT_JOBS`.
    /// Kept for the dozens of test/bench call sites, which follow the
    /// crate's documented fail-fast convention (the CLI goes through
    /// `try_new` and exits with a usage error instead).
    #[expect(
        clippy::panic,
        reason = "documented fail-fast wrapper: the failure is recorded on the campaign before the panic, and the try_* form exists for graceful paths"
    )]
    pub fn new(params: ExpParams) -> Campaign {
        Campaign::try_new(params).unwrap_or_else(|e| panic!("campaign setup failed: {e}"))
    }

    /// Build a campaign, resolving worker parallelism from the
    /// `SMT_JOBS` environment variable (CI runners and benchmark boxes
    /// want a pinned, reproducible width) or the detected core count.
    pub fn try_new(params: ExpParams) -> Result<Campaign, ConfigError> {
        let jobs = std::env::var("SMT_JOBS").ok();
        Ok(Campaign::with_jobs(params, parse_jobs(jobs.as_deref())?))
    }

    /// Build a campaign whose worker budget is `jobs` (at least 1), as if
    /// `SMT_JOBS` were set to it.
    pub fn with_jobs(params: ExpParams, jobs: usize) -> Campaign {
        Campaign {
            params,
            cache: Mutex::new(HashMap::new()),
            by_desc: Mutex::new(HashMap::new()),
            disk: None,
            parallelism: jobs.max(1),
            failures: Mutex::new(Vec::new()),
            sanitize: false,
            skip: true,
            intervals: None,
            telemetry: Telemetry::default(),
            live: false,
            heartbeat: Mutex::new(None),
            fragments: None,
            declined: Once::new(),
            pool_width: AtomicUsize::new(1),
            batch: Mutex::new(None),
        }
    }

    /// A campaign whose memo persists under `dir` across processes.
    pub fn with_disk_cache(params: ExpParams, dir: &Path) -> std::io::Result<Campaign> {
        let mut c = Campaign::new(params);
        c.attach_disk_cache(dir)?;
        Ok(c)
    }

    /// Attach the cross-process persistent store (`--cache-dir <dir>`).
    pub fn attach_disk_cache(&mut self, dir: &Path) -> std::io::Result<()> {
        self.disk = Some(DiskCache::open(dir)?);
        Ok(())
    }

    /// The persistent store, if one is attached.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Run every simulation under the cycle-level µarch sanitizer. A run
    /// that records violations fails as [`ExpError::Invariant`] — its
    /// numbers came from a machine whose bookkeeping disagreed with
    /// itself. Disk-cache loads are bypassed (stores still happen) so
    /// each result really executed under audit.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// Disable (or re-enable) the quiescence-skipping engine for every
    /// simulation this campaign runs (`--no-skip`). Observation-only:
    /// results are bit-identical either way.
    pub fn set_skip(&mut self, on: bool) {
        self.skip = on;
    }

    /// Enable time-axis parallel fragment replay (`--fragments <cycles>`):
    /// a simulation whose share of the cores is 3 or more
    /// ([`replay_workers`]) runs a cheap null-observer scout pass that
    /// snapshots the machine every `cycles` cycles while that many
    /// workers re-simulate the fragments with the real observer
    /// configuration, and stitches the results — bit-identical to a
    /// sequential run (the engine proves it per run). Any other run
    /// simulates sequentially, and the first such run prints one notice
    /// on stderr. `0` disables.
    pub fn set_fragments(&mut self, cycles: u64) {
        self.fragments = (cycles > 0).then_some(cycles);
    }

    /// The `(jobs, fragment_cycles)` plan for a run starting now, or
    /// `None` to simulate sequentially: [`replay_workers`] over the
    /// running batch's pool width. Fragment workers only use cores the
    /// batch pool leaves idle: a full-width prefetch already keeps the
    /// machine busy with run-level parallelism, and oversubscribing it
    /// would slow both passes down. The first run that `--fragments`
    /// cannot replay says so on stderr, once per campaign.
    fn fragment_plan(&self) -> Option<(usize, u64)> {
        let cycles = self.fragments?;
        let width = self.pool_width.load(Ordering::Relaxed).max(1);
        let Some(jobs) = replay_workers(self.parallelism, width) else {
            self.declined.call_once(|| {
                eprintln!(
                    "--fragments: replay cannot engage at this width: {} worker(s) over {width} concurrent run(s) leave each run {} core(s), where replay needs 3; such runs simulate sequentially",
                    self.parallelism,
                    self.parallelism / width
                );
            });
            return None;
        };
        Some((jobs, cycles))
    }

    /// Attach the interval sampler (`--intervals <dir>`): every simulation
    /// this campaign runs records a per-interval, per-thread time-series
    /// and writes `<run>.intervals.jsonl` plus a Chrome counter-track
    /// export under `dir`. Also opens the `events.jsonl` heartbeat stream
    /// there. Disk-cache *loads* are bypassed (a cache hit would produce no
    /// series); stores still happen, and results stay bit-identical — the
    /// sampler is observation-only.
    pub fn set_intervals(&mut self, dir: &Path, window: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut hb = std::io::BufWriter::new(std::fs::File::create(dir.join("events.jsonl"))?);
        let header = Json::obj(vec![
            ("schema", Json::str("smt-heartbeat-v1")),
            ("schema_version", Json::U64(1)),
            ("interval_window", Json::U64(window)),
        ])
        .render();
        writeln!(hb, "{header}")?;
        hb.flush()?;
        *crate::lock_unpoisoned(&self.heartbeat) = Some(hb);
        self.intervals = Some(IntervalOpts {
            dir: dir.to_path_buf(),
            window,
        });
        Ok(())
    }

    /// Print a progress line on stderr for every completed run (`--live`):
    /// source (disk/sim), cache counters, and — inside a prefetch batch —
    /// runs/sec and ETA.
    pub fn set_live(&mut self, on: bool) {
        self.live = on;
    }

    /// Cache-layer counters so far: `(disk_hits, sim_runs, coalesced)`.
    pub fn telemetry_counters(&self) -> (u64, u64, u64) {
        (
            self.telemetry.disk_hits.load(Ordering::Relaxed),
            self.telemetry.sim_runs.load(Ordering::Relaxed),
            self.telemetry.coalesced.load(Ordering::Relaxed),
        )
    }

    /// How many simulations so far ran by fragment replay (`--fragments`
    /// and a run share of 3 or more cores; see [`replay_workers`]).
    pub fn replayed_runs(&self) -> u64 {
        self.telemetry.replayed.load(Ordering::Relaxed)
    }

    /// Record one completed run in the telemetry counters, the heartbeat
    /// stream, and (when `--live`) on stderr.
    fn note_done(&self, what: &str, source: &str) {
        match source {
            "disk" => self.telemetry.disk_hits.fetch_add(1, Ordering::Relaxed),
            _ => self.telemetry.sim_runs.fetch_add(1, Ordering::Relaxed),
        };
        let (hits, sims, coalesced) = self.telemetry_counters();
        let done = hits + sims;
        if let Some(hb) = crate::lock_unpoisoned(&self.heartbeat).as_mut() {
            let line = Json::obj(vec![
                ("event", Json::str("run")),
                ("what", Json::str(what.to_string())),
                ("source", Json::str(source.to_string())),
                ("completed", Json::U64(done)),
                ("disk_hits", Json::U64(hits)),
                ("sim_runs", Json::U64(sims)),
                ("memo_coalesced", Json::U64(coalesced)),
            ])
            .render();
            // Heartbeat I/O failures cost telemetry, never results.
            let _ = writeln!(hb, "{line}");
            let _ = hb.flush();
        }
        if self.live {
            let progress = match crate::lock_unpoisoned(&self.batch).as_ref() {
                Some((total, started, base)) => {
                    let in_batch = done.saturating_sub(*base);
                    let secs = started.elapsed().as_secs_f64().max(1e-9);
                    let rate = in_batch as f64 / secs;
                    let left = (*total as u64).saturating_sub(in_batch);
                    let eta = if rate > 0.0 {
                        format!("{:.0}s", left as f64 / rate)
                    } else {
                        "?".to_string()
                    };
                    format!(" {in_batch}/{total} {rate:.1} runs/s ETA {eta}")
                }
                None => String::new(),
            };
            eprintln!(
                "[campaign]{progress} {source} {what} (hits={hits} sims={sims} coalesced={coalesced})"
            );
        }
    }

    /// Write one run's interval series (`<run>.intervals.jsonl` + Chrome
    /// counter-track export) under the `--intervals` directory. Telemetry
    /// I/O failures are recorded as campaign failures but do not fail the
    /// run: the simulation result itself is valid.
    fn write_intervals(&self, what: &str, specs: &[ThreadSpec], series: &IntervalSeries) {
        let Some(opts) = self.intervals.as_ref() else {
            return;
        };
        let names: Vec<String> = specs.iter().map(|s| s.profile.name.to_string()).collect();
        let stem = crate::artifacts::sanitize(what);
        let files = [
            (format!("{stem}.intervals.jsonl"), series.to_jsonl(&names)),
            (
                format!("{stem}.counters.trace.json"),
                series.counter_trace(&names),
            ),
        ];
        for (name, body) in files {
            let path = opts.dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                let e = ExpError::Io {
                    context: format!("writing interval telemetry for {what}"),
                    detail: e.to_string(),
                };
                eprintln!("intervals: {e}");
                self.note_failure(what, &e);
            }
        }
    }

    /// One simulation with this campaign's observers attached. The
    /// sanitizer and the interval probe each compile in or out
    /// (`const ENABLED`), so the plain arm runs the zero-cost
    /// NullProbe/NullSanitizer code. The probe rides along under
    /// `--intervals` and on a series request, at the `--intervals` window
    /// or else the default one. `build` makes the run's policy: grid runs
    /// pass their kind's [`PolicyKind::build`], custom runs their own
    /// builder.
    fn simulate(
        &self,
        run: &Run<'_>,
        build: &(dyn Fn() -> Box<dyn FetchPolicy> + Sync),
    ) -> Result<RunAccount, ExpError> {
        let probe = |window| move || IntervalProbe::new(IntervalConfig { window });
        let window = self.intervals.as_ref().map(|o| o.window);
        let window = window.or(run.series.then_some(IntervalConfig::default().window));
        match (self.sanitize, window) {
            (true, Some(w)) => self.drive(run, build, probe(w), RecordingSanitizer::new),
            (true, None) => self.drive(run, build, || NullProbe, RecordingSanitizer::new),
            (false, Some(w)) => self.drive(run, build, probe(w), || NullSanitizer),
            (false, None) => self.drive(run, build, || NullProbe, || NullSanitizer),
        }
    }

    /// The campaign's run driver, behind the panic boundary and watchdog.
    /// It picks one of two execution modes:
    ///
    /// * **fragment replay** when [`Campaign::fragment_plan`] finds the
    ///   run's share of the cores is 3 or more: a
    ///   null-observer scout pass snapshots the machine every
    ///   `fragment_cycles` cycles while a pool of workers re-simulates the
    ///   fragments with the real observers, and the stitched output is
    ///   proven bit-identical to a sequential run before anything is
    ///   recorded;
    /// * **sequential** otherwise.
    ///
    /// `build` makes a fresh policy for each simulator: the sequential
    /// run, or the scout and every fragment worker. Afterwards every
    /// sanitizer is audited and the probes' interval series are stitched
    /// into the account; the caller writes them.
    fn drive<P, S>(
        &self,
        run: &Run<'_>,
        build: &(dyn Fn() -> Box<dyn FetchPolicy> + Sync),
        probe: impl Fn() -> P + Sync,
        sanitizer: impl Fn() -> S + Sync,
    ) -> Result<RunAccount, ExpError>
    where
        P: RunProbe,
        S: RunSanitizer,
    {
        let ExpParams { warmup, measure } = self.params;
        protect(run.what, move || {
            let (mut account, observers) = match self.fragment_plan() {
                Some((jobs, fragment_cycles)) => {
                    let mut scout = self.build(run, build, NullProbe, NullSanitizer)?;
                    let factory = || Ok(self.build(run, build, probe(), sanitizer())?);
                    let opts = FragmentOpts {
                        jobs,
                        fragment_cycles,
                    };
                    let report = scout.try_run_fragmented(
                        warmup,
                        measure,
                        &Watchdog::default(),
                        &opts,
                        &factory,
                    )?;
                    self.telemetry.replayed.fetch_add(1, Ordering::Relaxed);
                    let account = RunAccount {
                        result: report.result,
                        skipped: report.scout_skipped,
                        switches: report.switches.len() as u64,
                        fragments: Some((report.fragments.len() as u64, fragment_cycles)),
                        series: None,
                    };
                    let observers: Vec<(P, S)> = report
                        .fragments
                        .into_iter()
                        .map(|f| (f.probe, f.sanitizer))
                        .collect();
                    (account, observers)
                }
                None => {
                    let mut sim = self.build(run, build, probe(), sanitizer())?;
                    let result = sim.try_run(warmup, measure, &Watchdog::default())?;
                    (RunAccount::new(&sim, result), vec![sim.into_observers()])
                }
            };
            for (_, sanitizer) in &observers {
                sanitizer.check(run.what)?;
            }
            let parts: Vec<IntervalSeries> = observers
                .into_iter()
                .filter_map(|(p, _)| p.series())
                .collect();
            if !parts.is_empty() {
                let series = IntervalSeries::stitch(parts.iter()).map_err(|detail| {
                    ExpError::from(SimError::Fragment {
                        fragment: None,
                        detail,
                    })
                })?;
                account.series = Some(series);
            }
            Ok(account)
        })
    }

    /// The one place a campaign builds a simulator: sequential, fragment
    /// scout and replay worker alike, each with a fresh policy from
    /// `build`.
    fn build<P: Probe, S: Sanitizer>(
        &self,
        run: &Run<'_>,
        build: &(dyn Fn() -> Box<dyn FetchPolicy> + Sync),
        probe: P,
        sanitizer: S,
    ) -> Result<Simulator<P, S>, ConfigError> {
        let mut sim =
            Simulator::try_with_specs(run.cfg.clone(), build(), run.specs, probe, sanitizer)?;
        sim.set_skip_enabled(self.skip);
        Ok(sim)
    }

    /// The canonical cache-key description of `key`, by which a batch
    /// collapses duplicate requests.
    fn describe(&self, key: &RunKey) -> Result<String, ExpError> {
        let specs = specs_for(key)?;
        Ok(describe_run(
            &key.arch.config(),
            &specs,
            &key.policy.cache_desc(),
            self.params,
        ))
    }

    /// Record a failed run so the sweep can finish with partial results.
    fn note_failure(&self, what: &str, error: &ExpError) {
        crate::artifacts::record_failure(what, error);
        crate::lock_unpoisoned(&self.failures).push(RunFailure {
            what: what.to_string(),
            error: error.clone(),
        });
    }

    /// Failures recorded so far.
    pub fn failures(&self) -> Vec<RunFailure> {
        crate::lock_unpoisoned(&self.failures).clone()
    }

    /// Render the failure summary table, or `None` for a clean campaign.
    pub fn failure_summary(&self) -> Option<String> {
        let failures = crate::lock_unpoisoned(&self.failures);
        if failures.is_empty() {
            return None;
        }
        let mut t = smt_metrics::table::TextTable::new(vec!["kind", "run", "error"]);
        for f in failures.iter() {
            t.row(vec![
                f.error.kind().to_string(),
                f.what.clone(),
                f.error.to_string().replace('\n', " | "),
            ]);
        }
        Some(format!(
            "{} run(s) failed; results are partial\n\n{}",
            failures.len(),
            t.render()
        ))
    }

    /// Run `key`, consulting and feeding the disk cache when attached, and
    /// hand back its canonical description with the result and, when the
    /// run carried the interval probe, its series. `series` asks for that
    /// series ([`Campaign::series`]). Every result entering the process
    /// (fresh or loaded) is recorded as a stats artifact exactly once.
    ///
    /// The full robustness path: the configuration is validated before the
    /// cache is consulted, and [`Campaign::load_or_simulate`] does the rest.
    fn run_protected(
        &self,
        key: &RunKey,
        series: bool,
    ) -> Result<(String, SimResult, Option<IntervalSeries>), ExpError> {
        let specs = specs_for(key)?;
        let cfg = key.arch.config();
        cfg.validate(specs.len())?;
        // `cache_desc` pins the full selector configuration for the
        // switching meta-policies; for the static policies it equals
        // `name()`, so pre-existing cache entries stay valid.
        let desc = describe_run(&cfg, &specs, &key.policy.cache_desc(), self.params);
        let what = key.label();
        let run = Run {
            what: &what,
            desc: &desc,
            cfg: &cfg,
            specs: &specs,
            series,
        };
        let served =
            self.load_or_simulate(&run, || self.simulate(&run, &move || key.policy.build()))?;
        let record = |result: &SimResult| {
            RunRecord::new(
                "campaign",
                key.arch.as_str(),
                &key.workload,
                key.policy.name(),
                result,
            )
        };
        let (result, series) = match served {
            Served::Stored(result) => {
                crate::artifacts::record(record(&result));
                self.note_done(&what, "disk");
                (result, None)
            }
            Served::Simulated(acc) => {
                let total = self.params.warmup + self.params.measure;
                crate::artifacts::record(RunRecord {
                    skip: Some((acc.skipped, total)),
                    switches: Some(acc.switches),
                    fragments: acc.fragments,
                    ..record(&acc.result)
                });
                if let Some(series) = &acc.series {
                    self.write_intervals(&what, &specs, series);
                }
                self.note_done(&what, "sim");
                (acc.result, acc.series)
            }
        };
        Ok((desc, result, series))
    }

    /// The sequence every campaign run goes through once its
    /// configuration is valid: the disk cache, then `simulate`, then the
    /// store. Under `--sanitize` a cache hit would dodge the audit, and
    /// under `--intervals` or for a series request it would produce no
    /// time-series, so loads are skipped in all three cases; the store
    /// still refreshes the entry (probed and sanitized results are
    /// bit-identical to plain ones). An irregular cache entry is recorded
    /// as a typed failure and treated as a miss; stores retry transient
    /// I/O failures with backoff, and a final store failure only costs
    /// future warm starts, so it is recorded, not fatal.
    fn load_or_simulate(
        &self,
        run: &Run<'_>,
        simulate: impl FnOnce() -> Result<RunAccount, ExpError>,
    ) -> Result<Served, ExpError> {
        let (what, desc) = (run.what, run.desc);
        let disk = self.disk.as_ref();
        let bypass = run.series || self.sanitize || self.intervals.is_some();
        if let Some(disk) = disk.filter(|_| !bypass) {
            match disk.load_checked(desc) {
                Ok(Some(r)) => return Ok(Served::Stored(r)),
                Ok(None) => {}
                Err(fault) => {
                    let e = ExpError::Cache {
                        path: disk.entry_path(desc).display().to_string(),
                        fault,
                    };
                    self.note_failure(desc, &e);
                }
            }
        }
        let acc = simulate()?;
        if let Some(Err(e)) = disk.map(|d| d.store_retrying(desc, &acc.result, 3)) {
            let e = ExpError::Io {
                context: format!("storing cache entry for {what}"),
                detail: e.to_string(),
            };
            eprintln!("cache: {e}");
            self.note_failure(desc, &e);
        }
        Ok(Served::Simulated(acc))
    }

    /// Run an ad-hoc (config, workload, policy) combination through both
    /// cache layers. `policy_desc` must uniquely identify the policy
    /// *including its parameters* (e.g. `"DG(n=2)"`, not `"DG"`): it is
    /// part of the cache key, and two different policies sharing a
    /// description would alias. The policy itself is built lazily, only on
    /// a full miss.
    #[expect(
        clippy::panic,
        reason = "documented fail-fast wrapper: the failure is recorded on the campaign before the panic, and the try_* form exists for graceful paths"
    )]
    pub fn run_custom(
        &self,
        cfg: &SimConfig,
        specs: &[ThreadSpec],
        policy_desc: &str,
        build: impl Fn() -> Box<dyn FetchPolicy> + Sync,
    ) -> SimResult {
        self.try_run_custom(cfg, specs, policy_desc, build)
            .unwrap_or_else(|e| panic!("custom run {policy_desc} failed: {e}"))
    }

    /// As [`Campaign::run_custom`], with the same fault isolation as the
    /// grid path: config validation up front, panic capture, watchdog, and
    /// retrying stores. Failures are recorded on the campaign. This is the
    /// single-request path: it simulates on the calling thread, and a batch
    /// of custom runs goes through [`Campaign::prefetch`] instead. A grid
    /// run this process already holds serves a request with the same
    /// description.
    pub fn try_run_custom(
        &self,
        cfg: &SimConfig,
        specs: &[ThreadSpec],
        policy_desc: &str,
        build: impl Fn() -> Box<dyn FetchPolicy> + Sync,
    ) -> Result<SimResult, ExpError> {
        let desc = describe_run(cfg, specs, policy_desc, self.params);
        if let Some(r) = crate::lock_unpoisoned(&self.by_desc).get(&desc) {
            return r.clone();
        }
        let run = Run {
            what: policy_desc,
            desc: &desc,
            cfg,
            specs,
            series: false,
        };
        let (result, series) = self.custom_protected(&run, &build)?;
        if let Some(series) = series {
            self.write_intervals(policy_desc, specs, &series);
        }
        Ok(result)
    }

    /// A custom run's miss path, for one request and for a batch alike:
    /// validate the configuration, load or simulate, memoize the result or
    /// the recorded failure. The interval series, under `--intervals`, goes
    /// back to the caller, so a batch can write its files in declared order.
    fn custom_protected(
        &self,
        run: &Run<'_>,
        build: &(dyn Fn() -> Box<dyn FetchPolicy> + Sync),
    ) -> Result<(SimResult, Option<IntervalSeries>), ExpError> {
        let served = match run.cfg.validate(run.specs.len()) {
            Ok(()) => self.load_or_simulate(run, || self.simulate(run, build)),
            Err(e) => Err(ExpError::Config(e)),
        };
        let (outcome, series) = match served {
            Ok(Served::Stored(r)) => (Ok(r), None),
            Ok(Served::Simulated(acc)) => (Ok(acc.result), acc.series),
            Err(e) => {
                self.note_failure(run.what, &e);
                (Err(e), None)
            }
        };
        let outcome = crate::lock_unpoisoned(&self.by_desc)
            .entry(run.desc.to_string())
            .or_insert(outcome)
            .clone();
        Ok((outcome?, series))
    }

    /// Resolve a batch of requests, grid keys and custom runs alike, on a
    /// pool of up to `SMT_JOBS` workers, filling the memos that
    /// [`Campaign::try_result`] and [`Campaign::try_run_custom`] read.
    /// Memoized requests are dropped, and duplicates collapse by canonical
    /// description before dispatch, so each distinct simulation runs once
    /// and builds its policy once; a custom run that describes a grid key
    /// of the same batch is answered by that key's run. A failure is
    /// recorded on the campaign and memoized with its request, so a later
    /// lookup returns the error without simulating again.
    ///
    /// Grid runs write their stats records and interval files as they
    /// finish. A custom run's interval files are written after the batch,
    /// in declared order, so two runs sharing a policy description leave
    /// the file a serial loop would.
    pub fn prefetch<'a, R: Into<Request<'a>>>(&self, requests: impl IntoIterator<Item = R>) {
        let jobs = self.pending_jobs(requests.into_iter().map(Into::into).collect());
        // Custom runs' interval series, by job index, written after the
        // batch.
        let deferred: Vec<OnceLock<IntervalSeries>> =
            jobs.iter().map(|_| OnceLock::new()).collect();
        let label = |i: usize| match &jobs[i] {
            Job::Grid(k, _) => k.label(),
            Job::Custom(custom, _) => custom.policy_desc.clone(),
        };
        // Failures are recorded and memoized on the campaign, and the rest
        // of the batch keeps going (partial results).
        self.pool("prefetch", jobs.len(), label, |i| match &jobs[i] {
            Job::Grid(k, _) => {
                let _ = self.try_result(k);
            }
            Job::Custom(custom, desc) => {
                let run = Run {
                    what: &custom.policy_desc,
                    desc,
                    cfg: &custom.cfg,
                    specs: &custom.specs,
                    series: false,
                };
                if let Ok((_, Some(series))) = self.custom_protected(&run, &custom.build) {
                    let _ = deferred[i].set(series);
                }
            }
        });
        for (job, series) in jobs.iter().zip(deferred) {
            if let (Job::Custom(custom, _), Some(series)) = (job, series.into_inner()) {
                self.write_intervals(&custom.policy_desc, &custom.specs, &series);
            }
        }
    }

    /// The campaign's one worker loop: run `job(i)` for every `i` in
    /// `0..n` on up to `SMT_JOBS` scoped threads, each claiming the next
    /// index until none is left. `kind` names the batch and `label(i)`
    /// its `i`th request in the `--live` lines. While the batch runs, the
    /// fragment planner sees its width as the pool's: a narrow batch
    /// (fewer requests than workers) leaves the remaining cores to
    /// intra-run fragment replay, while a full one disables it, since
    /// run-level parallelism already saturates the cores.
    #[expect(
        clippy::disallowed_methods,
        reason = "live telemetry (runs/s, ETA, heartbeat) needs wall time; every simulated number is fixed before the clock is read"
    )]
    fn pool(
        &self,
        kind: &str,
        n: usize,
        label: impl Fn(usize) -> String + Sync,
        job: impl Fn(usize) + Sync,
    ) {
        if n == 0 {
            return;
        }
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let workers = self.parallelism.min(n);
        self.pool_width.store(workers, Ordering::Relaxed);
        if self.live {
            let (hits, sims, _) = self.telemetry_counters();
            *crate::lock_unpoisoned(&self.batch) = Some((n, Instant::now(), hits + sims));
            eprintln!("[campaign] {kind}: {n} requests, {workers} worker(s)");
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (next, completed, label, job) = (&next, &completed, &label, &job);
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if self.live {
                            eprintln!("[worker {w}] {} ({}/{n})", label(i), i + 1);
                        }
                        job(i);
                        completed.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                // Workers shouldn't panic (every simulation is behind the
                // campaign's panic boundary), but if one does, record it
                // and let the remaining requests finish on later demand.
                if let Err(payload) = h.join() {
                    let what = format!("{kind} worker");
                    self.note_failure(
                        &what,
                        &ExpError::Panicked {
                            what: what.clone(),
                            payload: crate::error::panic_message(&*payload),
                        },
                    );
                }
            }
        });
        self.pool_width.store(1, Ordering::Relaxed);
        if self.live {
            if let Some((total, started, _)) = crate::lock_unpoisoned(&self.batch).take() {
                let (hits, sims, coalesced) = self.telemetry_counters();
                let done = completed.load(Ordering::Relaxed);
                let secs = started.elapsed().as_secs_f64().max(1e-9);
                eprintln!(
                    "[campaign] batch done: {done}/{total} in {secs:.1}s ({:.1} runs/s; hits={hits} sims={sims} coalesced={coalesced})",
                    done as f64 / secs
                );
            }
        }
    }

    /// The requests of a batch that still have to run, in declared order.
    /// Dropped: grid keys already memoized or repeated, and custom runs
    /// whose description is memoized, repeated, or that of a grid key in
    /// the batch (the grid run answers it and keeps its telemetry and
    /// stats record).
    fn pending_jobs<'a>(&self, requests: Vec<Request<'a>>) -> Vec<Job<'a>> {
        let mut keys = std::collections::HashSet::new();
        let mut jobs: Vec<Job<'a>> = {
            let cache = crate::lock_unpoisoned(&self.cache);
            requests
                .into_iter()
                .filter_map(|req| match req {
                    Request::Grid(k) => (!cache.contains_key(k) && keys.insert(k))
                        .then(|| Job::Grid(k, self.describe(k).ok())),
                    Request::Custom(run) => Some(Job::Custom(
                        run,
                        describe_run(&run.cfg, &run.specs, &run.policy_desc, self.params),
                    )),
                })
                .collect()
        };
        // Grid descriptions go in first, so a custom run yields to a grid
        // key wherever the key stands in the batch.
        let mut descs: std::collections::HashSet<String> = jobs
            .iter()
            .filter_map(|job| match job {
                Job::Grid(_, desc) => desc.clone(),
                Job::Custom(..) => None,
            })
            .collect();
        let memo = crate::lock_unpoisoned(&self.by_desc);
        jobs.retain(|job| match job {
            Job::Grid(..) => true,
            Job::Custom(_, desc) => !memo.contains_key(desc) && descs.insert(desc.clone()),
        });
        jobs
    }

    /// Get (running on demand if not cached) a simulation result.
    ///
    /// Panics if the run fails; sweeps that should degrade gracefully use
    /// [`Campaign::try_result`]. (The failure is recorded on the campaign
    /// *before* the panic, so a CLI-level `catch_unwind` still reports it.)
    #[expect(
        clippy::panic,
        reason = "documented fail-fast wrapper: the failure is recorded on the campaign before the panic, and the try_* form exists for graceful paths"
    )]
    pub fn result(&self, key: &RunKey) -> SimResult {
        self.try_result(key)
            .unwrap_or_else(|e| panic!("run {key:?} failed: {e}"))
    }

    /// Fallible [`Campaign::result`]: a failed run is recorded as a
    /// [`RunFailure`] and returned as the error, leaving the rest of the
    /// campaign untouched. Asking again returns the same error.
    ///
    /// The memo is filled through the entry API under a single lock
    /// acquisition; if another thread raced us to the same key, its
    /// (identical — simulation is deterministic) outcome wins and ours is
    /// dropped. A result is also filed under its description, where custom
    /// requests find it; a failure is recorded under the key's label.
    pub fn try_result(&self, key: &RunKey) -> Result<SimResult, ExpError> {
        if let Some(r) = crate::lock_unpoisoned(&self.cache).get(key) {
            return r.clone();
        }
        let outcome = match self.run_protected(key, false) {
            Ok((desc, r, _)) => {
                crate::lock_unpoisoned(&self.by_desc)
                    .entry(desc)
                    .or_insert_with(|| Ok(r.clone()));
                Ok(r)
            }
            Err(e) => {
                self.note_failure(&key.label(), &e);
                Err(e)
            }
        };
        let mut cache = crate::lock_unpoisoned(&self.cache);
        match cache.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Another worker raced the same key to completion; its
                // (identical — simulation is deterministic) outcome wins
                // and ours is dropped.
                self.telemetry.coalesced.fetch_add(1, Ordering::Relaxed);
                e.get().clone()
            }
            std::collections::hash_map::Entry::Vacant(v) => v.insert(outcome).clone(),
        }
    }

    /// The interval series of each of `keys`' runs, in `keys` order, as
    /// the campaign simulates them with the interval probe attached at its
    /// interval window: the `--intervals` window, or
    /// [`IntervalConfig::default`]'s. The runs are one batch on the worker
    /// pool [`Campaign::prefetch`] uses, and each is otherwise an ordinary
    /// grid run (validated, audited, fragmented, stored, recorded, its
    /// files written under `--intervals`), except that it never loads from
    /// disk and neither reads nor fills the in-process memo: a stored or
    /// memoized result has no series.
    ///
    /// Panics if any run fails, like [`Campaign::result`], once the whole
    /// batch has finished; every failure is recorded on the campaign
    /// first.
    #[expect(
        clippy::panic,
        reason = "documented fail-fast wrapper: the failure is recorded on the campaign before the panic, and the caller (the `meta` oracle) cannot degrade without the series"
    )]
    pub fn series(&self, keys: &[RunKey]) -> Vec<IntervalSeries> {
        let outcomes: Vec<OnceLock<Result<Option<IntervalSeries>, ExpError>>> =
            keys.iter().map(|_| OnceLock::new()).collect();
        self.pool(
            "series",
            keys.len(),
            |i| keys[i].label(),
            |i| {
                let outcome = self.run_protected(&keys[i], true).map(|(.., s)| s);
                if let Err(e) = &outcome {
                    self.note_failure(&keys[i].label(), e);
                }
                let _ = outcomes[i].set(outcome);
            },
        );
        keys.iter()
            .zip(outcomes)
            .map(|(key, outcome)| match outcome.into_inner() {
                Some(Ok(Some(series))) => series,
                Some(Ok(None)) => panic!("run {key:?} recorded no interval series"),
                Some(Err(e)) => panic!("run {key:?} failed: {e}"),
                None => panic!("run {key:?} was lost with its series worker"),
            })
            .collect()
    }

    /// Result for a (workload, policy) pair on an architecture.
    pub fn workload_result(&self, arch: Arch, wl: &Workload, policy: PolicyKind) -> SimResult {
        self.result(&RunKey::workload(arch, wl, policy))
    }

    /// Single-threaded IPC of a benchmark under ICOUNT (the relative-IPC
    /// denominator).
    pub fn solo_ipc(&self, arch: Arch, bench: &str) -> f64 {
        self.result(&RunKey::solo(arch, bench)).ipcs()[0]
    }

    /// Per-thread relative IPCs for a (workload, policy) run.
    pub fn relative_ipcs(&self, arch: Arch, wl: &Workload, policy: PolicyKind) -> Vec<f64> {
        let smt = self.workload_result(arch, wl, policy).ipcs();
        let solo: Vec<f64> = wl
            .benchmarks
            .iter()
            .map(|b| self.solo_ipc(arch, b))
            .collect();
        smt_metrics::relative_ipcs(&smt, &solo)
    }

    /// Hmean of relative IPCs for a (workload, policy) run.
    pub fn hmean(&self, arch: Arch, wl: &Workload, policy: PolicyKind) -> f64 {
        smt_metrics::hmean(&self.relative_ipcs(arch, wl, policy))
    }

    /// Number of memoized grid results, failures not counted (for tests).
    pub fn cached(&self) -> usize {
        crate::lock_unpoisoned(&self.cache)
            .values()
            .filter(|r| r.is_ok())
            .count()
    }

    /// Build the full key grid for a set of workloads × policies.
    pub fn grid(arch: Arch, workloads: &[Workload], policies: &[PolicyKind]) -> Vec<RunKey> {
        let mut keys = Vec::with_capacity(workloads.len() * policies.len());
        for wl in workloads {
            for &p in policies {
                keys.push(RunKey::workload(arch, wl, p));
            }
        }
        keys
    }

    /// Keys for all solo baselines a workload set needs.
    pub fn solo_grid(arch: Arch, workloads: &[Workload]) -> Vec<RunKey> {
        let mut seen = std::collections::HashSet::new();
        let mut keys = Vec::new();
        for wl in workloads {
            for &b in &wl.benchmarks {
                if seen.insert(b) {
                    keys.push(RunKey::solo(arch, b));
                }
            }
        }
        keys
    }
}

/// Render an ad-hoc comparison of `policies` on one workload: throughput,
/// Hmean, per-thread IPCs, gating and flush statistics.
pub fn comparison_table(
    campaign: &Campaign,
    arch: Arch,
    wl: &Workload,
    policies: &[PolicyKind],
) -> String {
    let mut keys: Vec<RunKey> = policies
        .iter()
        .map(|&p| RunKey::workload(arch, wl, p))
        .collect();
    keys.extend(Campaign::solo_grid(arch, std::slice::from_ref(wl)));
    campaign.prefetch(&keys);

    let mut t = smt_metrics::table::TextTable::new(vec![
        "policy",
        "tput",
        "Hmean",
        "gated",
        "flushed%",
        "per-thread IPCs",
    ]);
    for &p in policies {
        let r = campaign.workload_result(arch, wl, p);
        let gated: u64 = r.threads.iter().map(|s| s.gated_cycles).sum();
        let ipcs: Vec<String> = r.ipcs().iter().map(|i| format!("{i:.2}")).collect();
        t.row(vec![
            p.name().to_string(),
            format!("{:.2}", r.throughput()),
            format!("{:.2}", campaign.hmean(arch, wl, p)),
            format!("{gated}"),
            format!("{:.1}", 100.0 * r.flushed_fraction()),
            ipcs.join(" / "),
        ]);
    }
    format!(
        "{} on the {} architecture ({})\n\n{}",
        wl.name,
        arch.as_str(),
        wl.benchmarks.join(", "),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::{workload, WorkloadClass};

    fn quick_campaign() -> Campaign {
        Campaign::new(ExpParams {
            warmup: 1_000,
            measure: 3_000,
        })
    }

    #[test]
    fn results_are_memoized() {
        let c = quick_campaign();
        let wl = workload(2, WorkloadClass::Ilp);
        let a = c.workload_result(Arch::Baseline, &wl, PolicyKind::Icount);
        assert_eq!(c.cached(), 1);
        let b = c.workload_result(Arch::Baseline, &wl, PolicyKind::Icount);
        assert_eq!(c.cached(), 1);
        assert_eq!(a.threads, b.threads);
    }

    #[test]
    fn prefetch_fills_the_grid() {
        let c = quick_campaign();
        let wls = vec![
            workload(2, WorkloadClass::Ilp),
            workload(2, WorkloadClass::Mix),
        ];
        let keys = Campaign::grid(
            Arch::Baseline,
            &wls,
            &[PolicyKind::Icount, PolicyKind::DWarn],
        );
        c.prefetch(&keys);
        assert_eq!(c.cached(), 4);
        // Subsequent access hits the cache.
        let r = c.workload_result(Arch::Baseline, &wls[0], PolicyKind::DWarn);
        assert!(r.throughput() > 0.0);
        assert_eq!(c.cached(), 4);
    }

    #[test]
    fn prefetch_matches_on_demand_results() {
        // Parallel-batch and on-demand paths must agree (determinism).
        let wl = workload(2, WorkloadClass::Mem);
        let a = quick_campaign();
        a.prefetch(&[RunKey::workload(Arch::Baseline, &wl, PolicyKind::Stall)]);
        let ra = a.workload_result(Arch::Baseline, &wl, PolicyKind::Stall);
        let b = quick_campaign();
        let rb = b.workload_result(Arch::Baseline, &wl, PolicyKind::Stall);
        assert_eq!(ra.threads, rb.threads);
    }

    #[test]
    fn solo_grid_dedupes_replicas() {
        let wls = vec![workload(8, WorkloadClass::Mem)]; // mcf/twolf/vpr/parser x2
        let keys = Campaign::solo_grid(Arch::Baseline, &wls);
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn relative_ipcs_are_in_unit_range_mostly() {
        let c = quick_campaign();
        let wl = workload(2, WorkloadClass::Mix);
        let rel = c.relative_ipcs(Arch::Baseline, &wl, PolicyKind::Icount);
        assert_eq!(rel.len(), 2);
        for r in rel {
            assert!(
                r > 0.0 && r < 1.5,
                "relative IPC {r} out of plausible range"
            );
        }
    }

    #[test]
    fn workload_name_round_trip() {
        let wl = workload_by_name("6-MEM").unwrap();
        assert_eq!(wl.name, "6-MEM");
        assert_eq!(wl.benchmarks, workload(6, WorkloadClass::Mem).benchmarks);
    }

    #[test]
    fn workload_name_errors_are_typed() {
        use crate::error::ExpError;
        assert!(matches!(
            workload_by_name("nonsense"),
            Err(ExpError::BadWorkloadName { .. })
        ));
        assert!(matches!(
            workload_by_name("x-MIX"),
            Err(ExpError::BadWorkloadName { .. })
        ));
        assert!(matches!(
            workload_by_name("3-MIX"),
            Err(ExpError::UnknownWorkload {
                threads: 3,
                class: "MIX"
            })
        ));
        // The satellite case: a well-formed name with an invented class
        // must name the valid classes instead of panicking.
        match workload_by_name("4-QUX") {
            Err(e @ ExpError::UnknownWorkloadClass { .. }) => {
                assert!(e.to_string().contains("ILP, MIX, MEM"));
            }
            other => panic!("expected UnknownWorkloadClass, got {other:?}"),
        }
    }

    #[test]
    fn failed_runs_are_recorded_not_fatal() {
        let c = quick_campaign();
        // An invented class, a thread count Table 2(b) lacks, and a
        // benchmark outside the paper's twelve.
        let mut errors = Vec::new();
        for workload in ["4-QUX", "3-MIX", "solo:nosuchbench"] {
            let key = RunKey {
                arch: Arch::Baseline,
                workload: workload.into(),
                policy: PolicyKind::Icount,
            };
            errors.push(c.try_result(&key).unwrap_err());
        }
        assert!(
            matches!(&errors[..], [
                ExpError::UnknownWorkloadClass { given: class },
                ExpError::UnknownWorkload { threads: 3, class: "MIX" },
                ExpError::UnknownBenchmark { given: bench },
            ] if class == "QUX" && bench == "nosuchbench"),
            "{errors:?}"
        );
        let failures: Vec<ExpError> = c.failures().into_iter().map(|f| f.error).collect();
        assert_eq!(failures, errors);
        assert!(c.failure_summary().unwrap().contains("partial"));

        // A series batch fails fast, but only after every run of it has
        // finished and the failure is recorded under the run's label.
        let key = RunKey {
            arch: Arch::Baseline,
            workload: "3-MIX".into(),
            policy: PolicyKind::Icount,
        };
        let good = RunKey::workload(
            Arch::Baseline,
            &workload(2, WorkloadClass::Ilp),
            PolicyKind::Icount,
        );
        let (_, sims, _) = c.telemetry_counters();
        let series = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.series(&[key.clone(), good])
        }));
        assert!(series.is_err());
        assert_eq!(c.telemetry_counters().1, sims + 1, "the good run ran");
        let last = c.failures().pop().unwrap();
        assert_eq!(last.what, "baseline/3-MIX/ICOUNT");
        assert_eq!(
            last.error,
            ExpError::UnknownWorkload {
                threads: 3,
                class: "MIX"
            }
        );

        // The campaign keeps working after the failure.
        let wl = workload(2, WorkloadClass::Ilp);
        let r = c.workload_result(Arch::Baseline, &wl, PolicyKind::Icount);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn prefetch_survives_failing_keys() {
        let c = quick_campaign();
        let wl = workload(2, WorkloadClass::Mix);
        let keys = [
            RunKey {
                arch: Arch::Baseline,
                workload: "9-MIX".into(),
                policy: PolicyKind::Icount,
            },
            RunKey::workload(Arch::Baseline, &wl, PolicyKind::Icount),
            RunKey {
                arch: Arch::Baseline,
                workload: "solo:nosuchbench".into(),
                policy: PolicyKind::Icount,
            },
        ];
        let mut no_fetch = SimConfig::baseline();
        no_fetch.fetch_width = 0;
        let custom = [
            CustomRun::new(no_fetch, &wl, "ICOUNT", || PolicyKind::Icount.build()),
            CustomRun::new(SimConfig::baseline(), &wl, "DG(n=2)", || {
                Box::new(dwarn_core::DataGating::with_threshold(2))
            }),
        ];
        let batch: Vec<Request<'_>> = keys
            .iter()
            .map(Request::from)
            .chain(custom.iter().map(Request::from))
            .collect();
        c.prefetch(batch);
        // The good requests are memoized; the bad ones are failures, not
        // crashes.
        assert_eq!(c.cached(), 1);
        let failures = c.failures();
        let kinds: Vec<&str> = failures.iter().map(|f| f.error.kind()).collect();
        assert_eq!(kinds.len(), 3, "{kinds:?}");
        assert!(kinds.contains(&"config"), "{kinds:?}");
        // A grid failure names its policy.
        let labels: Vec<&str> = failures.iter().map(|f| f.what.as_str()).collect();
        assert!(labels.contains(&"baseline/9-MIX/ICOUNT"), "{labels:?}");
        assert!(
            labels.contains(&"baseline/solo:nosuchbench/ICOUNT"),
            "{labels:?}"
        );
        // Asking again returns the recorded error: nothing runs again and
        // no second failure is recorded.
        for bad in [&keys[0], &keys[2]] {
            assert!(c.try_result(bad).is_err(), "{bad:?}");
        }
        let bad = &custom[0];
        let err = c
            .try_run_custom(&bad.cfg, &bad.specs, &bad.policy_desc, || {
                panic!("a failed request must not be built again")
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                ExpError::Config(ConfigError::ZeroFetch { fetch_width: 0, .. })
            ),
            "{err}"
        );
        assert_eq!(c.failures().len(), 3);
        let r = c.workload_result(Arch::Baseline, &wl, PolicyKind::Icount);
        assert!(r.throughput() > 0.0);
        let good = &custom[1];
        let r = c.run_custom(&good.cfg, &good.specs, &good.policy_desc, || {
            panic!("the batch must have memoized {}", good.policy_desc)
        });
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn a_custom_run_describing_a_grid_key_is_answered_by_the_grid_run() {
        // Wherever the custom request stands in the batch, the grid run
        // answers it: one simulation, counted once in the grid telemetry.
        let wl = workload(2, WorkloadClass::Mix);
        let key = RunKey::workload(Arch::Baseline, &wl, PolicyKind::DWarn);
        let builds = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = std::sync::Arc::clone(&builds);
        let custom = CustomRun::new(SimConfig::baseline(), &wl, "DWARN", move || {
            counter.fetch_add(1, Ordering::Relaxed);
            PolicyKind::DWarn.build()
        });
        let c = quick_campaign();
        c.prefetch([Request::Custom(&custom), Request::Grid(&key)]);
        assert_eq!(builds.load(Ordering::Relaxed), 0);
        assert_eq!(c.telemetry_counters(), (0, 1, 0));
        let r = c.run_custom(
            &custom.cfg,
            &custom.specs,
            &custom.policy_desc,
            &custom.build,
        );
        assert_eq!(builds.load(Ordering::Relaxed), 0);
        assert_eq!(r.digest(), c.result(&key).digest());
    }

    #[test]
    fn fragment_replay_needs_a_share_of_three_cores() {
        // (parallelism, pool width) → replay workers. A run's share is
        // parallelism / width; replay engages only from a share of 3, and
        // then its workers take the whole share.
        let table = [
            ((1, 1), None),
            ((2, 1), None),
            ((6, 3), None),
            ((3, 1), Some(3)),
            ((4, 1), Some(4)),
            ((8, 2), Some(4)),
            ((9, 3), Some(3)),
        ];
        for ((parallelism, width), want) in table {
            assert_eq!(
                replay_workers(parallelism, width),
                want,
                "parallelism {parallelism}, pool width {width}"
            );
        }
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_and_defaults_when_unset() {
        assert_eq!(parse_jobs(Some("4")), Ok(4));
        assert_eq!(parse_jobs(Some(" 2 ")), Ok(2)); // surrounding whitespace ok
        assert!(parse_jobs(None).is_ok_and(|n| n >= 1)); // unset -> core count
    }

    #[test]
    fn parse_jobs_rejects_zero() {
        assert!(matches!(
            parse_jobs(Some("0")),
            Err(ConfigError::InvalidJobs { got }) if got == "0"
        ));
    }

    #[test]
    fn parse_jobs_rejects_empty() {
        assert!(matches!(
            parse_jobs(Some("")),
            Err(ConfigError::InvalidJobs { .. })
        ));
    }

    #[test]
    fn parse_jobs_rejects_non_numeric() {
        assert!(matches!(
            parse_jobs(Some("many")),
            Err(ConfigError::InvalidJobs { got }) if got == "many"
        ));
        assert!(parse_jobs(Some("-3")).is_err());
        assert!(parse_jobs(Some("2.5")).is_err());
    }
}
