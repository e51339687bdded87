//! Every call the benchmark makes into the repository's crates.
//!
//! The rest of the benchmark names only the items defined or re-exported
//! here. The simulator's construction and run surface is expected to
//! shrink to one builder and one run loop; when it does, this file is the
//! only one that has to follow.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use dwarn_core::PolicyKind;
use smt_experiments::grid::{GridData, Metric};
use smt_experiments::{suite, CheckpointStore, DiskCache, ExpParams, Journal};
use smt_obs::{IntervalConfig, IntervalProbe, IntervalSeries};
use smt_pipeline::{
    CheckpointOpts, FetchPolicy, FragmentOpts, PolicyView, RecordingSanitizer, RunOutcome,
    SimConfig, Simulator, ThreadSpec, Watchdog,
};
use smt_trace::{OpClass, ThreadTrace};
use smt_uarch::MemHierarchy;
use smt_workloads::WorkloadClass;

pub use smt_experiments::Campaign;
pub use smt_pipeline::{MachineSnapshot, SimResult, ThreadView};

/// The trace seed the repository's golden digests pin.
pub const DEFAULT_SEED: u64 = smt_workloads::TRACE_SEED;
/// Cycles between periodic snapshots: the CLI's `--checkpoint-interval`
/// default.
pub const CHECKPOINT_INTERVAL: u64 = 20_000;
/// The CLI's `--interval-window` default.
pub const INTERVAL_WINDOW: u64 = 1024;
/// Fragment length for `--fragments`: eight fragments per standard run.
pub const FRAGMENT_CYCLES: u64 = 10_000;

/// Simulation window of a campaign: the CLI's `--quick` or its default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    Quick,
    Standard,
}

impl Window {
    fn params(self) -> ExpParams {
        match self {
            Window::Quick => ExpParams::quick(),
            Window::Standard => ExpParams::standard(),
        }
    }

    /// Warmup plus measured cycles of one run.
    pub fn cycles(self) -> u64 {
        let p = self.params();
        p.warmup + p.measure
    }
}

/// Workload class (Table 2(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Ilp,
    Mix,
    Mem,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Ilp, Class::Mix, Class::Mem];

    fn workload_class(self) -> WorkloadClass {
        match self {
            Class::Ilp => WorkloadClass::Ilp,
            Class::Mix => WorkloadClass::Mix,
            Class::Mem => WorkloadClass::Mem,
        }
    }
}

/// The paper's three processor configurations.
pub use smt_experiments::Arch;

/// A fetch policy by its CLI name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy(PolicyKind);

impl Policy {
    pub fn parse(name: &str) -> Option<Policy> {
        PolicyKind::parse(name).map(Policy)
    }

    pub fn name(self) -> &'static str {
        self.0.name()
    }

    /// IC, STALL, FLUSH, DG, PDG, DWarn in the paper's figure order.
    pub fn paper_set() -> Vec<Policy> {
        PolicyKind::paper_set().into_iter().map(Policy).collect()
    }

    /// A fresh policy object behind `Box<dyn FetchPolicy>`, the dispatch
    /// `try_run_custom` uses.
    pub fn instantiate(self) -> PolicyBox {
        PolicyBox(self.0.build())
    }
}

/// One simulation: a Table 2(b) workload whose every thread uses `seed`
/// as its trace seed, under one policy, on one machine.
#[derive(Debug, Clone)]
pub struct Request {
    pub arch: Arch,
    pub workload: String,
    pub class: Class,
    pub policy: Policy,
    pub window: Window,
    cfg: SimConfig,
    specs: Vec<ThreadSpec>,
}

impl Request {
    pub fn new(
        arch: Arch,
        threads: usize,
        class: Class,
        policy: Policy,
        seed: u64,
        window: Window,
    ) -> Request {
        let wl = smt_workloads::workload(threads, class.workload_class());
        let mut specs = wl.thread_specs();
        for s in &mut specs {
            s.seed = seed;
        }
        Request {
            arch,
            workload: wl.name,
            class,
            policy,
            window,
            cfg: arch.config(),
            specs,
        }
    }

    /// Every (workload, policy) cell of the grid `arch`'s figure runs at
    /// the default seed: the 2- and 4-thread workloads on the small
    /// machine, all twelve elsewhere.
    pub fn grid(arch: Arch, window: Window) -> Vec<Request> {
        let threads: &[usize] = match arch {
            Arch::Small => &[2, 4],
            _ => &[2, 4, 6, 8],
        };
        let mut out = Vec::new();
        for &t in threads {
            for class in Class::ALL {
                for p in Policy::paper_set() {
                    out.push(Request::new(arch, t, class, p, DEFAULT_SEED, window));
                }
            }
        }
        out
    }

    /// `"<workload>/<policy>"` (prefixed by the machine off the
    /// baseline), the key goldens are stored under.
    pub fn label(&self) -> String {
        match self.arch {
            Arch::Baseline => format!("{}/{}", self.workload, self.policy.name()),
            a => format!("{}/{}/{}", a.as_str(), self.workload, self.policy.name()),
        }
    }

    pub fn threads(&self) -> usize {
        self.specs.len()
    }

    /// The policy description `try_run_custom` is given. It names the
    /// workload too: the campaign names a custom run's interval files by
    /// this description alone, so requests sharing a policy would
    /// otherwise overwrite each other's series.
    fn desc(&self) -> String {
        format!("{}@{}", self.policy.0.cache_desc(), self.workload)
    }

    fn build_policy(&self) -> Box<dyn FetchPolicy> {
        self.policy.0.build()
    }
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// `smt-experiments all --quick --cache-dir <dir>`'s campaign.
pub fn paper_campaign(cache_dir: &Path) -> io::Result<Campaign> {
    let mut c = Campaign::try_new(Window::Quick.params()).map_err(io_err)?;
    c.attach_disk_cache(cache_dir)?;
    Ok(c)
}

/// The campaign of `--intervals <dir> --sanitize --fragments <n>`.
pub fn probed_campaign(intervals_dir: &Path, window: Window) -> io::Result<Campaign> {
    let mut c = Campaign::try_new(window.params()).map_err(io_err)?;
    c.set_sanitize(true);
    c.set_intervals(intervals_dir, INTERVAL_WINDOW)?;
    c.set_fragments(FRAGMENT_CYCLES);
    Ok(c)
}

/// The experiments `smt-experiments all` runs: `suite::ALL` without
/// `meta`, in order.
pub fn paper_suite() -> Vec<&'static str> {
    suite::ALL
        .iter()
        .map(|&(name, _)| name)
        .filter(|&name| name != "meta")
        .collect()
}

/// Render one suite entry behind the same panic boundary the CLI uses.
pub fn run_experiment(c: &Campaign, name: &str) -> Result<String, String> {
    let f = suite::lookup(name).ok_or_else(|| format!("unknown experiment {name}"))?;
    smt_experiments::error::protect(name, || Ok(f(c))).map_err(|e| e.to_string())
}

/// How many interval series (`*.intervals.jsonl`, one per run) a
/// `--intervals` campaign wrote under `dir`.
pub fn interval_series(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| {
        d.filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .ends_with(".intervals.jsonl")
            })
            .count()
    })
}

/// The campaign's cache-layer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub disk_hits: u64,
    pub sim_runs: u64,
    pub coalesced: u64,
}

pub fn counters(c: &Campaign) -> Counters {
    let (disk_hits, sim_runs, coalesced) = c.telemetry_counters();
    Counters {
        disk_hits,
        sim_runs,
        coalesced,
    }
}

/// Failures the campaign recorded (typed errors, panics, I/O).
pub fn failure_count(c: &Campaign) -> usize {
    c.failures().len()
}

/// Entries in the result cache under `dir`.
pub fn cache_entries(dir: &Path) -> io::Result<usize> {
    Ok(DiskCache::open(dir)?.stats()?.entries)
}

/// Every entry of the result cache under `dir`: the run description it
/// is stored under, read from the entry, and its result.
pub fn cache_contents(dir: &Path) -> io::Result<Vec<(String, SimResult)>> {
    let cache = DiskCache::open(dir)?;
    let mut out = Vec::new();
    for e in std::fs::read_dir(dir)? {
        let text = std::fs::read_to_string(e?.path()).unwrap_or_default();
        let Some(key) = text.lines().find_map(|l| l.strip_prefix("key ")) else {
            continue;
        };
        if let Some(r) = cache.load_checked(key).map_err(io_err)? {
            out.push((key.to_string(), r));
        }
    }
    Ok(out)
}

/// Store `r` under `key` in the result cache under `dir`.
pub fn cache_store(dir: &Path, key: &str, r: &SimResult) -> io::Result<()> {
    DiskCache::open(dir)?.store(key, r)
}

/// Issue one request through `Campaign::try_run_custom`, the campaign's
/// entry point for seeded and custom runs. The campaign's window applies,
/// not the request's.
pub fn issue(c: &Campaign, req: &Request) -> Result<SimResult, String> {
    c.try_run_custom(&req.cfg, &req.specs, &req.desc(), || req.build_policy())
        .map_err(|e| e.to_string())
}

/// The digest a campaign holds for a grid request (from its memo or disk
/// cache; the campaign simulates it if it has neither).
pub fn campaign_digest(c: &Campaign, req: &Request) -> Result<u64, String> {
    let key = smt_experiments::RunKey {
        arch: req.arch,
        workload: req.workload.clone(),
        policy: req.policy.0,
    };
    c.try_result(&key)
        .map(|r| r.digest())
        .map_err(|e| e.to_string())
}

/// Mean absolute gap (percentage points) between the simulated Fig. 1(b)
/// DWarn throughput gains and the 13 values the paper quotes, read from
/// the campaign's memo of the baseline grid.
pub fn fig1b_gap_pp(c: &Campaign) -> f64 {
    fig1b_gap(&smt_experiments::figures::baseline_grid(c), None)
}

/// DWarn and every baseline the paper quotes a Fig. 1(b) gain over for
/// `class`.
pub fn fig1b_policies(class: Class) -> Vec<Policy> {
    let mut out = vec![Policy(PolicyKind::DWarn)];
    for row in smt_experiments::paper::FIG1B_THROUGHPUT {
        let quoted = match class {
            Class::Ilp => row.ilp,
            Class::Mix => row.mix,
            Class::Mem => row.mem,
        };
        if let (Some(_), Some(p)) = (quoted, Policy::parse(row.policy)) {
            out.push(p);
        }
    }
    out
}

/// As [`fig1b_gap_pp`], from the grid `results` make up, over the values
/// quoted for `class` against the baselines the results cover. Each such
/// baseline, and DWarn, must have a result on every workload the results
/// cover.
pub fn fig1b_class_gap_pp(class: Class, results: &[(Request, SimResult)]) -> f64 {
    let mut workloads: Vec<smt_workloads::Workload> = Vec::new();
    let mut throughput = HashMap::new();
    for (req, r) in results {
        if !workloads.iter().any(|w| w.name == req.workload) {
            workloads.push(smt_workloads::workload(
                req.threads(),
                class.workload_class(),
            ));
        }
        throughput.insert((req.workload.clone(), req.policy.0), r.throughput());
    }
    let grid = GridData {
        arch: Arch::Baseline,
        workloads,
        throughput,
        hmean: HashMap::new(),
    };
    fig1b_gap(&grid, Some(class.workload_class()))
}

/// Mean absolute gap between `grid`'s DWarn throughput gains, as the
/// program's Fig. 1(b) report computes them, and the gains the paper
/// quotes over the baselines the grid covers: all of them, or those of
/// one class.
fn fig1b_gap(grid: &GridData, only: Option<WorkloadClass>) -> f64 {
    let covered = |base: PolicyKind| grid.throughput.keys().any(|(_, p)| *p == base);
    let mut gaps = Vec::new();
    for row in smt_experiments::paper::FIG1B_THROUGHPUT {
        let Some(base) = PolicyKind::parse(row.policy).filter(|&b| covered(b)) else {
            continue;
        };
        let classes = [
            (row.ilp, WorkloadClass::Ilp),
            (row.mix, WorkloadClass::Mix),
            (row.mem, WorkloadClass::Mem),
        ];
        for (paper, class) in classes {
            if let (Some(p), true) = (paper, only.is_none_or(|c| c == class)) {
                gaps.push((grid.class_avg_improvement(Metric::Throughput, class, base) - p).abs());
            }
        }
        if let (Some(p), None) = (row.avg, only) {
            gaps.push((grid.avg_improvement(Metric::Throughput, base) - p).abs());
        }
    }
    gaps.iter().sum::<f64>() / gaps.len() as f64
}

/// The reference result of `req` on the plain path: quiescence skipping
/// off, no observers, one sequential run.
pub fn plain_reference(req: &Request) -> Result<SimResult, String> {
    let mut sim = build(req)?;
    sim.0.set_skip_enabled(false);
    let p = req.window.params();
    sim.0
        .try_run(p.warmup, p.measure, &Watchdog::default())
        .map_err(|e| e.to_string())
}

/// A plain simulator with dynamic policy dispatch.
pub struct Sim(Simulator);

/// Build the simulator for `req`: program synthesis plus cache and TLB
/// prewarm.
pub fn build(req: &Request) -> Result<Sim, String> {
    Simulator::try_new(req.cfg.clone(), req.build_policy(), &req.specs)
        .map(Sim)
        .map_err(|e| e.to_string())
}

impl Sim {
    /// Run `req`'s window, handing a snapshot to `sink` every `interval`
    /// cycles, as a `--resume` campaign's run loop does.
    pub fn run_checkpointed(
        &mut self,
        req: &Request,
        interval: u64,
        sink: &mut dyn FnMut(&MachineSnapshot),
    ) -> Result<SimResult, String> {
        let p = req.window.params();
        let mut opts = CheckpointOpts {
            interval,
            sink,
            stop: None,
        };
        match self
            .0
            .try_run_checkpointed(p.warmup, p.measure, &Watchdog::default(), &mut opts)
        {
            Ok(RunOutcome::Completed(r)) => Ok(r),
            Ok(RunOutcome::Interrupted(_)) => Err("run interrupted".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Restore the run-carrying checkpoint `snap` and run it to the end
    /// of its window.
    pub fn resume_from(&mut self, snap: &MachineSnapshot) -> Result<SimResult, String> {
        let pending = self.0.restore_run(snap).map_err(|e| e.to_string())?;
        let mut sink = |_: &MachineSnapshot| {};
        let mut opts = CheckpointOpts {
            interval: 0,
            sink: &mut sink,
            stop: None,
        };
        match self.0.resume_run(pending, &Watchdog::default(), &mut opts) {
            Ok(RunOutcome::Completed(r)) => Ok(r),
            Ok(RunOutcome::Interrupted(_)) => Err("run interrupted".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Quiescence-skip accounting: `(skipped_cycles, skip_spans)`.
    pub fn skip_stats(&self) -> (u64, u64) {
        (self.0.skipped_cycles(), self.0.skip_spans())
    }

    /// Instructions the trace streams emitted, over all threads.
    pub fn trace_emitted(&self) -> u64 {
        (0..self.0.num_threads())
            .map(|t| self.0.trace_emitted(t))
            .sum()
    }

    /// Committed instructions since cycle 0.
    pub fn committed(&self) -> u64 {
        self.0.total_committed()
    }

    /// Policy switches the (meta-)policy logged.
    pub fn policy_switches(&self) -> u64 {
        self.0.policy().switch_log().len() as u64
    }

    pub fn capture(&self) -> MachineSnapshot {
        self.0.snapshot()
    }

    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<(), String> {
        self.0.restore(snap).map_err(|e| e.to_string())
    }

    /// One naive cycle.
    pub fn step(&mut self) {
        self.0.step();
    }

    /// The per-thread view the fetch policy sees this cycle.
    pub fn policy_view(&self) -> Vec<ThreadView> {
        let cap = self.0.config().fetch_queue as usize;
        self.0
            .progress_snapshot()
            .threads
            .iter()
            .map(|t| ThreadView {
                icount: t.icount,
                dmiss_count: t.dmiss,
                declared_l2: t.declared,
                fetch_blocked: t.fetch_queue >= cap,
            })
            .collect()
    }
}

/// A result's order- and content-exact digest.
pub fn digest(r: &SimResult) -> u64 {
    r.digest()
}

pub fn encode(snap: &MachineSnapshot) -> Vec<u8> {
    snap.to_bytes()
}

pub fn decode(bytes: &[u8]) -> Result<MachineSnapshot, String> {
    MachineSnapshot::from_bytes(bytes).map_err(|e| e.to_string())
}

pub fn snapshot_digest(snap: &MachineSnapshot) -> u64 {
    snap.digest()
}

/// Machine-level statistics of a result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Machine {
    pub throughput: f64,
    pub fetched: u64,
    pub wrong_path: u64,
    pub flush_squashed: u64,
    pub loads: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub tlb_misses: u64,
}

pub fn machine(r: &SimResult) -> Machine {
    Machine {
        throughput: r.throughput(),
        fetched: r.total_fetched(),
        wrong_path: r.total_wrong_path_fetched(),
        flush_squashed: r.total_flush_squashed(),
        loads: r.mem.iter().map(|m| m.loads).sum(),
        l1_misses: r.mem.iter().map(|m| m.l1_misses).sum(),
        l2_misses: r.mem.iter().map(|m| m.l2_misses).sum(),
        tlb_misses: r.mem.iter().map(|m| m.tlb_misses).sum(),
    }
}

/// Which observers a sequential run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    Plain,
    Sanitized,
    Probed,
    ProbedSanitized,
}

/// One sequential run of `req` with the given observers. Returns the
/// result, the host seconds of the run alone (construction excluded), the
/// interval series when probed, and the sanitizer's violation count.
pub fn run_observed(
    req: &Request,
    obs: Observers,
) -> Result<(SimResult, f64, Option<IntervalSeries>, u64), String> {
    let p = req.window.params();
    let wd = Watchdog::default();
    let probe = || {
        IntervalProbe::new(IntervalConfig {
            window: INTERVAL_WINDOW,
        })
    };
    let e = |e: smt_pipeline::ConfigError| e.to_string();
    let r = |e: smt_pipeline::SimError| e.to_string();
    let policy = req.build_policy();
    match obs {
        Observers::Plain => {
            let mut sim = Simulator::try_new(req.cfg.clone(), policy, &req.specs).map_err(e)?;
            let t = std::time::Instant::now();
            let res = sim.try_run(p.warmup, p.measure, &wd).map_err(r)?;
            Ok((res, t.elapsed().as_secs_f64(), None, 0))
        }
        Observers::Sanitized => {
            let mut sim = Simulator::try_sanitized(
                req.cfg.clone(),
                policy,
                &req.specs,
                RecordingSanitizer::new(),
            )
            .map_err(e)?;
            let t = std::time::Instant::now();
            let res = sim.try_run(p.warmup, p.measure, &wd).map_err(r)?;
            let secs = t.elapsed().as_secs_f64();
            Ok((res, secs, None, sim.sanitizer().total()))
        }
        Observers::Probed => {
            let mut sim = Simulator::try_with_probe(req.cfg.clone(), policy, &req.specs, probe())
                .map_err(e)?;
            let t = std::time::Instant::now();
            let res = sim.try_run(p.warmup, p.measure, &wd).map_err(r)?;
            let secs = t.elapsed().as_secs_f64();
            Ok((res, secs, Some(sim.into_probe().into_series()), 0))
        }
        Observers::ProbedSanitized => {
            let mut sim = Simulator::try_with_specs(
                req.cfg.clone(),
                policy,
                &req.specs,
                probe(),
                RecordingSanitizer::new(),
            )
            .map_err(e)?;
            let t = std::time::Instant::now();
            let res = sim.try_run(p.warmup, p.measure, &wd).map_err(r)?;
            let secs = t.elapsed().as_secs_f64();
            let violations = sim.sanitizer().total();
            Ok((res, secs, Some(sim.into_probe().into_series()), violations))
        }
    }
}

/// What a fragmented run reports.
#[derive(Debug)]
pub struct Fragmented {
    pub result: SimResult,
    pub secs: f64,
    pub fragments: u64,
    pub snapshot_bytes: u64,
    pub violations: u64,
}

/// `req` under probe and sanitizer through `try_run_fragmented` with
/// `jobs` replay workers, as a `--fragments` campaign runs it.
pub fn run_fragmented(req: &Request, jobs: usize) -> Result<Fragmented, String> {
    let p = req.window.params();
    let mut scout = Simulator::try_new(req.cfg.clone(), req.build_policy(), &req.specs)
        .map_err(|e| e.to_string())?;
    let factory = || {
        let probe = IntervalProbe::new(IntervalConfig {
            window: INTERVAL_WINDOW,
        });
        Ok(Simulator::try_with_specs(
            req.cfg.clone(),
            req.build_policy(),
            &req.specs,
            probe,
            RecordingSanitizer::new(),
        )?)
    };
    let opts = FragmentOpts {
        jobs,
        fragment_cycles: FRAGMENT_CYCLES,
    };
    let t = std::time::Instant::now();
    let report = scout
        .try_run_fragmented(p.warmup, p.measure, &Watchdog::default(), &opts, &factory)
        .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let violations = report.fragments.iter().map(|f| f.sanitizer.total()).sum();
    Ok(Fragmented {
        fragments: report.fragments.len() as u64,
        snapshot_bytes: report.snapshot_bytes,
        result: report.result,
        secs,
        violations,
    })
}

/// The two interval exports a `--intervals` campaign writes per run:
/// `(jsonl, counter_trace)`.
pub fn export_intervals(req: &Request, series: &IntervalSeries) -> (String, String) {
    let names: Vec<String> = req
        .specs
        .iter()
        .map(|s| s.profile.name.to_string())
        .collect();
    (series.to_jsonl(&names), series.counter_trace(&names))
}

/// The durable stores a campaign writes: result cache, checkpoint store
/// and resume journal.
pub struct Stores {
    cache: DiskCache,
    ckpt: CheckpointStore,
    journal: Journal,
}

impl Stores {
    pub fn open(dir: &Path) -> io::Result<Stores> {
        Ok(Stores {
            cache: DiskCache::open(&dir.join("results"))?,
            ckpt: CheckpointStore::open(&dir.join("checkpoints"))?,
            journal: Journal::open(&dir.join("journal.jsonl"))?,
        })
    }

    /// Store a result (fsynced); returns the entry's size in bytes.
    pub fn store_result(&self, key: &str, r: &SimResult) -> io::Result<u64> {
        self.cache.store(key, r)?;
        Ok(std::fs::metadata(self.result_path(key))?.len())
    }

    /// The file the result stored under `key` lives in.
    pub fn result_path(&self, key: &str) -> PathBuf {
        self.cache.entry_path(key)
    }

    pub fn load_result(&self, key: &str) -> Result<Option<SimResult>, String> {
        self.cache.load_checked(key).map_err(|e| e.to_string())
    }

    /// Store a checkpoint (fsynced); returns the entry's size in bytes.
    pub fn store_checkpoint(&self, key: &str, snap: &MachineSnapshot) -> io::Result<u64> {
        self.ckpt.store(key, snap)?;
        Ok(std::fs::metadata(self.checkpoint_path(key))?.len())
    }

    /// The file the checkpoint stored under `key` lives in.
    pub fn checkpoint_path(&self, key: &str) -> PathBuf {
        self.ckpt.path_for(key)
    }

    pub fn load_checkpoint(&self, key: &str) -> Result<Option<MachineSnapshot>, String> {
        self.ckpt.load_checked(key).map_err(|e| e.to_string())
    }

    /// Append one fsynced `completed` line to the journal.
    pub fn journal_completed(&mut self, what: &str, digest: u64) -> io::Result<()> {
        self.journal.note_completed(what, digest, "sim")
    }
}

/// A fetch policy object for timing `fetch_order_into` directly.
pub struct PolicyBox(Box<dyn FetchPolicy>);

impl PolicyBox {
    pub fn order(&mut self, cycle: u64, view: &[ThreadView], out: &mut Vec<usize>) {
        let v = PolicyView {
            cycle,
            threads: view,
        };
        self.0.fetch_order_into(&v, out);
    }
}

/// Thread 0's instruction stream of `req`, as its front-end builds it.
pub struct Stream(ThreadTrace);

impl Stream {
    pub fn new(req: &Request) -> Stream {
        let s = &req.specs[0];
        Stream(ThreadTrace::new(
            &s.profile,
            s.seed,
            Simulator::thread_addr_base(0),
            s.skip,
        ))
    }

    /// Next instruction's load address, if it is a load.
    pub fn next_load(&mut self) -> Option<u64> {
        let i = self.0.next_inst();
        (i.class == OpClass::Load).then_some(i.mem_addr).flatten()
    }
}

/// `req`'s memory hierarchy, prewarmed for thread 0 the way the simulator
/// prewarms every context.
pub struct Hierarchy(MemHierarchy);

impl Hierarchy {
    pub fn new(req: &Request) -> Hierarchy {
        let c = &req.cfg;
        let mut h = MemHierarchy::new(c.l1i, c.l1d, c.l2, c.tlb, c.timing, req.threads());
        let s = &req.specs[0];
        let base = Simulator::thread_addr_base(0);
        let trace = ThreadTrace::new(&s.profile, s.seed, base, 0);
        let (hs, hb) = smt_trace::stream::hot_region(base);
        h.prewarm_l1d(hs, hb);
        h.prewarm_l2(base, trace.program().code_bytes());
        h.prewarm_dtlb(0, hs, hb);
        for line in smt_trace::stream::warm_lines(base, &s.profile) {
            h.prewarm_l2(line, 1);
            h.prewarm_dtlb(0, line, 1);
        }
        Hierarchy(h)
    }

    /// One thread-0 load issued at `now`; returns the cycle its data is
    /// available.
    pub fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.0.load(0, addr, now, false).complete_at
    }
}
