//! Deterministic fault-injection ("chaos") harness.
//!
//! The harness drives the same campaign machinery the real experiments use
//! while injecting faults drawn from a seeded [`smt_trace::Rng`]: corrupted
//! / torn disk-cache entries, crash-mid-store leftovers, damaged resume
//! checkpoints (truncated, bit-flipped, version-skewed, stale-generation),
//! invalid configurations, panicking fetch policies, and bad user input.
//! Every fault must resolve to either a **correct result** (the fault was
//! absorbed and the golden digest still matches) or a **typed error**
//! recorded as a failure artifact — never a hang, an escaped panic, or a
//! silently wrong number. Anything else is a [`Outcome::Violation`], and
//! the CLI maps a violating report to
//! [`crate::error::Exit::ChaosViolation`].
//!
//! Determinism: the fault plan is a pure function of the seed, so
//! `chaos --seed 1 --faults 32` replays bit-identically — a violation found
//! in CI reproduces locally from the seed alone.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "the chaos harness throws panics at the campaign's isolation boundary on purpose"
)]

use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use dwarn_core::PolicyKind;
use smt_pipeline::{
    CheckpointOpts, FetchPolicy, MachineSnapshot, PolicyView, RunOutcome, SimConfig, Simulator,
    Watchdog,
};
use smt_trace::Rng;
use smt_workloads::WorkloadClass;

use crate::checkpoint::CheckpointStore;
use crate::error::ExpError;
use crate::runner::{specs_for, Arch, Campaign, ExpParams, RunKey};

/// Options for a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Seed for the fault plan (and everything derived from it).
    pub seed: u64,
    /// Number of faults to inject.
    pub faults: usize,
    /// Short simulation windows (CI smoke); full windows otherwise.
    pub quick: bool,
    /// Run every simulation with the quiescence-skipping engine disabled
    /// (the naive per-cycle loop). Results are bit-identical either way,
    /// so goldens recorded by a skipping run verify under `--no-skip` and
    /// vice versa; this exercises the fault surfaces on the escape-hatch
    /// path.
    pub no_skip: bool,
    /// Directory for the scratch disk cache. Defaults to a per-seed,
    /// per-process directory under the system temp dir.
    pub dir: Option<PathBuf>,
}

impl ChaosOpts {
    pub fn new(seed: u64, faults: usize) -> ChaosOpts {
        ChaosOpts {
            seed,
            faults,
            quick: false,
            no_skip: false,
            dir: None,
        }
    }
}

/// The fault kinds the plan draws from, spanning every injection surface
/// the acceptance criteria name: disk-cache entries, configurations, and
/// resume checkpoints (plus panic and usage faults for the isolation and
/// typed-input paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Truncate a cache entry mid-file.
    CacheTruncate,
    /// Replace a cache entry with random garbage.
    CacheGarbage,
    /// Flip one random bit of a cache entry.
    CacheBitFlip,
    /// Simulate a crash mid-store: a torn final file plus an orphaned
    /// temp file from a dead process.
    CachePartialStore,
    /// A configuration with no fetch bandwidth.
    ConfigZeroFetch,
    /// More threads than the register file can host.
    ConfigTooManyThreads,
    /// A simulation with no threads at all.
    ConfigNoThreads,
    /// A fetch policy that panics mid-run.
    PolicyPanic,
    /// A run key with an invented workload class.
    BadWorkloadClass,
    /// Truncate a resume checkpoint mid-file.
    CkptTruncate,
    /// Flip one random bit of a resume checkpoint.
    CkptBitFlip,
    /// Rewrite a resume checkpoint's format version field.
    CkptVersionSkew,
    /// Plant a checkpoint recorded under a *different* run description on
    /// this run's path (hash collision / code-generation skew).
    CkptStaleGeneration,
}

const ALL_KINDS: [FaultKind; 13] = [
    FaultKind::CacheTruncate,
    FaultKind::CacheGarbage,
    FaultKind::CacheBitFlip,
    FaultKind::CachePartialStore,
    FaultKind::ConfigZeroFetch,
    FaultKind::ConfigTooManyThreads,
    FaultKind::ConfigNoThreads,
    FaultKind::PolicyPanic,
    FaultKind::BadWorkloadClass,
    FaultKind::CkptTruncate,
    FaultKind::CkptBitFlip,
    FaultKind::CkptVersionSkew,
    FaultKind::CkptStaleGeneration,
];

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::CacheTruncate => "cache-truncate",
            FaultKind::CacheGarbage => "cache-garbage",
            FaultKind::CacheBitFlip => "cache-bitflip",
            FaultKind::CachePartialStore => "cache-partial-store",
            FaultKind::ConfigZeroFetch => "config-zero-fetch",
            FaultKind::ConfigTooManyThreads => "config-too-many-threads",
            FaultKind::ConfigNoThreads => "config-no-threads",
            FaultKind::PolicyPanic => "policy-panic",
            FaultKind::BadWorkloadClass => "bad-workload-class",
            FaultKind::CkptTruncate => "ckpt-truncate",
            FaultKind::CkptBitFlip => "ckpt-bitflip",
            FaultKind::CkptVersionSkew => "ckpt-version-skew",
            FaultKind::CkptStaleGeneration => "ckpt-stale-generation",
        }
    }

    /// Injection surface, for the report and the coverage assertion.
    fn surface(self) -> &'static str {
        match self {
            FaultKind::CacheTruncate
            | FaultKind::CacheGarbage
            | FaultKind::CacheBitFlip
            | FaultKind::CachePartialStore => "cache",
            FaultKind::ConfigZeroFetch
            | FaultKind::ConfigTooManyThreads
            | FaultKind::ConfigNoThreads => "config",
            FaultKind::PolicyPanic => "policy",
            FaultKind::BadWorkloadClass => "input",
            FaultKind::CkptTruncate
            | FaultKind::CkptBitFlip
            | FaultKind::CkptVersionSkew
            | FaultKind::CkptStaleGeneration => "checkpoint",
        }
    }
}

/// How one injected fault resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The fault surfaced as a typed error (possibly after panic capture
    /// at the isolation boundary).
    TypedError { kind: &'static str, detail: String },
    /// The fault was absorbed: the run completed and reproduced its
    /// golden digest bit-for-bit.
    Recovered { detail: String },
    /// Robustness violation: an escaped panic, a hang, a wrong digest, or
    /// a fault that went entirely unnoticed where it must not.
    Violation { detail: String },
}

impl Outcome {
    fn class(&self) -> &'static str {
        match self {
            Outcome::TypedError { .. } => "typed-error",
            Outcome::Recovered { .. } => "recovered",
            Outcome::Violation { .. } => "VIOLATION",
        }
    }

    fn detail(&self) -> String {
        match self {
            Outcome::TypedError { kind, detail } => format!("[{kind}] {detail}"),
            Outcome::Recovered { detail } | Outcome::Violation { detail } => detail.clone(),
        }
    }
}

/// One injected fault and its resolution.
#[derive(Debug, Clone)]
pub struct FaultReport {
    pub index: usize,
    pub fault: &'static str,
    pub surface: &'static str,
    pub outcome: Outcome,
}

/// The full result of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    pub seed: u64,
    pub faults: Vec<FaultReport>,
    /// Did every golden key reproduce its pre-chaos digest afterwards?
    pub goldens_ok: bool,
    /// Number of golden keys verified.
    pub golden_runs: usize,
}

impl ChaosReport {
    /// Outcomes that violate the robustness contract (including a failed
    /// final golden verification).
    pub fn violations(&self) -> usize {
        let in_faults = self
            .faults
            .iter()
            .filter(|f| matches!(f.outcome, Outcome::Violation { .. }))
            .count();
        in_faults + usize::from(!self.goldens_ok)
    }

    /// Render the per-fault table plus a one-line verdict.
    pub fn render(&self) -> String {
        let mut t =
            smt_metrics::table::TextTable::new(vec!["#", "fault", "surface", "outcome", "detail"]);
        for f in &self.faults {
            let mut detail = f.outcome.detail().replace('\n', " | ");
            if detail.len() > 96 {
                detail.truncate(93);
                detail.push_str("...");
            }
            t.row(vec![
                f.index.to_string(),
                f.fault.to_string(),
                f.surface.to_string(),
                f.outcome.class().to_string(),
                detail,
            ]);
        }
        let typed = self
            .faults
            .iter()
            .filter(|f| matches!(f.outcome, Outcome::TypedError { .. }))
            .count();
        let recovered = self
            .faults
            .iter()
            .filter(|f| matches!(f.outcome, Outcome::Recovered { .. }))
            .count();
        format!(
            "chaos seed={} faults={}\n\n{}\n{} typed error(s), {} recovered, \
             {} violation(s); goldens {} ({} run(s))\n",
            self.seed,
            self.faults.len(),
            t.render(),
            typed,
            recovered,
            self.violations(),
            if self.goldens_ok {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            self.golden_runs,
        )
    }
}

/// Panics are expected under chaos (that is the point); silence the default
/// hook while a run is active so test and CLI output stays readable, and
/// serialize runs so concurrent tests do not fight over the process-global
/// hook.
static HOOK_GUARD: Mutex<()> = Mutex::new(());

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

struct QuietPanics<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
    prev: Option<PanicHook>,
}

impl QuietPanics<'_> {
    fn engage() -> QuietPanics<'static> {
        let lock = HOOK_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics {
            _lock: lock,
            prev: Some(prev),
        }
    }
}

impl Drop for QuietPanics<'_> {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// The golden grid: small enough to re-simulate many times, wide enough to
/// exercise solo and SMT paths and three policies.
fn golden_keys() -> Vec<RunKey> {
    let two_mix = smt_workloads::workload(2, WorkloadClass::Mix);
    let two_mem = smt_workloads::workload(2, WorkloadClass::Mem);
    vec![
        RunKey::workload(Arch::Baseline, &two_mix, PolicyKind::Icount),
        RunKey::workload(Arch::Baseline, &two_mix, PolicyKind::DWarn),
        RunKey::workload(Arch::Baseline, &two_mem, PolicyKind::Flush),
        RunKey::solo(Arch::Baseline, "mcf"),
    ]
}

fn params(quick: bool) -> ExpParams {
    if quick {
        ExpParams {
            warmup: 500,
            measure: 2_000,
        }
    } else {
        ExpParams {
            warmup: 1_500,
            measure: 4_500,
        }
    }
}

/// The watchdog every chaos simulation runs under: tight enough that a
/// hang surfaces as a typed error within seconds, loose enough that no
/// healthy quick-window run can trip it.
fn chaos_watchdog() -> Watchdog {
    Watchdog {
        no_commit_cycles: 10_000,
        max_cycles: 1_000_000,
        max_wall: Some(Duration::from_secs(60)),
    }
}

fn campaign(p: ExpParams, dir: &Path, no_skip: bool) -> Result<Campaign, ExpError> {
    let mut c = Campaign::with_disk_cache(p, dir).map_err(|e| ExpError::Io {
        context: format!("opening chaos cache {}", dir.display()),
        detail: e.to_string(),
    })?;
    c.set_watchdog(chaos_watchdog());
    c.set_skip(!no_skip);
    Ok(c)
}

/// Run the chaos harness: establish goldens, inject `opts.faults` faults,
/// classify each resolution, then re-verify every golden digest.
///
/// Returns `Err` only for harness-level failures (e.g. the scratch
/// directory cannot be created); injected faults — including violations —
/// are reported in the returned [`ChaosReport`].
pub fn run(opts: &ChaosOpts) -> Result<ChaosReport, ExpError> {
    let dir = opts.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("dwarn-chaos-{}-{}", opts.seed, std::process::id()))
    });
    let _ = fs::remove_dir_all(&dir);
    let io = |context: &str| {
        let context = context.to_string();
        move |e: std::io::Error| ExpError::Io {
            context,
            detail: e.to_string(),
        }
    };
    fs::create_dir_all(&dir).map_err(io("creating chaos scratch dir"))?;

    let _quiet = QuietPanics::engage();
    let p = params(opts.quick);
    let keys = golden_keys();

    // Phase 1: goldens. A fresh campaign populates the disk cache and
    // records the reference digest of every key.
    let baseline = campaign(p, &dir, opts.no_skip)?;
    let mut goldens = Vec::with_capacity(keys.len());
    for key in &keys {
        goldens.push(baseline.try_result(key)?.digest());
    }

    // Phase 2: the fault plan. Every decision below flows from this RNG,
    // so the whole run is a pure function of the seed. The first pass
    // cycles through every kind once (guaranteeing full coverage —
    // including the panic-isolation path — whenever `faults` >= 13);
    // after that, kinds are drawn at random.
    let mut rng = Rng::new(opts.seed ^ 0xC4A0_5EED);
    let mut reports = Vec::with_capacity(opts.faults);
    for index in 0..opts.faults {
        let kind = match ALL_KINDS.get(index) {
            Some(&k) => k,
            None => ALL_KINDS[rng.below(ALL_KINDS.len() as u64) as usize],
        };
        let outcome = inject(
            kind,
            &mut rng,
            &dir,
            p,
            &keys,
            &goldens,
            index,
            opts.no_skip,
        );
        reports.push(FaultReport {
            index,
            fault: kind.name(),
            surface: kind.surface(),
            outcome,
        });
    }

    // Phase 3: final golden verification. Whatever the faults did to the
    // cache, a fresh campaign must reproduce every golden bit-for-bit
    // (healing damaged entries by re-simulation where needed).
    let verify = campaign(p, &dir, opts.no_skip)?;
    let mut goldens_ok = true;
    for (key, &want) in keys.iter().zip(&goldens) {
        match verify.try_result(key) {
            Ok(r) if r.digest() == want => {}
            _ => goldens_ok = false,
        }
    }

    let report = ChaosReport {
        seed: opts.seed,
        faults: reports,
        goldens_ok,
        golden_runs: keys.len(),
    };
    if opts.dir.is_none() {
        let _ = fs::remove_dir_all(&dir);
    }
    Ok(report)
}

/// Inject one fault and classify its resolution.
#[expect(
    clippy::too_many_arguments,
    reason = "one fault needs the campaign, its scratch paths and the golden digests together"
)]
fn inject(
    kind: FaultKind,
    rng: &mut Rng,
    dir: &Path,
    p: ExpParams,
    keys: &[RunKey],
    goldens: &[u64],
    index: usize,
    no_skip: bool,
) -> Outcome {
    match kind {
        FaultKind::CacheTruncate
        | FaultKind::CacheGarbage
        | FaultKind::CacheBitFlip
        | FaultKind::CachePartialStore => cache_fault(kind, rng, dir, p, keys, goldens, no_skip),
        FaultKind::ConfigZeroFetch
        | FaultKind::ConfigTooManyThreads
        | FaultKind::ConfigNoThreads => config_fault(kind, dir, p, index, no_skip),
        FaultKind::PolicyPanic => policy_panic_fault(rng, dir, p, index, no_skip),
        FaultKind::BadWorkloadClass => bad_input_fault(rng, dir, p, no_skip),
        FaultKind::CkptTruncate
        | FaultKind::CkptBitFlip
        | FaultKind::CkptVersionSkew
        | FaultKind::CkptStaleGeneration => {
            ckpt_fault(kind, rng, dir, p, keys, goldens, index, no_skip)
        }
    }
}

// --- Cache faults ---------------------------------------------------------

fn cache_fault(
    kind: FaultKind,
    rng: &mut Rng,
    dir: &Path,
    p: ExpParams,
    keys: &[RunKey],
    goldens: &[u64],
    no_skip: bool,
) -> Outcome {
    let pick = rng.below(keys.len() as u64) as usize;
    let key = &keys[pick];
    let golden = goldens[pick];

    // Locate the on-disk entry through the campaign's own key derivation.
    let locate = campaign(p, dir, no_skip).and_then(|c| {
        let desc = c.describe(key)?;
        let disk = c.disk().expect("chaos campaign has a disk cache");
        Ok(disk.entry_path(&desc))
    });
    let path = match locate {
        Ok(x) => x,
        Err(e) => {
            return Outcome::Violation {
                detail: format!("could not locate cache entry: {e}"),
            }
        }
    };
    let original = match fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            return Outcome::Violation {
                detail: format!("golden cache entry unreadable before fault: {e}"),
            }
        }
    };

    let corrupt: Vec<u8> = match kind {
        FaultKind::CacheTruncate | FaultKind::CachePartialStore => {
            original[..rng.below(original.len() as u64) as usize].to_vec()
        }
        FaultKind::CacheGarbage => (0..original.len().max(16))
            .map(|_| rng.below(256) as u8)
            .collect(),
        _ => {
            let mut b = original.clone();
            let pos = rng.below(b.len() as u64) as usize;
            b[pos] ^= 1 << rng.below(8);
            b
        }
    };
    if let Err(e) = fs::write(&path, &corrupt) {
        return Outcome::Violation {
            detail: format!("could not inject cache fault: {e}"),
        };
    }
    if kind == FaultKind::CachePartialStore {
        // The other half of a crash mid-store: an orphaned temp file from
        // a process that no longer exists. `DiskCache::open`'s sweep must
        // remove it rather than let it accumulate.
        let tmp = path.with_extension("tmp4294967295-0");
        let _ = fs::write(&tmp, &original[..original.len() / 2]);
    }

    // Reload through a fresh campaign: the fault must be either detected
    // (typed Cache failure + re-simulation) or absorbed (a flipped bit in
    // trailing whitespace, say) — and the digest must match the golden
    // either way.
    let reloaded = campaign(p, dir, no_skip).and_then(|c| {
        let r = c.try_result(key)?;
        Ok((r, c.failures()))
    });
    match reloaded {
        Err(e) => Outcome::Violation {
            detail: format!("cache corruption failed the run instead of healing: {e}"),
        },
        Ok((r, _)) if r.digest() != golden => Outcome::Violation {
            detail: format!(
                "cache corruption changed the result: digest {:#018x} != golden {:#018x}",
                r.digest(),
                golden
            ),
        },
        Ok((_, failures)) => {
            let noticed = failures.iter().find(|f| f.error.kind() == "cache");
            match noticed {
                Some(f) => Outcome::TypedError {
                    kind: "cache",
                    detail: format!("detected and re-simulated: {}", f.error),
                },
                // No typed artifact: acceptable only if the entry still
                // parsed clean (the corruption landed somewhere harmless);
                // the digest check above already proved the value correct.
                None if corrupt != original => Outcome::Recovered {
                    detail: "corrupt entry absorbed; digest still golden".into(),
                },
                None => Outcome::Recovered {
                    detail: "fault was a no-op on this entry".into(),
                },
            }
        }
    }
}

// --- Config faults --------------------------------------------------------

fn config_fault(kind: FaultKind, dir: &Path, p: ExpParams, index: usize, no_skip: bool) -> Outcome {
    let c = match campaign(p, dir, no_skip) {
        Ok(c) => c,
        Err(e) => {
            return Outcome::Violation {
                detail: format!("could not open chaos campaign: {e}"),
            }
        }
    };
    let (cfg, specs, expect) = match kind {
        FaultKind::ConfigZeroFetch => {
            let mut cfg = SimConfig::baseline();
            cfg.fetch_threads = 0;
            let specs = smt_workloads::workload(2, WorkloadClass::Mix).thread_specs();
            (cfg, specs, "zero fetch bandwidth")
        }
        FaultKind::ConfigTooManyThreads => {
            let mut cfg = SimConfig::baseline();
            // Eight threads' architectural state alone exceeds this file.
            cfg.phys_int = 100;
            let specs = smt_workloads::workload(8, WorkloadClass::Mem).thread_specs();
            (cfg, specs, "register file too small")
        }
        _ => (SimConfig::baseline(), Vec::new(), "no threads"),
    };
    let desc = format!("CHAOS-{}-{index}", kind.name());
    match c.try_run_custom(&cfg, &specs, &desc, || PolicyKind::Icount.build()) {
        Err(ExpError::Config(e)) => Outcome::TypedError {
            kind: "config",
            detail: e.to_string(),
        },
        Err(e) => Outcome::Violation {
            detail: format!("{expect} mis-classified as {}: {e}", e.kind()),
        },
        Ok(_) => Outcome::Violation {
            detail: format!("invalid configuration ({expect}) was accepted"),
        },
    }
}

// --- Panic isolation ------------------------------------------------------

/// A fetch policy that behaves like ICOUNT until its fuse burns, then
/// panics — modelling a latent bug that only fires mid-campaign.
struct FusedPolicy {
    fuse: u64,
    calls: u64,
}

impl FetchPolicy for FusedPolicy {
    fn name(&self) -> &'static str {
        "CHAOS-FUSED"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        self.calls += 1;
        if self.calls > self.fuse {
            panic!("chaos fuse burned after {} cycles", self.calls);
        }
        view.icount_order_into(out);
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
}

fn policy_panic_fault(
    rng: &mut Rng,
    dir: &Path,
    p: ExpParams,
    index: usize,
    no_skip: bool,
) -> Outcome {
    let c = match campaign(p, dir, no_skip) {
        Ok(c) => c,
        Err(e) => {
            return Outcome::Violation {
                detail: format!("could not open chaos campaign: {e}"),
            }
        }
    };
    let fuse = rng.range(1, p.warmup + p.measure);
    let specs = smt_workloads::workload(2, WorkloadClass::Ilp).thread_specs();
    let desc = format!("CHAOS-policy-panic-{index}");
    let run = c.try_run_custom(&SimConfig::baseline(), &specs, &desc, move || {
        Box::new(FusedPolicy { fuse, calls: 0 })
    });
    match run {
        Err(ExpError::Panicked { payload, .. }) => {
            // The panic was contained; the campaign must still be usable.
            match c.try_result(&RunKey::solo(Arch::Baseline, "mcf")) {
                Ok(_) => Outcome::TypedError {
                    kind: "panic",
                    detail: format!("isolated: {payload}"),
                },
                Err(e) => Outcome::Violation {
                    detail: format!("campaign unusable after isolated panic: {e}"),
                },
            }
        }
        Err(e) => Outcome::Violation {
            detail: format!("policy panic mis-classified as {}: {e}", e.kind()),
        },
        Ok(_) => Outcome::Violation {
            detail: "panicking policy completed without error".into(),
        },
    }
}

// --- Bad input ------------------------------------------------------------

fn bad_input_fault(rng: &mut Rng, dir: &Path, p: ExpParams, no_skip: bool) -> Outcome {
    let c = match campaign(p, dir, no_skip) {
        Ok(c) => c,
        Err(e) => {
            return Outcome::Violation {
                detail: format!("could not open chaos campaign: {e}"),
            }
        }
    };
    let (workload, expect): (String, fn(&ExpError) -> bool) = match rng.below(3) {
        0 => ("4-QUX".into(), |e| {
            matches!(e, ExpError::UnknownWorkloadClass { .. })
        }),
        1 => ("3-MIX".into(), |e| {
            matches!(e, ExpError::UnknownWorkload { .. })
        }),
        _ => ("solo:nosuchbench".into(), |e| {
            matches!(e, ExpError::UnknownBenchmark { .. })
        }),
    };
    let key = RunKey {
        arch: Arch::Baseline,
        workload,
        policy: PolicyKind::Icount,
    };
    match c.try_result(&key) {
        Err(e) if expect(&e) => Outcome::TypedError {
            kind: e.kind(),
            detail: e.to_string(),
        },
        Err(e) => Outcome::Violation {
            detail: format!("bad input mis-classified as {}: {e}", e.kind()),
        },
        Ok(_) => Outcome::Violation {
            detail: format!("nonsense run key {:?} produced a result", key.workload),
        },
    }
}

// --- Checkpoint faults ----------------------------------------------------

/// Plant a genuine mid-run checkpoint for a golden key in a fresh resume
/// directory, damage it per `kind`, then re-run the key through a
/// checkpointing campaign. The damage must surface as a typed `checkpoint`
/// failure artifact and the re-simulated result must still match the golden
/// digest — a damaged checkpoint may cost time, never a number.
#[expect(
    clippy::too_many_arguments,
    reason = "one fault needs the campaign, its scratch paths and the golden digests together"
)]
fn ckpt_fault(
    kind: FaultKind,
    rng: &mut Rng,
    dir: &Path,
    p: ExpParams,
    keys: &[RunKey],
    goldens: &[u64],
    index: usize,
    no_skip: bool,
) -> Outcome {
    let pick = rng.below(keys.len() as u64) as usize;
    let key = &keys[pick];
    let golden = goldens[pick];
    let violation = |detail: String| Outcome::Violation { detail };

    // A fresh resume directory per fault: the planted damage is the only
    // checkpoint state the resuming campaign sees (the shared chaos disk
    // cache is deliberately *not* attached, so the run cannot be served
    // from cache before the checkpoint path is exercised).
    let resume = dir.join(format!("ckpt-fault-{index}"));
    let _ = fs::remove_dir_all(&resume);

    let desc = match Campaign::new(p).describe(key) {
        Ok(d) => d,
        Err(e) => return violation(format!("could not derive run description: {e}")),
    };
    let specs = match specs_for(key) {
        Ok(s) => s,
        Err(e) => return violation(format!("could not derive thread specs: {e}")),
    };

    // Capture a genuine resumable checkpoint: run the key's own simulation
    // and stop right after the first periodic snapshot fires.
    let snap = {
        let mut sim = match Simulator::try_new(key.arch.config(), key.policy.build(), &specs) {
            Ok(s) => s,
            Err(e) => return violation(format!("could not build simulator: {e}")),
        };
        sim.set_skip_enabled(!no_skip);
        let seen = Cell::new(false);
        let mut sink = |_: &MachineSnapshot| seen.set(true);
        let stop = || seen.get();
        let mut opts = CheckpointOpts {
            interval: 200,
            sink: &mut sink,
            stop: Some(&stop),
        };
        match sim.try_run_checkpointed(p.warmup, p.measure, &chaos_watchdog(), &mut opts) {
            Ok(RunOutcome::Interrupted(s)) => s,
            Ok(RunOutcome::Completed(_)) => {
                return violation("run completed before a checkpoint could be captured".into())
            }
            Err(e) => return violation(format!("could not capture a checkpoint: {e}")),
        }
    };

    let store = match CheckpointStore::open(&resume.join("checkpoints")) {
        Ok(s) => s,
        Err(e) => return violation(format!("could not open checkpoint store: {e}")),
    };
    let path = store.path_for(&desc);
    let planted = match kind {
        // A checkpoint recorded under a *different* run description
        // (another code generation, or a hash collision) landing on this
        // run's path.
        FaultKind::CkptStaleGeneration => {
            let foreign = format!("{desc} [foreign generation]");
            store
                .store(&foreign, &snap)
                .and_then(|()| fs::rename(store.path_for(&foreign), &path))
        }
        _ => store.store(&desc, &snap),
    };
    if let Err(e) = planted {
        return violation(format!("could not plant checkpoint: {e}"));
    }
    if kind != FaultKind::CkptStaleGeneration {
        let clean = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => return violation(format!("planted checkpoint unreadable: {e}")),
        };
        let corrupt: Vec<u8> = match kind {
            FaultKind::CkptTruncate => clean[..rng.below(clean.len() as u64) as usize].to_vec(),
            FaultKind::CkptBitFlip => {
                let mut b = clean;
                let pos = rng.below(b.len() as u64) as usize;
                b[pos] ^= 1 << rng.below(8);
                b
            }
            // Version skew: only the envelope version field changes. The
            // version is checked before the checksum, so the entry must
            // report skew, not corruption.
            _ => {
                let mut b = clean;
                b[8..12].copy_from_slice(&0xDEAD_u32.to_le_bytes());
                b
            }
        };
        if let Err(e) = fs::write(&path, &corrupt) {
            return violation(format!("could not damage checkpoint: {e}"));
        }
    }

    // Resume through a fresh checkpointing campaign: the damaged entry must
    // be detected (typed failure), deleted, and the run re-simulated from
    // scratch to the golden digest.
    let mut rc = Campaign::new(p);
    rc.set_watchdog(chaos_watchdog());
    rc.set_skip(!no_skip);
    if let Err(e) = rc.set_checkpointing(&resume, 0) {
        return violation(format!("could not reopen resume dir: {e}"));
    }
    let outcome = match rc.try_result(key) {
        Err(e) => violation(format!(
            "checkpoint damage failed the run instead of healing: {e}"
        )),
        Ok(r) if r.digest() != golden => violation(format!(
            "checkpoint damage changed the result: digest {:#018x} != golden {:#018x}",
            r.digest(),
            golden
        )),
        Ok(_) => match rc
            .failures()
            .iter()
            .find(|f| f.error.kind() == "checkpoint")
        {
            Some(f) => Outcome::TypedError {
                kind: "checkpoint",
                detail: format!("detected and re-simulated: {}", f.error),
            },
            None => violation("damaged checkpoint went unnoticed (no typed failure)".into()),
        },
    };
    let _ = fs::remove_dir_all(&resume);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic() {
        let draw = |seed: u64| -> Vec<&'static str> {
            let mut rng = Rng::new(seed ^ 0xC4A0_5EED);
            (0..16)
                .map(|_| ALL_KINDS[rng.below(ALL_KINDS.len() as u64) as usize].name())
                .collect()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn every_kind_names_a_surface() {
        for k in ALL_KINDS {
            assert!(!k.name().is_empty());
            assert!(["cache", "config", "policy", "input", "checkpoint"].contains(&k.surface()));
        }
    }
}
