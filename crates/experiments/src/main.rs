//! Experiment CLI: regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run --release -p smt-experiments -- all
//! cargo run --release -p smt-experiments -- fig1 fig3 --quick
//! cargo run --release -p smt-experiments -- table4 --stats-json out/
//! cargo run --release -p smt-experiments -- trace DWARN @4-MIX --quick
//! ```
//!
//! The command line is parsed once, against [`FLAGS`]: a flag the chosen
//! command does not read exits 2 before anything is built or created.
//! `compare` and `trace` name their run the same way, as
//! `[<POLICY>...] [@WORKLOAD] [@ARCH]`.

// User-facing paths degrade to typed errors; a stray unwrap turns a
// recoverable fault into an abort.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use dwarn_core::PolicyKind;
use smt_experiments::error::{self, Exit};
use smt_experiments::runner::{comparison_table, workload_by_name};
use smt_experiments::suite::{self, ExperimentFn};
use smt_experiments::tracing::{self, TraceOpts};
use smt_experiments::{artifacts, Arch, Campaign, DiskCache, ExpParams};
use smt_obs::IntervalConfig;
use smt_workloads::{Workload, WorkloadClass};

const USAGE: &str = "\
usage: smt-experiments <experiment>... [--quick] [--sanitize] [--no-skip] [--live]
                       [--stats-json <dir>] [--cache-dir <dir>]
                       [--intervals <dir>] [--fragments <n>]

experiments:
  table2a    cache behaviour of isolated benchmarks (Table 2a)
  fig1       throughput per policy + DWarn improvements (Figure 1)
  fig2       FLUSH squashed-instruction overhead (Figure 2)
  fig3       Hmean improvements (Figure 3)
  table4     relative IPCs in the 4-MIX workload (Table 4)
  fig4       small architecture, 1.4 fetch (Figure 4)
  fig5       deep 16-stage architecture (Figure 5)
  ablation   DG/declare-threshold/hybrid-rule sweeps (text of §3/§5)
  taxonomy   Table 1 evaluated: all 8 policies incl. DC-PRED (§2.1)
  extensions DWarn+FLUSH combination study (beyond the paper)
  meta       adaptive meta-policy study: interval-driven dynamic selection
             over DWARN/STALL/FLUSH/ICOUNT, with oracle bounds (beyond
             the paper)
  all        the cached paper suite (everything above except `meta`,
             whose oracle runs are live by design -- run it separately)

  compare [<POLICY>...] [@WORKLOAD] [@ARCH]
             ad-hoc comparison, e.g.:  compare DWARN FLUSH @8-MEM @deep
             (the paper's six policies, 4-MIX and the baseline unless
             named); reads the experiments' flags

  trace [<POLICY>] [@WORKLOAD] [@ARCH] [--quick] [--stats-json <dir>]
        [--detail] [--out <dir>]
             capture one run (DWARN, 4-MIX and the baseline unless named)
             with the recording probe and write a Chrome trace-event JSON
             (Perfetto / chrome://tracing: the event timeline plus 50-cycle
             interval counter tracks) plus stats JSON under --out
             (default target/traces); --detail adds per-instruction events

             A run names policies (ICOUNT, STALL, FLUSH, DG, PDG, DC-PRED,
             DWARN, DWARN-PRIO, META-MISS, META-IPC, META-EPS), one Table
             2(b) workload (@2-ILP ... @8-MEM) and one machine (@baseline,
             @small, @deep).

  cache <stats|clear|verify> --cache-dir <dir>
             inspect, empty, or integrity-check a persistent result cache

  report <dir>
             segment the interval time-series a previous `--intervals <dir>`
             campaign wrote into phases and print per-run phase summary
             tables

flags (a flag the command does not read is bad usage):
  --quick            short simulation windows (smoke test)
  --no-skip          disable the quiescence-skipping cycle engine and run
                     the naive per-cycle loop (results are bit-identical
                     either way; this is the verification escape hatch)
  --sanitize         attach the cycle-level uarch sanitizer to every
                     simulation; invariant violations fail the run (and
                     disk-cache loads are bypassed so runs really execute)
  --stats-json <dir> write one structured JSON stats file per simulation run
  --intervals <dir>  attach the interval sampler (1024-cycle windows) to
                     every simulation and write per-run interval JSONL +
                     Chrome counter-track files (plus the events.jsonl
                     heartbeat stream) there; disk-cache loads are bypassed
                     so runs really execute
  --live             per-completion campaign progress on stderr: worker
                     status, cache hit/miss/coalesce counters, runs/sec, ETA
  --cache-dir <dir>  persist simulation results across invocations; results
                     are re-simulated (never trusted) if an entry is stale,
                     corrupt, or from a different code version
  --fragments <n>    time-axis parallel fragment replay: a simulation whose
                     share of the workers (SMT_JOBS or the core count,
                     divided by the runs simulating at once) is 3 or more
                     runs a null-observer scout pass that snapshots the
                     machine every <n> cycles, while that many workers
                     replay the fragments concurrently with the real
                     observers; the stitched result is proven
                     bit-identical to a sequential run. A smaller share
                     runs sequentially, and the first such run says so
                     on stderr

exit codes:
  0  success          1  runtime failure       2  bad usage
  3  partial results (some runs failed)
";

/// Flags the experiments and `compare` read, and no other command.
const CAMPAIGN: &[&str] = &["experiments", "compare"];

/// Every flag: its name, whether it takes a value, and the commands that
/// read it. "experiments" stands for every suite name, `all` and `meta`
/// included.
const FLAGS: [(&str, bool, &[&str]); 10] = [
    ("--quick", false, &["experiments", "compare", "trace"]),
    ("--sanitize", false, CAMPAIGN),
    ("--no-skip", false, CAMPAIGN),
    ("--live", false, CAMPAIGN),
    ("--intervals", true, CAMPAIGN),
    ("--fragments", true, CAMPAIGN),
    ("--stats-json", true, &["experiments", "compare", "trace"]),
    ("--cache-dir", true, &["experiments", "compare", "cache"]),
    ("--detail", false, &["trace"]),
    ("--out", true, &["trace"]),
];

/// The subcommands; any other first word names an experiment.
const COMMANDS: [&str; 4] = ["compare", "trace", "cache", "report"];

/// The command line, parsed against [`FLAGS`].
struct Cli {
    /// A subcommand, or "experiments".
    command: &'static str,
    /// The arguments after the subcommand (every argument, for the
    /// experiments) that are neither flags nor flag values.
    words: Vec<String>,
    /// Each flag given, with its value when it takes one.
    flags: Vec<(&'static str, Option<String>)>,
    /// `--fragments`, a positive number; 0 when absent.
    fragments: u64,
}

impl Cli {
    /// Parse `args`, refusing an unknown flag, a missing or unwanted
    /// value, and a flag the command does not read.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let (mut words, mut flags) = (Vec::new(), Vec::new());
        while let Some(arg) = args.next() {
            // A bare `--` is the separator in `smt-experiments -- all`.
            if arg == "--" {
                continue;
            }
            if !arg.starts_with("--") {
                words.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(&(name, takes_value, _)) = FLAGS.iter().find(|f| f.0 == name) else {
                return Err(format!("unknown flag: {name}"));
            };
            let value = match (takes_value, inline) {
                (true, None) => Some(args.next().ok_or(format!("{name} needs a value"))?),
                (false, Some(_)) => return Err(format!("{name} takes no value")),
                (_, value) => value,
            };
            flags.push((name, value));
        }
        let command = COMMANDS
            .into_iter()
            .find(|&c| words.first().is_some_and(|w| w == c))
            .unwrap_or("experiments");
        if command != "experiments" {
            words.remove(0);
        }
        for (name, _) in &flags {
            if !FLAGS.iter().any(|f| f.0 == *name && f.2.contains(&command)) {
                return Err(format!("{name} is not a flag of {command}"));
            }
        }
        let mut cli = Cli {
            command,
            words,
            flags,
            fragments: 0,
        };
        if let Some(n) = cli.value("--fragments") {
            cli.fragments = n
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("--fragments needs a positive number")?;
        }
        Ok(cli)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The value of the last `name` given.
    fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(flag, _)| *flag == name)?;
        value.as_deref()
    }

    fn params(&self) -> ExpParams {
        if self.has("--quick") {
            ExpParams::quick()
        } else {
            ExpParams::standard()
        }
    }
}

/// Print `msg` and the usage text, and exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n");
    eprint!("{USAGE}");
    Exit::Usage.exit();
}

/// A run named as `[<POLICY>...] [@WORKLOAD] [@ARCH]`.
struct RunName {
    policies: Vec<PolicyKind>,
    /// 4-MIX unless named.
    workload: Workload,
    /// The baseline unless named.
    arch: Arch,
}

fn parse_run(words: &[&str]) -> Result<RunName, String> {
    let mut run = RunName {
        policies: Vec::new(),
        workload: smt_workloads::workload(4, WorkloadClass::Mix),
        arch: Arch::Baseline,
    };
    for &word in words {
        if let Some(name) = word.strip_prefix('@') {
            match Arch::parse(name) {
                Some(arch) => run.arch = arch,
                None => {
                    run.workload = workload_by_name(name).map_err(|e| {
                        format!(
                            "{word} names no machine (baseline, small, deep) and no workload: {e}"
                        )
                    })?
                }
            }
        } else {
            let policy = PolicyKind::parse(word).ok_or(format!("unknown policy: {word}"))?;
            run.policies.push(policy);
        }
    }
    Ok(run)
}

/// The `compare` subcommand.
fn compare(cli: &Cli, words: &[&str]) {
    let run = parse_run(words).unwrap_or_else(|e| usage(&e));
    let policies = if run.policies.is_empty() {
        PolicyKind::paper_set().to_vec()
    } else {
        run.policies
    };
    let campaign = build_campaign(cli);
    println!(
        "{}",
        comparison_table(&campaign, run.arch, &run.workload, &policies)
    );
    flush_artifacts();
}

/// The `trace` subcommand: one policy, DWARN unless named.
fn trace(cli: &Cli, words: &[&str]) {
    let run = parse_run(words).unwrap_or_else(|e| usage(&e));
    let policy = match run.policies[..] {
        [] => PolicyKind::DWarn,
        [policy] => policy,
        _ => {
            let names: Vec<&str> = run.policies.iter().map(|p| p.name()).collect();
            usage(&format!("trace takes one policy, not {}", names.join(" ")))
        }
    };
    let opts = TraceOpts {
        policy,
        workload: run.workload,
        arch: run.arch,
        params: cli.params(),
        detail: cli.has("--detail"),
        out_dir: PathBuf::from(cli.value("--out").unwrap_or("target/traces")),
    };
    enable_stats(cli);
    match tracing::run(&opts) {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            eprintln!("trace: {e}");
            e.exit_code().exit();
        }
    }
    flush_artifacts();
}

/// The `report <dir>` subcommand.
fn report(dir: &str) {
    match smt_experiments::report::report_dir(Path::new(dir)) {
        Ok(rendered) => print!("{rendered}"),
        Err(e) => {
            eprintln!("report: {e}");
            e.exit_code().exit();
        }
    }
}

/// The `cache <stats|clear|verify>` subcommand.
fn cache_admin(action: &str, dir: Option<&str>) -> ! {
    let Some(dir) = dir else {
        usage(&format!("cache {action} needs --cache-dir <dir>"));
    };
    let cache = match DiskCache::open(Path::new(dir)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cache: {dir}: {e}");
            Exit::Runtime.exit();
        }
    };
    let outcome = match action {
        "stats" => cache.stats().map(|s| {
            println!(
                "{} entr{} in {dir}, {} bytes",
                s.entries,
                if s.entries == 1 { "y" } else { "ies" },
                s.bytes
            );
            Exit::Ok
        }),
        "clear" => cache.clear().map(|n| {
            println!("removed {n} entr{}", if n == 1 { "y" } else { "ies" });
            Exit::Ok
        }),
        "verify" => cache.verify().map(|v| {
            println!("{} ok, {} corrupt", v.ok, v.corrupt.len());
            for p in &v.corrupt {
                println!("corrupt: {}", p.display());
            }
            if v.corrupt.is_empty() {
                Exit::Ok
            } else {
                Exit::Runtime
            }
        }),
        other => usage(&format!(
            "unknown cache action: {other} (stats, clear, verify)"
        )),
    };
    match outcome {
        Ok(code) => code.exit(),
        Err(e) => {
            eprintln!("cache {action}: {e}");
            Exit::Runtime.exit();
        }
    }
}

/// Start collecting `--stats-json` records, when asked.
fn enable_stats(cli: &Cli) {
    if let Some(dir) = cli.value("--stats-json") {
        if let Err(e) = artifacts::enable(Path::new(dir)) {
            eprintln!("--stats-json {dir}: {e}");
            Exit::Runtime.exit();
        }
    }
}

/// Build the campaign of the experiments and `compare`, with every flag
/// they read applied.
fn build_campaign(cli: &Cli) -> Campaign {
    // A malformed SMT_JOBS is a usage error here, not a panic: the CLI is
    // exactly the caller that can tell the user what to fix.
    let mut campaign = Campaign::try_new(cli.params()).unwrap_or_else(|e| usage(&e.to_string()));
    enable_stats(cli);
    if let Some(dir) = cli.value("--cache-dir") {
        if let Err(e) = campaign.attach_disk_cache(Path::new(dir)) {
            eprintln!("--cache-dir {dir}: {e}");
            Exit::Runtime.exit();
        }
    }
    campaign.set_fragments(cli.fragments);
    campaign.set_sanitize(cli.has("--sanitize"));
    campaign.set_skip(!cli.has("--no-skip"));
    campaign.set_live(cli.has("--live"));
    if let Some(dir) = cli.value("--intervals") {
        let window = IntervalConfig::default().window;
        if let Err(e) = campaign.set_intervals(Path::new(dir), window) {
            eprintln!("--intervals {dir}: {e}");
            Exit::Runtime.exit();
        }
    }
    campaign
}

/// Write any collected stats artifacts; called on every exit path.
fn flush_artifacts() {
    match artifacts::flush() {
        Ok(Some((n, dir))) => eprintln!("wrote {n} stats file(s) to {}/", dir.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("failed to write stats artifacts: {e}");
            Exit::Runtime.exit();
        }
    }
}

/// Print each experiment's report with its wall time, then the total;
/// returns how many reports failed to render.
#[expect(
    clippy::disallowed_methods,
    reason = "CLI elapsed-time display, printed after every simulated number is fixed"
)]
fn run_experiments(campaign: &Campaign, exps: &[(&str, ExperimentFn)]) -> u32 {
    let t0 = Instant::now();

    let mut broken_experiments = 0u32;
    for &(exp, f) in exps {
        let started = Instant::now();
        // Per-experiment isolation: one broken report must not take down
        // the rest of the sweep (its failed runs are already recorded on
        // the campaign as typed failures).
        match error::protect(exp, || Ok(f(campaign))) {
            Ok(report) => {
                println!("{report}");
                println!(
                    "[{} done in {:.1}s]\n",
                    exp,
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                broken_experiments += 1;
                eprintln!("[{exp} FAILED: {e}]\n");
            }
        }
    }
    flush_artifacts();
    eprintln!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
    broken_experiments
}

/// Run the named experiments, every one resolved before the campaign is
/// built.
fn experiments(cli: &Cli, words: &[&str]) {
    let mut exps = Vec::new();
    for &name in words {
        match suite::lookup(name) {
            Some(f) => exps.push((name, f)),
            None if name == "all" => {}
            None => usage(&format!("unknown experiment: {name}")),
        }
    }
    if words.contains(&"all") {
        // `meta` is deliberately absent: its oracle math needs full
        // interval series, so its 84 probed runs are live (a series
        // request never loads from the disk cache, which stores only
        // SimResults) and it would break the 5 s warm `all` budget that
        // CI's `bench` job gates. Run it as `-- meta`.
        exps = suite::ALL
            .iter()
            .copied()
            .filter(|&(name, _)| name != "meta")
            .collect();
    }
    if exps.is_empty() {
        usage("name an experiment or a subcommand");
    }
    let campaign = build_campaign(cli);
    let broken_experiments = run_experiments(&campaign, &exps);
    if let Some(summary) = campaign.failure_summary() {
        eprintln!("\n{summary}");
    }
    if broken_experiments > 0 || !campaign.failures().is_empty() {
        if campaign.failures().is_empty() {
            Exit::Runtime.exit();
        }
        Exit::Partial.exit();
    }
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    let words: Vec<&str> = cli.words.iter().map(String::as_str).collect();
    match (cli.command, &words[..]) {
        ("report", [dir]) => report(dir),
        ("report", _) => usage("report takes one directory: report <dir>"),
        ("cache", [action]) => cache_admin(action, cli.value("--cache-dir")),
        ("cache", _) => usage("cache takes one action: stats, clear or verify"),
        ("trace", run) => trace(&cli, run),
        ("compare", run) => compare(&cli, run),
        (_, exps) => experiments(&cli, exps),
    }
}
