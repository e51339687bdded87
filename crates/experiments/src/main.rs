//! Experiment CLI: regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run --release -p smt-experiments -- all
//! cargo run --release -p smt-experiments -- fig1 fig3 --quick
//! cargo run --release -p smt-experiments -- table4 --stats-json out/
//! cargo run --release -p smt-experiments -- trace --policy dwarn --workload mix4
//! ```

// User-facing paths degrade to typed errors; a stray unwrap turns a
// recoverable fault into an abort.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::time::Instant;

use smt_experiments::error::{self, Exit};
use smt_experiments::{artifacts, interrupt, suite, Campaign, DiskCache, ExpParams};

const USAGE: &str = "\
usage: smt-experiments [--quick] [--stats-json <dir>] [--cache-dir <dir>]
                       [--intervals <dir>] [--resume <dir>] [--live]
                       <experiment>...

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

  compare <POLICY>... [@WORKLOAD] [@ARCH]
             ad-hoc comparison, e.g.:  compare DWARN FLUSH @8-MEM @deep

  cache <stats|clear|verify> --cache-dir <dir>
             inspect, empty, or integrity-check a persistent result cache

  trace [--policy P] [--workload W] [--arch A] [--cycles N] [--warmup N]
        [--detail] [--out DIR]
             capture one run with the recording probe and write a Chrome
             trace-event JSON (Perfetto / chrome://tracing: the event
             timeline plus 50-cycle interval counter tracks) plus stats JSON

  report [<dir>]
             segment the interval time-series a previous `--intervals <dir>`
             campaign wrote into phases and print per-run phase summary
             tables (defaults to the --intervals directory when given)

flags:
  --quick            short simulation windows (smoke test)
  --no-skip          disable the quiescence-skipping cycle engine and run
                     the naive per-cycle loop (results are bit-identical
                     either way; this is the verification escape hatch)
  --sanitize         attach the cycle-level uarch sanitizer to every
                     simulation; invariant violations fail the run (and
                     disk-cache loads are bypassed so runs really execute)
  --stats-json <dir> write one structured JSON stats file per simulation run
  --intervals <dir>  attach the interval sampler to every simulation and
                     write per-run interval JSONL + Chrome counter-track
                     files (plus the events.jsonl heartbeat stream) there;
                     disk-cache loads are bypassed so runs really execute
  --interval-window <n>
                     interval length in cycles (default 1024)
  --live             per-completion campaign progress on stderr: worker
                     status, cache hit/miss/coalesce counters, runs/sec, ETA
  --cache-dir <dir>  persist simulation results across invocations; results
                     are re-simulated (never trusted) if an entry is stale,
                     corrupt, or from a different code version
  --resume <dir>     make the campaign crash-resumable under <dir>: periodic
                     machine snapshots for in-flight runs, completed results,
                     and a journal live there; Ctrl-C (or a crash, or a
                     watchdog trip) leaves resumable state, and re-running
                     with the same <dir> continues bit-identically with no
                     redone work (damaged checkpoints are typed failures
                     that re-simulate from scratch)
  --checkpoint-interval <n>
                     cycles between periodic snapshots (default 20000)
  --fragments <n>    time-axis parallel fragment replay: when spare cores
                     exist (pending grid narrower than SMT_JOBS/core count),
                     each simulation runs a null-observer scout pass that
                     snapshots the machine every <n> cycles, then replays
                     the fragments concurrently with the real observers and
                     stitches a result proven bit-identical to a sequential
                     run (ignored under --resume)

exit codes:
  0  success          1  runtime failure       2  bad usage
  3  partial results (some runs failed)
  5  interrupted (Ctrl-C); resumable via --resume with the same directory
";

fn compare(campaign: &Campaign, args: &[&str]) -> String {
    use smt_experiments::Arch;
    let mut policies = Vec::new();
    let mut workload = "4-MIX".to_string();
    let mut arch = Arch::Baseline;
    for a in args {
        if let Some(w) = a.strip_prefix('@') {
            match w {
                "small" => arch = Arch::Small,
                "deep" => arch = Arch::Deep,
                "baseline" => arch = Arch::Baseline,
                other => {
                    let known = ["2", "4", "6", "8"]
                        .iter()
                        .flat_map(|n| {
                            ["ILP", "MIX", "MEM"]
                                .iter()
                                .map(move |c| format!("{n}-{c}"))
                        })
                        .any(|name| name == other);
                    if !known {
                        eprintln!("unknown workload: {other} (Table 2b has 2/4/6/8-ILP/MIX/MEM)");
                        Exit::Usage.exit();
                    }
                    workload = other.to_string();
                }
            }
        } else if let Some(k) = dwarn_core::PolicyKind::parse(a) {
            policies.push(k);
        } else {
            eprintln!("unknown policy: {a}");
            Exit::Usage.exit();
        }
    }
    if policies.is_empty() {
        policies = dwarn_core::PolicyKind::paper_set().to_vec();
    }
    match smt_experiments::runner::comparison_table(campaign, arch, &workload, &policies) {
        Ok(mut t) => {
            t.push('\n');
            t
        }
        Err(e) => {
            eprintln!("compare: {e}");
            e.exit_code().exit();
        }
    }
}

/// Extract `--<flag> <dir>` / `--<flag>=<dir>` from `args`.
fn take_dir_flag(args: &mut Vec<String>, flag: &str) -> Option<PathBuf> {
    let long = format!("--{flag}");
    let eq = format!("--{flag}=");
    let mut dir = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == long {
            if i + 1 >= args.len() {
                eprintln!("--{flag} needs a directory argument\n");
                eprint!("{USAGE}");
                Exit::Usage.exit();
            }
            dir = Some(PathBuf::from(args.remove(i + 1)));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix(&eq) {
            dir = Some(PathBuf::from(v));
            args.remove(i);
        } else {
            i += 1;
        }
    }
    dir
}

/// Extract `--<flag> <n>` / `--<flag>=<n>` from `args` as a positive
/// number, or `default` when absent.
fn take_num_flag(args: &mut Vec<String>, flag: &str, default: u64) -> u64 {
    let Some(v) = take_dir_flag(args, flag) else {
        return default;
    };
    match v
        .to_str()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&n| n > 0)
    {
        Some(n) => n,
        None => {
            eprintln!("--{flag} needs a positive numeric argument\n");
            eprint!("{USAGE}");
            Exit::Usage.exit();
        }
    }
}

/// The `cache <stats|clear|verify>` subcommand.
fn cache_admin(action: &str, dir: Option<&PathBuf>) -> ! {
    let Some(dir) = dir else {
        eprintln!("cache {action} needs --cache-dir <dir>\n");
        eprint!("{USAGE}");
        Exit::Usage.exit();
    };
    let cache = match DiskCache::open(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cache: {}: {e}", dir.display());
            Exit::Runtime.exit();
        }
    };
    let outcome = match action {
        "stats" => cache.stats().map(|s| {
            println!(
                "{} entr{} in {}, {} bytes",
                s.entries,
                if s.entries == 1 { "y" } else { "ies" },
                dir.display(),
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
        other => {
            eprintln!("unknown cache action: {other} (stats, clear, verify)\n");
            eprint!("{USAGE}");
            Exit::Usage.exit();
        }
    };
    match outcome {
        Ok(code) => code.exit(),
        Err(e) => {
            eprintln!("cache {action}: {e}");
            Exit::Runtime.exit();
        }
    }
}

/// Campaign-level options parsed off the command line.
struct CampaignOpts {
    sanitize: bool,
    no_skip: bool,
    live: bool,
    intervals: Option<(PathBuf, u64)>,
    resume: Option<(PathBuf, u64)>,
    /// Fragment length for time-axis parallel replay (0 = sequential).
    fragments: u64,
}

/// Build the campaign, attaching the persistent cache when requested.
fn build_campaign(params: ExpParams, cache_dir: Option<&PathBuf>, opts: &CampaignOpts) -> Campaign {
    // A malformed SMT_JOBS is a usage error here, not a panic: the CLI is
    // exactly the caller that can tell the user what to fix.
    let mut campaign = match Campaign::try_new(params) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n");
            eprint!("{USAGE}");
            Exit::Usage.exit();
        }
    };
    if let Some(dir) = cache_dir {
        if let Err(e) = campaign.attach_disk_cache(dir) {
            eprintln!("--cache-dir {}: {e}", dir.display());
            Exit::Runtime.exit();
        }
    }
    campaign.set_fragments(opts.fragments);
    campaign.set_sanitize(opts.sanitize);
    campaign.set_skip(!opts.no_skip);
    campaign.set_live(opts.live);
    if let Some((dir, window)) = &opts.intervals {
        if let Err(e) = campaign.set_intervals(dir, *window) {
            eprintln!("--intervals {}: {e}", dir.display());
            Exit::Runtime.exit();
        }
    }
    if let Some((dir, interval)) = &opts.resume {
        if let Err(e) = campaign.set_checkpointing(dir, *interval) {
            eprintln!("--resume {}: {e}", dir.display());
            Exit::Runtime.exit();
        }
        // Ctrl-C on a checkpointing campaign drains to resumable
        // checkpoints instead of killing the process mid-write.
        interrupt::install();
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
fn run_experiments(campaign: &Campaign, exps: &[&str]) -> u32 {
    let t0 = Instant::now();

    let mut broken_experiments = 0u32;
    for &exp in exps {
        let started = Instant::now();
        let Some(f) = suite::lookup(exp) else {
            eprintln!("unknown experiment: {exp}\n");
            eprint!("{USAGE}");
            Exit::Usage.exit();
        };
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(dir) = take_dir_flag(&mut args, "stats-json") {
        if let Err(e) = artifacts::enable(&dir) {
            eprintln!("--stats-json {}: {e}", dir.display());
            Exit::Runtime.exit();
        }
    }
    let cache_dir = take_dir_flag(&mut args, "cache-dir");
    let intervals_dir = take_dir_flag(&mut args, "intervals");
    let interval_window = take_num_flag(&mut args, "interval-window", 1024);
    let resume_dir = take_dir_flag(&mut args, "resume");
    let checkpoint_interval = take_num_flag(&mut args, "checkpoint-interval", 20_000);
    let fragments = take_num_flag(&mut args, "fragments", 0);
    let quick = args.iter().any(|a| a == "--quick");
    let sanitize = args.iter().any(|a| a == "--sanitize");
    let no_skip = args.iter().any(|a| a == "--no-skip");
    let live = args.iter().any(|a| a == "--live");
    let opts = CampaignOpts {
        sanitize,
        no_skip,
        live,
        intervals: intervals_dir.clone().map(|dir| (dir, interval_window)),
        resume: resume_dir.clone().map(|dir| (dir, checkpoint_interval)),
        fragments,
    };

    if args.first().map(String::as_str) == Some("report") {
        let dir = args
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .map(PathBuf::from)
            .or(intervals_dir);
        let Some(dir) = dir else {
            eprintln!("report needs a directory (positional or --intervals <dir>)\n");
            eprint!("{USAGE}");
            Exit::Usage.exit();
        };
        match smt_experiments::report::report_dir(&dir) {
            Ok(rendered) => {
                print!("{rendered}");
                return;
            }
            Err(e) => {
                eprintln!("report: {e}");
                e.exit_code().exit();
            }
        }
    }

    if args.first().map(String::as_str) == Some("cache") {
        let Some(action) = args.get(1) else {
            eprintln!("cache needs an action (stats, clear, verify)\n");
            eprint!("{USAGE}");
            Exit::Usage.exit();
        };
        cache_admin(action, cache_dir.as_ref());
    }

    if args.first().map(String::as_str) == Some("trace") {
        let rest: Vec<&str> = args[1..]
            .iter()
            .map(String::as_str)
            .filter(|a| {
                *a != "--quick" && *a != "--sanitize" && *a != "--no-skip" && *a != "--live"
            })
            .collect();
        let opts = match smt_experiments::tracing::parse_args(&rest) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("trace: {e}\n");
                eprint!("{USAGE}");
                Exit::Usage.exit();
            }
        };
        match smt_experiments::tracing::run(&opts) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("trace: {e}");
                e.exit_code().exit();
            }
        }
        flush_artifacts();
        return;
    }

    let mut exps: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if exps.first() == Some(&"compare") {
        let params = if quick {
            ExpParams::quick()
        } else {
            ExpParams::standard()
        };
        let campaign = build_campaign(params, cache_dir.as_ref(), &opts);
        print!("{}", compare(&campaign, &exps[1..]));
        flush_artifacts();
        return;
    }
    if exps.is_empty() {
        eprint!("{USAGE}");
        Exit::Usage.exit();
    }
    if exps.contains(&"all") {
        // `meta` is deliberately absent: its oracle math needs full
        // interval series, so every one of its runs is live (the disk
        // cache stores only SimResults) and it would break the 5 s warm
        // `all` budget that CI's `bench` job gates. Run it as `-- meta`.
        exps = vec![
            "table2a",
            "fig1",
            "fig2",
            "fig3",
            "table4",
            "fig4",
            "fig5",
            "ablation",
            "taxonomy",
            "extensions",
        ];
    }

    let params = if quick {
        ExpParams::quick()
    } else {
        ExpParams::standard()
    };
    let campaign = build_campaign(params, cache_dir.as_ref(), &opts);
    let broken_experiments = run_experiments(&campaign, &exps);
    if let Some(summary) = campaign.failure_summary() {
        eprintln!("\n{summary}");
    }
    // An interrupt takes precedence over the partial-results code: the
    // partial state here is deliberate and resumable, not a failure.
    if interrupt::requested() {
        if let Some((dir, _)) = &opts.resume {
            eprintln!(
                "interrupted: partial results flushed; resume with --resume {}",
                dir.display()
            );
        }
        Exit::Interrupted.exit();
    }
    if broken_experiments > 0 || !campaign.failures().is_empty() {
        if campaign.failures().is_empty() {
            Exit::Runtime.exit();
        }
        Exit::Partial.exit();
    }
}
