//! `smt-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones from a traced run. `--bless` regenerates the
//! workload's golden instead. Run it from the repository root.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use smt_benchmark::json::{number, object, string};
use smt_benchmark::span::Tracer;
use smt_benchmark::stats::median;
use smt_benchmark::workload::{self, Env, Kind};
use smt_benchmark::{adapter, gate, host, layers};

const ROOT_MANIFEST: &str = include_str!("../../Cargo.toml");
const BENCH_MANIFEST: &str = include_str!("../Cargo.toml");
/// Worker threads the campaign may use, whatever the caller's
/// environment says.
const MAX_JOBS: usize = 4;

const USAGE: &str = "usage: smt-benchmark --workload <paper-all|mem-probed> \
[--seed <n>] [--seconds <n>] [--trace <0|1>] [--bless]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = adapter::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = parse_seed(&value).ok_or_else(|| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bless,
    })
}

/// The run's scratch directory; removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, String) {
    (
        name.to_string(),
        object([("value", number(value)), ("unit", string(unit))]),
    )
}

fn main() -> ExitCode {
    let main_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = gate::profile_check(ROOT_MANIFEST, BENCH_MANIFEST) {
        eprintln!("build profile check failed: {e}");
        return ExitCode::from(3);
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = parallelism.min(MAX_JOBS);
    std::env::set_var("SMT_JOBS", jobs.to_string());

    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("current directory: {e}");
            return ExitCode::from(1);
        }
    };
    let scratch = Scratch(root.join(".bench_scratch").join(format!(
        "{}-{}",
        args.kind.name(),
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("{}: {e}", scratch.0.display());
        return ExitCode::from(1);
    }
    if args.bless {
        return match workload::bless(args.kind, &scratch.0) {
            Ok(path) => {
                eprintln!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bless: {e}");
                ExitCode::from(1)
            }
        };
    }

    let env = Env {
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds,
        jobs,
        scratch: scratch.0.clone(),
        main_start,
    };
    let mut tracer = Tracer::new(false);
    let e2e = workload::run(&env, &mut tracer, args.trace);
    let mut attempted = e2e.attempted;
    let mut problems = e2e.problems.clone();
    let mut tail_pcts = Default::default();
    let metrics: Vec<(String, String)> = if args.trace {
        let (m, n, p) = layers::run(&env, &e2e, &mut tracer);
        attempted += n;
        problems.extend(p);
        tail_pcts = m.tail_pcts;
        m.values
            .iter()
            .map(|(name, v, unit)| metric(name, *v, unit))
            .collect()
    } else {
        vec![
            metric("wall_s", e2e.wall_s(), "s"),
            metric("setup_s", median(&e2e.setup), "s"),
            metric("peak_rss_mb", e2e.peak_rss_mb, "MiB"),
            metric("fig1b_gap_pp", e2e.fig1b_gap_pp, "pp"),
        ]
    };

    let spans_file = args.trace.then(|| {
        let dir = root.join(".bench_out");
        let path = dir.join(format!(
            "{}-seed{}-{}.spans.jsonl",
            args.kind.name(),
            args.seed,
            std::process::id()
        ));
        match std::fs::create_dir_all(&dir).and_then(|_| tracer.write_jsonl(&path)) {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written: {e}"),
        }
    });
    print_detail(
        &env, &e2e, &tracer, &tail_pcts, spans_file, &root, &scratch.0,
    );
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    println!(
        "{}",
        object([
            ("correct", problems.is_empty().to_string()),
            ("attempted", attempted.max(1).to_string()),
            ("failed", problems.len().to_string()),
            (
                "metrics",
                object(metrics.iter().map(|(k, v)| (k.as_str(), v.clone())))
            ),
        ])
    );
    ExitCode::SUCCESS
}

/// The host block and how the run was made, each as one JSON line.
fn print_detail(
    env: &Env,
    e2e: &workload::E2e,
    tracer: &Tracer,
    tail_pcts: &std::collections::BTreeMap<String, f64>,
    spans_file: Option<String>,
    root: &Path,
    scratch: &Path,
) {
    println!("host {}", host::block(root, scratch, env.jobs, env.seed));
    let list = |xs: &[f64]| {
        format!(
            "[{}]",
            xs.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", ")
        )
    };
    let mut fields = vec![
        ("workload", string(env.kind.name())),
        ("pass_s", list(&e2e.pass_totals())),
        (
            "call_s",
            format!(
                "[{}]",
                e2e.calls
                    .iter()
                    .map(|c| list(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("traced_passes", number(e2e.calls_traced.len() as f64)),
        ("warm_s_samples", number(e2e.warm.len() as f64)),
        ("warm_lookups", number(e2e.warm_lookups as f64)),
        ("first_setup_s", number(e2e.first_setup)),
        ("setup_s_samples", list(&e2e.setup)),
        ("pool_busy_frac_samples", list(&e2e.busy)),
        ("spans", number(tracer.span_count() as f64)),
    ];
    if env.kind == Kind::MemProbed {
        // Fragment replay keeps its scout running beside `jobs` replay
        // workers.
        fields.push(("fragment_threads_busy", number((env.jobs + 1) as f64)));
    }
    if !tail_pcts.is_empty() {
        fields.push((
            "tail_percentiles",
            object(tail_pcts.iter().map(|(k, v)| (k.as_str(), number(*v)))),
        ));
    }
    if let Some(f) = spans_file {
        fields.push(("spans_file", string(&f)));
    }
    println!("detail {}", object(fields));
}
