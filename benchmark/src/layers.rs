//! The traced run's layer pass, and the per-layer metrics.
//!
//! The layer pass re-issues each request of the workload through the
//! layers' public calls, with a span around every call: build the
//! simulator and run it with a snapshot at every checkpoint interval;
//! encode, decode and restore each snapshot and capture it again; resume
//! the last one to the end; store and load one cache entry and one
//! checkpoint and append a journal line. On a few requests it also runs
//! the observer configurations side by side and times fixed slices of
//! `step()`, `next_inst`, `MemHierarchy::load` and `fetch_order_into`.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::adapter::{
    self, Arch, Class, MachineSnapshot, Observers, Policy, Request, Sim, Stores, ThreadView,
    Window, CHECKPOINT_INTERVAL,
};
use crate::gate;
use crate::span::Tracer;
use crate::stats::{median, Summary};
use crate::workload::{E2e, Env, Kind};

/// Cycles of naive `step()` calls per slice, timed in chunks of
/// `STEP_CHUNK`; one policy view is sampled after each chunk.
const STEP_SLICE: u64 = 20_000;
const STEP_CHUNK: u64 = 64;
/// ns-scale calls are timed in batches: each sample is one batch's mean.
const BATCH: usize = 256;
const BATCHES: usize = 200;
/// Timed repeats of each interval export.
const EXPORT_REPEATS: usize = 50;
/// Store and load calls a layer pass makes at least, spread evenly over
/// its requests, so each store timing has a tail.
const STORE_SAMPLES: usize = 128;
/// Side-by-side repeats of the observer configurations.
const OBSERVER_REPEATS: usize = 2;
/// The policies whose `fetch_order_into` is timed.
const ORDER_POLICIES: [&str; 7] = ["ICOUNT", "STALL", "FLUSH", "DG", "PDG", "DWARN", "META-IPC"];

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics {
    pub values: Vec<(String, f64, &'static str)>,
    /// Which percentile each `.tail` metric is, for the detail line.
    pub tail_pcts: BTreeMap<String, f64>,
}

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }

    /// A per-call timing: `.p50`, `.tail` and `.n`, from samples in
    /// seconds, reported in `unit` (`"us"` or `"ns"`).
    fn timing(&mut self, name: &str, samples_s: &[f64], unit: &'static str) {
        let scale = if unit == "ns" { 1e9 } else { 1e6 };
        let scaled: Vec<f64> = samples_s.iter().map(|s| s * scale).collect();
        let s = Summary::of(&scaled);
        self.put(format!("{name}.p50"), s.p50, unit);
        self.put(format!("{name}.tail"), s.tail, unit);
        self.put(format!("{name}.n"), s.n as f64, "count");
        self.tail_pcts.insert(name.to_string(), s.tail_pct);
    }
}

/// What the layer pass accumulates besides spans.
#[derive(Default)]
pub struct Acc {
    cycles: u64,
    committed: u64,
    skipped: u64,
    skip_spans: u64,
    emitted: u64,
    switches: u64,
    ckpt_stores: u64,
    snapshot_bytes: Vec<f64>,
    entry_bytes: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    throughput: Vec<f64>,
    machine: adapter::Machine,
    stepped: u64,
    /// Host seconds per observer configuration, summed.
    plain_s: f64,
    sanitized_s: f64,
    probed_s: f64,
    sequential_s: f64,
    fragmented_s: f64,
    violations: u64,
    fragments: u64,
    fragment_bytes: u64,
    export_bytes: u64,
}

/// The requests the layer pass re-issues.
fn layer_requests(kind: Kind, seed: u64) -> Vec<Request> {
    match kind {
        Kind::PaperAll => [Arch::Baseline, Arch::Small, Arch::Deep]
            .into_iter()
            .flat_map(|a| Request::grid(a, Window::Quick))
            .collect(),
        _ => kind.requests(seed),
    }
}

/// The requests the observer comparisons and call slices run on: the
/// widest workload under DWarn (and META-IPC where the workload runs it).
fn probe_requests(kind: Kind, seed: u64) -> Vec<Request> {
    let widest = |r: &Request| r.threads() == 8;
    let chosen = |r: &Request| matches!(r.policy.name(), "DWARN" | "META-IPC");
    match kind {
        Kind::PaperAll => vec![Request::new(
            Arch::Baseline,
            8,
            Class::Mix,
            Policy::parse("DWARN").expect("a policy the repository defines"),
            adapter::DEFAULT_SEED,
            Window::Quick,
        )],
        _ => kind
            .requests(seed)
            .into_iter()
            .filter(|r| widest(r) && chosen(r))
            .collect(),
    }
}

/// Run the layer pass and assemble every per-layer metric.
pub fn run(env: &Env, e2e: &E2e, tracer: &mut Tracer) -> (Metrics, u64, Vec<String>) {
    tracer.set_on(true);
    let mut problems = Vec::new();
    let mut acc = Acc::default();
    let requests = layer_requests(env.kind, env.seed);
    let reference = |req: &Request| -> Option<u64> {
        match (&e2e.campaign, env.kind) {
            (Some(c), Kind::PaperAll) => adapter::campaign_digest(c, req).ok(),
            _ => e2e.reference.get(&req.label()).copied(),
        }
    };
    let stores = Stores::open(&env.scratch.join("layer-stores"));
    let mut stores = match stores {
        Ok(s) => Some(s),
        Err(e) => {
            problems.push(format!("layer stores: {e}"));
            None
        }
    };
    let store_repeats = STORE_SAMPLES.div_ceil(requests.len().max(1));
    for (k, req) in requests.iter().enumerate() {
        let want = reference(req);
        let stores = stores.as_mut();
        if let Err(e) = one_request(
            k as u64 + 1,
            req,
            want,
            stores,
            store_repeats,
            tracer,
            &mut acc,
        ) {
            problems.push(format!("{} (layer pass): {e}", req.label()));
        }
    }
    let probes = probe_requests(env.kind, env.seed);
    let mut views = Vec::new();
    for (k, req) in probes.iter().enumerate() {
        let id = (requests.len() + k) as u64 + 1;
        if let Err(e) = observers(id, req, reference(req), env.jobs, tracer, &mut acc) {
            problems.push(format!("{} (observers): {e}", req.label()));
        }
        match step_slice(id, req, tracer, &mut acc) {
            Ok(v) => views.extend(v),
            Err(e) => problems.push(format!("{} (step slice): {e}", req.label())),
        }
        call_slices(id, req, tracer);
    }
    for name in ORDER_POLICIES {
        order_slice(name, &views, tracer);
    }
    tracer.set_on(false);
    let attempted = (requests.len() + probes.len()) as u64;
    (metrics(e2e, &acc, tracer), attempted, problems)
}

/// The layer pass for one request, whose reference digest is `want`.
/// The first check that fails ends it.
pub fn one_request(
    id: u64,
    req: &Request,
    want: Option<u64>,
    stores: Option<&mut Stores>,
    store_repeats: usize,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> Result<(), String> {
    let mut sim = tracer.span("pipeline.build", id, || adapter::build(req))?;
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let open = tracer.enter("pipeline.run", id);
    let result = sim.run_checkpointed(req, CHECKPOINT_INTERVAL, &mut |snap| {
        let bytes = tracer.span("snapshot.encode", id, || adapter::encode(snap));
        encoded.push(bytes);
    });
    tracer.exit(open);
    let result = result?;
    let digest = adapter::digest(&result);
    gate::digest_check("run", digest, want)?;
    acc.cycles += req.window.cycles();
    acc.committed += sim.committed();
    let (skipped, spans) = sim.skip_stats();
    acc.skipped += skipped;
    acc.skip_spans += spans;
    acc.emitted += sim.trace_emitted();
    acc.switches += sim.policy_switches();
    acc.ckpt_stores += encoded.len() as u64;
    let m = adapter::machine(&result);
    acc.throughput.push(m.throughput);
    acc.machine.fetched += m.fetched;
    acc.machine.wrong_path += m.wrong_path;
    acc.machine.flush_squashed += m.flush_squashed;
    acc.machine.loads += m.loads;
    acc.machine.l1_misses += m.l1_misses;
    acc.machine.l2_misses += m.l2_misses;
    acc.machine.tlb_misses += m.tlb_misses;

    // Each checkpoint is restored into a freshly built simulator, as a
    // resumed campaign does; the last one is also run to the end.
    let mut last = None;
    for bytes in &encoded {
        let snap = decode_checked(id, bytes, tracer)?;
        acc.snapshot_bytes.push(bytes.len() as f64);
        let mut target = tracer.span("pipeline.build", id, || adapter::build(req))?;
        tracer.span("snapshot.restore", id, || target.restore(&snap))?;
        black_box(tracer.span("snapshot.capture", id, || target.capture()));
        last = Some((snap, target));
    }
    if let Some((snap, target)) = &mut last {
        resume_checked(id, target, snap, want, tracer)?;
    }

    let Some(stores) = stores else {
        return Ok(());
    };
    for r in 0..store_repeats {
        let key = format!("{} #{r}", req.label());
        let size = tracer
            .span("cache.store", id, || stores.store_result(&key, &result))
            .map_err(|e| format!("cache store: {e}"))?;
        acc.entry_bytes.push(size as f64);
        load_result_checked(id, stores, &key, digest, tracer)?;
        if let Some((snap, _)) = &last {
            let size = tracer
                .span("ckpt.store", id, || stores.store_checkpoint(&key, snap))
                .map_err(|e| format!("checkpoint store: {e}"))?;
            acc.ckpt_bytes.push(size as f64);
            load_checkpoint_checked(id, stores, &key, snap, tracer)?;
        }
        tracer
            .span("ckpt.journal", id, || {
                stores.journal_completed(&key, digest)
            })
            .map_err(|e| format!("journal: {e}"))?;
    }
    Ok(())
}

/// Decode one snapshot, which must re-encode to its own bytes.
pub fn decode_checked(
    id: u64,
    bytes: &[u8],
    tracer: &mut Tracer,
) -> Result<MachineSnapshot, String> {
    let snap = tracer.span("snapshot.decode", id, || adapter::decode(bytes))?;
    gate::reencodes(&snap, bytes)?;
    Ok(snap)
}

/// Load the result stored under `key`, which must be the one stored with
/// `digest`.
pub fn load_result_checked(
    id: u64,
    stores: &Stores,
    key: &str,
    digest: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let loaded = tracer.span("cache.load", id, || stores.load_result(key))?;
    gate::loaded_back("cache entry", loaded.as_ref().map(adapter::digest), digest)
}

/// Load the checkpoint stored under `key`, which must be `snap`.
pub fn load_checkpoint_checked(
    id: u64,
    stores: &Stores,
    key: &str,
    snap: &MachineSnapshot,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let loaded = tracer.span("ckpt.load", id, || stores.load_checkpoint(key))?;
    gate::loaded_back(
        "checkpoint",
        loaded.as_ref().map(adapter::snapshot_digest),
        adapter::snapshot_digest(snap),
    )
}

/// Restore the run-carrying checkpoint `snap` into `target` and run it to
/// the end of its window; its result must have the digest `want`.
pub fn resume_checked(
    id: u64,
    target: &mut Sim,
    snap: &MachineSnapshot,
    want: Option<u64>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let resumed = tracer.span("pipeline.resume_run", id, || target.resume_from(snap))?;
    gate::digest_check(
        "resume from the last checkpoint",
        adapter::digest(&resumed),
        want,
    )
}

/// The same request plain, sanitized, probed, and probed and sanitized
/// both sequentially and through fragment replay, each of whose results
/// must have the digest `want`.
pub fn observers(
    id: u64,
    req: &Request,
    want: Option<u64>,
    jobs: usize,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> Result<(), String> {
    let check =
        |what: &str, r: &adapter::SimResult| gate::digest_check(what, adapter::digest(r), want);
    for rep in 0..OBSERVER_REPEATS {
        let (r, s, _, _) = tracer.span("observers.plain", id, || {
            adapter::run_observed(req, Observers::Plain)
        })?;
        check("plain", &r)?;
        acc.plain_s += s;
        let (r, s, _, v) = tracer.span("observers.sanitized", id, || {
            adapter::run_observed(req, Observers::Sanitized)
        })?;
        check("sanitized", &r)?;
        acc.sanitized_s += s;
        acc.violations += v;
        let (r, s, series, _) = tracer.span("observers.probed", id, || {
            adapter::run_observed(req, Observers::Probed)
        })?;
        check("probed", &r)?;
        acc.probed_s += s;
        let (r, s, _, v) = tracer.span("observers.probed_sanitized", id, || {
            adapter::run_observed(req, Observers::ProbedSanitized)
        })?;
        check("probed and sanitized", &r)?;
        acc.sequential_s += s;
        acc.violations += v;
        let f = tracer.span("fragment.run", id, || adapter::run_fragmented(req, jobs))?;
        check("fragmented", &f.result)?;
        acc.fragmented_s += f.secs;
        acc.violations += f.violations;
        if rep == 0 {
            acc.fragments += f.fragments;
            acc.fragment_bytes += f.snapshot_bytes;
            let series = series.ok_or("probed run returned no interval series")?;
            for i in 0..EXPORT_REPEATS {
                let (jsonl, trace) = tracer.span("interval.export", id, || {
                    adapter::export_intervals(req, &series)
                });
                if i == 0 {
                    acc.export_bytes += (jsonl.len() + trace.len()) as u64;
                }
                black_box((jsonl, trace));
            }
        }
    }
    Ok(())
}

/// Time naive `step()` calls and sample the policy's view after each
/// chunk.
fn step_slice(
    id: u64,
    req: &Request,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> Result<Vec<Vec<ThreadView>>, String> {
    let mut sim: Sim = adapter::build(req)?;
    let mut views = Vec::new();
    for _ in 0..STEP_SLICE / STEP_CHUNK {
        tracer.span("pipeline.step", id, || {
            for _ in 0..STEP_CHUNK {
                sim.step();
            }
        });
        views.push(sim.policy_view());
    }
    acc.stepped += STEP_SLICE / STEP_CHUNK * STEP_CHUNK;
    Ok(views)
}

/// Time batches of `next_inst` and of `MemHierarchy::load` over the
/// request's own load addresses.
fn call_slices(id: u64, req: &Request, tracer: &mut Tracer) {
    let mut stream = adapter::Stream::new(req);
    for _ in 0..BATCHES {
        tracer.span("trace.next_inst", id, || {
            for _ in 0..BATCH {
                black_box(stream.next_load());
            }
        });
    }
    let mut source = adapter::Stream::new(req);
    let mut addrs = Vec::with_capacity(BATCH * BATCHES);
    while addrs.len() < BATCH * BATCHES {
        if let Some(a) = source.next_load() {
            addrs.push(a);
        }
    }
    // Each load issues when the previous one's data arrives, so misses do
    // not pile up behind the memory bus as they cannot in the pipeline.
    let mut hier = adapter::Hierarchy::new(req);
    let mut now = 0;
    for chunk in addrs.chunks(BATCH) {
        tracer.span("uarch.load", id, || {
            for &a in chunk {
                now = black_box(hier.load(a, now)).max(now + 1);
            }
        });
    }
}

/// Time `fetch_order_into` of one policy over the sampled views.
fn order_slice(name: &str, views: &[Vec<ThreadView>], tracer: &mut Tracer) {
    let (Some(policy), false) = (Policy::parse(name), views.is_empty()) else {
        return;
    };
    let mut p = policy.instantiate();
    let mut out = Vec::with_capacity(8);
    let span = format!("policy.order.{name}");
    for b in 0..BATCHES {
        tracer.span(&span, 0, || {
            for i in 0..BATCH {
                let n = b * BATCH + i;
                p.order(n as u64, &views[n % views.len()], &mut out);
                black_box(&out);
            }
        });
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::NAN
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
fn metrics(e2e: &E2e, acc: &Acc, tracer: &Tracer) -> Metrics {
    let own = tracer.self_seconds();
    let per_call = |name: &str| -> Vec<f64> {
        tracer
            .durations(name)
            .into_iter()
            .map(|s| s / BATCH as f64)
            .collect()
    };
    let mut m = Metrics::default();

    for exp in adapter::paper_suite() {
        let secs = own.get(&format!("exp.{exp}")).copied().unwrap_or(0.0);
        m.put(
            format!("runner.exp_s.{exp}"),
            ratio(secs, e2e.calls_traced.len() as f64).max(0.0),
            "s",
        );
    }
    m.put("runner.sim_runs", e2e.counters.sim_runs as f64, "count");
    m.put("runner.disk_hits", e2e.counters.disk_hits as f64, "count");
    m.put("runner.coalesced", e2e.counters.coalesced as f64, "count");
    m.put("runner.pool_busy_frac", median(&e2e.busy), "fraction");
    m.put("warm_s", median(&e2e.warm), "s");

    m.timing("cache.store_us", &tracer.durations("cache.store"), "us");
    m.timing("cache.load_us", &tracer.durations("cache.load"), "us");
    m.put("cache.entries", e2e.cache_entries as f64, "count");
    m.put("cache.entry_bytes", mean(&acc.entry_bytes), "bytes");
    m.put(
        "cache.warm_hit_frac",
        ratio(e2e.warm_disk_hits as f64, e2e.warm_lookups as f64).max(0.0),
        "fraction",
    );

    m.put("ckpt.stores", acc.ckpt_stores as f64, "count");
    m.timing("ckpt.store_us", &tracer.durations("ckpt.store"), "us");
    m.timing("ckpt.load_us", &tracer.durations("ckpt.load"), "us");
    m.timing("ckpt.journal_us", &tracer.durations("ckpt.journal"), "us");
    m.put("ckpt.bytes", mean(&acc.ckpt_bytes), "bytes");

    m.timing(
        "pipeline.build_us",
        &tracer.durations("pipeline.build"),
        "us",
    );
    let run_s = own.get("pipeline.run").copied().unwrap_or(f64::NAN);
    m.put(
        "pipeline.run_ns_per_cycle",
        ratio(run_s * 1e9, acc.cycles as f64),
        "ns",
    );
    m.put(
        "pipeline.run_ns_per_inst",
        ratio(run_s * 1e9, acc.committed as f64),
        "ns",
    );
    let step_s: f64 = tracer.durations("pipeline.step").iter().sum();
    m.put(
        "pipeline.step_ns_per_cycle",
        ratio(step_s * 1e9, acc.stepped as f64),
        "ns",
    );

    m.put(
        "skip.frac",
        ratio(acc.skipped as f64, acc.cycles as f64),
        "fraction",
    );
    m.put("skip.spans", acc.skip_spans as f64, "count");
    m.put(
        "skip.mean_span_cycles",
        if acc.skip_spans == 0 {
            0.0
        } else {
            acc.skipped as f64 / acc.skip_spans as f64
        },
        "cycles",
    );

    m.timing(
        "snapshot.capture_us",
        &tracer.durations("snapshot.capture"),
        "us",
    );
    m.timing(
        "snapshot.restore_us",
        &tracer.durations("snapshot.restore"),
        "us",
    );
    m.timing(
        "snapshot.encode_us",
        &tracer.durations("snapshot.encode"),
        "us",
    );
    m.timing(
        "snapshot.decode_us",
        &tracer.durations("snapshot.decode"),
        "us",
    );
    m.put("snapshot.bytes", mean(&acc.snapshot_bytes), "bytes");

    m.put("fragment.count", acc.fragments as f64, "count");
    m.put(
        "fragment.snapshot_bytes",
        acc.fragment_bytes as f64,
        "bytes",
    );
    m.put(
        "fragment.speedup",
        ratio(acc.sequential_s, acc.fragmented_s),
        "ratio",
    );

    m.put(
        "sanitizer.overhead",
        ratio(acc.sanitized_s, acc.plain_s),
        "ratio",
    );
    m.put("sanitizer.violations", acc.violations as f64, "count");

    m.put(
        "interval.overhead",
        ratio(acc.probed_s, acc.plain_s),
        "ratio",
    );
    m.timing(
        "interval.export_us",
        &tracer.durations("interval.export"),
        "us",
    );
    m.put("interval.export_bytes", acc.export_bytes as f64, "bytes");

    for name in ORDER_POLICIES {
        m.timing(
            &format!("policy.order_ns.{name}"),
            &per_call(&format!("policy.order.{name}")),
            "ns",
        );
    }
    m.put("policy.meta_switches", acc.switches as f64, "count");

    m.timing("trace.next_inst_ns", &per_call("trace.next_inst"), "ns");
    m.put("trace.emitted", acc.emitted as f64, "count");

    m.timing("uarch.load_ns", &per_call("uarch.load"), "ns");
    let mc = &acc.machine;
    m.put(
        "uarch.l1d_miss_frac",
        ratio(mc.l1_misses as f64, mc.loads as f64),
        "fraction",
    );
    m.put(
        "uarch.l2_miss_frac",
        ratio(mc.l2_misses as f64, mc.loads as f64),
        "fraction",
    );
    m.put(
        "uarch.tlb_miss_frac",
        ratio(mc.tlb_misses as f64, mc.loads as f64),
        "fraction",
    );

    m.put("machine.ipc", mean(&acc.throughput), "ipc");
    m.put(
        "machine.wrong_path_frac",
        ratio(mc.wrong_path as f64, mc.fetched as f64),
        "fraction",
    );
    m.put(
        "machine.flush_squash_frac",
        ratio(mc.flush_squashed as f64, mc.fetched as f64),
        "fraction",
    );

    m.put(
        "trace_overhead_frac",
        ratio(e2e.wall_traced_s(), e2e.wall_s()) - 1.0,
        "fraction",
    );
    m
}
