//! Observability from the library: attach a [`RecordingProbe`] to a
//! simulation, read its interval series, and export the capture as a
//! Chrome trace-event file you can open in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` — the gated stretches
//! of each thread show up as named slices, dcache misses as async spans,
//! and the series as counter tracks.
//!
//! ```text
//! cargo run --release --example trace_capture
//! ```

use dwarn_smt::core::PolicyKind;
use dwarn_smt::obs::{chrome_trace, GateReason, IntervalConfig, RecordingProbe};
use dwarn_smt::pipeline::{SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

fn main() {
    let wl = workload(4, WorkloadClass::Mix);
    let specs = wl.thread_specs();

    // Same constructor shape as Simulator::new, plus the probe. NullProbe
    // (what `new` uses) compiles to nothing; RecordingProbe records an
    // event ring over a 50-cycle interval series.
    let probe = RecordingProbe::new(1 << 20, IntervalConfig { window: 50 });
    let mut sim = Simulator::with_probe(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &specs,
        probe,
    );
    let result = sim.run(2_000, 20_000);
    let (ring, series) = sim.into_probe().into_parts();

    println!(
        "{} under DWarn: throughput {:.2} IPC\n",
        wl.name,
        result.throughput()
    );
    // Whole-run sums of the series, warmup included.
    let total = series.total();
    for (t, bench) in wl.benchmarks.iter().enumerate() {
        let w = &total.threads[t];
        println!(
            "t{t} {bench:<7} committed {:>6}  L1 misses {:>4} ({:>3} to L2, \
             {:.2} outstanding on average)  warn changes {:>3}  \
             gated {:>5} cycles ({} by policy)",
            w.committed,
            w.l1d_misses,
            w.l2_misses,
            w.outstanding_acc as f64 / total.cycles as f64,
            w.warn_transitions,
            w.gate_cycles.iter().sum::<u64>(),
            w.gate_cycles[GateReason::Policy.index()],
        );
    }
    println!(
        "\nevent ring: {} events captured, {} dropped; {} intervals of {} cycles",
        ring.len(),
        ring.dropped(),
        series.intervals.len(),
        series.window
    );

    let names: Vec<String> = wl.benchmarks.iter().map(|b| b.to_string()).collect();
    let trace = chrome_trace(&ring, &series, &names);
    let path = "target/trace_capture.trace.json";
    std::fs::write(path, trace).expect("write trace");
    println!("wrote {path} — open it at https://ui.perfetto.dev");
}
