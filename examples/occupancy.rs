//! Resource-occupancy analysis: the paper's §2 argument, made visible.
//!
//! "The actual problems are the issue queues and the physical registers,
//! because they are used for a variable, long period." This example
//! integrates both, cycle by cycle, with an interval probe while each fetch
//! policy runs the 4-MIX workload, and shows how much of the shared machine
//! the MEM threads freeze under each policy — the mechanism behind every
//! number in Figures 1–5.
//!
//! ```text
//! cargo run --release --example occupancy
//! ```

use dwarn_smt::core::PolicyKind;
use dwarn_smt::metrics::table::TextTable;
use dwarn_smt::obs::{IntervalConfig, IntervalProbe};
use dwarn_smt::pipeline::{SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 60_000;

fn main() {
    let wl = workload(4, WorkloadClass::Mix);
    println!("workload {}: {}\n", wl.name, wl.benchmarks.join(", "));

    let mut t = TextTable::new(vec![
        "policy",
        "tput",
        "IQ int avg/32",
        "IQ ldst avg/32",
        "int regs avg",
        "mcf ROB avg",
        "mcf IQ avg",
    ]);
    for kind in PolicyKind::paper_set() {
        // One warmup-long window, dropped: the rest is the measured run.
        let probe = IntervalProbe::new(IntervalConfig { window: WARMUP });
        let specs = wl.thread_specs();
        let mut sim = Simulator::with_probe(SimConfig::baseline(), kind.build(), &specs, probe);
        let r = sim.run(WARMUP, MEASURE);
        let mut series = sim.into_probe().into_series();
        series.intervals.remove(0);
        let m = series.total();
        let mean = |acc: u64| acc as f64 / m.cycles as f64;
        t.row(vec![
            kind.name().to_string(),
            format!("{:.2}", r.throughput()),
            format!("{:.1}", mean(m.iq_occ_acc[0])),
            format!("{:.1}", mean(m.iq_occ_acc[2])),
            format!("{:.0}", mean(m.regs_acc.0)),
            format!("{:.1}", mean(m.threads[3].rob_acc)),
            format!("{:.1}", mean(m.threads[3].iq_acc)),
        ]);
    }
    println!("{}", t.render());
    println!("mcf (thread 3) is the long-latency offender:");
    println!(" - under ICOUNT its dependents sit in the issue queues for 100+ cycles;");
    println!(" - DG/PDG keep the queues clean but starve it;");
    println!(" - DWarn holds its issue-queue share down without ever gating it.");
}
