//! Implementing a custom fetch policy against the public `FetchPolicy`
//! trait — the extension point a downstream user of this library would
//! reach for.
//!
//! Two custom policies are built here and raced against ICOUNT and DWarn:
//!
//! * `RoundRobin` — the classic strawman: rotate fetch priority each cycle,
//!   ignoring all machine state.
//! * `DWarnPlusTlb` — a DWarn extension sketch: treat a thread with any
//!   outstanding *declared* load as a third, lowest class even at 4+
//!   threads (a milder cousin of the paper's hybrid gate).
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use dwarn_smt::core::PolicyKind;
use dwarn_smt::metrics::table::TextTable;
use dwarn_smt::pipeline::{FetchPolicy, PolicyView, SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

/// Rotating fetch priority, blind to all machine state.
struct RoundRobin {
    turn: usize,
}

impl FetchPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        let n = view.num_threads();
        self.turn = (self.turn + 1) % n;
        out.clear();
        out.extend((0..n).map(|i| (self.turn + i) % n));
    }

    // The rotation advances on every call: not idempotent, so the
    // quiescence engine must not skip cycles under this policy.
    fn quiescence_safe(&self) -> bool {
        false
    }
}

/// DWarn with a third priority class: threads with a *declared* long-latency
/// load sort behind every merely-L1-missing thread, at any thread count.
struct ThreeClassDWarn;

impl FetchPolicy for ThreeClassDWarn {
    fn name(&self) -> &'static str {
        "DWARN-3C"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
        out.sort_by_key(|&t| {
            let v = view.threads[t];
            if v.declared_l2 > 0 {
                2u32
            } else if v.dmiss_count > 0 {
                1
            } else {
                0
            }
        });
    }

    // A pure function of the view: idle cycles may be skipped in bulk.
    fn quiescence_safe(&self) -> bool {
        true
    }
}

fn main() {
    let wl = workload(4, WorkloadClass::Mix);
    println!("workload {}: {}\n", wl.name, wl.benchmarks.join(", "));

    let mut t = TextTable::new(vec!["policy", "throughput", "per-thread IPCs"]);
    let mut run = |name: String, policy: Box<dyn FetchPolicy>| {
        let mut sim = Simulator::new(SimConfig::baseline(), policy, &wl.thread_specs());
        let r = sim.run(20_000, 60_000);
        let ipcs: Vec<String> = r.ipcs().iter().map(|i| format!("{i:.2}")).collect();
        t.row(vec![
            name,
            format!("{:.2}", r.throughput()),
            ipcs.join(" / "),
        ]);
    };

    run("ICOUNT".into(), PolicyKind::Icount.build());
    run("DWARN".into(), PolicyKind::DWarn.build());
    run("RR (custom)".into(), Box::new(RoundRobin { turn: 0 }));
    run("DWARN-3C (custom)".into(), Box::new(ThreeClassDWarn));

    println!("{}", t.render());
    println!("threads: {}", wl.benchmarks.join(" / "));
}
