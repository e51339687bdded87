#![expect(
    clippy::disallowed_methods,
    reason = "the calibration example reports how long each run took"
)]

use smt_pipeline::{FetchPolicy, PolicyView, SimConfig, Simulator, ThreadSpec};
use smt_trace::profile;
use std::time::Instant;

struct P;
impl FetchPolicy for P {
    fn name(&self) -> &'static str {
        "T"
    }
    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
}

fn main() {
    // Calibration check: run every benchmark in isolation and compare the
    // realized cache behaviour against its Table 2(a) targets.
    let t0 = Instant::now();
    let mut total_cycles = 0u64;
    for p in profile::all_benchmarks() {
        let mut s = Simulator::new(
            SimConfig::baseline(),
            Box::new(P),
            &[ThreadSpec {
                profile: p.clone(),
                seed: 42,
                skip: 0,
            }],
        );
        let r = s.run(30_000, 50_000);
        total_cycles += 80_000;
        let m = &r.mem[0];
        println!(
            "{:8} {:4} IPC {:5.2}  L1 {:5.1}% (tgt {:4.1}) L2 {:5.2}% (tgt {:4.2}) bp-miss {:4.1}%",
            p.name,
            p.class.as_str(),
            r.ipcs()[0],
            100.0 * m.l1_miss_rate(),
            100.0 * p.l1_miss_rate,
            100.0 * m.l2_miss_rate(),
            100.0 * p.l2_miss_rate,
            100.0 * r.branch_mispredict_rate
        );
    }
    let el = t0.elapsed().as_secs_f64();
    println!(
        "simulated {total_cycles} cycles in {el:.2}s = {:.0} kcycles/s",
        total_cycles as f64 / el / 1e3
    );
}
