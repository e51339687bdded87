//! A dependency-free benchmark harness.
//!
//! The workspace builds in offline containers where external dev-dependency
//! crates (e.g. criterion) cannot be fetched, so the bench targets time
//! themselves with [`std::time::Instant`]. The reporting format is
//! deliberately criterion-like (`group/name  time: [..]`), and each bench
//! target keeps its entry-point names, so `cargo bench -p smt-bench` and
//! `cargo bench -- <filter>` behave the way they always did.

#![expect(
    clippy::disallowed_methods,
    reason = "bench targets time themselves with the wall clock; they never feed simulated state"
)]

use std::time::{Duration, Instant};

/// Re-export of the compiler fence against over-optimization; benches wrap
/// their computed values in this.
pub use std::hint::black_box;

/// One benchmark group: a named collection of timed closures with a shared
/// sample count and a substring filter from the command line.
pub struct Group {
    name: String,
    samples: u32,
    filter: Option<String>,
}

impl Group {
    pub fn new(name: &str) -> Group {
        // `cargo bench -- <filter>` forwards everything after `--` to the
        // bench binary; flag-looking arguments (`--bench`) come from cargo
        // itself and are not filters.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Group {
            name: name.to_string(),
            samples: 10,
            filter,
        }
    }

    /// Number of timed samples per bench (after one untimed warm-up run).
    pub fn sample_size(&mut self, n: u32) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Time `f`, printing per-sample statistics. Skipped when a command-line
    /// filter is present and matches neither the group nor the bench name.
    pub fn bench_function<T>(&mut self, bench: &str, mut f: impl FnMut() -> T) -> &mut Self {
        let full = format!("{}/{}", self.name, bench);
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        black_box(f()); // warm-up, untimed
        let mut times: Vec<Duration> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed());
        }
        times.sort_unstable();
        let total: Duration = times.iter().sum();
        let mean = total / self.samples;
        let (min, max) = (times[0], times[times.len() - 1]);
        println!(
            "{full:<40} time: [{} {} {}]  ({} samples)",
            fmt_duration(min),
            fmt_duration(mean),
            fmt_duration(max),
            self.samples
        );
        self
    }

    pub fn finish(&mut self) {}
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_with_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(512)), "512 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.000 s");
    }

    #[test]
    fn groups_run_and_filter() {
        let mut g = Group {
            name: "g".into(),
            samples: 2,
            filter: Some("nomatch".into()),
        };
        let mut ran = false;
        g.bench_function("skipped", || ran = true);
        assert!(!ran, "filtered bench must not run");
        g.filter = None;
        g.sample_size(3).bench_function("runs", || ran = true);
        assert!(ran);
    }
}
