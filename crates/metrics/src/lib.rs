//! # smt-metrics — SMT performance metrics
//!
//! The metrics the paper evaluates with (§5):
//!
//! * **throughput** — the sum of per-thread IPCs; measures resource use;
//! * **relative IPC** — a thread's SMT IPC divided by its single-threaded
//!   IPC on the same machine;
//! * **harmonic mean (Hmean)** of relative IPCs (Luo, Gummaraju & Franklin
//!   \[8\]) — the throughput/fairness-balancing metric the paper prefers;
//! * **weighted speedup** (arithmetic mean of relative IPCs), reported for
//!   completeness (\[11\] evaluates with it);
//! * **improvement** percentages as plotted in Figures 1(b), 3, 4, 5.

// Metric comparisons go through explicit tolerances (tests may pin exact
// values).
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod chart;
pub mod table;

/// Sum of per-thread IPCs.
pub fn throughput(ipcs: &[f64]) -> f64 {
    ipcs.iter().sum()
}

/// Per-thread relative IPCs: `smt_ipc / single_ipc`.
///
/// Panics if the slices differ in length or any single-threaded IPC is not
/// strictly positive.
pub fn relative_ipcs(smt_ipcs: &[f64], single_ipcs: &[f64]) -> Vec<f64> {
    assert_eq!(
        smt_ipcs.len(),
        single_ipcs.len(),
        "one single-threaded baseline per thread"
    );
    smt_ipcs
        .iter()
        .zip(single_ipcs)
        .map(|(&s, &b)| {
            assert!(b > 0.0, "single-threaded IPC must be positive");
            s / b
        })
        .collect()
}

/// Harmonic mean of the relative IPCs: `n / Σ(1/rel_i)`.
///
/// Returns 0 if any relative IPC is 0 (a fully starved thread drives the
/// harmonic mean to zero, which is the metric's point).
pub fn hmean(relative: &[f64]) -> f64 {
    assert!(!relative.is_empty());
    if relative.contains(&0.0) {
        return 0.0;
    }
    relative.len() as f64 / relative.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// Weighted speedup: the arithmetic mean of relative IPCs.
pub fn weighted_speedup(relative: &[f64]) -> f64 {
    assert!(!relative.is_empty());
    relative.iter().sum::<f64>() / relative.len() as f64
}

/// Percentage improvement of `a` over `b`: `(a/b - 1) * 100`.
pub fn improvement_pct(a: f64, b: f64) -> f64 {
    assert!(b > 0.0, "cannot compute improvement over zero");
    (a / b - 1.0) * 100.0
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_sums() {
        assert!((throughput(&[1.5, 0.5, 1.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn relative_ipcs_divide_elementwise() {
        let r = relative_ipcs(&[1.0, 0.5], &[2.0, 2.0]);
        assert_eq!(r, vec![0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "one single-threaded baseline per thread")]
    fn relative_ipcs_length_mismatch_panics() {
        let _ = relative_ipcs(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn hmean_of_equal_values_is_that_value() {
        assert!((hmean(&[0.5, 0.5, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hmean_penalizes_imbalance_more_than_wspeedup() {
        // Same arithmetic mean, different balance.
        let balanced = [0.5, 0.5];
        let skewed = [0.9, 0.1];
        assert!((weighted_speedup(&balanced) - weighted_speedup(&skewed)).abs() < 1e-12);
        assert!(hmean(&skewed) < hmean(&balanced));
    }

    #[test]
    fn hmean_is_zero_when_a_thread_is_starved() {
        assert_eq!(hmean(&[0.9, 0.0]), 0.0);
    }

    #[test]
    fn hmean_never_exceeds_arithmetic_mean() {
        let cases: [&[f64]; 4] = [
            &[0.1, 0.9],
            &[0.33, 0.44, 0.55],
            &[1.0, 1.0],
            &[0.25, 0.5, 0.75, 1.0],
        ];
        for c in cases {
            assert!(hmean(c) <= weighted_speedup(c) + 1e-12, "{c:?}");
        }
    }

    #[test]
    fn improvement_pct_signs() {
        assert!((improvement_pct(1.2, 1.0) - 20.0).abs() < 1e-9);
        assert!((improvement_pct(0.9, 1.0) + 10.0).abs() < 1e-9);
        assert_eq!(improvement_pct(1.0, 1.0), 0.0);
    }

    #[test]
    fn table_4_reproduction_algebra() {
        // The paper's Table 4: DWARN row has relative IPCs
        // 0.44, 0.69, 0.43, 0.70 → Hmean 0.53.
        let dwarn = [0.44, 0.69, 0.43, 0.70];
        assert!((hmean(&dwarn) - 0.53).abs() < 0.01);
        // ICOUNT row: 0.36, 0.41, 0.50, 0.79 → 0.47.
        let icount = [0.36, 0.41, 0.50, 0.79];
        assert!((hmean(&icount) - 0.47).abs() < 0.01);
        // PDG row: 0.40, 0.72, 0.28, 0.31 → 0.38.
        let pdg = [0.40, 0.72, 0.28, 0.31];
        assert!((hmean(&pdg) - 0.38).abs() < 0.01);
    }
}
