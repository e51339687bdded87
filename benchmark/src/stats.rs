//! Order statistics for timings.

/// Median of `xs`; the mean of the middle pair for an even count. `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A per-call timing: its median, its tail, and how many calls were timed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it: the
    /// eleventh-largest sample. With ten samples or fewer there is no
    /// such percentile and this is the largest sample.
    pub tail: f64,
    /// Which percentile `tail` is, in percent.
    pub tail_pct: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (tail, tail_pct) = match n {
            0 => (f64::NAN, f64::NAN),
            1..=10 => (v[n - 1], 100.0),
            _ => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
        };
        Summary {
            p50: median(&v),
            tail,
            tail_pct,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > s.tail).count(), 10);
        let few = Summary::of(&[1.0, 5.0, 2.0]);
        assert_eq!((few.tail, few.n), (5.0, 3));
    }
}
