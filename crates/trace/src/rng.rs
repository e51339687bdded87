//! Deterministic pseudo-random number generation.
//!
//! The simulator needs bit-for-bit reproducible runs (same seed → same trace →
//! same cycle counts) that do not drift across versions of an external crate,
//! so we implement the well-known splitmix64 / xoshiro256** generators here.
//! Both are tested against the reference vectors published by their authors.

/// splitmix64 step: used to expand a single `u64` seed into a full
/// xoshiro256** state, and usable as a tiny standalone generator.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** — a small, fast, high-quality PRNG (Blackman & Vigna).
///
/// All stochastic decisions in the trace generator draw from this type, so a
/// `(profile, seed)` pair fully determines a benchmark's instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed via splitmix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator; used to give each static
    /// program / dynamic stream / address pool its own stream.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`. Uses Lemire's multiply-shift rejection method,
    /// so the distribution is exactly uniform.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick an index according to a slice of non-negative weights.
    /// Panics if the weights sum to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Geometric-ish draw in `[1, max]`: returns small values most often.
    /// Used for register dependency distances.
    pub fn geometric(&mut self, p: f64, max: u64) -> u64 {
        debug_assert!((0.0..1.0).contains(&p));
        let mut v = 1;
        while v < max && self.chance(p) {
            v += 1;
        }
        v
    }
}

// The raw xoshiro256** state: a restored stream continues with precisely
// the draws the original would have produced.
crate::snap_fields!(Rng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vectors() {
        // Reference output for seed 1234567 from the canonical C implementation.
        let mut s = 1234567u64;
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(splitmix64(&mut s), e);
        }
    }

    #[test]
    fn xoshiro_reference_vectors() {
        // State {1,2,3,4}: first outputs of xoshiro256** from the reference
        // implementation.
        let mut r = Rng { s: [1, 2, 3, 4] };
        let expected = [
            11520u64,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
        ];
        for &e in &expected {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = Rng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_endpoints() {
        let mut r = Rng::new(9);
        let mut saw_lo = false;
        for _ in 0..1000 {
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
            saw_lo |= v == 5;
        }
        assert!(saw_lo, "lower endpoint should be reachable");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(13);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = Rng::new(17);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = Rng::new(19);
        for _ in 0..1000 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_is_roughly_proportional() {
        let mut r = Rng::new(23);
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            counts[r.weighted(&[1.0, 2.0, 3.0])] += 1;
        }
        let total = 60_000f64;
        assert!((counts[0] as f64 / total - 1.0 / 6.0).abs() < 0.02);
        assert!((counts[1] as f64 / total - 2.0 / 6.0).abs() < 0.02);
        assert!((counts[2] as f64 / total - 3.0 / 6.0).abs() < 0.02);
    }

    #[test]
    fn geometric_bounds() {
        let mut r = Rng::new(29);
        for _ in 0..1000 {
            let v = r.geometric(0.5, 8);
            assert!((1..=8).contains(&v));
        }
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut a = Rng::new(31);
        let mut b = a.fork();
        // The parent and child should not be emitting the same stream.
        let pa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let pb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(pa, pb);
    }
}
