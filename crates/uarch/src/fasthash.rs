//! A fast, deterministic hasher for the simulator's integer-keyed maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant, which is wasted work here: every hot map in the simulator
//! is keyed by a `u64` (line addresses, load ids) that an adversary cannot
//! choose, and the maps are queried on nearly every simulated cycle. This
//! hasher runs the key through the splitmix64 finalizer — a full-avalanche
//! integer mix — in a handful of arithmetic instructions, and is unseeded so
//! map behaviour is identical across runs and across Rust releases.

#[expect(
    clippy::disallowed_types,
    reason = "the FastMap definition site wraps std's HashMap with the fixed-seed FastHasher"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` specialised to the splitmix-based [`FastHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "the FastMap definition site wraps std's HashMap with the fixed-seed FastHasher"
)]
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Hasher state: the mixed value of the last integer written.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

/// splitmix64's finalizer: a bijective full-avalanche mix of one word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Byte-slice fallback (unused by the integer-keyed maps): FNV-1a
    /// folded through the same finalizer.
    fn write(&mut self, bytes: &[u8]) {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.hash;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = mix(h);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = mix(self.hash ^ n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1_000u64 {
            m.insert(i * 64, i);
        }
        for i in 0..1_000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        assert_eq!(m.len(), 1_000);
    }

    #[test]
    fn mix_avalanches_sequential_keys() {
        // Line addresses differ in low bits; the mix must spread them so
        // sequential keys do not collide into adjacent buckets forever.
        let h = |k: u64| {
            let mut hh = FastHasher::default();
            hh.write_u64(k);
            hh.finish()
        };
        let a = h(0x1000);
        let b = h(0x1040);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8, "poor diffusion: {a:x} vs {b:x}");
    }

    #[test]
    fn deterministic_across_instances() {
        let h = |k: u64| {
            let mut hh = FastHasher::default();
            hh.write_u64(k);
            hh.finish()
        };
        assert_eq!(h(42), h(42));
    }
}
