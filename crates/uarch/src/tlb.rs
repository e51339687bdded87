//! Data TLB model.
//!
//! One fully-associative, LRU DTLB per hardware context. A miss costs the
//! paper's 160-cycle penalty (Table 3) and — for the STALL and FLUSH
//! policies — also triggers the policy's long-latency response, as specified
//! in the paper's §5 implementation notes.

use smt_trace::snap_fields;
use smt_trace::snapio::Seq;

/// DTLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    pub entries: usize,
    pub page_bytes: u64,
}

impl TlbConfig {
    /// A typical early-2000s DTLB: 128 entries, 8 KB pages.
    pub fn default_dtlb() -> TlbConfig {
        TlbConfig {
            entries: 128,
            page_bytes: 8 * 1024,
        }
    }
}

/// Fully-associative, true-LRU TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    page_shift: u32,
    /// (virtual page number, stamp); linear scan — entry counts are small.
    entries: Vec<(u64, u64)>,
    stamp: u64,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    pub fn new(cfg: TlbConfig) -> Tlb {
        assert!(cfg.page_bytes.is_power_of_two());
        assert!(cfg.entries >= 1);
        Tlb {
            page_shift: cfg.page_bytes.trailing_zeros(),
            entries: Vec::with_capacity(cfg.entries),
            stamp: 0,
            accesses: 0,
            misses: 0,
            cfg,
        }
    }

    /// Translate an address: returns `true` on a TLB hit. A miss installs
    /// the translation (the page walk is accounted by the caller via the
    /// configured penalty).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.stamp += 1;
        let vpn = addr >> self.page_shift;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            e.1 = self.stamp;
            return true;
        }
        self.misses += 1;
        if self.entries.len() == self.cfg.entries {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.stamp));
        false
    }

    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.cfg.page_bytes
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }
}

// Entry order matters: `swap_remove` eviction makes behaviour depend on
// the vector layout, so entries are written in their in-memory order.
snap_fields! {
    Tlb { entries: Seq(cfg.entries), stamp, accesses, misses }
    derived { cfg, page_shift }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
        })
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut t = tiny();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1000));
        assert!(t.access(0x1FFF), "same page");
        assert!(!t.access(0x2000), "next page");
    }

    #[test]
    fn lru_eviction() {
        let mut t = tiny();
        t.access(0x1000); // A
        t.access(0x2000); // B
        t.access(0x1000); // A is MRU
        t.access(0x3000); // evicts B
        assert!(t.access(0x1000));
        assert!(!t.access(0x2000), "B must have been evicted");
    }

    #[test]
    fn streaming_thrashes() {
        let mut t = tiny();
        for i in 0..100u64 {
            assert!(!t.access(i * 4096));
        }
        assert!((t.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters() {
        let mut t = tiny();
        t.access(0);
        t.access(0);
        assert_eq!(t.accesses(), 2);
        assert_eq!(t.misses(), 1);
    }

    /// Shadow model: seeded random page sequences against a naive LRU list
    /// (least recently used page first), on capacities from 1 to 8 and a
    /// page range a few times the capacity.
    #[test]
    fn matches_an_lru_list_reference_on_random_sequences() {
        for (seed, entries) in [(1, 1), (2, 2), (3, 3), (4, 8)] {
            let mut rng = smt_trace::Rng::new(seed);
            let mut tlb = Tlb::new(TlbConfig {
                entries,
                page_bytes: 4096,
            });
            let mut lru = std::collections::VecDeque::new();
            for step in 0..4_000 {
                let vpn = rng.below(3 * entries as u64 + 1);
                let hit = match lru.iter().position(|&p| p == vpn) {
                    Some(i) => {
                        lru.remove(i);
                        true
                    }
                    None => {
                        if lru.len() == entries {
                            lru.pop_front();
                        }
                        false
                    }
                };
                lru.push_back(vpn);
                let addr = vpn * 4096 + rng.below(4096);
                assert_eq!(
                    tlb.access(addr),
                    hit,
                    "seed {seed}, step {step}, page {vpn}"
                );
            }
        }
    }
}
