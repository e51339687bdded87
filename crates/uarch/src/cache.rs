//! Set-associative, banked cache model with true LRU replacement.
//!
//! This is a *tag-array* model: it tracks which lines are resident (so hits
//! and misses are decided by real content, not drawn from a distribution) but
//! holds no data. Banking is modelled as one access port per bank per cycle;
//! a busy bank delays the access, which is the "resource conflicts" caveat
//! the paper attaches to its L1-miss-detection timing.

use smt_trace::snap_fields;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub size_bytes: u64,
    pub ways: u32,
    pub line_bytes: u64,
    pub banks: u64,
    /// Access latency in cycles (hit latency).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }

    /// The paper's L1 caches: 64 KB, 2-way, 8 banks, 64-byte lines, 1 cycle.
    pub fn paper_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
            banks: 8,
            latency: 1,
        }
    }

    /// The paper's L2: 512 KB, 2-way, 8 banks, 64-byte lines, 10 cycles.
    pub fn paper_l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 2,
            line_bytes: 64,
            banks: 8,
            latency: 10,
        }
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(self.banks.is_power_of_two(), "bank count must be 2^k");
        assert!(self.ways >= 1);
        assert!(
            self.sets() >= 1 && self.sets().is_power_of_two(),
            "size / (line * ways) must be a power-of-two set count"
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// Running hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub misses: u64,
}

impl CacheStats {
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    bank_mask: u64,
    /// Per-bank earliest-free cycle.
    bank_free: Vec<u64>,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate();
        let sets = cfg.sets();
        Cache {
            sets: vec![
                Line {
                    tag: 0,
                    valid: false,
                    stamp: 0
                };
                (sets * cfg.ways as u64) as usize
            ],
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            bank_mask: cfg.banks - 1,
            bank_free: vec![0; cfg.banks as usize],
            stamp: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (e.g. after cache warm-up), keeping tag state.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_range(&self, line: u64) -> (usize, usize) {
        let set = (line & self.set_mask) as usize;
        let w = self.cfg.ways as usize;
        (set * w, set * w + w)
    }

    /// Bank index of an address.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> u64 {
        self.line_addr(addr) & self.bank_mask
    }

    /// Claim the bank for one access starting no earlier than `now`;
    /// returns the cycle at which the access actually starts (≥ `now`).
    pub fn claim_bank(&mut self, addr: u64, now: u64) -> u64 {
        let b = self.bank_of(addr) as usize;
        let start = now.max(self.bank_free[b]);
        self.bank_free[b] = start + 1;
        start
    }

    /// Is the line resident? No state change, no stats.
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let tag = line >> self.set_mask.count_ones();
        let (lo, hi) = self.set_range(line);
        self.sets[lo..hi].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Look up a line, updating LRU and statistics. Returns hit/miss.
    /// Misses do **not** allocate — call [`Cache::fill`] when the fill
    /// arrives.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = self.line_addr(addr);
        let tag = line >> self.set_mask.count_ones();
        let (lo, hi) = self.set_range(line);
        self.stamp += 1;
        for l in &mut self.sets[lo..hi] {
            if l.valid && l.tag == tag {
                l.stamp = self.stamp;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Install a line, evicting the LRU way. Idempotent if the line is
    /// already resident (an MSHR-coalesced fill).
    pub fn fill(&mut self, addr: u64) {
        let line = self.line_addr(addr);
        let tag = line >> self.set_mask.count_ones();
        let (lo, hi) = self.set_range(line);
        self.stamp += 1;
        // Already resident (double fill): refresh LRU only.
        for l in &mut self.sets[lo..hi] {
            if l.valid && l.tag == tag {
                l.stamp = self.stamp;
                return;
            }
        }
        // Prefer an invalid way, else evict LRU.
        let victim = self.sets[lo..hi]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.stamp } else { 0 })
            .map(|(i, _)| lo + i)
            .expect("cache sets are never empty");
        self.sets[victim] = Line {
            tag,
            valid: true,
            stamp: self.stamp,
        };
    }

    /// Number of resident (valid) lines — used by tests and drain checks.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }

    /// Tag-array integrity audit (sanitizer invariant `INV014`): within a
    /// set, valid lines must carry distinct tags — a duplicate would make
    /// hit results depend on probe order. Returns the first offending
    /// `(set, tag)`.
    pub fn audit_tags(&self) -> Result<(), (u64, u64)> {
        let w = self.cfg.ways as usize;
        for (set, lines) in self.sets.chunks(w).enumerate() {
            for i in 0..lines.len() {
                if !lines[i].valid {
                    continue;
                }
                for j in i + 1..lines.len() {
                    if lines[j].valid && lines[j].tag == lines[i].tag {
                        return Err((set as u64, lines[i].tag));
                    }
                }
            }
        }
        Ok(())
    }

    /// Mutation-test hook: copy one valid line's tag onto another valid
    /// line of the same set — exactly the duplicate [`Cache::audit_tags`]
    /// exists to catch. Returns false when no set holds two valid lines.
    #[doc(hidden)]
    pub fn corrupt_duplicate_tag_for_test(&mut self) -> bool {
        let w = self.cfg.ways as usize;
        for lines in self.sets.chunks_mut(w) {
            let mut first = None;
            for i in 0..lines.len() {
                if !lines[i].valid {
                    continue;
                }
                match first {
                    None => first = Some(i),
                    Some(f) => {
                        lines[i].tag = lines[f].tag;
                        return true;
                    }
                }
            }
        }
        false
    }
}

snap_fields!(Line { tag, valid, stamp });
snap_fields!(CacheStats { accesses, misses });

// The tag array's contents; the geometry and the indexing masks derived
// from it are construction-time.
snap_fields! {
    Cache { sets, bank_free, stamp, stats }
    derived { cfg, set_mask, line_shift, bank_mask }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets, 2 ways, 64-byte lines => 512 bytes.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            banks: 2,
            latency: 1,
        })
    }

    #[test]
    fn paper_geometries() {
        let l1 = CacheConfig::paper_l1();
        assert_eq!(l1.sets(), 512);
        let l2 = CacheConfig::paper_l2();
        assert_eq!(l2.sets(), 4096);
        // Constructing them must not panic.
        Cache::new(l1);
        Cache::new(l2);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        c.fill(0x1000);
        assert!(c.access(0x1000));
        // Same line, different byte.
        assert!(c.access(0x103F));
        // Next line misses.
        assert!(!c.access(0x1040));
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = tiny();
        c.fill(0x0);
        let stats_before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), stats_before);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to set 0 (4 sets, 64B lines: set = (addr>>6)&3).
        let a = 0x0000u64; // set 0
        let b = 0x0100; // set 0 (line 4)
        let d = 0x0200; // set 0 (line 8)
        c.fill(a);
        c.fill(b);
        assert!(c.access(a)); // a now MRU
        c.fill(d); // evicts b (LRU)
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn fill_is_idempotent() {
        let mut c = tiny();
        c.fill(0x40);
        c.fill(0x40);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        c.fill(0x00); // set 0
        c.fill(0x40); // set 1
        c.fill(0x80); // set 2
        c.fill(0xC0); // set 3
        for addr in [0x00u64, 0x40, 0x80, 0xC0] {
            assert!(c.probe(addr));
        }
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn bank_claims_serialize_within_a_bank() {
        let mut c = tiny();
        // Lines 0 and 2 share bank 0 (2 banks).
        let t0 = c.claim_bank(0x000, 10);
        let t1 = c.claim_bank(0x080, 10);
        assert_eq!(t0, 10);
        assert_eq!(t1, 11);
        // Different bank is free at 10.
        let t2 = c.claim_bank(0x040, 10);
        assert_eq!(t2, 10);
    }

    #[test]
    fn capacity_eviction_bounds_residency() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.fill(i * 64);
        }
        assert_eq!(c.resident_lines(), 8, "4 sets x 2 ways");
    }

    #[test]
    fn circular_stream_larger_than_capacity_always_misses() {
        // The warm-pool construction relies on this property.
        let mut c = tiny(); // 8 lines capacity
        let lines = 16u64; // stream twice the capacity
        for lap in 0..4 {
            for i in 0..lines {
                let addr = i * 64;
                let hit = c.access(addr);
                if !hit {
                    c.fill(addr);
                }
                if lap > 0 {
                    assert!(!hit, "circular over-capacity stream must miss");
                }
            }
        }
    }

    #[test]
    fn stats_miss_rate() {
        let mut c = tiny();
        c.access(0); // miss
        c.fill(0);
        c.access(0); // hit
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }

    /// Shadow model: per set, the resident tags from least to most
    /// recently used, capped at the associativity.
    struct LruSets {
        ways: usize,
        sets: Vec<std::collections::VecDeque<u64>>,
    }

    impl LruSets {
        /// Move `line` to the MRU end if resident; report whether it was.
        fn touch(&mut self, line: u64) -> bool {
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            match set.iter().position(|&l| l == line) {
                Some(i) => {
                    set.remove(i);
                    set.push_back(line);
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, line: u64) {
            if !self.touch(line) {
                let n = self.sets.len() as u64;
                let set = &mut self.sets[(line % n) as usize];
                if set.len() == self.ways {
                    set.pop_front();
                }
                set.push_back(line);
            }
        }

        fn probe(&self, line: u64) -> bool {
            self.sets[(line % self.sets.len() as u64) as usize].contains(&line)
        }
    }

    /// Seeded random access/fill/probe sequences on small geometries
    /// against the naive LRU lists, checked after every operation. The
    /// address range is a few times the capacity, so sets thrash.
    #[test]
    fn matches_an_lru_list_reference_on_random_sequences() {
        for (seed, sets, ways) in [
            (1, 1, 1),
            (2, 1, 4),
            (3, 2, 2),
            (4, 4, 1),
            (5, 4, 2),
            (6, 8, 4),
        ] {
            let mut rng = smt_trace::Rng::new(seed);
            let mut cache = Cache::new(CacheConfig {
                size_bytes: sets * ways * 64,
                ways: ways as u32,
                line_bytes: 64,
                banks: 1,
                latency: 1,
            });
            let mut model = LruSets {
                ways: ways as usize,
                sets: vec![std::collections::VecDeque::new(); sets as usize],
            };
            for step in 0..4_000 {
                let line = rng.below(3 * sets * ways + 1);
                let addr = line * 64 + rng.below(64);
                let at = format!("seed {seed}, step {step}, line {line}");
                match rng.below(3) {
                    0 => assert_eq!(cache.access(addr), model.touch(line), "access: {at}"),
                    1 => {
                        cache.fill(addr);
                        model.fill(line);
                    }
                    _ => assert_eq!(cache.probe(addr), model.probe(line), "probe: {at}"),
                }
                let resident: usize = model.sets.iter().map(|s| s.len()).sum();
                assert_eq!(cache.resident_lines(), resident, "{at}");
            }
        }
    }
}
