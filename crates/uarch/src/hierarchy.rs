//! The two-level memory hierarchy with MSHR-style in-flight miss tracking.
//!
//! Timing follows the paper (Table 3 and §4): L1 hits cost the L1 latency;
//! an L1 miss takes `l1_to_l2` further cycles to access the L2; an L2 miss
//! additionally pays the main-memory latency; a DTLB miss adds the TLB
//! penalty. Requests to a line that is already being filled coalesce onto
//! the outstanding fill (MSHR behaviour) instead of paying the full latency
//! again.

use crate::fasthash::FastMap;

use smt_obs::{NullProbe, Probe};
use smt_trace::snapio::{self, Snap, SnapError, SnapReader};
use smt_trace::{counters, snap_fields};

use crate::cache::{Cache, CacheConfig};
use crate::tlb::{Tlb, TlbConfig};

/// Latency parameters of the hierarchy (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTiming {
    /// L1 hit latency.
    pub l1_latency: u64,
    /// Additional cycles from an L1 miss to the L2 access completing
    /// (Table 3: "10 cycles lat"; §6 deep config: 15).
    pub l1_to_l2: u64,
    /// Main-memory latency paid by L2 misses (100 baseline, 200 deep).
    pub memory: u64,
    /// DTLB miss penalty (160 in Table 3).
    pub tlb_penalty: u64,
    /// Memory-channel occupancy per line transfer: consecutive L2 misses
    /// are spaced at least this many cycles apart (finite memory bandwidth,
    /// as in SMTSIM; without it an 8-thread MEM workload could overlap an
    /// unbounded number of memory accesses).
    pub mem_bus_cycles: u64,
}

impl MemTiming {
    pub fn paper_baseline() -> MemTiming {
        MemTiming {
            l1_latency: 1,
            l1_to_l2: 10,
            memory: 100,
            tlb_penalty: 160,
            mem_bus_cycles: 16,
        }
    }
}

/// Outcome of a data-side access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemAccess {
    /// Cycle at which the data is available.
    pub complete_at: u64,
    pub l1_miss: bool,
    /// Only meaningful when `l1_miss` (inclusive hierarchy: an L2 miss
    /// implies an L1 miss).
    pub l2_miss: bool,
    pub tlb_miss: bool,
}

snap_fields!(MemAccess {
    complete_at,
    l1_miss,
    l2_miss,
    tlb_miss,
});

/// Outcome of an instruction fetch probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IFetchAccess {
    pub complete_at: u64,
    pub miss: bool,
}

counters! {
    /// Per-thread data-side counters (drives the Table 2a reproduction).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ThreadMemStats {
        loads,
        l1_misses,
        l2_misses,
        tlb_misses,
    }
}

impl ThreadMemStats {
    /// L1 miss rate with respect to dynamic loads (the paper's convention).
    pub fn l1_miss_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.loads as f64
        }
    }

    /// L2 miss rate with respect to dynamic loads (the paper's convention).
    pub fn l2_miss_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.loads as f64
        }
    }

    /// Percentage of L1 misses that continue to miss in L2 (Table 2a's
    /// "L1→L2" column).
    pub fn l1_to_l2_ratio(&self) -> f64 {
        if self.l1_misses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l1_misses as f64
        }
    }
}

/// The shared memory hierarchy: per-core L1I + L1D + unified L2, one DTLB
/// per hardware context.
#[derive(Debug)]
pub struct MemHierarchy {
    pub timing: MemTiming,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dtlbs: Vec<Tlb>,
    /// In-flight data-side fills: line address → completion cycle.
    inflight_d: FastMap<u64, u64>,
    /// In-flight instruction-side fills.
    inflight_i: FastMap<u64, u64>,
    /// Earliest cycle the memory channel is free (bandwidth model).
    bus_free: u64,
    line_bytes: u64,
    thread_stats: Vec<ThreadMemStats>,
}

impl MemHierarchy {
    pub fn new(
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        tlb: TlbConfig,
        timing: MemTiming,
        num_threads: usize,
    ) -> MemHierarchy {
        assert_eq!(l1d.line_bytes, l2.line_bytes, "uniform line size assumed");
        MemHierarchy {
            line_bytes: l1d.line_bytes,
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            dtlbs: (0..num_threads).map(|_| Tlb::new(tlb)).collect(),
            inflight_d: FastMap::default(),
            inflight_i: FastMap::default(),
            bus_free: 0,
            thread_stats: vec![ThreadMemStats::default(); num_threads],
            timing,
        }
    }

    /// Claim the memory channel for one line transfer requested at `at`;
    /// returns the cycle the transfer actually starts.
    fn claim_bus(&mut self, at: u64) -> u64 {
        let start = at.max(self.bus_free);
        self.bus_free = start + self.timing.mem_bus_cycles;
        start
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// Drop completed in-flight entries. Called lazily on access.
    fn gc_inflight(map: &mut FastMap<u64, u64>, now: u64) {
        if map.len() > 64 {
            map.retain(|_, &mut t| t > now);
        }
    }

    /// Perform a load access for `thread` starting at `now`.
    ///
    /// The returned outcome classifies the access exactly the way the
    /// policies observe it: `l1_miss` drives DWarn/DG/PDG counters,
    /// `l2_miss` is what STALL/FLUSH eventually *declare* via the
    /// time-in-hierarchy threshold, and `complete_at` is when the load's
    /// destination register becomes ready.
    ///
    /// `wrong_path` accesses update the cache state and are timed normally
    /// (the hardware cannot tell them apart), but are excluded from the
    /// per-thread miss-rate statistics — the paper's Table 2(a) rates are
    /// measured over the architectural (trace) loads.
    pub fn load(&mut self, thread: usize, addr: u64, now: u64, wrong_path: bool) -> MemAccess {
        self.load_probed(thread, addr, now, wrong_path, 0, &mut NullProbe)
    }

    /// As [`MemHierarchy::load`], reporting L1-miss begins to an
    /// observability probe. `load_id` tags the miss so a recorder can pair
    /// it with the pipeline's fill event; all three miss paths (coalesced
    /// secondary, L2 hit, L2 miss) report.
    pub fn load_probed<P: Probe>(
        &mut self,
        thread: usize,
        addr: u64,
        now: u64,
        wrong_path: bool,
        load_id: u64,
        probe: &mut P,
    ) -> MemAccess {
        if !wrong_path {
            self.thread_stats[thread].loads += 1;
        }

        let tlb_miss = !self.dtlbs[thread].access(addr);
        let tlb_extra = if tlb_miss { self.timing.tlb_penalty } else { 0 };
        if tlb_miss && !wrong_path {
            self.thread_stats[thread].tlb_misses += 1;
        }

        let start = self.l1d.claim_bank(addr, now) + tlb_extra;
        let line = self.line_of(addr);

        // Fills are installed in the tag array at request time but carry a
        // completion timestamp; a request to a line whose fill is still in
        // flight is a *secondary miss* that coalesces onto the outstanding
        // fill (MSHR behaviour), so check in-flight state before the tags.
        Self::gc_inflight(&mut self.inflight_d, now);
        if let Some(&t) = self.inflight_d.get(&line) {
            if t > now {
                let _ = self.l1d.access(addr); // refresh LRU
                if !wrong_path {
                    self.thread_stats[thread].l1_misses += 1;
                }
                probe.on_l1_miss_begin(now, thread, load_id, addr, false);
                // Whether it was an L2 miss was accounted by the primary.
                return MemAccess {
                    complete_at: t.max(start + self.timing.l1_latency),
                    l1_miss: true,
                    l2_miss: false,
                    tlb_miss,
                };
            }
        }

        if self.l1d.access(addr) {
            return MemAccess {
                complete_at: start + self.timing.l1_latency,
                l1_miss: false,
                l2_miss: false,
                tlb_miss,
            };
        }
        if !wrong_path {
            self.thread_stats[thread].l1_misses += 1;
        }

        let l2_hit = self.l2.access(addr);
        let complete_at = if l2_hit {
            start + self.timing.l1_latency + self.timing.l1_to_l2
        } else {
            if !wrong_path {
                self.thread_stats[thread].l2_misses += 1;
            }
            self.l2.fill(addr);
            let bus_start = self.claim_bus(start + self.timing.l1_latency + self.timing.l1_to_l2);
            bus_start + self.timing.memory
        };
        self.l1d.fill(addr);
        self.inflight_d.insert(line, complete_at);
        probe.on_l1_miss_begin(now, thread, load_id, addr, !l2_hit);
        MemAccess {
            complete_at,
            l1_miss: true,
            l2_miss: !l2_hit,
            tlb_miss,
        }
    }

    /// Perform a store access. Stores drain from a store buffer at commit in
    /// real machines and do not occupy policy-visible resources, so they are
    /// timing-free here: they only keep the tag state honest
    /// (write-allocate).
    pub fn store(&mut self, addr: u64) {
        if !self.l1d.access(addr) {
            if !self.l2.access(addr) {
                self.l2.fill(addr);
            }
            self.l1d.fill(addr);
        }
    }

    /// Instruction-side access for a fetch block at `addr`.
    pub fn ifetch(&mut self, addr: u64, now: u64) -> IFetchAccess {
        let line = self.line_of(addr);
        Self::gc_inflight(&mut self.inflight_i, now);
        if let Some(&t) = self.inflight_i.get(&line) {
            if t > now {
                let _ = self.l1i.access(addr); // refresh LRU
                return IFetchAccess {
                    complete_at: t,
                    miss: true,
                };
            }
        }
        if self.l1i.access(addr) {
            return IFetchAccess {
                complete_at: now + self.timing.l1_latency,
                miss: false,
            };
        }
        let l2_hit = self.l2.access(addr);
        let complete_at = if l2_hit {
            now + self.timing.l1_latency + self.timing.l1_to_l2
        } else {
            self.l2.fill(addr);
            let bus_start = self.claim_bus(now + self.timing.l1_latency + self.timing.l1_to_l2);
            bus_start + self.timing.memory
        };
        self.l1i.fill(addr);
        self.inflight_i.insert(line, complete_at);
        IFetchAccess {
            complete_at,
            miss: true,
        }
    }

    /// Sanitizer hook: tag-array integrity of all three cache levels
    /// (invariant `INV014`). Returns a description of the first duplicate
    /// valid tag found within a set.
    pub fn audit_tags(&self) -> Result<(), String> {
        for (name, cache) in [("L1I", &self.l1i), ("L1D", &self.l1d), ("L2", &self.l2)] {
            if let Err((set, tag)) = cache.audit_tags() {
                return Err(format!(
                    "{name} set {set} holds two valid lines with tag {tag:#x}"
                ));
            }
        }
        Ok(())
    }

    /// Mutation-test hook: duplicate a valid tag in the first cache level
    /// that has a set with two valid lines (L2 first — after pre-warming
    /// it always does). Returns false when every level is too empty.
    #[doc(hidden)]
    pub fn corrupt_duplicate_tag_for_test(&mut self) -> bool {
        self.l2.corrupt_duplicate_tag_for_test()
            || self.l1d.corrupt_duplicate_tag_for_test()
            || self.l1i.corrupt_duplicate_tag_for_test()
    }

    /// Pre-install a region's lines into the L2 (simulating steady-state
    /// residency that a short simulation window cannot establish by demand
    /// misses alone).
    pub fn prewarm_l2(&mut self, start: u64, bytes: u64) {
        let mut a = start & !(self.line_bytes - 1);
        while a < start + bytes {
            self.l2.fill(a);
            a += self.line_bytes;
        }
    }

    /// Pre-install a region's lines into both the L1D and the L2.
    pub fn prewarm_l1d(&mut self, start: u64, bytes: u64) {
        let mut a = start & !(self.line_bytes - 1);
        while a < start + bytes {
            self.l2.fill(a);
            self.l1d.fill(a);
            a += self.line_bytes;
        }
    }

    /// Pre-install a region's translations into a thread's DTLB.
    pub fn prewarm_dtlb(&mut self, thread: usize, start: u64, bytes: u64) {
        let page = self.dtlbs[thread].page_bytes();
        let mut a = start & !(page - 1);
        while a < start + bytes {
            let _ = self.dtlbs[thread].access(a);
            a += page;
        }
    }

    pub fn thread_stats(&self, thread: usize) -> ThreadMemStats {
        self.thread_stats[thread]
    }
}

/// The complete evolving hierarchy state. The in-flight fill maps are
/// written sorted by line, so equal state is byte-identical.
impl Snap for MemHierarchy {
    #[deny(unused_variables)]
    fn save_state(&self, out: &mut Vec<u8>) {
        let MemHierarchy {
            timing: _,
            l1i,
            l1d,
            l2,
            dtlbs,
            inflight_d,
            inflight_i,
            bus_free,
            line_bytes: _,
            thread_stats,
        } = self;
        l1i.save_state(out);
        l1d.save_state(out);
        l2.save_state(out);
        dtlbs.save_state(out);
        for map in [inflight_d, inflight_i] {
            let mut entries: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable();
            snapio::put_usize(out, entries.len());
            entries.save_state(out);
        }
        bus_free.save_state(out);
        thread_stats.save_state(out);
    }

    #[deny(unused_variables)]
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let MemHierarchy {
            timing: _,
            l1i,
            l1d,
            l2,
            dtlbs,
            inflight_d,
            inflight_i,
            bus_free,
            line_bytes: _,
            thread_stats,
        } = self;
        l1i.load_state(r)?;
        l1d.load_state(r)?;
        l2.load_state(r)?;
        dtlbs.load_state(r)?;
        for map in [inflight_d, inflight_i] {
            let n = r.len_capped(1 << 24)?;
            map.clear();
            for _ in 0..n {
                let line = r.u64()?;
                let at = r.u64()?;
                map.insert(line, at);
            }
        }
        bus_free.load_state(r)?;
        thread_stats.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(threads: usize) -> MemHierarchy {
        MemHierarchy::new(
            CacheConfig::paper_l1(),
            CacheConfig::paper_l1(),
            CacheConfig::paper_l2(),
            TlbConfig::default_dtlb(),
            MemTiming::paper_baseline(),
            threads,
        )
    }

    #[test]
    fn cold_load_misses_both_levels_with_paper_latency() {
        let mut h = hierarchy(1);
        let a = h.load(0, 0x4000_0000, 100, false);
        assert!(a.l1_miss && a.l2_miss);
        // TLB also cold on first touch.
        assert!(a.tlb_miss);
        assert_eq!(
            a.complete_at,
            100 + 160 + 1 + 10 + 100,
            "tlb penalty + L1 + L1→L2 + memory"
        );
    }

    #[test]
    fn warm_tlb_and_caches_hit_in_one_cycle() {
        let mut h = hierarchy(1);
        h.load(0, 0x4000_0000, 0, false);
        let a = h.load(0, 0x4000_0000, 1000, false);
        assert!(!a.l1_miss && !a.l2_miss && !a.tlb_miss);
        assert_eq!(a.complete_at, 1001);
    }

    #[test]
    fn l2_hit_costs_l1_to_l2() {
        let mut h = hierarchy(1);
        // Warm the TLB page and both cache levels, then evict from L1 only by
        // streaming conflicting lines through the same L1 set.
        h.load(0, 0x0, 0, false);
        // L1: 512 sets, 64B lines => same set every 512*64 = 32 KB.
        // Two fills evict the 2-way set; L2 (4096 sets) keeps them distinct.
        h.load(0, 0x8000, 1000, false);
        h.load(0, 0x10000, 2000, false);
        let a = h.load(0, 0x0, 3000, false);
        assert!(a.l1_miss, "L1 set was thrashed");
        assert!(!a.l2_miss, "L2 is big enough to keep the line");
        assert!(!a.tlb_miss);
        assert_eq!(a.complete_at, 3000 + 1 + 10);
    }

    #[test]
    fn mshr_coalesces_secondary_misses() {
        let mut h = hierarchy(1);
        // Touch page first so TLB is warm, with a different line.
        h.load(0, 0x4000_0040, 0, false);
        let primary = h.load(0, 0x4000_1000, 500, false);
        assert!(primary.l1_miss && primary.l2_miss);
        let secondary = h.load(0, 0x4000_1008, 501, false);
        assert!(secondary.l1_miss, "line still in flight counts as L1 miss");
        assert!(!secondary.l2_miss, "charged to the primary only");
        assert_eq!(secondary.complete_at, primary.complete_at);
        // Three loads: warm-up line (L1+L2 miss), primary (L1+L2 miss),
        // secondary (L1 miss only — coalesced onto the primary's fill).
        let s = h.thread_stats(0);
        assert_eq!(s.l1_misses, 3);
        assert_eq!(s.l2_misses, 2);
    }

    #[test]
    fn per_thread_stats_are_isolated() {
        let mut h = hierarchy(2);
        h.load(0, 0x4000_0000, 0, false);
        h.load(1, 0x9000_0000, 0, false);
        h.load(1, 0x9000_4000, 10, false);
        assert_eq!(h.thread_stats(0).loads, 1);
        assert_eq!(h.thread_stats(1).loads, 2);
    }

    #[test]
    fn dtlbs_are_per_thread() {
        let mut h = hierarchy(2);
        let a0 = h.load(0, 0x4000_0000, 0, false);
        assert!(a0.tlb_miss);
        // Same page, other thread: its own TLB is cold.
        let a1 = h.load(1, 0x4000_0000, 1000, false);
        assert!(a1.tlb_miss);
        // Back to thread 0: warm.
        let a2 = h.load(0, 0x4000_0008, 2000, false);
        assert!(!a2.tlb_miss);
    }

    #[test]
    fn stores_install_lines_without_timing() {
        let mut h = hierarchy(1);
        h.store(0x7000_0000);
        // A subsequent load hits (TLB still cold though).
        let a = h.load(0, 0x7000_0000, 100, false);
        assert!(!a.l1_miss);
    }

    #[test]
    fn ifetch_miss_and_coalesce() {
        let mut h = hierarchy(1);
        let a = h.ifetch(0x100, 0);
        assert!(a.miss);
        assert_eq!(a.complete_at, 1 + 10 + 100, "first touch goes to memory");
        // Second probe to the same line while in flight coalesces.
        let b = h.ifetch(0x104, 2);
        assert!(b.miss);
        assert_eq!(b.complete_at, a.complete_at);
        // After completion it hits.
        let c = h.ifetch(0x108, 200);
        assert!(!c.miss);
        assert_eq!(c.complete_at, 201);
    }

    #[test]
    fn miss_rates_follow_the_paper_convention() {
        let mut h = hierarchy(1);
        // 1 hit + 1 L2 miss out of 2 loads (ignore the warm-up TLB effects).
        h.load(0, 0x0, 0, false);
        h.load(0, 0x0, 1000, false); // after the fill completes: a clean hit
        h.load(0, 0x4000_0000, 2000, false);
        let s = h.thread_stats(0);
        assert_eq!(s.loads, 3);
        assert!((s.l1_miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.l2_miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.l1_to_l2_ratio() - 1.0).abs() < 1e-12);
    }
}
