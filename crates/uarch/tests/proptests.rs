//! Property-based tests for the microarchitectural substrate: cache
//! residency/LRU laws, TLB behaviour, hierarchy timing monotonicity,
//! predictor table safety, and resource-pool conservation — over randomized
//! access sequences, driven by the workspace's deterministic PRNG
//! ([`smt_trace::Rng`]) so every failure reproduces from the fixed master
//! seed.

#![expect(
    clippy::disallowed_types,
    reason = "test-only set of touched lines; its iteration order never reaches an assertion"
)]

use smt_trace::Rng;
use smt_uarch::{
    Cache, CacheConfig, FuKind, FuPools, IqKind, IssueQueues, MemHierarchy, MemTiming, RegPool,
    Tlb, TlbConfig,
};

const CASES: usize = 32;

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 2048,
        ways: 2,
        line_bytes: 64,
        banks: 2,
        latency: 1,
    })
}

fn hierarchy() -> MemHierarchy {
    MemHierarchy::new(
        CacheConfig::paper_l1(),
        CacheConfig::paper_l1(),
        CacheConfig::paper_l2(),
        TlbConfig::default_dtlb(),
        MemTiming::paper_baseline(),
        2,
    )
}

/// An MRU line survives a single conflicting fill in a 2-way set.
#[test]
fn mru_line_survives_one_conflict() {
    let mut m = Rng::new(0x0A8C ^ 1);
    let mut done = 0;
    while done < CASES {
        let set = m.below(16);
        let (tag_a, tag_b, tag_c) = (m.below(64), m.below(64), m.below(64));
        if tag_a == tag_b || tag_b == tag_c || tag_a == tag_c {
            continue; // distinct tags required
        }
        done += 1;
        let mut c = Cache::new(CacheConfig {
            size_bytes: 2048,
            ways: 2,
            line_bytes: 64,
            banks: 2,
            latency: 1,
        });
        let sets = 16u64;
        let addr = |tag: u64| (tag * sets + set) * 64;
        c.fill(addr(tag_a));
        c.fill(addr(tag_b));
        let _ = c.access(addr(tag_a)); // a is MRU
        c.fill(addr(tag_c)); // must evict b
        assert!(c.probe(addr(tag_a)));
        assert!(!c.probe(addr(tag_b)));
    }
}

/// Residency never exceeds capacity and hits never lie: a probe hit means a
/// subsequent access hits too.
#[test]
fn cache_laws() {
    let mut m = Rng::new(0x0A8C ^ 2);
    for _ in 0..CASES {
        let mut c = tiny_cache();
        let n = m.range(1, 200);
        for _ in 0..n {
            let a = m.below(1 << 16);
            let probed = c.probe(a);
            let hit = c.access(a);
            assert_eq!(probed, hit, "probe and access must agree");
            if !hit {
                c.fill(a);
            }
            assert!(c.resident_lines() <= 32);
        }
        let s = c.stats();
        assert_eq!(s.accesses, n);
        assert!(s.misses <= s.accesses);
    }
}

/// TLB: LRU, capacity-bounded, and same-page accesses always hit after the
/// first touch when capacity is not exceeded in between.
#[test]
fn tlb_same_page_hits() {
    let mut m = Rng::new(0x0A8C ^ 3);
    for _ in 0..CASES {
        let mut t = Tlb::new(TlbConfig {
            entries: 16,
            page_bytes: 4096,
        });
        let mut touched = std::collections::HashSet::new();
        for _ in 0..m.range(2, 100) {
            let p = m.below(8);
            let hit = t.access(p * 4096 + (p % 7) * 16);
            // 8 distinct pages < 16 entries: after first touch, always hit.
            assert_eq!(hit, touched.contains(&p));
            touched.insert(p);
        }
    }
}

/// Hierarchy timing is sane for arbitrary loads: completion is in the
/// future, an L2 miss implies an L1 miss, and latency classes order as
/// hit < L2 hit < memory.
#[test]
fn hierarchy_timing_monotone() {
    let mut m = Rng::new(0x0A8C ^ 4);
    for _ in 0..CASES {
        let mut h = hierarchy();
        let mut now = m.below(1000);
        for _ in 0..m.range(1, 100) {
            let a = m.below(1 << 30);
            let acc = h.load(0, a, now, false);
            assert!(acc.complete_at > now);
            if acc.l2_miss {
                assert!(acc.l1_miss, "inclusive hierarchy");
            }
            let latency = acc.complete_at - now;
            let floor = if acc.tlb_miss { 160 } else { 0 };
            if !acc.l1_miss {
                assert!(latency > floor);
            } else if !acc.l2_miss {
                assert!(latency > floor, "coalesced misses can be short");
            } else {
                assert!(
                    latency >= 111 + floor,
                    "memory misses pay full latency: {latency}"
                );
            }
            now += 7;
        }
    }
}

/// The memory-bus model serializes: k simultaneous L2 misses to distinct
/// lines complete at least bus-occupancy apart.
#[test]
fn bus_serializes_misses() {
    let mut m = Rng::new(0x0A8C ^ 5);
    for _ in 0..CASES {
        let k = m.range(2, 8) as usize;
        let mut h = hierarchy();
        // Distinct cold lines, all requested at the same cycle; pages
        // pre-touched so TLB penalties don't mask bus spacing.
        for i in 0..k {
            let _ = h.load(0, 0x2000_0000 + (i as u64) * 8192, 0, false);
        }
        let mut completes: Vec<u64> = (0..k)
            .map(|i| {
                h.load(0, 0x2000_0000 + (i as u64) * 8192 + 64, 1000, false)
                    .complete_at
            })
            .collect();
        completes.sort_unstable();
        for w in completes.windows(2) {
            assert!(w[1] - w[0] >= MemTiming::paper_baseline().mem_bus_cycles);
        }
    }
}

/// Register pools conserve: allocations minus releases equals occupancy,
/// and free() + in_use() is constant.
#[test]
fn reg_pool_conservation() {
    let mut m = Rng::new(0x0A8C ^ 6);
    for _ in 0..CASES {
        let mut p = RegPool::new(64, 16);
        let budget = 64 - 16;
        let mut held = 0u32;
        for _ in 0..m.range(1, 200) {
            if m.chance(0.5) {
                if p.alloc() {
                    held += 1;
                }
            } else if held > 0 {
                p.release();
                held -= 1;
            }
            assert_eq!(p.in_use(), held);
            assert_eq!(p.free() + p.in_use(), budget);
            assert!(held <= budget);
        }
    }
}

/// Issue queues conserve per kind.
#[test]
fn issue_queue_conservation() {
    let mut m = Rng::new(0x0A8C ^ 7);
    for _ in 0..CASES {
        let mut q = IssueQueues::new(8, 4, 6);
        let kinds = [IqKind::Int, IqKind::Fp, IqKind::LdSt];
        let caps = [8u32, 4, 6];
        let mut held = [0u32; 3];
        for _ in 0..m.range(1, 200) {
            let k = m.below(3) as usize;
            if m.chance(0.5) {
                if q.alloc(kinds[k]) {
                    held[k] += 1;
                }
            } else if held[k] > 0 {
                q.release(kinds[k]);
                held[k] -= 1;
            }
            for i in 0..3 {
                assert_eq!(q.used(kinds[i]), held[i]);
                assert!(held[i] <= caps[i]);
            }
            assert_eq!(q.total_used(), held.iter().sum::<u32>());
        }
    }
}

/// FU pools never exceed per-cycle bandwidth and fully reset each cycle.
#[test]
fn fu_bandwidth_resets() {
    let mut m = Rng::new(0x0A8C ^ 8);
    for _ in 0..CASES {
        let cycles = m.range(1, 20);
        let tries = m.range(1, 12) as u32;
        let mut fu = FuPools::new(3, 2, 2);
        for _ in 0..cycles {
            fu.new_cycle();
            let mut granted = 0;
            for _ in 0..tries {
                if fu.issue(FuKind::Int) {
                    granted += 1;
                }
            }
            assert_eq!(granted, tries.min(3));
        }
    }
}
