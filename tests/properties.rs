//! Property-based tests over the core data structures and simulator
//! invariants: randomized seeds, workload compositions, address streams, and
//! run lengths, driven by the workspace's own deterministic PRNG
//! ([`dwarn_smt::trace::Rng`]) so the suite needs no external dependencies
//! and every failure reproduces from the fixed master seed.

use dwarn_smt::core::PolicyKind;
use dwarn_smt::metrics;
use dwarn_smt::pipeline::{RecordingSanitizer, SimConfig, Simulator, ThreadSpec};
use dwarn_smt::trace::{all_benchmarks, CtrlKind, Rng, StaticProgram, ThreadTrace};
use dwarn_smt::uarch::{Cache, CacheConfig};

fn pick_profile(r: &mut Rng) -> dwarn_smt::trace::BenchProfile {
    all_benchmarks()[r.below(12) as usize].clone()
}

/// Any (profile, seed): the dynamic stream follows its own next_pc chain and
/// stays inside the code image.
#[test]
fn stream_control_flow_is_self_consistent() {
    let mut r = Rng::new(0x0B5EED ^ 1);
    for _ in 0..16 {
        let p = pick_profile(&mut r);
        let seed = r.below(1_000_000);
        let base = 0x10_0000u64;
        let mut t = ThreadTrace::new(&p, seed, base, 0);
        let code_bytes = t.program().code_bytes();
        let mut prev_next = None;
        for _ in 0..3_000 {
            let d = t.next_inst();
            if let Some(pn) = prev_next {
                assert_eq!(pn, d.pc, "{} seed {seed}", p.name);
            }
            assert!(d.pc >= base && d.pc < base + code_bytes);
            prev_next = Some(d.next_pc);
        }
    }
}

/// Any (profile, seed): the generated program is structurally sound —
/// blocks tile the image, terminators are branches, targets in bounds.
#[test]
fn programs_are_structurally_sound() {
    let mut r = Rng::new(0x0B5EED ^ 2);
    for _ in 0..16 {
        let p = pick_profile(&mut r);
        let seed = r.below(1_000_000);
        let prog = StaticProgram::generate(&p, seed);
        let mut expected = 0u32;
        for blk in prog.blocks() {
            assert_eq!(blk.start, expected);
            expected += blk.len;
            let term = prog.inst(blk.term_idx());
            assert!(term.class.is_branch());
            if matches!(
                term.ctrl,
                CtrlKind::CondBr | CtrlKind::Jump | CtrlKind::Call
            ) {
                assert!((term.taken_target as usize) < prog.blocks().len());
            }
        }
        assert_eq!(expected as usize, prog.len());
    }
}

/// Any address stream: a cache never holds more lines than its capacity,
/// and a fill is always observable as a subsequent hit.
#[test]
fn cache_capacity_and_fill_visibility() {
    let mut r = Rng::new(0x0B5EED ^ 3);
    for _ in 0..16 {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
            banks: 2,
            latency: 1,
        });
        let capacity = 4096 / 64;
        for _ in 0..r.range(1, 400) {
            let a = r.below(1 << 20);
            if !c.access(a) {
                c.fill(a);
                assert!(c.probe(a), "a just-filled line must be resident");
            }
            assert!(c.resident_lines() <= capacity);
        }
    }
}

/// Hmean is bounded by weighted speedup, and both are monotone in each
/// argument.
#[test]
fn hmean_algebra() {
    let mut r = Rng::new(0x0B5EED ^ 4);
    for _ in 0..16 {
        let rel: Vec<f64> = (0..r.range(1, 8)).map(|_| 0.01 + r.f64() * 1.49).collect();
        let bump = 0.01 + r.f64() * 0.49;
        let h = metrics::hmean(&rel);
        let w = metrics::weighted_speedup(&rel);
        assert!(h <= w + 1e-12);
        let mut better = rel.clone();
        better[0] += bump;
        assert!(metrics::hmean(&better) >= h);
        assert!(metrics::weighted_speedup(&better) >= w);
    }
}

/// Any 1-4 benchmarks under any paper policy: the simulator's
/// cross-structure invariants hold on every cycle of an arbitrary number of
/// steps, and no resources leak.
#[test]
fn simulator_invariants_hold() {
    let mut r = Rng::new(0x0B5EED ^ 5);
    for _ in 0..16 {
        let specs: Vec<ThreadSpec> = (0..r.range(1, 5))
            .enumerate()
            .map(|(i, _)| ThreadSpec {
                profile: all_benchmarks()[r.below(12) as usize].clone(),
                seed: 7 + i as u64,
                skip: 0,
            })
            .collect();
        let kind = PolicyKind::paper_set()[r.below(6) as usize];
        let steps = r.range(200, 1_500);
        let mut sim = Simulator::try_sanitized(
            SimConfig::baseline(),
            kind.build(),
            &specs,
            RecordingSanitizer::new(),
        )
        .unwrap();
        for _ in 0..steps {
            sim.step();
        }
        assert!(
            sim.sanitizer().is_clean(),
            "{kind:?}: {}",
            sim.sanitizer().render_report()
        );
    }
}

/// Stream shift (`skip`) commutes with stepping: skip(n) == n × next().
#[test]
fn skip_commutes_with_stepping() {
    let mut r = Rng::new(0x0B5EED ^ 6);
    for _ in 0..16 {
        let p = pick_profile(&mut r);
        let n = r.range(1, 500);
        let mut walked = ThreadTrace::new(&p, 99, 0, 0);
        for _ in 0..n {
            walked.next_inst();
        }
        let mut skipped = ThreadTrace::new(&p, 99, 0, n);
        for _ in 0..50 {
            assert_eq!(walked.next_inst(), skipped.next_inst());
        }
    }
}
