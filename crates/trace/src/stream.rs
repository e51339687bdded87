//! Dynamic instruction streams.
//!
//! [`ThreadTrace`] walks a static program and emits the *correct-path*
//! dynamic instruction stream for one thread: branch outcomes drawn from
//! per-static biases, memory addresses drawn from the calibrated pools, and
//! call/return traffic resolved through a shadow stack. The stream is
//! entirely determined by `(profile, seed, addr_base, skip)` and is
//! independent of anything the simulator does with it — the defining property
//! of a trace-driven simulator.
//!
//! [`SynthState`] is the wrong-path companion: after a branch misprediction
//! the front-end keeps fetching down the predicted (wrong) path by
//! synthesizing instructions out of the static program (the paper's
//! "basic block dictionary"), using a PRNG and pool pointers that are
//! deliberately separate from the correct-path stream so wrong-path fetch
//! cannot perturb the trace.

use std::sync::Arc;

use crate::instr::{CtrlKind, DynInst, MemPool, OpClass, INST_BYTES};
use crate::profile::BenchProfile;
use crate::program::StaticProgram;
use crate::rng::Rng;
use crate::snapio::{ensure, Exact, Seq};

/// Size of the L1-resident hot pool (bytes).
pub const HOT_BYTES: u64 = 4 * 1024;
/// Number of lines in the warm pool.
///
/// The warm pool must always miss L1 but hit L2. Rather than a circular
/// buffer larger than L1 (whose L2 footprint would be 96 KB *per thread*,
/// thrashing the shared 512 KB L2 in multithreaded runs), the warm pool is
/// [`WARM_LINES`] cache lines spaced [`WARM_STRIDE`] bytes apart: the stride
/// equals one L1 way (sets × line), so every warm line maps to the *same* L1
/// set and circular access self-evicts in the 2-way L1 — while occupying
/// only 16 lines (1 KB) spread across distinct L2 sets.
pub const WARM_LINES: u64 = 16;
/// One L1 way: 512 sets × 64-byte lines.
pub const WARM_STRIDE: u64 = 512 * 64;
/// Wrap size of the cold streaming region (bytes) — effectively infinite.
pub const COLD_BYTES: u64 = 256 * 1024 * 1024;
/// Cache line size used for stream strides (matches the simulated caches).
pub const LINE_BYTES: u64 = 64;
/// Shadow call stack depth cap (drops the oldest frame on overflow).
const SHADOW_STACK_CAP: usize = 64;

/// Per-thread virtual address layout offsets (relative to `addr_base`).
const HOT_OFFSET: u64 = 0x1000_0000;
const WARM_OFFSET: u64 = 0x2000_0000;
const COLD_OFFSET: u64 = 0x4000_0000;

/// The thread's hot region `(start, bytes)` — L1-resident in steady state.
pub fn hot_region(addr_base: u64) -> (u64, u64) {
    (addr_base + HOT_OFFSET, HOT_BYTES)
}

/// The addresses of the thread's warm-pool lines — L2-resident in steady
/// state; simulators should pre-warm them into L2 (and their pages into the
/// DTLB) to reproduce the steady state the profiles are calibrated for.
/// The shape depends on the profile's `warm_kb` (see [`crate::BenchProfile`]).
pub fn warm_lines(addr_base: u64, profile: &BenchProfile) -> Vec<u64> {
    if profile.warm_kb == 0 {
        (0..WARM_LINES)
            .map(|i| addr_base + WARM_OFFSET + i * WARM_STRIDE)
            .collect()
    } else {
        let bytes = profile.warm_kb as u64 * 1024;
        (0..bytes / LINE_BYTES)
            .map(|i| addr_base + WARM_OFFSET + i * LINE_BYTES)
            .collect()
    }
}

/// Address-pool draw state. Both the correct-path walker and wrong-path
/// synthesis own one of these.
#[derive(Debug, Clone)]
pub struct PoolState {
    hot_base: u64,
    warm_base: u64,
    cold_base: u64,
    warm_ptr: u64,
    cold_ptr: u64,
    /// Aggregate (hot, warm, cold) target probabilities from the profile.
    agg: (f64, f64, f64),
    /// Per-static-load pool concentration from the profile.
    concentration: f64,
    /// Warm-set capacity in bytes; 0 selects the conflict-based 16-line set.
    warm_bytes: u64,
    /// Load draws so far, total and per pool. The draw is feedback-controlled:
    /// basic blocks execute at different frequencies, so honoring static pool
    /// domination alone would bias the aggregate mix; the controller steers
    /// the realized fractions back onto the Table 2(a) targets.
    n_loads: u64,
    n_pool: [u64; 3],
}

impl PoolState {
    fn new(addr_base: u64, profile: &BenchProfile) -> PoolState {
        PoolState {
            hot_base: addr_base + HOT_OFFSET,
            warm_base: addr_base + WARM_OFFSET,
            cold_base: addr_base + COLD_OFFSET,
            warm_ptr: 0,
            cold_ptr: 0,
            agg: profile.pool_probs(),
            concentration: profile.concentration,
            warm_bytes: profile.warm_kb as u64 * 1024,
            n_loads: 0,
            n_pool: [0; 3],
        }
    }

    /// Signed shortfall of pool `i` after `n_loads` draws: positive means the
    /// pool is under-represented relative to its target.
    fn deficit(&self, i: usize) -> f64 {
        let target = [self.agg.0, self.agg.1, self.agg.2][i];
        target * (self.n_loads as f64 + 1.0) - self.n_pool[i] as f64
    }

    /// Draw an effective address for a load dominated by `dominant`.
    ///
    /// With the profile's concentration probability the static instruction's
    /// dominant pool is honored (giving PDG's per-PC predictor something to
    /// learn), *unless* that pool is already over target; the remaining draws
    /// go to the most under-represented pool, so the realized aggregate
    /// (hot, warm, cold) mix converges on the profile targets regardless of
    /// how block execution frequencies weight the static loads.
    fn draw(&mut self, dominant: MemPool, rng: &mut Rng) -> u64 {
        let dom_idx = match dominant {
            MemPool::Hot => 0,
            MemPool::Warm => 1,
            MemPool::Cold => 2,
        };
        let pool_idx = if rng.chance(self.concentration) && self.deficit(dom_idx) > -1.0 {
            dom_idx
        } else {
            // Corrective draw: most under-represented pool.
            let (mut best, mut best_d) = (0usize, f64::NEG_INFINITY);
            for i in 0..3 {
                let d = self.deficit(i);
                if d > best_d {
                    best = i;
                    best_d = d;
                }
            }
            best
        };
        self.n_loads += 1;
        self.n_pool[pool_idx] += 1;
        match pool_idx {
            0 => self.hot_base + rng.below(HOT_BYTES / 8) * 8,
            1 => {
                if self.warm_bytes == 0 {
                    // Conflict-based set: 16 lines in one L1 set.
                    let a = self.warm_base + self.warm_ptr * WARM_STRIDE;
                    self.warm_ptr = (self.warm_ptr + 1) % WARM_LINES;
                    a
                } else {
                    // Capacity-based set: circular stream over the region.
                    let a = self.warm_base + self.warm_ptr;
                    self.warm_ptr = (self.warm_ptr + LINE_BYTES) % self.warm_bytes;
                    a
                }
            }
            _ => {
                let a = self.cold_base + self.cold_ptr;
                self.cold_ptr = (self.cold_ptr + LINE_BYTES) % COLD_BYTES;
                a
            }
        }
    }

    /// Draw a store address. Stores write the hot (stack-like) region and do
    /// not participate in the load-miss-rate feedback controller.
    fn draw_store(&mut self, rng: &mut Rng) -> u64 {
        self.hot_base + rng.below(HOT_BYTES / 8) * 8
    }
}

// Bases, targets, and capacities are construction-derived: the snapshot
// carries only the draw pointers and feedback counters.
crate::snap_fields! {
    PoolState { warm_ptr, cold_ptr, n_loads, n_pool }
    derived { hot_base, warm_base, cold_base, agg, concentration, warm_bytes }
}

/// Wrong-path instruction synthesis state (one per hardware context).
#[derive(Debug, Clone)]
pub struct SynthState {
    rng: Rng,
    pools: PoolState,
    code_base: u64,
}

impl SynthState {
    /// Synthesize the dynamic instruction at byte `pc`. PCs outside the code
    /// image wrap modulo the program size, so the front-end can fetch down
    /// any predicted path. Branch direction / `next_pc` are placeholders: on
    /// the wrong path the front-end follows its own predictions.
    pub fn synth_at(&mut self, program: &StaticProgram, pc: u64) -> DynInst {
        let idx = self.idx_of_pc(program, pc);
        let si = *program.inst(idx);
        let canonical_pc = self.code_base + idx as u64 * INST_BYTES;
        let mem_addr = si.mem_dominant.map(|dom| {
            if si.class == OpClass::Store {
                self.pools.draw_store(&mut self.rng)
            } else {
                self.pools.draw(dom, &mut self.rng)
            }
        });
        DynInst {
            pc: canonical_pc,
            static_idx: idx,
            class: si.class,
            ctrl: si.ctrl,
            dest: si.dest,
            srcs: si.srcs,
            mem_addr,
            taken: false,
            next_pc: canonical_pc + INST_BYTES,
            wrong_path: true,
        }
    }

    /// Map a byte PC to a static instruction index (wrapping).
    pub fn idx_of_pc(&self, program: &StaticProgram, pc: u64) -> u32 {
        let rel = pc.wrapping_sub(self.code_base) / INST_BYTES;
        (rel % program.len() as u64) as u32
    }
}

crate::snap_fields! {
    SynthState { rng, pools }
    derived { code_base }
}

/// The correct-path dynamic instruction stream for one thread.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    program: Arc<StaticProgram>,
    profile_name: &'static str,
    code_base: u64,
    seed: u64,
    cur_idx: u32,
    shadow_stack: Vec<u32>,
    rng: Rng,
    pools: PoolState,
    emitted: u64,
    /// Per-static-branch loop iteration counters (deterministic trip
    /// counts), indexed by instruction index.
    loop_counts: Vec<u16>,
}

impl ThreadTrace {
    /// Build a thread trace. `seed` selects the static program *and* the
    /// dynamic stream; `addr_base` places the thread's code and data in the
    /// simulated address space (give each context a disjoint base); `skip`
    /// fast-forwards the stream, mirroring the paper's shifting of replicated
    /// benchmarks "by one million instructions".
    ///
    /// The static program comes from [`StaticProgram::shared`], so
    /// replicated benchmarks share their code image, and so do concurrent
    /// simulators of equal `(profile, seed)`. The memo behind it holds no
    /// strong reference: the program lives as long as a trace or a
    /// campaign's pin holds it.
    pub fn new(profile: &BenchProfile, seed: u64, addr_base: u64, skip: u64) -> ThreadTrace {
        let program = StaticProgram::shared(profile, seed);
        let loop_counts = vec![0; program.len()];
        let mut t = ThreadTrace {
            program,
            profile_name: profile.name,
            code_base: addr_base,
            seed,
            cur_idx: 0,
            shadow_stack: Vec::with_capacity(SHADOW_STACK_CAP),
            rng: Rng::new(seed ^ 0xD1C7_10AA_5EED_0002),
            pools: PoolState::new(addr_base, profile),
            emitted: 0,
            loop_counts,
        };
        for _ in 0..skip {
            t.next_inst();
        }
        t
    }

    /// Benchmark name this trace was generated from.
    pub fn name(&self) -> &'static str {
        self.profile_name
    }

    /// The static program (basic-block dictionary).
    pub fn program(&self) -> &Arc<StaticProgram> {
        &self.program
    }

    /// Base byte address of the code image.
    pub fn code_base(&self) -> u64 {
        self.code_base
    }

    /// Instructions emitted so far (including skipped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Create the wrong-path synthesis companion for this thread. Uses a
    /// seed derived from (but independent of) the stream seed, so wrong-path
    /// fetch never perturbs the correct-path trace.
    pub fn make_synth(&self, profile: &BenchProfile) -> SynthState {
        SynthState {
            rng: Rng::new(self.seed ^ 0xD1C7_10AA_5EED_0003),
            pools: PoolState::new(self.code_base, profile),
            code_base: self.code_base,
        }
    }

    /// Byte PC of instruction index `idx`.
    fn pc_of(&self, idx: u32) -> u64 {
        self.code_base + idx as u64 * INST_BYTES
    }

    /// Byte PC of the next instruction [`ThreadTrace::next_inst`] will emit,
    /// without emitting it. This is where fetch starts.
    pub fn peek_pc(&self) -> u64 {
        self.pc_of(self.cur_idx)
    }

    /// Emit the next correct-path dynamic instruction. The stream is
    /// infinite.
    pub fn next_inst(&mut self) -> DynInst {
        let idx = self.cur_idx;
        let si = *self.program.inst(idx);
        let pc = self.pc_of(idx);
        let prog_len = self.program.len() as u32;
        let wrap = |i: u32| if i >= prog_len { 0 } else { i };

        let mem_addr = si.mem_dominant.map(|dom| {
            if si.class == OpClass::Store {
                self.pools.draw_store(&mut self.rng)
            } else {
                self.pools.draw(dom, &mut self.rng)
            }
        });

        let (taken, next_idx) = match si.ctrl {
            CtrlKind::None => (false, wrap(idx + 1)),
            CtrlKind::CondBr => {
                let taken = if si.loop_period > 0 {
                    // Deterministic loop trip count: taken except on every
                    // period-th execution.
                    let c = &mut self.loop_counts[idx as usize];
                    *c += 1;
                    if *c >= si.loop_period {
                        *c = 0;
                        false
                    } else {
                        true
                    }
                } else {
                    self.rng.chance(si.taken_bias as f64)
                };
                let next = if taken {
                    self.program.block_start(si.taken_target)
                } else {
                    wrap(idx + 1)
                };
                (taken, next)
            }
            CtrlKind::Jump => (true, self.program.block_start(si.taken_target)),
            CtrlKind::Call => {
                if self.shadow_stack.len() == SHADOW_STACK_CAP {
                    self.shadow_stack.remove(0);
                }
                self.shadow_stack.push(wrap(idx + 1));
                (true, self.program.block_start(si.taken_target))
            }
            CtrlKind::Return => {
                let next = self.shadow_stack.pop().unwrap_or_else(|| wrap(idx + 1));
                (true, next)
            }
        };

        self.cur_idx = next_idx;
        self.emitted += 1;
        DynInst {
            pc,
            static_idx: idx,
            class: si.class,
            ctrl: si.ctrl,
            dest: si.dest,
            srcs: si.srcs,
            mem_addr,
            taken,
            next_pc: self.pc_of(next_idx),
            wrong_path: false,
        }
    }
}

// The walker's evolving position; the static program, profile identity,
// and address layout are construction-derived. Restoring rejects indices
// and a loop-counter table that do not fit the constructed program.
crate::snap_fields! {
    ThreadTrace {
        cur_idx,
        shadow_stack: Seq(SHADOW_STACK_CAP),
        rng,
        pools,
        emitted,
        loop_counts: Exact,
    }
    derived { program, profile_name, code_base, seed }
    check {
        let prog_len = program.len() as u32;
        for &idx in std::iter::once(&*cur_idx).chain(shadow_stack.iter()) {
            ensure(idx < prog_len, || {
                format!("trace index {idx} out of range for program of {prog_len}")
            })?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{bzip2, gzip, mcf, twolf};
    use crate::snapio::{Snap, SnapError, SnapReader};

    fn take(trace: &mut ThreadTrace, n: usize) -> Vec<DynInst> {
        (0..n).map(|_| trace.next_inst()).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let p = gzip();
        let mut a = ThreadTrace::new(&p, 42, 0x100_0000_0000, 0);
        let mut b = ThreadTrace::new(&p, 42, 0x100_0000_0000, 0);
        for _ in 0..5000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn skip_shifts_the_stream() {
        let p = gzip();
        let mut a = ThreadTrace::new(&p, 42, 0, 0);
        let shifted = ThreadTrace::new(&p, 42, 0, 100);
        let head = take(&mut a, 100);
        let mut a2 = a; // `a` is now at position 100
        let mut s = shifted;
        // After the skip, both must emit the same continuation.
        for _ in 0..1000 {
            assert_eq!(a2.next_inst(), s.next_inst());
        }
        assert_eq!(head.len(), 100);
    }

    #[test]
    fn control_flow_is_consistent() {
        let p = twolf();
        let mut t = ThreadTrace::new(&p, 7, 0, 0);
        let mut prev: Option<DynInst> = None;
        for _ in 0..20_000 {
            let d = t.next_inst();
            if let Some(pr) = prev {
                assert_eq!(pr.next_pc, d.pc, "stream must follow its own next_pc chain");
            }
            if !d.is_branch() {
                assert!(!d.taken);
                assert_eq!(d.next_pc, d.pc + INST_BYTES);
            }
            if d.ctrl == CtrlKind::Jump || d.ctrl == CtrlKind::Call {
                assert!(d.taken, "unconditional transfers are always taken");
            }
            prev = Some(d);
        }
    }

    #[test]
    fn pcs_stay_inside_code_image() {
        let p = mcf();
        let base = 0x55_0000_0000u64;
        let mut t = ThreadTrace::new(&p, 3, base, 0);
        let code_bytes = t.program().code_bytes();
        for _ in 0..20_000 {
            let d = t.next_inst();
            assert!(d.pc >= base && d.pc < base + code_bytes);
            assert!(d.next_pc >= base && d.next_pc < base + code_bytes);
        }
    }

    #[test]
    fn memory_addresses_land_in_their_pools() {
        let p = mcf();
        let base = 0x77_0000_0000u64;
        let mut t = ThreadTrace::new(&p, 3, base, 0);
        let mut saw = (false, false, false);
        for _ in 0..50_000 {
            let d = t.next_inst();
            if let Some(a) = d.mem_addr {
                assert!(a >= base + HOT_OFFSET, "address before data region: {a:#x}");
                if a < base + HOT_OFFSET + HOT_BYTES {
                    saw.0 = true;
                } else if a >= base + WARM_OFFSET
                    && a < base + WARM_OFFSET + WARM_LINES * WARM_STRIDE
                {
                    saw.1 = true;
                } else if a >= base + COLD_OFFSET && a < base + COLD_OFFSET + COLD_BYTES {
                    saw.2 = true;
                } else {
                    panic!("address outside every pool: {a:#x}");
                }
            } else {
                assert!(!d.class.is_mem());
            }
        }
        assert!(saw.0 && saw.1 && saw.2, "mcf must exercise all three pools");
    }

    #[test]
    fn dynamic_mix_tracks_profile() {
        let p = bzip2();
        let mut t = ThreadTrace::new(&p, 11, 0, 0);
        let n = 100_000;
        let mut loads = 0usize;
        let mut branches = 0usize;
        for _ in 0..n {
            let d = t.next_inst();
            if d.class == OpClass::Load {
                loads += 1;
            }
            if d.is_branch() {
                branches += 1;
            }
        }
        let load_frac = loads as f64 / n as f64;
        // Body mix is load_frac of non-terminators; terminators are ~1/avg_len.
        assert!((load_frac - 0.20).abs() < 0.06, "load fraction {load_frac}");
        let br_frac = branches as f64 / n as f64;
        assert!(
            br_frac > 0.05 && br_frac < 0.25,
            "branch fraction {br_frac}"
        );
    }

    #[test]
    fn cold_fraction_of_loads_tracks_l2_target() {
        let p = mcf();
        let base = 0x9_0000_0000u64;
        let mut t = ThreadTrace::new(&p, 13, base, 0);
        let mut cold = 0usize;
        let mut loads = 0usize;
        for _ in 0..200_000 {
            let d = t.next_inst();
            if d.class == OpClass::Load {
                loads += 1;
                if d.mem_addr.unwrap() >= base + COLD_OFFSET {
                    cold += 1;
                }
            }
        }
        let frac = cold as f64 / loads as f64;
        assert!(
            (frac - p.l2_miss_rate).abs() < 0.02,
            "cold load fraction {frac} vs target {}",
            p.l2_miss_rate
        );
    }

    #[test]
    fn synth_covers_any_pc_and_wraps() {
        let p = gzip();
        let base = 0x1000u64;
        let t = ThreadTrace::new(&p, 5, base, 0);
        let mut synth = t.make_synth(&p);
        let prog = t.program().clone();
        let n = prog.len() as u64;
        for pc in [
            base,
            base + 4,
            base + 4 * (n - 1),
            base + 4 * n,
            base + 4 * (n + 7),
        ] {
            let d = synth.synth_at(&prog, pc);
            assert!(d.wrong_path);
            assert!((d.static_idx as u64) < n);
            if d.class.is_mem() {
                assert!(d.mem_addr.is_some());
            }
        }
    }

    #[test]
    fn synth_does_not_perturb_correct_path() {
        let p = gzip();
        let mut a = ThreadTrace::new(&p, 21, 0, 0);
        let mut b = ThreadTrace::new(&p, 21, 0, 0);
        let prog = b.program().clone();
        let mut synth = b.make_synth(&p);
        // Interleave heavy wrong-path synthesis with b's stream.
        for i in 0..5000u64 {
            let da = a.next_inst();
            for k in 0..3 {
                let _ = synth.synth_at(&prog, (i * 4 + k) * 4);
            }
            let db = b.next_inst();
            assert_eq!(da, db);
        }
    }

    #[test]
    fn replicated_instances_share_code_but_diverge_dynamically() {
        let p = twolf();
        let mut first = ThreadTrace::new(&p, 9, 0x1_0000_0000, 0);
        let mut second = ThreadTrace::new(&p, 9, 0x2_0000_0000, 1000);
        assert_eq!(first.program().len(), second.program().len());
        // Same code image (same static instructions)...
        for i in 0..first.program().len() as u32 {
            assert_eq!(first.program().inst(i), second.program().inst(i));
        }
        // ...but the dynamic streams are out of phase.
        let fa = take(&mut first, 200);
        let fb = take(&mut second, 200);
        let same = fa
            .iter()
            .zip(&fb)
            .filter(|(x, y)| x.static_idx == y.static_idx)
            .count();
        assert!(same < 200, "streams should be out of phase");
    }

    #[test]
    fn emitted_counts_skip() {
        let p = gzip();
        let t = ThreadTrace::new(&p, 1, 0, 500);
        assert_eq!(t.emitted(), 500);
    }

    #[test]
    fn trace_state_round_trips_mid_stream() {
        let p = twolf();
        let mut orig = ThreadTrace::new(&p, 17, 0x3_0000_0000, 0);
        for _ in 0..12_345 {
            orig.next_inst();
        }
        let mut buf = Vec::new();
        orig.save_state(&mut buf);

        // Restore into a freshly-constructed trace at position zero.
        let mut restored = ThreadTrace::new(&p, 17, 0x3_0000_0000, 0);
        let mut r = SnapReader::new(&buf);
        restored.load_state(&mut r).unwrap();
        r.finish("ThreadTrace").unwrap();
        assert_eq!(restored.emitted(), orig.emitted());
        for _ in 0..10_000 {
            assert_eq!(restored.next_inst(), orig.next_inst());
        }

        // Equal machine state must serialize byte-identically.
        let mut again = ThreadTrace::new(&p, 17, 0x3_0000_0000, 0);
        for _ in 0..12_345 {
            again.next_inst();
        }
        let mut buf2 = Vec::new();
        again.save_state(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn synth_state_round_trips() {
        let p = gzip();
        let t = ThreadTrace::new(&p, 5, 0x1000, 0);
        let prog = t.program().clone();
        let mut orig = t.make_synth(&p);
        for pc in 0..500u64 {
            let _ = orig.synth_at(&prog, 0x1000 + pc * 4);
        }
        let mut buf = Vec::new();
        orig.save_state(&mut buf);
        let mut restored = t.make_synth(&p);
        let mut r = SnapReader::new(&buf);
        restored.load_state(&mut r).unwrap();
        r.finish("SynthState").unwrap();
        for pc in 0..500u64 {
            let a = orig.synth_at(&prog, 0x9000 + pc * 8);
            let b = restored.synth_at(&prog, 0x9000 + pc * 8);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn trace_restore_rejects_corrupt_state() {
        let p = gzip();
        let mut orig = ThreadTrace::new(&p, 5, 0, 0);
        for _ in 0..100 {
            orig.next_inst();
        }
        let mut buf = Vec::new();
        orig.save_state(&mut buf);

        // An out-of-range current index is rejected.
        let mut bad = buf.clone();
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut t = ThreadTrace::new(&p, 5, 0, 0);
        assert!(t.load_state(&mut SnapReader::new(&bad)).is_err());

        // A truncated section is rejected with a typed error.
        let mut t = ThreadTrace::new(&p, 5, 0, 0);
        let e = t
            .load_state(&mut SnapReader::new(&buf[..buf.len() - 3]))
            .unwrap_err();
        assert!(matches!(e, SnapError::Truncated { .. }));
    }
}
