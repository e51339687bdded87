//! Static-program generation.
//!
//! Each benchmark profile deterministically expands into a *static program*:
//! a code image of basic blocks grouped into functions, with fixed register
//! assignments, per-static-branch biases, and per-static-load address-pool
//! domination. This plays the role of the paper's "separate basic block
//! dictionary that contains all the static instructions": the front-end can
//! fetch (and execute) down a mispredicted path by synthesizing instructions
//! from the dictionary at any PC.

use crate::instr::{ArchReg, CtrlKind, MemPool, OpClass, StaticInst, NUM_ARCH_REGS};
use crate::profile::BenchProfile;
use crate::rng::Rng;

/// One basic block in the static program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction of the block.
    pub start: u32,
    /// Number of instructions including the terminator.
    pub len: u32,
    /// Index of the function (see [`StaticProgram::functions`]) owning this
    /// block.
    pub func: u32,
}

impl Block {
    /// Instruction index of the block's terminator.
    pub fn term_idx(&self) -> u32 {
        self.start + self.len - 1
    }
}

/// A function: a contiguous, half-open range of blocks. Control flow stays
/// within the function except for calls (to other function heads) and
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Function {
    pub first_block: u32,
    pub last_block: u32,
}

/// A generated static program (the basic-block dictionary).
#[derive(Debug, Clone)]
pub struct StaticProgram {
    insts: Vec<StaticInst>,
    blocks: Vec<Block>,
    functions: Vec<Function>,
    /// `block_of[i]` = block index containing instruction `i`.
    block_of: Vec<u32>,
}

/// Number of parallel FP dependency chains (FP traffic is light in SPECint).
const FP_CHAINS: u32 = 2;

/// Dataflow state while generating a program: K parallel integer dependency
/// chains plus a couple of FP chains. Each chain owns a disjoint slice of
/// the architectural register space, so extending chain `c` (reading its
/// tail, writing the slice's next register round-robin) never aliases
/// another chain — the generated dataflow really is K independent strands,
/// cross-linked only by explicit second sources and pointer-chase hops.
struct ChainState {
    k: u32,
    slice: u32,
    int_rr: Vec<u8>,
    int_tails: Vec<Option<ArchReg>>,
    fp_rr: Vec<u8>,
    fp_tails: Vec<Option<ArchReg>>,
    /// Most recent load's (destination, chain).
    last_load: Option<(ArchReg, usize)>,
}

impl ChainState {
    fn new(k: u32) -> ChainState {
        assert!((1..=15).contains(&k), "1..=15 chains supported");
        ChainState {
            k,
            slice: (NUM_ARCH_REGS as u32 - 2) / k,
            int_rr: vec![0; k as usize],
            int_tails: vec![None; k as usize],
            fp_rr: vec![0; FP_CHAINS as usize],
            fp_tails: vec![None; FP_CHAINS as usize],
            last_load: None,
        }
    }

    fn pick_int(&self, rng: &mut Rng) -> usize {
        rng.below(self.k as u64) as usize
    }

    fn pick_fp(&self, rng: &mut Rng) -> usize {
        rng.below(FP_CHAINS as u64) as usize
    }

    fn int_tail(&self, c: usize) -> Option<ArchReg> {
        self.int_tails[c]
    }

    fn fp_tail(&self, c: usize) -> Option<ArchReg> {
        self.fp_tails[c]
    }

    /// Next destination register of integer chain `c` (round-robin within
    /// the chain's register slice, offset by 1 to keep r0 free).
    fn next_int_dest(&mut self, c: usize) -> ArchReg {
        let r = 1 + c as u32 * self.slice + self.int_rr[c] as u32;
        self.int_rr[c] = (self.int_rr[c] + 1) % self.slice as u8;
        // Overwriting the tracked load destination kills the chase.
        if let Some((ld, _)) = self.last_load {
            if ld == r as ArchReg {
                self.last_load = None;
            }
        }
        self.int_tails[c] = Some(r as ArchReg);
        r as ArchReg
    }

    fn next_fp_dest(&mut self, c: usize) -> ArchReg {
        let half = NUM_ARCH_REGS / FP_CHAINS as u8;
        let r = c as u8 * half + self.fp_rr[c] % half;
        self.fp_rr[c] = (self.fp_rr[c] + 1) % half;
        self.fp_tails[c] = Some(r);
        r
    }
}

impl StaticProgram {
    /// Deterministically generate the static program for a profile.
    /// The same `(profile, seed)` always yields the same program.
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: profiles are validated at build time, so an invalid one cannot reach generate()"
    )]
    pub fn generate(profile: &BenchProfile, seed: u64) -> StaticProgram {
        profile.validate().expect("invalid benchmark profile");
        let mut rng = Rng::new(seed ^ 0xD1C7_10AA_5EED_0001);

        // --- Partition blocks into functions of 4..=20 contiguous blocks.
        let mut functions = Vec::new();
        let mut b = 0u32;
        while b < profile.num_blocks {
            let size = rng.range(4, 21) as u32;
            let last = (b + size - 1).min(profile.num_blocks - 1);
            functions.push(Function {
                first_block: b,
                last_block: last,
            });
            b = last + 1;
        }

        // --- Generate block skeletons (lengths) so instruction indices and
        // block starts are known before wiring branch targets.
        let mut blocks = Vec::with_capacity(profile.num_blocks as usize);
        let mut start = 0u32;
        for (fi, f) in functions.iter().enumerate() {
            for _ in f.first_block..=f.last_block {
                let body =
                    rng.range(profile.block_len.0 as u64, profile.block_len.1 as u64 + 1) as u32;
                blocks.push(Block {
                    start,
                    len: body + 1, // + terminator
                    func: fi as u32,
                });
                start += body + 1;
            }
        }
        let total_insts = start as usize;

        // --- Emit instructions.
        let mut insts = Vec::with_capacity(total_insts);
        let mut block_of = Vec::with_capacity(total_insts);
        let mut chains = ChainState::new(profile.chains);
        let (hot_p, warm_p, cold_p) = profile.pool_probs();

        let body_weights = [
            profile.load_frac,
            profile.store_frac,
            profile.intmul_frac,
            profile.fp_frac,
            (1.0 - profile.load_frac - profile.store_frac - profile.intmul_frac - profile.fp_frac),
        ];

        // Per-block class composition is *stratified* to the profile mix:
        // each block gets its proportional share of loads/stores/etc. (with
        // randomized rounding), then shuffled. Hot loops therefore execute
        // the same instruction mix as cold paths, keeping the dynamic mix on
        // target no matter how the dynamic block-frequency distribution
        // concentrates.
        for (bi, blk) in blocks.iter().enumerate() {
            let func = &functions[blk.func as usize];
            let body = (blk.len - 1) as usize;
            let mut classes: Vec<OpClass> = Vec::with_capacity(body);
            for (wi, class) in [
                OpClass::Load,
                OpClass::Store,
                OpClass::IntMul,
                OpClass::FpAlu,
            ]
            .into_iter()
            .enumerate()
            {
                let share = body_weights[wi] * body as f64;
                let mut count = share.floor() as usize;
                if rng.f64() < share - count as f64 {
                    count += 1;
                }
                classes.extend(std::iter::repeat_n(class, count));
            }
            classes.truncate(body);
            while classes.len() < body {
                classes.push(OpClass::IntAlu);
            }
            // Fisher–Yates shuffle.
            for i in (1..classes.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                classes.swap(i, j);
            }

            for slot in 0..blk.len {
                let is_term = slot == blk.len - 1;
                let inst = if is_term {
                    Self::gen_terminator(bi as u32, func, &functions, profile, &mut rng, &chains)
                } else {
                    Self::gen_body_inst(
                        classes[slot as usize],
                        profile,
                        &mut rng,
                        &mut chains,
                        (hot_p, warm_p, cold_p),
                    )
                };
                insts.push(inst);
                block_of.push(bi as u32);
            }
        }

        StaticProgram {
            insts,
            blocks,
            functions,
            block_of,
        }
    }

    fn gen_body_inst(
        class: OpClass,
        profile: &BenchProfile,
        rng: &mut Rng,
        chains: &mut ChainState,
        pools: (f64, f64, f64),
    ) -> StaticInst {
        let (dest, srcs) = match class {
            OpClass::FpAlu => {
                let c = chains.pick_fp(rng);
                let s0 = chains.fp_tail(c);
                let s1 = if rng.chance(0.4) {
                    chains.fp_tail(chains.pick_fp(rng))
                } else {
                    None
                };
                let d = chains.next_fp_dest(c);
                (Some(d), [s0, s1])
            }
            OpClass::Store => {
                // address base + data value, off arbitrary chains
                let s0 = chains.int_tail(chains.pick_int(rng));
                let s1 = chains.int_tail(chains.pick_int(rng));
                (None, [s0, s1])
            }
            _ => {
                // Pointer-chasing: with the boost probability, this
                // instruction continues the last load's chain and consumes
                // its destination. For loads that makes the *address* depend
                // on the previous load's result — the serial load-load
                // chains that make MEM codes slow even when they hit. All
                // other chains keep running ahead past a blocked load.
                let (c, s0) = match chains.last_load {
                    Some((ld_reg, ld_chain)) if rng.chance(profile.load_consumer_boost) => {
                        (ld_chain, Some(ld_reg))
                    }
                    _ => {
                        let c = chains.pick_int(rng);
                        (c, chains.int_tail(c))
                    }
                };
                let s1 = if rng.chance(0.3) {
                    chains.int_tail(chains.pick_int(rng))
                } else {
                    None
                };
                let d = chains.next_int_dest(c);
                if class == OpClass::Load {
                    chains.last_load = Some((d, c));
                }
                (Some(d), [s0, s1])
            }
        };

        let mem_dominant = if class.is_mem() {
            if class == OpClass::Store {
                // Stores write to the hot (stack-like) region so they do not
                // perturb the load-miss-rate calibration with extra fills.
                Some(MemPool::Hot)
            } else {
                let (h, w, c) = pools;
                Some(match rng.weighted(&[h, w, c]) {
                    0 => MemPool::Hot,
                    1 => MemPool::Warm,
                    _ => MemPool::Cold,
                })
            }
        } else {
            None
        };

        StaticInst {
            class,
            ctrl: CtrlKind::None,
            dest,
            srcs,
            mem_dominant,
            taken_bias: 0.0,
            loop_period: 0,
            taken_target: 0,
        }
    }

    fn gen_terminator(
        block_idx: u32,
        func: &Function,
        functions: &[Function],
        profile: &BenchProfile,
        rng: &mut Rng,
        chains: &ChainState,
    ) -> StaticInst {
        let cond_src = chains.int_tail(chains.pick_int(rng));
        let is_last_of_func = block_idx == func.last_block;

        let (ctrl, class, bias, period, target_block) = if is_last_of_func {
            (CtrlKind::Return, OpClass::Jump, 0.0f32, 0u16, 0u32)
        } else {
            let roll = rng.f64();
            if roll < profile.call_frac && functions.len() > 1 {
                // Call-graph locality: real programs concentrate calls on a
                // small set of hot callees (which is also what keeps the
                // 256-entry BTB effective). 80% of call sites target one of
                // the first 8 functions; the rest are uniform.
                let mut fi = if rng.chance(0.8) {
                    rng.below(8.min(functions.len() as u64)) as usize
                } else {
                    rng.below(functions.len() as u64) as usize
                };
                if functions[fi].first_block == func.first_block {
                    fi = (fi + 1) % functions.len();
                }
                (
                    CtrlKind::Call,
                    OpClass::Jump,
                    0.0,
                    0,
                    functions[fi].first_block,
                )
            } else if roll < profile.call_frac + profile.jump_frac
                && block_idx + 1 < func.last_block
            {
                // Forward jump within the function (forward-only to preclude
                // unconditional livelock cycles).
                let t = rng.range(block_idx as u64 + 1, func.last_block as u64 + 1) as u32;
                (CtrlKind::Jump, OpClass::Jump, 0.0, 0, t)
            } else {
                // Conditional branch: taken target anywhere in the function
                // except this block; fallthrough is block_idx + 1.
                let span = (func.last_block - func.first_block + 1) as u64;
                let mut t = func.first_block + rng.below(span) as u32;
                if t == block_idx {
                    t = if t == func.last_block {
                        func.first_block
                    } else {
                        t + 1
                    };
                }
                // Back-edges become *deterministic loop branches*: taken
                // except on every Nth execution (the trip count). Real loop
                // branches are predictable precisely because their behaviour
                // is periodic, not stochastic — and they dominate dynamic
                // branch counts. Hard (data-dependent) branches live on
                // forward paths only, so a benchmark's misprediction rate is
                // governed by `hard_branch_frac`. Forward-branch outcomes
                // are drawn i.i.d. from a strong bias (that bias is the
                // floor on gshare's error for them).
                let (bias, period) = if t <= block_idx {
                    (1.0, rng.range(6, 48) as u16)
                } else if rng.chance(profile.hard_branch_frac) {
                    // Hard branches are moderately biased (error floor
                    // 20-32% each) rather than pure coin flips: one hard
                    // branch landing in a hot path must not be able to
                    // drag a whole benchmark to chance-level prediction.
                    let b = rng.range(20, 33) as f32 / 100.0;
                    (if rng.chance(0.5) { b } else { 1.0 - b }, 0)
                } else if rng.chance(0.5) {
                    (rng.range(94, 99) as f32 / 100.0, 0)
                } else {
                    (rng.range(2, 7) as f32 / 100.0, 0)
                };
                (CtrlKind::CondBr, OpClass::CondBranch, bias, period, t)
            }
        };

        StaticInst {
            class,
            ctrl,
            dest: None,
            srcs: [cond_src, None],
            mem_dominant: None,
            taken_bias: bias,
            loop_period: period,
            taken_target: target_block,
        }
    }

    /// Total number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program is empty (never the case for generated programs).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Code footprint in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.insts.len() as u64 * crate::instr::INST_BYTES
    }

    /// The static instruction at `idx`.
    pub fn inst(&self, idx: u32) -> &StaticInst {
        &self.insts[idx as usize]
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// All functions.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Block containing instruction `idx`.
    pub fn block_of(&self, idx: u32) -> u32 {
        self.block_of[idx as usize]
    }

    /// First instruction index of block `b`.
    pub fn block_start(&self, b: u32) -> u32 {
        self.blocks[b as usize].start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{all_benchmarks, gzip, mcf};

    #[test]
    fn generation_is_deterministic() {
        let p = gzip();
        let a = StaticProgram::generate(&p, 7);
        let b = StaticProgram::generate(&p, 7);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() as u32 {
            assert_eq!(a.inst(i), b.inst(i));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = gzip();
        let a = StaticProgram::generate(&p, 7);
        let b = StaticProgram::generate(&p, 8);
        let differs = a.len() != b.len() || (0..a.len() as u32).any(|i| a.inst(i) != b.inst(i));
        assert!(differs);
    }

    #[test]
    fn blocks_tile_the_instruction_array() {
        for p in all_benchmarks() {
            let prog = StaticProgram::generate(&p, 1);
            let mut expected_start = 0u32;
            for blk in prog.blocks() {
                assert_eq!(blk.start, expected_start, "{}", p.name);
                assert!(blk.len >= 2, "block must hold body + terminator");
                expected_start += blk.len;
            }
            assert_eq!(expected_start as usize, prog.len(), "{}", p.name);
        }
    }

    #[test]
    fn every_block_ends_in_control_flow() {
        for p in all_benchmarks() {
            let prog = StaticProgram::generate(&p, 1);
            for blk in prog.blocks() {
                let term = prog.inst(blk.term_idx());
                assert!(term.class.is_branch(), "{}", p.name);
                assert_ne!(term.ctrl, CtrlKind::None);
                // Body instructions must not be branches.
                for i in blk.start..blk.term_idx() {
                    assert!(!prog.inst(i).class.is_branch(), "{}", p.name);
                }
            }
        }
    }

    #[test]
    fn branch_targets_stay_in_bounds_and_in_function() {
        for p in all_benchmarks() {
            let prog = StaticProgram::generate(&p, 3);
            for blk in prog.blocks() {
                let term = prog.inst(blk.term_idx());
                let func = prog.functions()[blk.func as usize];
                match term.ctrl {
                    CtrlKind::CondBr | CtrlKind::Jump => {
                        assert!(
                            (term.taken_target as usize) < prog.blocks().len(),
                            "{}",
                            p.name
                        );
                        let tb = term.taken_target;
                        assert!(
                            tb >= func.first_block && tb <= func.last_block,
                            "{}: intra-function target out of function",
                            p.name
                        );
                    }
                    CtrlKind::Call => {
                        // Calls target a function head.
                        let tb = term.taken_target;
                        assert!(
                            prog.functions().iter().any(|f| f.first_block == tb),
                            "{}: call target is not a function head",
                            p.name
                        );
                    }
                    CtrlKind::Return => {}
                    CtrlKind::None => panic!("terminator without ctrl kind"),
                }
            }
        }
    }

    #[test]
    fn cond_branches_never_target_their_own_block() {
        for p in all_benchmarks() {
            let prog = StaticProgram::generate(&p, 5);
            for (bi, blk) in prog.blocks().iter().enumerate() {
                let term = prog.inst(blk.term_idx());
                if term.ctrl == CtrlKind::CondBr {
                    assert_ne!(term.taken_target, bi as u32, "{}", p.name);
                }
            }
        }
    }

    #[test]
    fn unconditional_jumps_go_forward() {
        // Forward-only jumps preclude unconditional livelock cycles.
        for p in all_benchmarks() {
            let prog = StaticProgram::generate(&p, 11);
            for (bi, blk) in prog.blocks().iter().enumerate() {
                let term = prog.inst(blk.term_idx());
                if term.ctrl == CtrlKind::Jump {
                    assert!(term.taken_target > bi as u32, "{}", p.name);
                }
            }
        }
    }

    #[test]
    fn biases_are_probabilities_or_loops_are_periodic() {
        for p in all_benchmarks() {
            let prog = StaticProgram::generate(&p, 13);
            let mut saw_loop = false;
            for i in 0..prog.len() as u32 {
                let inst = prog.inst(i);
                assert!((0.0..=1.0).contains(&inst.taken_bias), "{}", p.name);
                if inst.ctrl == CtrlKind::CondBr {
                    if inst.loop_period > 0 {
                        saw_loop = true;
                        assert!(inst.loop_period >= 2, "a loop must iterate at least once");
                    } else {
                        assert!(inst.taken_bias > 0.0 && inst.taken_bias < 1.0);
                    }
                } else {
                    assert_eq!(inst.loop_period, 0, "{}", p.name);
                }
            }
            assert!(saw_loop, "{} must contain loop back-edges", p.name);
        }
    }

    #[test]
    fn loads_have_pool_domination_and_stores_are_hot() {
        for p in all_benchmarks() {
            let prog = StaticProgram::generate(&p, 17);
            let mut saw_load = false;
            for i in 0..prog.len() as u32 {
                let inst = prog.inst(i);
                match inst.class {
                    OpClass::Load => {
                        saw_load = true;
                        assert!(inst.mem_dominant.is_some());
                    }
                    OpClass::Store => {
                        assert_eq!(inst.mem_dominant, Some(MemPool::Hot));
                    }
                    _ => assert!(inst.mem_dominant.is_none()),
                }
            }
            assert!(saw_load, "{}", p.name);
        }
    }

    #[test]
    fn mcf_loads_are_dominated_by_cold_pool() {
        let prog = StaticProgram::generate(&mcf(), 19);
        let (mut cold, mut total) = (0usize, 0usize);
        for i in 0..prog.len() as u32 {
            let inst = prog.inst(i);
            if inst.class == OpClass::Load {
                total += 1;
                if inst.mem_dominant == Some(MemPool::Cold) {
                    cold += 1;
                }
            }
        }
        let frac = cold as f64 / total as f64;
        // mcf: ~29.6% of loads should be cold-dominated.
        assert!((frac - 0.296).abs() < 0.08, "cold fraction {frac}");
    }

    #[test]
    fn code_footprints_bracket_the_icache() {
        // gcc must overflow the 64 KB I-cache; bzip2 must fit easily.
        let gcc = StaticProgram::generate(&crate::profile::gcc(), 1);
        let bzip2 = StaticProgram::generate(&crate::profile::bzip2(), 1);
        assert!(gcc.code_bytes() > 64 * 1024, "{}", gcc.code_bytes());
        assert!(bzip2.code_bytes() < 16 * 1024, "{}", bzip2.code_bytes());
    }

    #[test]
    fn block_of_is_consistent() {
        let prog = StaticProgram::generate(&gzip(), 23);
        for (bi, blk) in prog.blocks().iter().enumerate() {
            for i in blk.start..blk.start + blk.len {
                assert_eq!(prog.block_of(i), bi as u32);
            }
        }
    }
}
