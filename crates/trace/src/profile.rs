//! SPECint-2000 benchmark *profiles*.
//!
//! The paper drives its simulator with Alpha traces of the 12 SPEC2000
//! integer benchmarks (300M-instruction SimPoint segments). Those traces are
//! not reproducible here, so each benchmark becomes a statistical profile:
//! the measured cache behaviour from Table 2(a) of the paper plus an
//! instruction-mix / control-flow / dependency model. A profile plus a seed
//! deterministically generates a static program and a dynamic instruction
//! stream whose behaviour against the *real* simulated cache hierarchy
//! reproduces the table's L1/L2 miss rates.

/// Paper's thread classification (Table 2a): a benchmark is MEM if its L2
/// miss rate exceeds 1% of dynamic loads, else ILP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadClass {
    /// Memory-bounded: L2 miss rate > 1% of dynamic loads.
    Mem,
    /// ILP-bounded: good cache behaviour.
    Ilp,
}

impl ThreadClass {
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadClass::Mem => "MEM",
            ThreadClass::Ilp => "ILP",
        }
    }
}

/// Statistical model of one benchmark. See module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchProfile {
    /// Benchmark name as in the paper (e.g. "mcf").
    pub name: &'static str,
    /// MEM / ILP classification from Table 2a.
    pub class: ThreadClass,
    /// Target fraction of dynamic loads that miss in L1 D-cache (Table 2a,
    /// expressed there as a percentage).
    pub l1_miss_rate: f64,
    /// Target fraction of dynamic loads that miss in L2 (Table 2a).
    pub l2_miss_rate: f64,
    /// Fraction of block-body instructions that are loads.
    pub load_frac: f64,
    /// Fraction of block-body instructions that are stores.
    pub store_frac: f64,
    /// Fraction of block-body instructions that are integer multiplies.
    pub intmul_frac: f64,
    /// Fraction of block-body instructions that are FP ops.
    pub fp_frac: f64,
    /// Number of basic blocks in the static program (code footprint; large
    /// programs overflow the 64 KB I-cache as gcc/vortex/perlbmk do).
    pub num_blocks: u32,
    /// Basic-block body length range (instructions, excluding terminator).
    pub block_len: (u32, u32),
    /// Number of parallel dependency chains the generator weaves. Each
    /// instruction extends one chain (its first source is that chain's
    /// current tail), so a long-latency load blocks only its own chain's
    /// successors while the other chains run ahead — the dataflow shape
    /// that gives real codes their ILP. Few chains ⇒ serial (pointer
    /// chasing); many ⇒ wide ILP.
    pub chains: u32,
    /// Probability that an instruction directly following a load consumes the
    /// load's destination (models pointer-chasing in MEM codes).
    pub load_consumer_boost: f64,
    /// Fraction of static conditional branches with near-50/50 bias
    /// (hard to predict); the rest are strongly biased.
    pub hard_branch_frac: f64,
    /// Fraction of blocks terminated by a call (matched by returns).
    pub call_frac: f64,
    /// Fraction of blocks terminated by an unconditional jump.
    pub jump_frac: f64,
    /// How strongly each static load is dominated by a single address pool
    /// (1.0 = every static load always uses one pool; 0.0 = every load draws
    /// from the aggregate mixture). Controls how learnable PDG's per-PC miss
    /// predictor finds the benchmark.
    pub concentration: f64,
    /// Warm-set (L2-resident) footprint in KB. `0` selects a tiny
    /// conflict-based warm set (16 lines in one L1 set) that always misses
    /// L1 without occupying L2 capacity — right for ILP codes with small
    /// working sets. MEM codes get real capacity-based sets (≥ 96 KB so
    /// circular streaming always misses the 64 KB L1), whose *combined*
    /// footprint overflows the shared 512 KB L2 in the 4/6/8-thread MEM
    /// workloads — the cache contention that makes the paper's MEM
    /// throughput saturate beyond 4 threads.
    pub warm_kb: u32,
}

impl BenchProfile {
    /// Aggregate per-dynamic-load probabilities of drawing from the
    /// (hot, warm, cold) address pools. Calibrated so the real cache model
    /// reproduces Table 2a: cold accesses miss both levels, warm accesses
    /// miss L1 and hit L2, hot accesses hit L1.
    pub fn pool_probs(&self) -> (f64, f64, f64) {
        let cold = self.l2_miss_rate;
        let warm = (self.l1_miss_rate - self.l2_miss_rate).max(0.0);
        let hot = (1.0 - self.l1_miss_rate).max(0.0);
        (hot, warm, cold)
    }

    /// Paper's L1→L2 ratio (fourth column of Table 2a): the percentage of L1
    /// misses that also miss in L2.
    pub fn l1_to_l2_ratio(&self) -> f64 {
        if self.l1_miss_rate == 0.0 {
            0.0
        } else {
            self.l2_miss_rate / self.l1_miss_rate
        }
    }

    /// Sanity-check invariants; called by the generator.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.l1_miss_rate) {
            return Err(format!("{}: l1_miss_rate out of range", self.name));
        }
        if self.l2_miss_rate > self.l1_miss_rate {
            return Err(format!(
                "{}: a load can only miss L2 if it missed L1",
                self.name
            ));
        }
        let body = self.load_frac + self.store_frac + self.intmul_frac + self.fp_frac;
        if body >= 1.0 {
            return Err(format!("{}: instruction mix exceeds 1.0", self.name));
        }
        if self.block_len.0 < 1 || self.block_len.0 > self.block_len.1 {
            return Err(format!("{}: bad block length range", self.name));
        }
        if self.chains < 1 || self.chains > 15 {
            return Err(format!("{}: chains must be in 1..=15", self.name));
        }
        if self.num_blocks < 2 {
            return Err(format!("{}: need at least 2 blocks", self.name));
        }
        if self.call_frac + self.jump_frac >= 1.0 {
            return Err(format!("{}: terminator fractions exceed 1.0", self.name));
        }
        Ok(())
    }
}

/// Builder for custom benchmark profiles (beyond the 12 SPECint ones).
///
/// Starts from a neutral ILP-ish template and validates on
/// [`ProfileBuilder::build`].
///
/// ```
/// use smt_trace::profile::ProfileBuilder;
///
/// let p = ProfileBuilder::new("mybench")
///     .miss_rates(0.04, 0.02)   // L1 / L2, fractions of dynamic loads
///     .loads(0.28)
///     .chains(4)
///     .pointer_chase(0.5)
///     .code_blocks(600)
///     .build()
///     .unwrap();
/// assert_eq!(p.name, "mybench");
/// ```
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    profile: BenchProfile,
}

impl ProfileBuilder {
    /// Start a profile named `name` (leaked to obtain the `'static` name
    /// the simulator's display paths expect; builders are created a handful
    /// of times per process, not in loops).
    pub fn new(name: &str) -> ProfileBuilder {
        let name: &'static str = Box::leak(name.to_string().into_boxed_str());
        ProfileBuilder {
            profile: BenchProfile {
                name,
                class: ThreadClass::Ilp,
                l1_miss_rate: 0.01,
                l2_miss_rate: 0.002,
                load_frac: 0.24,
                store_frac: 0.10,
                intmul_frac: 0.02,
                fp_frac: 0.0,
                num_blocks: 500,
                block_len: (4, 12),
                chains: 8,
                load_consumer_boost: 0.15,
                hard_branch_frac: 0.08,
                call_frac: 0.08,
                jump_frac: 0.10,
                concentration: 0.5,
                warm_kb: 0,
            },
        }
    }

    /// Target L1/L2 miss rates (fractions of dynamic loads). Rates at or
    /// above 1% L2 classify the benchmark MEM and give it a capacity-based
    /// warm set.
    pub fn miss_rates(mut self, l1: f64, l2: f64) -> Self {
        self.profile.l1_miss_rate = l1;
        self.profile.l2_miss_rate = l2;
        if l2 >= 0.0099 {
            self.profile.class = ThreadClass::Mem;
            if self.profile.warm_kb == 0 {
                self.profile.warm_kb = 96;
            }
        }
        self
    }

    /// Fraction of block-body instructions that are loads.
    pub fn loads(mut self, frac: f64) -> Self {
        self.profile.load_frac = frac;
        self
    }

    /// Fraction of block-body instructions that are stores.
    pub fn stores(mut self, frac: f64) -> Self {
        self.profile.store_frac = frac;
        self
    }

    /// Number of parallel dependency chains (the ILP knob, 1..=15).
    pub fn chains(mut self, k: u32) -> Self {
        self.profile.chains = k;
        self
    }

    /// Probability that an instruction consumes the last load's result
    /// (pointer-chasing serialization).
    pub fn pointer_chase(mut self, p: f64) -> Self {
        self.profile.load_consumer_boost = p;
        self
    }

    /// Static program size in basic blocks (code footprint).
    pub fn code_blocks(mut self, blocks: u32) -> Self {
        self.profile.num_blocks = blocks;
        self
    }

    /// Fraction of forward conditional branches that are hard to predict.
    pub fn hard_branches(mut self, frac: f64) -> Self {
        self.profile.hard_branch_frac = frac;
        self
    }

    /// Warm (L2-resident) working-set size in KB; 0 = conflict-based set.
    pub fn warm_kb(mut self, kb: u32) -> Self {
        self.profile.warm_kb = kb;
        self
    }

    /// Validate and produce the profile.
    pub fn build(self) -> Result<BenchProfile, String> {
        self.profile.validate()?;
        Ok(self.profile)
    }
}

macro_rules! profile {
    ($name:literal, $class:ident, l1: $l1:expr, l2: $l2:expr,
     loads: $ld:expr, stores: $st:expr, blocks: $nb:expr,
     len: ($lo:expr, $hi:expr), chains: $dep:expr, boost: $boost:expr,
     hard: $hard:expr, fp: $fp:expr) => {
        profile!($name, $class, l1: $l1, l2: $l2, loads: $ld, stores: $st,
                 blocks: $nb, len: ($lo, $hi), chains: $dep, boost: $boost,
                 hard: $hard, fp: $fp, warm_kb: 0)
    };
    ($name:literal, $class:ident, l1: $l1:expr, l2: $l2:expr,
     loads: $ld:expr, stores: $st:expr, blocks: $nb:expr,
     len: ($lo:expr, $hi:expr), chains: $dep:expr, boost: $boost:expr,
     hard: $hard:expr, fp: $fp:expr, warm_kb: $wkb:expr) => {
        BenchProfile {
            name: $name,
            class: ThreadClass::$class,
            l1_miss_rate: $l1,
            l2_miss_rate: $l2,
            load_frac: $ld,
            store_frac: $st,
            intmul_frac: 0.02,
            fp_frac: $fp,
            num_blocks: $nb,
            block_len: ($lo, $hi),
            chains: $dep,
            load_consumer_boost: $boost,
            hard_branch_frac: $hard,
            call_frac: 0.08,
            jump_frac: 0.10,
            concentration: 0.5,
            warm_kb: $wkb,
        }
    };
}

/// `mcf`: the pathological pointer-chasing MEM benchmark — nearly a third of
/// its loads miss all the way to memory.
pub fn mcf() -> BenchProfile {
    profile!("mcf", Mem, l1: 0.323, l2: 0.296, loads: 0.31, stores: 0.08,
             blocks: 150, len: (3, 9), chains: 2, boost: 0.6, hard: 0.09, fp: 0.0, warm_kb: 96)
}

/// `twolf`: MEM; placement/routing, moderate L1 missing, ~half reach L2.
pub fn twolf() -> BenchProfile {
    profile!("twolf", Mem, l1: 0.058, l2: 0.029, loads: 0.27, stores: 0.10,
             blocks: 350, len: (3, 10), chains: 8, boost: 0.2, hard: 0.11, fp: 0.01, warm_kb: 160)
}

/// `vpr`: MEM; FPGA place & route.
pub fn vpr() -> BenchProfile {
    profile!("vpr", Mem, l1: 0.043, l2: 0.019, loads: 0.26, stores: 0.10,
             blocks: 400, len: (3, 10), chains: 8, boost: 0.2, hard: 0.09, fp: 0.02, warm_kb: 140)
}

/// `parser`: MEM; link-grammar parser, dictionary working set.
pub fn parser() -> BenchProfile {
    profile!("parser", Mem, l1: 0.029, l2: 0.010, loads: 0.25, stores: 0.11,
             blocks: 900, len: (3, 10), chains: 8, boost: 0.18, hard: 0.08, fp: 0.0, warm_kb: 100)
}

/// `gap`: ILP per the paper's >1% rule (0.7% L2), but almost every L1 miss
/// continues to L2 (94%).
pub fn gap() -> BenchProfile {
    profile!("gap", Ilp, l1: 0.007, l2: 0.0066, loads: 0.24, stores: 0.10,
             blocks: 1200, len: (4, 12), chains: 7, boost: 0.15, hard: 0.05, fp: 0.01)
}

/// `vortex`: ILP; OO database, large code footprint.
pub fn vortex() -> BenchProfile {
    profile!("vortex", Ilp, l1: 0.010, l2: 0.0033, loads: 0.25, stores: 0.13,
             blocks: 2600, len: (4, 12), chains: 7, boost: 0.12, hard: 0.03, fp: 0.0)
}

/// `gcc`: ILP; compiler, the largest code footprint in the suite.
pub fn gcc() -> BenchProfile {
    profile!("gcc", Ilp, l1: 0.004, l2: 0.0033, loads: 0.24, stores: 0.12,
             blocks: 4000, len: (3, 11), chains: 7, boost: 0.15, hard: 0.07, fp: 0.0)
}

/// `perlbmk`: ILP; interpreter, big code, good cache behaviour.
pub fn perlbmk() -> BenchProfile {
    profile!("perlbmk", Ilp, l1: 0.003, l2: 0.0013, loads: 0.24, stores: 0.12,
             blocks: 3000, len: (4, 12), chains: 8, boost: 0.12, hard: 0.05, fp: 0.0)
}

/// `bzip2`: ILP; tiny kernel loops, essentially cache-resident.
pub fn bzip2() -> BenchProfile {
    profile!("bzip2", Ilp, l1: 0.001, l2: 0.001, loads: 0.22, stores: 0.09,
             blocks: 130, len: (5, 14), chains: 9, boost: 0.12, hard: 0.07, fp: 0.0)
}

/// `crafty`: ILP; chess, bit-twiddling heavy, very few L2 misses.
pub fn crafty() -> BenchProfile {
    profile!("crafty", Ilp, l1: 0.008, l2: 0.0006, loads: 0.22, stores: 0.08,
             blocks: 1600, len: (4, 12), chains: 10, boost: 0.1, hard: 0.07, fp: 0.0)
}

/// `gzip`: ILP; notable L1 missing (2.5%) but nearly all of it hits in L2.
pub fn gzip() -> BenchProfile {
    profile!("gzip", Ilp, l1: 0.025, l2: 0.0005, loads: 0.23, stores: 0.09,
             blocks: 160, len: (5, 13), chains: 8, boost: 0.12, hard: 0.06, fp: 0.0)
}

/// `eon`: ILP; C++ ray tracer, the only FP-leaning SPECint code, essentially
/// no L2 misses.
pub fn eon() -> BenchProfile {
    profile!("eon", Ilp, l1: 0.001, l2: 0.00005, loads: 0.24, stores: 0.10,
             blocks: 1100, len: (4, 12), chains: 8, boost: 0.1, hard: 0.03, fp: 0.12)
}

/// All 12 SPECint-2000 profiles in the paper's Table 2a order.
pub fn all_benchmarks() -> Vec<BenchProfile> {
    vec![
        mcf(),
        twolf(),
        vpr(),
        parser(),
        gap(),
        vortex(),
        gcc(),
        perlbmk(),
        bzip2(),
        crafty(),
        gzip(),
        eon(),
    ]
}

/// Look a profile up by its paper name.
pub fn by_name(name: &str) -> Option<BenchProfile> {
    all_benchmarks().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for p in all_benchmarks() {
            p.validate().unwrap();
        }
    }

    #[test]
    fn twelve_benchmarks_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 12);
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn mem_classification_matches_paper_rule() {
        // Paper: L2 miss rate of 1% of dynamic loads or more ⇒ MEM
        // (parser, at exactly 1.0%, is classified MEM in Table 2a).
        for p in all_benchmarks() {
            let expected = if p.l2_miss_rate >= 0.0099 {
                ThreadClass::Mem
            } else {
                ThreadClass::Ilp
            };
            assert_eq!(p.class, expected, "{}", p.name);
        }
    }

    #[test]
    fn pool_probs_sum_to_one() {
        for p in all_benchmarks() {
            let (h, w, c) = p.pool_probs();
            assert!((h + w + c - 1.0).abs() < 1e-12, "{}", p.name);
            assert!(h >= 0.0 && w >= 0.0 && c >= 0.0);
        }
    }

    #[test]
    fn l1_to_l2_ratios_match_table_2a() {
        // Spot-check the ratio column of Table 2a.
        assert!((mcf().l1_to_l2_ratio() - 0.916).abs() < 0.01);
        assert!((twolf().l1_to_l2_ratio() - 0.493).abs() < 0.02);
        assert!((gzip().l1_to_l2_ratio() - 0.02).abs() < 0.005);
        assert!((gap().l1_to_l2_ratio() - 0.94).abs() < 0.01);
    }

    #[test]
    fn builder_produces_valid_profiles() {
        let p = ProfileBuilder::new("custom")
            .miss_rates(0.08, 0.03)
            .loads(0.3)
            .chains(3)
            .pointer_chase(0.6)
            .build()
            .unwrap();
        assert_eq!(p.name, "custom");
        assert_eq!(p.class, ThreadClass::Mem, "3% L2 classifies MEM");
        assert_eq!(p.warm_kb, 96, "MEM profiles get a capacity warm set");
        p.validate().unwrap();
    }

    #[test]
    fn builder_rejects_inconsistent_rates() {
        // L2 > L1 is impossible in an inclusive hierarchy.
        assert!(ProfileBuilder::new("bad")
            .miss_rates(0.01, 0.05)
            .build()
            .is_err());
        // Mix exceeding 1.0.
        assert!(ProfileBuilder::new("bad2")
            .loads(0.95)
            .stores(0.2)
            .build()
            .is_err());
        // Chain count out of range.
        assert!(ProfileBuilder::new("bad3").chains(0).build().is_err());
    }

    #[test]
    fn builder_default_is_ilp() {
        let p = ProfileBuilder::new("plain").build().unwrap();
        assert_eq!(p.class, ThreadClass::Ilp);
        assert_eq!(p.warm_kb, 0);
    }

    #[test]
    fn by_name_round_trips() {
        for p in all_benchmarks() {
            assert_eq!(by_name(p.name).unwrap().name, p.name);
        }
        assert!(by_name("nonexistent").is_none());
    }
}
