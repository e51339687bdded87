//! Branch prediction: gshare direction predictor, BTB, and per-context
//! return-address stacks, matching the paper's Table 3 configuration
//! (2048-entry gshare, 256-entry 4-way BTB, 256-entry RAS).

use smt_trace::snap_fields;
use smt_trace::snapio::ensure;
use smt_trace::{CtrlKind, INST_BYTES};

/// Predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// gshare pattern-history-table entries (power of two).
    pub gshare_entries: usize,
    /// BTB total entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// RAS entries per hardware context.
    pub ras_entries: usize,
}

impl PredictorConfig {
    /// Table 3: 2048-entry gshare, 256-entry 4-way BTB, 256-entry RAS.
    pub fn paper() -> PredictorConfig {
        PredictorConfig {
            gshare_entries: 2048,
            btb_entries: 256,
            btb_ways: 4,
            ras_entries: 256,
        }
    }
}

/// 2-bit saturating counter helpers.
#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

#[inline]
fn counter_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

/// gshare: PHT of 2-bit counters indexed by `pc ^ history`. The PHT is
/// shared between hardware contexts (as in a real SMT); the global history
/// register is per context.
#[derive(Debug, Clone)]
pub struct Gshare {
    pht: Vec<u8>,
    mask: u64,
    history_bits: u32,
    history: Vec<u64>,
}

/// Global-history length. Shorter than log2(PHT entries): with synthetic
/// (partly stochastic) branch outcomes, long histories scatter each branch
/// over many PHT entries and alias destructively; six bits keeps enough
/// correlation to capture loop periods while bounding the context working
/// set. (The paper specifies only "2048 entries gshare".)
const HISTORY_BITS: u32 = 6;

impl Gshare {
    pub fn new(entries: usize, num_threads: usize) -> Gshare {
        assert!(entries.is_power_of_two());
        Gshare {
            pht: vec![1; entries], // weakly not-taken
            mask: entries as u64 - 1,
            history_bits: HISTORY_BITS.min(entries.trailing_zeros()),
            history: vec![0; num_threads],
        }
    }

    #[inline]
    fn index(&self, thread: usize, pc: u64) -> usize {
        (((pc / INST_BYTES) ^ self.history[thread]) & self.mask) as usize
    }

    /// Predict direction for a conditional branch at `pc`.
    pub fn predict(&self, thread: usize, pc: u64) -> bool {
        counter_taken(self.pht[self.index(thread, pc)])
    }

    /// Train on the resolved outcome and shift it into the context's global
    /// history. History is updated at resolve time (non-speculatively),
    /// which keeps the model deterministic under squashes.
    pub fn update(&mut self, thread: usize, pc: u64, taken: bool) {
        let i = self.index(thread, pc);
        self.pht[i] = counter_update(self.pht[i], taken);
        let h = &mut self.history[thread];
        *h = ((*h << 1) | taken as u64) & ((1 << self.history_bits) - 1);
    }
}

// The PHT is restored into a constructed table of the same size; a counter
// outside the 2-bit range would overflow `counter_update`.
snap_fields! {
    Gshare { pht, history }
    derived { mask, history_bits }
    check {
        ensure(pht.iter().all(|&c| c <= 3), || {
            "gshare counter exceeds the 2-bit range".to_string()
        })?;
    }
}

/// Branch target buffer: set-associative, LRU, tagged by full PC.
#[derive(Debug, Clone)]
pub struct Btb {
    ways: usize,
    sets: usize,
    /// (tag pc, target, stamp) per entry; 0-stamp = invalid.
    entries: Vec<(u64, u64, u64)>,
    stamp: u64,
}

impl Btb {
    pub fn new(total_entries: usize, ways: usize) -> Btb {
        assert!(total_entries.is_multiple_of(ways));
        let sets = total_entries / ways;
        assert!(sets.is_power_of_two());
        Btb {
            ways,
            sets,
            entries: vec![(0, 0, 0); total_entries],
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc / INST_BYTES) as usize) & (self.sets - 1)
    }

    /// Look up a predicted target for `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let s = self.set_of(pc) * self.ways;
        self.stamp += 1;
        for e in &mut self.entries[s..s + self.ways] {
            if e.2 != 0 && e.0 == pc {
                e.2 = self.stamp;
                return Some(e.1);
            }
        }
        None
    }

    /// Install/refresh the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let s = self.set_of(pc) * self.ways;
        self.stamp += 1;
        // Hit: refresh.
        for e in &mut self.entries[s..s + self.ways] {
            if e.2 != 0 && e.0 == pc {
                e.1 = target;
                e.2 = self.stamp;
                return;
            }
        }
        // Miss: fill invalid or evict LRU.
        let set = &mut self.entries[s..s + self.ways];
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.2)
            .map(|(i, _)| i)
            .expect("ways >= 1");
        set[victim] = (pc, target, self.stamp);
    }
}

snap_fields! {
    Btb { entries, stamp }
    derived { ways, sets }
}

/// Return-address stack, one per hardware context. Overflow wraps (oldest
/// entries are overwritten), underflow returns `None`.
#[derive(Debug, Clone)]
pub struct Ras {
    buf: Vec<u64>,
    top: usize,
    depth: usize,
}

impl Ras {
    pub fn new(entries: usize) -> Ras {
        Ras {
            buf: vec![0; entries],
            top: 0,
            depth: 0,
        }
    }

    pub fn push(&mut self, ret_addr: u64) {
        self.buf[self.top] = ret_addr;
        self.top = (self.top + 1) % self.buf.len();
        self.depth = (self.depth + 1).min(self.buf.len());
    }

    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        self.top = (self.top + self.buf.len() - 1) % self.buf.len();
        self.depth -= 1;
        Some(self.buf[self.top])
    }

    pub fn depth(&self) -> usize {
        self.depth
    }
}

snap_fields! {
    Ras { buf, top, depth }
    check {
        ensure(*top < buf.len() && *depth <= buf.len(), || {
            format!(
                "RAS pointers ({top}, {depth}) out of range for {} entries",
                buf.len()
            )
        })?;
    }
}

/// A front-end branch prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    pub taken: bool,
    /// Predicted target when taken. `None` means the front-end has no target
    /// (BTB/RAS miss) and must fall through — a wrong path if the branch is
    /// actually taken.
    pub target: Option<u64>,
}

/// The combined branch unit used by the fetch stage.
#[derive(Debug)]
pub struct BranchUnit {
    gshare: Gshare,
    btb: Btb,
    ras: Vec<Ras>,
    pub predictions: u64,
    pub mispredictions: u64,
    /// Per-kind (prediction, misprediction) counters, indexed by
    /// [CondBr, Jump, Call, Return] — diagnostics.
    pub by_kind: [(u64, u64); 4],
}

fn kind_index(ctrl: CtrlKind) -> Option<usize> {
    match ctrl {
        CtrlKind::CondBr => Some(0),
        CtrlKind::Jump => Some(1),
        CtrlKind::Call => Some(2),
        CtrlKind::Return => Some(3),
        CtrlKind::None => None,
    }
}

impl BranchUnit {
    pub fn new(cfg: PredictorConfig, num_threads: usize) -> BranchUnit {
        BranchUnit {
            gshare: Gshare::new(cfg.gshare_entries, num_threads),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: (0..num_threads)
                .map(|_| Ras::new(cfg.ras_entries))
                .collect(),
            predictions: 0,
            mispredictions: 0,
            by_kind: [(0, 0); 4],
        }
    }

    /// Predict a control-flow instruction at fetch. Calls push the RAS;
    /// returns pop it; this is speculative RAS management, as in hardware.
    pub fn predict(&mut self, thread: usize, pc: u64, ctrl: CtrlKind) -> Prediction {
        self.predictions += 1;
        match ctrl {
            CtrlKind::None => Prediction {
                taken: false,
                target: None,
            },
            CtrlKind::CondBr => {
                let taken = self.gshare.predict(thread, pc);
                let target = if taken { self.btb.lookup(pc) } else { None };
                Prediction { taken, target }
            }
            CtrlKind::Jump => Prediction {
                taken: true,
                target: self.btb.lookup(pc),
            },
            CtrlKind::Call => {
                self.ras[thread].push(pc + INST_BYTES);
                Prediction {
                    taken: true,
                    target: self.btb.lookup(pc),
                }
            }
            CtrlKind::Return => Prediction {
                taken: true,
                target: self.ras[thread].pop(),
            },
        }
    }

    /// Train on a resolved branch. `mispredicted` feeds the counter only;
    /// tables are always trained with the true outcome.
    pub fn resolve(
        &mut self,
        thread: usize,
        pc: u64,
        ctrl: CtrlKind,
        taken: bool,
        target: u64,
        mispredicted: bool,
    ) {
        if mispredicted {
            self.mispredictions += 1;
        }
        if let Some(i) = kind_index(ctrl) {
            self.by_kind[i].0 += 1;
            if mispredicted {
                self.by_kind[i].1 += 1;
            }
        }
        match ctrl {
            CtrlKind::CondBr => {
                self.gshare.update(thread, pc, taken);
                if taken {
                    self.btb.update(pc, target);
                }
            }
            CtrlKind::Jump | CtrlKind::Call => {
                self.btb.update(pc, target);
            }
            CtrlKind::Return | CtrlKind::None => {}
        }
    }

    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

snap_fields!(BranchUnit {
    gshare,
    btb,
    ras,
    predictions,
    mispredictions,
    by_kind,
});

#[cfg(test)]
mod tests {
    use super::*;
    use smt_trace::snapio::{Snap, SnapError, SnapReader};

    #[test]
    fn gshare_restore_rejects_counters_outside_two_bits() {
        let g = Gshare::new(64, 1);
        let mut buf = Vec::new();
        g.save_state(&mut buf);
        let mut back = Gshare::new(64, 1);
        back.load_state(&mut SnapReader::new(&buf)).unwrap();
        buf[5] = 255; // one PHT counter
        let e = back.load_state(&mut SnapReader::new(&buf)).unwrap_err();
        assert!(matches!(e, SnapError::Malformed(_)), "{e}");
    }

    #[test]
    fn gshare_learns_a_biased_branch() {
        let mut g = Gshare::new(64, 1);
        let pc = 0x400;
        for _ in 0..10 {
            g.update(0, pc, true);
        }
        assert!(g.predict(0, pc));
        for _ in 0..10 {
            g.update(0, pc, false);
        }
        assert!(!g.predict(0, pc));
    }

    #[test]
    fn gshare_histories_are_per_thread() {
        let mut g = Gshare::new(64, 2);
        // Train thread 0 heavily; thread 1's history stays 0 so it may index
        // differently. The important property: updating thread 0 does not
        // change thread 1's history register.
        g.update(0, 0x400, true);
        g.update(0, 0x404, true);
        assert_eq!(g.history[1], 0);
        assert_ne!(g.history[0], 0);
    }

    #[test]
    fn counters_saturate() {
        let mut c = 0u8;
        for _ in 0..10 {
            c = counter_update(c, true);
        }
        assert_eq!(c, 3);
        for _ in 0..10 {
            c = counter_update(c, false);
        }
        assert_eq!(c, 0);
    }

    #[test]
    fn btb_stores_and_retrieves_targets() {
        let mut b = Btb::new(16, 4);
        assert_eq!(b.lookup(0x1000), None);
        b.update(0x1000, 0x2000);
        assert_eq!(b.lookup(0x1000), Some(0x2000));
        b.update(0x1000, 0x3000);
        assert_eq!(b.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn btb_evicts_lru_within_a_set() {
        let mut b = Btb::new(8, 2); // 4 sets, 2 ways
                                    // PCs mapping to set 0: (pc/4) % 4 == 0 → pc = 0, 16, 32.
        b.update(0, 0xA);
        b.update(16, 0xB);
        assert!(b.lookup(0).is_some()); // refresh 0
        b.update(32, 0xC); // evicts 16
        assert_eq!(b.lookup(0), Some(0xA));
        assert_eq!(b.lookup(16), None);
        assert_eq!(b.lookup(32), Some(0xC));
    }

    #[test]
    fn ras_round_trips() {
        let mut r = Ras::new(4);
        r.push(0x10);
        r.push(0x20);
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), Some(0x10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_wraps_and_keeps_newest() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1; depth stays capped at 2
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        // The oldest frame was lost to wrap-around.
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_underflow_is_none() {
        let mut r = Ras::new(4);
        assert_eq!(r.pop(), None);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn branch_unit_call_return_pairing() {
        let mut bu = BranchUnit::new(PredictorConfig::paper(), 1);
        let call_pc = 0x100;
        let p = bu.predict(0, call_pc, CtrlKind::Call);
        assert!(p.taken);
        let r = bu.predict(0, 0x500, CtrlKind::Return);
        assert_eq!(r.target, Some(call_pc + INST_BYTES));
    }

    #[test]
    fn branch_unit_learns_jump_targets() {
        let mut bu = BranchUnit::new(PredictorConfig::paper(), 1);
        let p = bu.predict(0, 0x100, CtrlKind::Jump);
        assert!(p.taken);
        assert_eq!(p.target, None, "cold BTB has no target");
        bu.resolve(0, 0x100, CtrlKind::Jump, true, 0x900, true);
        let p2 = bu.predict(0, 0x100, CtrlKind::Jump);
        assert_eq!(p2.target, Some(0x900));
    }

    #[test]
    fn misprediction_rate_counts() {
        let mut bu = BranchUnit::new(PredictorConfig::paper(), 1);
        bu.predict(0, 0x100, CtrlKind::CondBr);
        bu.resolve(0, 0x100, CtrlKind::CondBr, true, 0x200, true);
        bu.predict(0, 0x100, CtrlKind::CondBr);
        bu.resolve(0, 0x100, CtrlKind::CondBr, true, 0x200, false);
        assert!((bu.misprediction_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ras_depth_caps_at_capacity() {
        let mut r = Ras::new(3);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.depth(), 3);
    }
}
