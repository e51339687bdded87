//! The per-PC load-miss predictor shared by the predictive policies.
//!
//! PDG predicts *L1* misses with it; DC-PRED predicts *L2* misses. Both
//! use a front-end-scale table of 2-bit saturating counters indexed by the
//! load's PC — the structure \[3\] and \[7\] describe.

use smt_trace::snap_fields;
use smt_trace::snapio::{ensure, Exact};

/// 2-bit saturating miss predictor, indexed by load PC.
#[derive(Debug, Clone)]
pub struct MissPredictor {
    table: Vec<u8>,
    mask: u64,
    pub predictions: u64,
    pub mispredictions: u64,
}

/// Front-end-scale default table size.
pub const DEFAULT_ENTRIES: usize = 2048;

impl MissPredictor {
    pub fn new() -> MissPredictor {
        Self::with_entries(DEFAULT_ENTRIES)
    }

    pub fn with_entries(entries: usize) -> MissPredictor {
        assert!(entries.is_power_of_two());
        MissPredictor {
            table: vec![1; entries], // weakly predict hit
            mask: entries as u64 - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    #[inline]
    fn idx(&self, pc: u64) -> usize {
        ((pc / smt_trace::INST_BYTES) & self.mask) as usize
    }

    /// Predict whether the load at `pc` will miss, counting the prediction.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.predictions += 1;
        self.table[self.idx(pc)] >= 2
    }

    /// Peek at the prediction without counting it.
    pub fn would_predict_miss(&self, pc: u64) -> bool {
        self.table[self.idx(pc)] >= 2
    }

    /// Train on the actual outcome.
    pub fn train(&mut self, pc: u64, miss: bool) {
        let i = self.idx(pc);
        let c = &mut self.table[i];
        if miss {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Record a misprediction (the policies decide what counts as one).
    pub fn count_misprediction(&mut self) {
        self.mispredictions += 1;
    }

    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

// The table size is construction-time configuration: restore validates it
// instead of resizing, and rejects counters outside the 2-bit range.
snap_fields! {
    MissPredictor { table: Exact, predictions, mispredictions }
    derived { mask }
    check {
        ensure(table.iter().all(|&c| c <= 3), || {
            "miss-predictor counter exceeds the 2-bit range".to_string()
        })?;
    }
}

impl Default for MissPredictor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_and_unlearns() {
        let mut p = MissPredictor::with_entries(64);
        let pc = 0x100;
        assert!(!p.would_predict_miss(pc), "cold tables predict hit");
        for _ in 0..3 {
            p.train(pc, true);
        }
        assert!(p.would_predict_miss(pc));
        for _ in 0..3 {
            p.train(pc, false);
        }
        assert!(!p.would_predict_miss(pc));
    }

    #[test]
    fn counters_saturate() {
        let mut p = MissPredictor::with_entries(64);
        for _ in 0..100 {
            p.train(0, true);
        }
        // One not-taken must not flip a saturated counter.
        p.train(0, false);
        assert!(p.would_predict_miss(0));
    }

    #[test]
    fn accounting() {
        let mut p = MissPredictor::with_entries(64);
        let _ = p.predict(0);
        let _ = p.predict(4);
        p.count_misprediction();
        assert!((p.misprediction_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = MissPredictor::with_entries(64);
        p.train(0x0, true);
        p.train(0x0, true);
        assert!(p.would_predict_miss(0x0));
        assert!(!p.would_predict_miss(0x4), "neighbouring PC unaffected");
    }
}
