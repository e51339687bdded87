//! DG and PDG (El-Moursy & Albonesi \[3\]).
//!
//! **DG (data gating)** stalls a thread while it has `n` or more outstanding
//! L1 data-cache misses (the paper uses n = 1: "a thread is stalled on each
//! L1 miss"). Early and reliable detection, but the response is too strict:
//! fewer than half of L1 misses become L2 misses, so many stalls are
//! unnecessary — the resource under-use DWarn is designed to avoid.
//!
//! **PDG (predictive data gating)** moves detection to the fetch stage with
//! an L1-miss predictor (2-bit saturating counters indexed by load PC): a
//! thread stalls while (loads predicted to miss in flight) + (loads
//! predicted to hit that actually missed) ≥ n. Faster but unreliable, and —
//! as the paper observes — fetch-stalling on each predicted miss serializes
//! the misses and destroys memory-level parallelism.

use smt_pipeline::{FetchPolicy, PolicyEvent, PolicyView};
use smt_trace::snap_fields;
use smt_trace::snapio::{self, ensure, Codec, Seq, Snap, SnapError, SnapReader};

use crate::predictor::MissPredictor;
use crate::taxonomy::{Classification, DetectionMoment, ResponseAction};

/// DG: gate a thread while it has ≥ `n` outstanding L1 data misses.
#[derive(Debug, Clone, Copy)]
pub struct DataGating {
    n: u32,
}

impl DataGating {
    /// The paper's configuration (n = 1).
    pub fn new() -> DataGating {
        DataGating { n: 1 }
    }

    /// DG with a custom outstanding-miss threshold (used by the threshold
    /// ablation).
    pub fn with_threshold(n: u32) -> DataGating {
        assert!(n >= 1);
        DataGating { n }
    }

    pub fn threshold(&self) -> u32 {
        self.n
    }

    pub fn classification() -> Classification {
        Classification::new(DetectionMoment::L1, ResponseAction::Gate)
    }
}

impl Default for DataGating {
    fn default() -> Self {
        Self::new()
    }
}

impl FetchPolicy for DataGating {
    fn name(&self) -> &'static str {
        "DG"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
        out.retain(|&t| view.threads[t].dmiss_count < self.n);
    }

    // Pure function of the view: the quiescence engine may skip idle spans.
    fn quiescence_safe(&self) -> bool {
        true
    }
}

/// Per-load PDG tracking state.
#[derive(Debug, Clone, Copy, Default)]
struct PdgLoad {
    thread: usize,
    /// The load currently contributes to its thread's gate counter.
    counted: bool,
    predicted_miss: bool,
}

snap_fields!(PdgLoad {
    thread,
    counted,
    predicted_miss,
});

/// PDG: predictive data gating.
#[derive(Debug)]
pub struct PredictiveDataGating {
    n: u32,
    /// Per-load-PC L1-miss predictor.
    pub predictor: MissPredictor,
    /// Per-thread count of gating loads.
    counts: Vec<u32>,
    /// In-flight load state by load id.
    loads: smt_uarch::FastMap<u64, PdgLoad>,
}

impl PredictiveDataGating {
    pub fn new() -> PredictiveDataGating {
        Self::with_threshold(1)
    }

    pub fn with_threshold(n: u32) -> PredictiveDataGating {
        assert!(n >= 1);
        PredictiveDataGating {
            n,
            predictor: MissPredictor::new(),
            counts: Vec::new(),
            loads: smt_uarch::FastMap::default(),
        }
    }

    pub fn classification() -> Classification {
        Classification::new(DetectionMoment::Fetch, ResponseAction::Gate)
    }

    fn ensure_threads(&mut self, n: usize) {
        if self.counts.len() < n {
            self.counts.resize(n, 0);
        }
    }

    fn uncount(&mut self, load_id: u64) {
        if let Some(l) = self.loads.remove(&load_id) {
            if l.counted {
                debug_assert!(self.counts[l.thread] > 0);
                self.counts[l.thread] -= 1;
            }
        }
    }

    /// Restore the state [`FetchPolicy::save_state`] writes. The tracked
    /// loads must name counted threads, and the gate counters must equal
    /// the counted loads per thread.
    #[deny(unused_variables)]
    fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let PredictiveDataGating {
            n: _,
            predictor,
            counts,
            loads,
        } = self;
        predictor.load_state(r)?;
        Seq(MAX_SNAP_ITEMS).load(counts, r)?;
        let n_loads = r.len_capped(MAX_SNAP_ITEMS)?;
        loads.clear();
        let mut counted = vec![0u32; counts.len()];
        for _ in 0..n_loads {
            let load_id = r.u64()?;
            let mut l = PdgLoad::default();
            l.load_state(r)?;
            ensure(l.thread < counts.len(), || {
                format!(
                    "tracked load names thread {} beyond the {} counted",
                    l.thread,
                    counts.len()
                )
            })?;
            counted[l.thread] += l.counted as u32;
            ensure(loads.insert(load_id, l).is_none(), || {
                format!("duplicate load id {load_id}")
            })?;
        }
        ensure(counted == *counts, || {
            "per-thread gate counters diverge from the counted tracked loads".to_string()
        })
    }
}

/// Cap on serialized per-policy collection lengths: way above anything a
/// real machine tracks, low enough that a corrupt length cannot OOM.
const MAX_SNAP_ITEMS: usize = 1 << 24;

impl Default for PredictiveDataGating {
    fn default() -> Self {
        Self::new()
    }
}

impl FetchPolicy for PredictiveDataGating {
    fn name(&self) -> &'static str {
        "PDG"
    }

    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        self.ensure_threads(view.num_threads());
        view.icount_order_into(out);
        let counts = &self.counts;
        out.retain(|&t| counts[t] < self.n);
    }

    // `ensure_threads` is an idempotent resize and the gate counters change
    // only through `on_event`, so the order is a pure function of the view
    // between events: the quiescence engine may skip idle spans.
    fn quiescence_safe(&self) -> bool {
        true
    }

    fn on_event(&mut self, ev: &PolicyEvent) {
        match *ev {
            PolicyEvent::LoadFetched {
                thread,
                pc,
                load_id,
            } => {
                self.ensure_threads(thread + 1);
                let predicted_miss = self.predictor.predict(pc);
                if predicted_miss {
                    self.counts[thread] += 1;
                }
                self.loads.insert(
                    load_id,
                    PdgLoad {
                        thread,
                        counted: predicted_miss,
                        predicted_miss,
                    },
                );
            }
            PolicyEvent::LoadL1Outcome {
                thread,
                pc,
                load_id,
                l1_miss,
                ..
            } => {
                self.predictor.train(pc, l1_miss);
                let Some(l) = self.loads.get_mut(&load_id) else {
                    return;
                };
                debug_assert_eq!(l.thread, thread);
                if l.predicted_miss != l1_miss {
                    self.predictor.count_misprediction();
                }
                match (l.predicted_miss, l1_miss) {
                    (true, false) => {
                        // Predicted miss, actually hit: release the gate.
                        l.counted = false;
                        self.loads.remove(&load_id);
                        debug_assert!(self.counts[thread] > 0);
                        self.counts[thread] -= 1;
                    }
                    (false, true) => {
                        // Predicted hit, actually missed: starts gating now.
                        l.counted = true;
                        self.counts[thread] += 1;
                    }
                    (true, true) => {} // keeps gating until the fill
                    (false, false) => {
                        self.loads.remove(&load_id);
                    }
                }
            }
            PolicyEvent::LoadFilled { load_id, .. } | PolicyEvent::LoadSquashed { load_id, .. } => {
                self.uncount(load_id);
            }
            _ => {}
        }
    }

    /// The predictor, the per-thread gate counters, and the tracked loads
    /// sorted by load id (map iteration order is not deterministic).
    #[deny(unused_variables)]
    fn save_state(&self, out: &mut Vec<u8>) {
        let PredictiveDataGating {
            n: _,
            predictor,
            counts,
            loads,
        } = self;
        predictor.save_state(out);
        Seq(MAX_SNAP_ITEMS).save(counts, out);
        let mut loads: Vec<(&u64, &PdgLoad)> = loads.iter().collect();
        loads.sort_by_key(|(id, _)| **id);
        snapio::put_usize(out, loads.len());
        for (id, l) in loads {
            id.save_state(out);
            l.save_state(out);
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        snapio::load_section(bytes, "PDG policy state", |r| self.load_snap(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_pipeline::ThreadView;

    fn tv(icount: u32, dmiss: u32) -> ThreadView {
        ThreadView {
            icount,
            dmiss_count: dmiss,
            ..Default::default()
        }
    }

    #[test]
    fn dg_gates_on_any_outstanding_miss() {
        let threads = vec![tv(1, 1), tv(9, 0)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        assert_eq!(DataGating::new().fetch_order(&v), vec![1]);
    }

    #[test]
    fn dg_threshold_two_tolerates_one_miss() {
        let threads = vec![tv(1, 1), tv(9, 2)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        assert_eq!(DataGating::with_threshold(2).fetch_order(&v), vec![0]);
    }

    #[test]
    fn dg_can_gate_everyone() {
        // Unlike STALL, DG has no keep-one-running rule in [3].
        let threads = vec![tv(1, 1), tv(2, 3)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        assert!(DataGating::new().fetch_order(&v).is_empty());
    }

    fn fetched(p: &mut PredictiveDataGating, thread: usize, pc: u64, id: u64) {
        p.on_event(&PolicyEvent::LoadFetched {
            thread,
            pc,
            load_id: id,
        });
    }

    fn outcome(p: &mut PredictiveDataGating, thread: usize, pc: u64, id: u64, miss: bool) {
        p.on_event(&PolicyEvent::LoadL1Outcome {
            thread,
            pc,
            load_id: id,
            l1_miss: miss,
            l2_miss: false,
        });
    }

    #[test]
    fn pdg_learns_a_missing_load_and_gates_at_fetch() {
        let mut p = PredictiveDataGating::new();
        let pc = 0x100;
        // Train: the load misses repeatedly.
        for id in 0..4 {
            fetched(&mut p, 0, pc, id);
            outcome(&mut p, 0, pc, id, true);
            p.on_event(&PolicyEvent::LoadFilled {
                thread: 0,
                pc,
                load_id: id,
            });
        }
        assert!(p.predictor.would_predict_miss(pc));
        // Now a fetch of that load gates the thread immediately.
        fetched(&mut p, 0, pc, 100);
        let threads = vec![tv(0, 0), tv(0, 0)];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        assert_eq!(p.fetch_order(&v), vec![1]);
        // The fill releases the gate.
        outcome(&mut p, 0, pc, 100, true);
        p.on_event(&PolicyEvent::LoadFilled {
            thread: 0,
            pc,
            load_id: 100,
        });
        assert_eq!(p.fetch_order(&v).len(), 2);
    }

    #[test]
    fn pdg_false_miss_prediction_releases_at_outcome() {
        let mut p = PredictiveDataGating::new();
        let pc = 0x200;
        for id in 0..4 {
            fetched(&mut p, 0, pc, id);
            outcome(&mut p, 0, pc, id, true);
            p.on_event(&PolicyEvent::LoadFilled {
                thread: 0,
                pc,
                load_id: id,
            });
        }
        fetched(&mut p, 0, pc, 50);
        assert_eq!(p.counts[0], 1);
        // Actually hits: gate must lift at the outcome, not at a fill.
        let before = p.predictor.mispredictions;
        outcome(&mut p, 0, pc, 50, false);
        assert_eq!(p.counts[0], 0);
        assert_eq!(p.predictor.mispredictions, before + 1);
    }

    #[test]
    fn pdg_predicted_hit_that_misses_starts_gating_late() {
        let mut p = PredictiveDataGating::new();
        let pc = 0x300;
        fetched(&mut p, 1, pc, 7);
        assert_eq!(p.counts.get(1), Some(&0));
        outcome(&mut p, 1, pc, 7, true);
        assert_eq!(p.counts[1], 1);
        p.on_event(&PolicyEvent::LoadSquashed {
            thread: 1,
            pc,
            load_id: 7,
        });
        assert_eq!(p.counts[1], 0);
    }

    #[test]
    fn pdg_squash_of_predicted_miss_releases() {
        let mut p = PredictiveDataGating::new();
        let pc = 0x400;
        for id in 0..4 {
            fetched(&mut p, 0, pc, id);
            outcome(&mut p, 0, pc, id, true);
            p.on_event(&PolicyEvent::LoadFilled {
                thread: 0,
                pc,
                load_id: id,
            });
        }
        fetched(&mut p, 0, pc, 60);
        assert_eq!(p.counts[0], 1);
        p.on_event(&PolicyEvent::LoadSquashed {
            thread: 0,
            pc,
            load_id: 60,
        });
        assert_eq!(p.counts[0], 0);
        assert!(p.loads.is_empty());
    }

    #[test]
    fn pdg_state_round_trips_and_rejects_corruption() {
        let mut p = PredictiveDataGating::new();
        for id in 0..4 {
            fetched(&mut p, 0, 0x500, id);
            outcome(&mut p, 0, 0x500, id, true);
            p.on_event(&PolicyEvent::LoadFilled {
                thread: 0,
                pc: 0x500,
                load_id: id,
            });
        }
        fetched(&mut p, 0, 0x500, 10); // predicted miss, in flight
        fetched(&mut p, 1, 0x600, 11); // predicted hit, in flight
        outcome(&mut p, 1, 0x600, 11, true); // late gate

        let mut bytes = Vec::new();
        p.save_state(&mut bytes);
        let mut q = PredictiveDataGating::new();
        q.load_state(&bytes).unwrap();
        assert_eq!(q.counts, p.counts);
        assert_eq!(q.loads.len(), p.loads.len());
        assert_eq!(q.predictor.predictions, p.predictor.predictions);
        let mut again = Vec::new();
        q.save_state(&mut again);
        assert_eq!(again, bytes, "reserialization is byte-identical");

        // Truncation and a counter/load divergence are typed errors.
        assert!(PredictiveDataGating::new()
            .load_state(&bytes[..bytes.len() - 1])
            .is_err());
        let mut broken = bytes.clone();
        let counts_at = bytes.len() - 2 * (8 + 8 + 1 + 1) - 8 - 2 * 4;
        broken[counts_at] ^= 1;
        assert!(PredictiveDataGating::new().load_state(&broken).is_err());
    }

    #[test]
    fn classifications_match_table_1() {
        assert_eq!(
            DataGating::classification(),
            Classification::new(DetectionMoment::L1, ResponseAction::Gate)
        );
        assert_eq!(
            PredictiveDataGating::classification(),
            Classification::new(DetectionMoment::Fetch, ResponseAction::Gate)
        );
    }
}
