//! DC-PRED (Limousin et al. \[7\]): the LIMIT-RESOURCES cell of the paper's
//! Table 1.
//!
//! An L2-miss predictor (2-bit saturating counters indexed by load PC) runs
//! in the fetch stage; while a thread has a predicted-L2-missing load in
//! flight, it is *restricted to a maximum share of the shared resources*
//! (issue-queue entries and renameable registers) rather than gated. When
//! the load resolves, the thread regains full access.
//!
//! The paper's §2.1 critique — which this implementation lets you reproduce
//! — is that the fetch-stage detection moment "does not detect all loads
//! missing in L2, and hence some loads that actually fail in the cache and
//! that are not predicted to miss can clog the shared resources".

use smt_pipeline::{FetchPolicy, PolicyEvent, PolicyView};
use smt_trace::snap_fields;
use smt_trace::snapio::{self, ensure, Codec, Seq, Snap, SnapError, SnapReader};

use crate::predictor::MissPredictor;
use crate::taxonomy::{Classification, DetectionMoment, ResponseAction};

/// Resource share a restricted thread may hold (fraction of each pool).
pub const DEFAULT_CAP: f32 = 0.2;

/// Per-load tracking state.
#[derive(Debug, Clone, Copy, Default)]
struct TrackedLoad {
    thread: usize,
    counted: bool,
}

snap_fields!(TrackedLoad { thread, counted });

/// Cap on serialized collection lengths: way above anything a real
/// machine tracks, low enough that a corrupt length cannot OOM.
const MAX_SNAP_ITEMS: usize = 1 << 24;

/// The DC-PRED policy.
#[derive(Debug)]
pub struct DcPred {
    cap: f32,
    /// Per-load-PC *L2*-miss predictor.
    pub predictor: MissPredictor,
    /// Per-thread count of in-flight predicted-L2-missing loads.
    counts: Vec<u32>,
    loads: smt_uarch::FastMap<u64, TrackedLoad>,
}

impl DcPred {
    pub fn new() -> DcPred {
        Self::with_cap(DEFAULT_CAP)
    }

    /// DC-PRED with a custom resource cap (fraction of each shared pool).
    pub fn with_cap(cap: f32) -> DcPred {
        assert!((0.0..=1.0).contains(&cap), "cap is a fraction");
        DcPred {
            cap,
            predictor: MissPredictor::new(),
            counts: Vec::new(),
            loads: smt_uarch::FastMap::default(),
        }
    }

    pub fn classification() -> Classification {
        Classification::new(DetectionMoment::Fetch, ResponseAction::LimitResources)
    }

    fn ensure_threads(&mut self, n: usize) {
        if self.counts.len() < n {
            self.counts.resize(n, 0);
        }
    }

    fn release(&mut self, load_id: u64) {
        if let Some(l) = self.loads.remove(&load_id) {
            if l.counted {
                debug_assert!(self.counts[l.thread] > 0);
                self.counts[l.thread] -= 1;
            }
        }
    }

    /// Restore the state [`FetchPolicy::save_state`] writes. The tracked
    /// loads must name counted threads, and the restriction counters must
    /// equal the counted loads per thread.
    #[deny(unused_variables)]
    fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let DcPred {
            cap: _,
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
            let mut l = TrackedLoad::default();
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
            "per-thread restriction counters diverge from the counted tracked loads".to_string()
        })
    }
}

impl Default for DcPred {
    fn default() -> Self {
        Self::new()
    }
}

impl FetchPolicy for DcPred {
    fn name(&self) -> &'static str {
        "DC-PRED"
    }

    /// DC-PRED never gates fetch — the response action lives entirely in
    /// the resource caps — so the fetch order is plain ICOUNT.
    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        self.ensure_threads(view.num_threads());
        view.icount_order_into(out);
    }

    fn uses_resource_caps(&self) -> bool {
        true
    }

    /// Resource caps feed dispatch every cycle, so DC-PRED must stay on
    /// the naive loop: skipping a span would skip the cap enforcement the
    /// policy's entire response action lives in.
    fn quiescence_safe(&self) -> bool {
        false
    }

    fn resource_caps(&mut self, view: &PolicyView) -> Vec<Option<f32>> {
        self.ensure_threads(view.num_threads());
        (0..view.num_threads())
            .map(|t| {
                if self.counts[t] > 0 {
                    Some(self.cap)
                } else {
                    None
                }
            })
            .collect()
    }

    fn on_event(&mut self, ev: &PolicyEvent) {
        match *ev {
            PolicyEvent::LoadFetched {
                thread,
                pc,
                load_id,
            } => {
                self.ensure_threads(thread + 1);
                let predicted = self.predictor.predict(pc);
                if predicted {
                    self.counts[thread] += 1;
                    self.loads.insert(
                        load_id,
                        TrackedLoad {
                            thread,
                            counted: true,
                        },
                    );
                }
            }
            PolicyEvent::LoadL1Outcome {
                pc,
                load_id,
                l2_miss,
                ..
            } => {
                self.predictor.train(pc, l2_miss);
                if self.loads.contains_key(&load_id) {
                    if !l2_miss {
                        self.predictor.count_misprediction();
                        // Predicted L2 miss but the access came back from L1
                        // or L2: lift the restriction immediately.
                        self.release(load_id);
                    }
                } else if l2_miss {
                    // Undetected L2 miss — the weakness the paper calls out.
                    self.predictor.count_misprediction();
                }
            }
            PolicyEvent::LoadFilled { load_id, .. } | PolicyEvent::LoadSquashed { load_id, .. } => {
                self.release(load_id);
            }
            _ => {}
        }
    }

    /// The predictor, the per-thread restriction counters, and the tracked
    /// loads sorted by load id (map iteration order is not deterministic).
    #[deny(unused_variables)]
    fn save_state(&self, out: &mut Vec<u8>) {
        let DcPred {
            cap: _,
            predictor,
            counts,
            loads,
        } = self;
        predictor.save_state(out);
        Seq(MAX_SNAP_ITEMS).save(counts, out);
        let mut loads: Vec<(&u64, &TrackedLoad)> = loads.iter().collect();
        loads.sort_by_key(|(id, _)| **id);
        snapio::put_usize(out, loads.len());
        for (id, l) in loads {
            id.save_state(out);
            l.save_state(out);
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        snapio::load_section(bytes, "DC-PRED policy state", |r| self.load_snap(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_pipeline::ThreadView;

    fn fetched(p: &mut DcPred, thread: usize, pc: u64, id: u64) {
        p.on_event(&PolicyEvent::LoadFetched {
            thread,
            pc,
            load_id: id,
        });
    }

    fn outcome(p: &mut DcPred, thread: usize, pc: u64, id: u64, l2: bool) {
        p.on_event(&PolicyEvent::LoadL1Outcome {
            thread,
            pc,
            load_id: id,
            l1_miss: l2,
            l2_miss: l2,
        });
    }

    fn train_missing(p: &mut DcPred, pc: u64) {
        for id in 0..4 {
            fetched(p, 0, pc, id);
            outcome(p, 0, pc, id, true);
            p.on_event(&PolicyEvent::LoadFilled {
                thread: 0,
                pc,
                load_id: id,
            });
        }
    }

    #[test]
    fn restricts_only_predicted_missing_threads() {
        let mut p = DcPred::new();
        let pc = 0x400;
        train_missing(&mut p, pc);
        fetched(&mut p, 0, pc, 50);
        let threads = vec![ThreadView::default(), ThreadView::default()];
        let v = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        let caps = p.resource_caps(&v);
        assert_eq!(caps[0], Some(DEFAULT_CAP));
        assert_eq!(caps[1], None);
        // Fetch is never gated.
        assert_eq!(p.fetch_order(&v).len(), 2);
    }

    #[test]
    fn restriction_lifts_at_fill() {
        let mut p = DcPred::new();
        let pc = 0x500;
        train_missing(&mut p, pc);
        fetched(&mut p, 0, pc, 60);
        assert_eq!(p.counts[0], 1);
        outcome(&mut p, 0, pc, 60, true);
        p.on_event(&PolicyEvent::LoadFilled {
            thread: 0,
            pc,
            load_id: 60,
        });
        assert_eq!(p.counts[0], 0);
    }

    #[test]
    fn false_prediction_lifts_at_outcome() {
        let mut p = DcPred::new();
        let pc = 0x600;
        train_missing(&mut p, pc);
        fetched(&mut p, 0, pc, 70);
        assert_eq!(p.counts[0], 1);
        let before = p.predictor.mispredictions;
        outcome(&mut p, 0, pc, 70, false);
        assert_eq!(p.counts[0], 0, "restriction lifted early");
        assert_eq!(p.predictor.mispredictions, before + 1);
    }

    #[test]
    fn undetected_l2_misses_are_counted_as_mispredictions() {
        let mut p = DcPred::new();
        let pc = 0x700;
        fetched(&mut p, 0, pc, 80); // cold predictor: predicted hit
        assert_eq!(p.counts.first().copied().unwrap_or(0), 0);
        let before = p.predictor.mispredictions;
        outcome(&mut p, 0, pc, 80, true);
        assert_eq!(p.predictor.mispredictions, before + 1);
        // And crucially: the thread was never restricted — the clog the
        // paper attributes to the fetch-stage detection moment.
        assert_eq!(p.counts[0], 0);
    }

    #[test]
    fn squash_releases_restrictions() {
        let mut p = DcPred::new();
        let pc = 0x800;
        train_missing(&mut p, pc);
        fetched(&mut p, 0, pc, 90);
        assert_eq!(p.counts[0], 1);
        p.on_event(&PolicyEvent::LoadSquashed {
            thread: 0,
            pc,
            load_id: 90,
        });
        assert_eq!(p.counts[0], 0);
        assert!(p.loads.is_empty());
    }

    #[test]
    fn state_round_trips_through_save_and_load() {
        let mut p = DcPred::new();
        train_missing(&mut p, 0x900);
        fetched(&mut p, 0, 0x900, 91); // predicted miss, in flight
        fetched(&mut p, 1, 0xA00, 92); // cold predictor: untracked
        let mut bytes = Vec::new();
        p.save_state(&mut bytes);
        let mut q = DcPred::new();
        q.load_state(&bytes).unwrap();
        assert_eq!(q.counts, p.counts);
        assert_eq!(q.loads.len(), p.loads.len());
        let mut again = Vec::new();
        q.save_state(&mut again);
        assert_eq!(again, bytes, "reserialization is byte-identical");
        assert!(DcPred::new().load_state(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn classification_is_the_limit_resources_cell() {
        assert_eq!(
            DcPred::classification(),
            Classification::new(DetectionMoment::Fetch, ResponseAction::LimitResources)
        );
    }
}
