//! Simulation statistics.

use smt_trace::snapio::Fnv1a;

smt_trace::counters! {
    /// Per-thread counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct ThreadStats {
        /// Instructions fetched (correct-path + wrong-path).
        fetched,
        /// The wrong-path subset of `fetched` — instructions fetched past a
        /// mispredicted branch before recovery redirected the front-end.
        wrong_path_fetched,
        /// Correct-path instructions committed.
        committed,
        /// Instructions squashed by branch-misprediction recovery.
        squashed_mispredict,
        /// Instructions squashed by the FLUSH policy's response action.
        squashed_flush,
        /// Cycles this thread was gated (absent from the policy's fetch order).
        gated_cycles,
        /// Cycles this thread could not fetch for structural reasons
        /// (I-cache miss pending or full fetch queue).
        blocked_cycles,
        /// Dispatch stalls due to exhausted shared resources (registers or
        /// issue-queue entries).
        dispatch_stalls,
        /// Branch instructions committed.
        branches,
        /// Committed branches that had been mispredicted.
        branch_mispredicts,
    }
}

impl ThreadStats {
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }
}

/// Whole-simulation result.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Measured cycles (after warm-up).
    pub cycles: u64,
    pub threads: Vec<ThreadStats>,
    /// Per-thread memory statistics from the hierarchy (measured window).
    pub mem: Vec<smt_uarch::ThreadMemStats>,
    /// Branch predictor accuracy over the measured window.
    pub branch_mispredict_rate: f64,
}

impl SimResult {
    /// Order- and content-exact 64-bit digest of every counter in the
    /// result (FNV-1a over a canonical little-endian serialization).
    ///
    /// Two `SimResult`s have equal digests iff every statistic — cycles,
    /// all per-thread pipeline counters, all per-thread memory counters,
    /// and the branch-mispredict rate — is bit-identical. The golden-digest
    /// determinism suite and the campaign cache's `verify` subcommand both
    /// rely on this: any behavioral drift in the simulator, however small,
    /// changes the digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.cycles);
        h.u64(self.threads.len() as u64);
        for t in &self.threads {
            t.named().for_each(|(_, v)| h.u64(v));
        }
        h.u64(self.mem.len() as u64);
        for m in &self.mem {
            m.named().for_each(|(_, v)| h.u64(v));
        }
        h.u64(self.branch_mispredict_rate.to_bits());
        h.finish()
    }

    /// Per-thread IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.ipc(self.cycles)).collect()
    }

    /// Throughput: the sum of per-thread IPCs (the paper's §5 metric).
    pub fn throughput(&self) -> f64 {
        self.ipcs().iter().sum()
    }

    /// Total instructions fetched across threads.
    pub fn total_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.fetched).sum()
    }

    /// Total wrong-path instructions fetched across threads.
    pub fn total_wrong_path_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.wrong_path_fetched).sum()
    }

    /// Wrong-path instructions as a fraction of all fetched instructions —
    /// the fetch bandwidth wasted on mispredicted paths.
    pub fn wrong_path_fraction(&self) -> f64 {
        let f = self.total_fetched();
        if f == 0 {
            0.0
        } else {
            self.total_wrong_path_fetched() as f64 / f as f64
        }
    }

    /// Total instructions squashed by the FLUSH response action.
    pub fn total_flush_squashed(&self) -> u64 {
        self.threads.iter().map(|t| t.squashed_flush).sum()
    }

    /// Figure 2's metric: FLUSH-squashed instructions as a fraction of all
    /// fetched instructions.
    pub fn flushed_fraction(&self) -> f64 {
        let f = self.total_fetched();
        if f == 0 {
            0.0
        } else {
            self.total_flush_squashed() as f64 / f as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_throughput() {
        let r = SimResult {
            cycles: 100,
            threads: vec![
                ThreadStats {
                    committed: 150,
                    ..Default::default()
                },
                ThreadStats {
                    committed: 50,
                    ..Default::default()
                },
            ],
            mem: vec![],
            branch_mispredict_rate: 0.0,
        };
        assert_eq!(r.ipcs(), vec![1.5, 0.5]);
        assert!((r.throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flushed_fraction() {
        let r = SimResult {
            cycles: 10,
            threads: vec![ThreadStats {
                fetched: 200,
                squashed_flush: 70,
                ..Default::default()
            }],
            mem: vec![],
            branch_mispredict_rate: 0.0,
        };
        assert!((r.flushed_fraction() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_yield_zero_ipc() {
        let t = ThreadStats::default();
        assert_eq!(t.ipc(0), 0.0);
        let r = SimResult::default();
        assert_eq!(r.flushed_fraction(), 0.0);
    }
}
