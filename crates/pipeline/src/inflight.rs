//! In-flight instruction records and the generational slab that stores them.
//!
//! Every fetched instruction (correct-path or wrong-path) lives in the slab
//! from fetch until commit or squash. Handles are generational so that
//! stale references (e.g. a waiter list entry pointing at a squashed
//! producer) are detected instead of aliasing a recycled slot.
//!
//! # Layout
//!
//! The slab is a structure-of-arrays split along access frequency: the two
//! fields every per-cycle scan touches — the pipeline [`Stage`] (ready-list
//! compaction, commit-head checks, the quiescence probe) and the global
//! sequence number (age-ordered issue selection, squash walks) — live in
//! dense parallel arrays, while the cold remainder of the record stays in
//! [`InFlight`]. A stage sweep then reads 16-byte entries back-to-back
//! instead of striding over ~200-byte records, which is where the cycle
//! loop spends its scan time.

use smt_trace::snap_fields;
use smt_trace::snapio::{self, ensure, Codec, Seq, Snap, SnapError, SnapReader};
use smt_trace::DynInst;
use smt_uarch::{IqKind, MemAccess};

/// Generational handle to an in-flight instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Handle {
    pub idx: u32,
    pub gen: u32,
}

/// Pipeline position of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// In the per-thread fetch queue; dispatch-eligible at `ready_at`.
    Frontend { ready_at: u64 },
    /// Dispatched into an issue queue, waiting for sources.
    Waiting,
    /// All sources ready; can issue at `at`.
    Ready { at: u64 },
    /// Issued; execution completes (result broadcast) at `complete_at`.
    Executing { complete_at: u64 },
    /// Executed; waiting to commit.
    Done,
}

/// An in-flight dynamic instruction's cold state. The hot fields — stage
/// and sequence number — live in the [`Slab`]'s parallel arrays and are
/// read through [`Slab::stage`] / [`Slab::seq_of`].
#[derive(Debug, Clone, Default)]
pub struct InFlight {
    pub thread: usize,
    pub inst: DynInst,
    /// Unready source count (producers still in flight).
    pub remaining_srcs: u8,
    /// Instructions waiting on this one's result.
    pub waiters: Vec<Handle>,
    /// Issue-queue entry held (from dispatch until issue).
    pub iq: Option<IqKind>,
    /// True while this instruction holds a physical register (int or fp per
    /// its class), from dispatch until commit/squash.
    pub holds_reg: bool,
    /// Producer this instruction's rename displaced (for squash repair).
    pub prev_producer: Option<Handle>,
    /// Result is available for bypass: consumers may issue such that their
    /// execution lines up with this instruction's completing execution.
    pub result_ready: bool,
    /// Memory access outcome (loads, set at execute).
    pub mem: Option<MemAccess>,
    /// The load is counted in its thread's outstanding-L1-miss counter.
    pub dmiss_counted: bool,
    /// The load is counted in its thread's declared-L2-miss counter.
    pub declared: bool,
    /// Where the front-end resumed after this instruction (the predicted
    /// next PC for branches; `pc + 4` otherwise).
    pub fetch_next_pc: u64,
    /// Branch was discovered (at fetch, against the trace) to have been
    /// mispredicted; executing it redirects the front-end.
    pub mispredicted: bool,
    pub squashed: bool,
}

/// Generational slab, SoA-split (see the module docs).
///
/// Liveness invariant: `gens[idx]` advances exactly when the slot's
/// occupant is removed, and a handle carrying a given generation is only
/// ever minted by [`Slab::insert`]. A generation match therefore proves
/// the slot is live *and* still holds that handle's instruction — the hot
/// validity checks ([`Slab::stage`], [`Slab::seq_of`]) never need to touch
/// the cold `items` array.
#[derive(Debug, Default)]
pub struct Slab {
    /// Cold per-instruction records.
    items: Vec<Option<InFlight>>,
    /// Generation per slot (hot: every handle validity check reads this).
    gens: Vec<u32>,
    /// Pipeline stage per slot (hot: every per-cycle scan reads this).
    stages: Vec<Stage>,
    /// Global sequence number per slot (hot: age-ordered selection).
    seqs: Vec<u64>,
    free: Vec<u32>,
    live: usize,
}

impl Slab {
    pub fn new() -> Slab {
        Slab::default()
    }

    pub fn insert(&mut self, seq: u64, stage: Stage, item: InFlight) -> Handle {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            debug_assert!(self.items[i].is_none());
            self.items[i] = Some(item);
            self.stages[i] = stage;
            self.seqs[i] = seq;
            Handle {
                idx,
                gen: self.gens[i],
            }
        } else {
            let idx = self.items.len() as u32;
            self.items.push(Some(item));
            self.gens.push(0);
            self.stages.push(stage);
            self.seqs.push(seq);
            Handle { idx, gen: 0 }
        }
    }

    /// Access the cold record if the handle is still current.
    #[inline]
    pub fn get(&self, h: Handle) -> Option<&InFlight> {
        if self.gens.get(h.idx as usize) != Some(&h.gen) {
            return None;
        }
        self.items[h.idx as usize].as_ref()
    }

    #[inline]
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut InFlight> {
        if self.gens.get(h.idx as usize) != Some(&h.gen) {
            return None;
        }
        self.items[h.idx as usize].as_mut()
    }

    /// The instruction's pipeline stage, if the handle is still current.
    #[inline]
    pub fn stage(&self, h: Handle) -> Option<Stage> {
        match self.gens.get(h.idx as usize) {
            Some(&gen) if gen == h.gen => Some(self.stages[h.idx as usize]),
            _ => None,
        }
    }

    /// The instruction's stage and sequence number in one validity check.
    #[inline]
    pub fn stage_seq(&self, h: Handle) -> Option<(Stage, u64)> {
        match self.gens.get(h.idx as usize) {
            Some(&gen) if gen == h.gen => {
                Some((self.stages[h.idx as usize], self.seqs[h.idx as usize]))
            }
            _ => None,
        }
    }

    /// The cold record, sequence number and stage in one validity check
    /// (the sanitizer's ROB walk).
    #[inline]
    pub fn lookup(&self, h: Handle) -> Option<(&InFlight, u64, Stage)> {
        match self.gens.get(h.idx as usize) {
            Some(&gen) if gen == h.gen => {
                let i = h.idx as usize;
                Some((self.items[i].as_ref()?, self.seqs[i], self.stages[i]))
            }
            _ => None,
        }
    }

    /// Move the instruction to `stage`; the handle must be current.
    #[inline]
    pub fn set_stage(&mut self, h: Handle, stage: Stage) {
        debug_assert!(self.get(h).is_some(), "set_stage on a stale handle");
        self.stages[h.idx as usize] = stage;
    }

    /// The instruction's global sequence number, if the handle is still
    /// current.
    #[inline]
    pub fn seq_of(&self, h: Handle) -> Option<u64> {
        match self.gens.get(h.idx as usize) {
            Some(&gen) if gen == h.gen => Some(self.seqs[h.idx as usize]),
            _ => None,
        }
    }

    /// Remove the instruction; the slot's generation advances, invalidating
    /// all outstanding handles to it.
    pub fn remove(&mut self, h: Handle) -> Option<InFlight> {
        if self.gens.get(h.idx as usize) != Some(&h.gen) {
            return None;
        }
        let i = h.idx as usize;
        let item = self.items[i].take()?;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(h.idx);
        self.live -= 1;
        Some(item)
    }

    pub fn live(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// The complete slab — occupied and free slots, generations, and the free
/// stack *in order* — so a restored slab recycles slots in exactly the
/// sequence the original would have (handle values, and therefore
/// everything keyed on them, stay bit-identical). The slab has no
/// construction-derived shape, so a load replaces everything.
impl Snap for Slab {
    #[deny(unused_variables)]
    fn save_state(&self, out: &mut Vec<u8>) {
        let Slab {
            items,
            gens,
            stages,
            seqs,
            free,
            live: _,
        } = self;
        snapio::put_usize(out, items.len());
        for i in 0..items.len() {
            gens[i].save_state(out);
            stages[i].save_state(out);
            seqs[i].save_state(out);
            items[i].save_state(out);
        }
        Seq(MAX_SLOTS).save(free, out);
    }

    #[deny(unused_variables)]
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Slab {
            items,
            gens,
            stages,
            seqs,
            free,
            live,
        } = self;
        let n = r.len_capped(MAX_SLOTS)?;
        items.resize(n, None);
        gens.resize(n, 0);
        stages.resize(n, Stage::Done);
        seqs.resize(n, 0);
        for i in 0..n {
            gens[i].load_state(r)?;
            stages[i].load_state(r)?;
            seqs[i].load_state(r)?;
            items[i].load_state(r)?;
        }
        // `live` is derived: recounted from the restored occupancy and
        // cross-checked against the free stack.
        *live = items.iter().filter(|i| i.is_some()).count();
        Seq(MAX_SLOTS).load(free, r)?;
        ensure(free.len() + *live == n, || {
            format!(
                "slab free count {} + live {} != slots {n}",
                free.len(),
                *live
            )
        })?;
        let mut seen = vec![false; n];
        for &idx in free.iter() {
            let i = idx as usize;
            ensure(i < n && items[i].is_none() && !seen[i], || {
                format!("slab free-stack entry {idx} is out of range, occupied, or duplicated")
            })?;
            seen[i] = true;
        }
        Ok(())
    }
}

const MAX_SLOTS: usize = 1 << 24;

snap_fields!(Handle { idx, gen });

impl Snap for Stage {
    fn save_state(&self, out: &mut Vec<u8>) {
        match *self {
            Stage::Frontend { ready_at } => {
                snapio::put_u8(out, 0);
                snapio::put_u64(out, ready_at);
            }
            Stage::Waiting => snapio::put_u8(out, 1),
            Stage::Ready { at } => {
                snapio::put_u8(out, 2);
                snapio::put_u64(out, at);
            }
            Stage::Executing { complete_at } => {
                snapio::put_u8(out, 3);
                snapio::put_u64(out, complete_at);
            }
            Stage::Done => snapio::put_u8(out, 4),
        }
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => Stage::Frontend { ready_at: r.u64()? },
            1 => Stage::Waiting,
            2 => Stage::Ready { at: r.u64()? },
            3 => Stage::Executing {
                complete_at: r.u64()?,
            },
            4 => Stage::Done,
            t => return Err(SnapError::malformed(format!("Stage tag {t}"))),
        };
        Ok(())
    }
}

snap_fields! {
    InFlight {
        thread,
        inst,
        remaining_srcs,
        waiters: Seq(1 << 20),
        iq,
        holds_reg,
        prev_producer,
        result_ready,
        mem,
        dmiss_counted,
        declared,
        fetch_next_pc,
        mispredicted,
        squashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_trace::{CtrlKind, OpClass};

    fn dummy(thread: usize) -> InFlight {
        InFlight {
            thread,
            inst: DynInst {
                pc: 0,
                static_idx: 0,
                class: OpClass::IntAlu,
                ctrl: CtrlKind::None,
                dest: Some(1),
                srcs: [None, None],
                mem_addr: None,
                taken: false,
                next_pc: 4,
                wrong_path: false,
            },
            remaining_srcs: 0,
            waiters: Vec::new(),
            iq: None,
            holds_reg: false,
            prev_producer: None,
            result_ready: false,
            mem: None,
            dmiss_counted: false,
            declared: false,
            fetch_next_pc: 4,
            mispredicted: false,
            squashed: false,
        }
    }

    const FE: Stage = Stage::Frontend { ready_at: 0 };

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = Slab::new();
        let h = s.insert(1, FE, dummy(0));
        assert_eq!(s.seq_of(h), Some(1));
        assert_eq!(s.stage(h), Some(FE));
        assert_eq!(s.live(), 1);
        let item = s.remove(h).unwrap();
        assert_eq!(item.thread, 0);
        assert!(s.is_empty());
        assert!(s.get(h).is_none());
    }

    #[test]
    fn stale_handles_do_not_alias_recycled_slots() {
        let mut s = Slab::new();
        let h1 = s.insert(1, FE, dummy(0));
        s.remove(h1);
        let h2 = s.insert(2, FE, dummy(0)); // reuses the slot
        assert_eq!(h1.idx, h2.idx, "slot must be recycled");
        assert!(s.get(h1).is_none(), "stale handle must not resolve");
        assert!(s.stage(h1).is_none(), "stale stage read must not resolve");
        assert!(s.seq_of(h1).is_none(), "stale seq read must not resolve");
        assert_eq!(s.seq_of(h2), Some(2));
    }

    #[test]
    fn double_remove_is_none() {
        let mut s = Slab::new();
        let h = s.insert(1, FE, dummy(0));
        assert!(s.remove(h).is_some());
        assert!(s.remove(h).is_none());
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn set_stage_updates_the_parallel_array() {
        let mut s = Slab::new();
        let h = s.insert(1, FE, dummy(0));
        s.set_stage(h, Stage::Done);
        assert_eq!(s.stage(h), Some(Stage::Done));
        assert_eq!(s.seq_of(h), Some(1), "seq untouched by stage moves");
    }

    #[test]
    fn slab_state_round_trips_with_free_stack_order() {
        let mut s = Slab::new();
        let hs: Vec<Handle> = (0..6).map(|i| s.insert(i, FE, dummy(i as usize))).collect();
        // Remove in a scrambled order so the free stack is non-trivial.
        s.remove(hs[4]);
        s.remove(hs[1]);
        s.remove(hs[3]);
        s.set_stage(hs[2], Stage::Executing { complete_at: 99 });
        let mut buf = Vec::new();
        s.save_state(&mut buf);

        let mut t = Slab::new();
        let mut r = SnapReader::new(&buf);
        t.load_state(&mut r).unwrap();
        r.finish("slab").unwrap();
        assert_eq!(t.live(), s.live());
        assert_eq!(t.stage(hs[2]), Some(Stage::Executing { complete_at: 99 }));
        assert!(t.get(hs[1]).is_none(), "removed slots stay stale");
        // Re-serialization of equal state is byte-identical.
        let mut buf2 = Vec::new();
        t.save_state(&mut buf2);
        assert_eq!(buf2, buf);
        // Future inserts must recycle slots in the exact original order.
        let a = s.insert(10, FE, dummy(0));
        let b = t.insert(10, FE, dummy(0));
        assert_eq!(a, b, "free-stack order is part of the snapshot");

        // A free-stack entry pointing at an occupied slot is malformed.
        let mut bad = Vec::new();
        s.save_state(&mut bad);
        let tail = bad.len() - 4;
        bad[tail..].copy_from_slice(&hs[2].idx.to_le_bytes());
        let mut r = SnapReader::new(&bad);
        assert!(Slab::new().load_state(&mut r).is_err());
    }

    /// The slab against a naive reference: a map from each live handle to
    /// its sequence number, stage and thread. Every handle ever minted stays
    /// in the pool the operations draw from, so removes and lookups also go
    /// through stale handles, including handles whose slot has since been
    /// reused.
    #[test]
    fn matches_a_map_reference_on_random_operations() {
        const STAGES: [Stage; 5] = [
            FE,
            Stage::Waiting,
            Stage::Ready { at: 3 },
            Stage::Executing { complete_at: 7 },
            Stage::Done,
        ];
        fn agree(s: &Slab, model: &smt_uarch::FastMap<Handle, (u64, Stage, usize)>, h: Handle) {
            let want = model.get(&h).copied();
            assert_eq!(s.get(h).map(|i| i.thread), want.map(|(_, _, t)| t), "{h:?}");
            assert_eq!(s.stage_seq(h), want.map(|(q, st, _)| (st, q)), "{h:?}");
            let got = s.lookup(h).map(|(i, q, st)| (q, st, i.thread));
            assert_eq!(got, want, "{h:?}");
        }
        let mut reused = 0;
        for seed in 1..=8 {
            let mut rng = smt_trace::Rng::new(seed);
            let mut s = Slab::new();
            let mut model = smt_uarch::FastMap::default();
            let mut seen: Vec<Handle> = Vec::new();
            for seq in 0..4_000u64 {
                let pick = (!seen.is_empty()).then(|| seen[rng.below(seen.len() as u64) as usize]);
                let h = match (rng.below(10), pick) {
                    (0..=3, _) | (_, None) => {
                        let (stage, thread) =
                            (STAGES[rng.below(5) as usize], rng.below(8) as usize);
                        let h = s.insert(seq, stage, dummy(thread));
                        assert!(!seen.contains(&h), "{h:?} minted twice");
                        reused += usize::from(seen.iter().any(|o| o.idx == h.idx));
                        model.insert(h, (seq, stage, thread));
                        seen.push(h);
                        h
                    }
                    (4..=6, Some(h)) => {
                        let removed = model.remove(&h).map(|(_, _, t)| t);
                        assert_eq!(s.remove(h).map(|i| i.thread), removed, "{h:?}");
                        h
                    }
                    (7..=8, Some(h)) => {
                        if let Some(entry) = model.get_mut(&h) {
                            entry.1 = STAGES[rng.below(5) as usize];
                            s.set_stage(h, entry.1);
                        }
                        h
                    }
                    (_, Some(h)) => h,
                };
                agree(&s, &model, h);
                agree(&s, &model, seen[rng.below(seen.len() as u64) as usize]);
                assert_eq!(s.live(), model.len(), "seed {seed}, op {seq}");
            }
        }
        assert!(reused > 1_000, "slots must be recycled ({reused} reuses)");
    }

    #[test]
    fn live_count_tracks_inserts_and_removes() {
        let mut s = Slab::new();
        let hs: Vec<Handle> = (0..10).map(|i| s.insert(i, FE, dummy(0))).collect();
        assert_eq!(s.live(), 10);
        for h in &hs[..5] {
            s.remove(*h);
        }
        assert_eq!(s.live(), 5);
    }
}
