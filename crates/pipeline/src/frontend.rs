//! Per-thread front-end state.
//!
//! Each hardware context owns a [`ThreadFront`]: its trace (correct-path
//! stream), wrong-path synthesizer, fetch PC, replay buffer (correct-path
//! instructions squashed by FLUSH that must be re-fetched), fetch queue, and
//! I-cache wait state.

use std::collections::VecDeque;
use std::sync::Arc;

use smt_trace::snap_fields;
use smt_trace::snapio::{self, ensure, Seq, Snap, SnapError, SnapReader};
use smt_trace::{BenchProfile, DynInst, RecordedTrace, StaticProgram, SynthState, ThreadTrace};

use crate::inflight::Handle;

/// Where a thread's correct-path instructions come from: a live synthetic
/// generator, or a recorded trace replayed from a `DWTR` file.
// `Synthetic` is much larger than `Recorded`, but there is exactly one
// `CorrectPath` per hardware context (at most 8), so boxing would buy
// nothing and cost an indirection on the per-fetch hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CorrectPath {
    Synthetic(ThreadTrace),
    Recorded {
        insts: Arc<Vec<DynInst>>,
        pos: usize,
        /// Address shift applied when rebasing the recording onto this
        /// context's address space.
        delta: u64,
        emitted: u64,
    },
}

/// Front-end state of one hardware context.
#[derive(Debug)]
pub struct ThreadFront {
    pub source: CorrectPath,
    pub synth: SynthState,
    pub program: Arc<StaticProgram>,
    /// Benchmark profile this thread runs (used for steady-state cache
    /// pre-warming and diagnostics).
    pub profile: BenchProfile,
    code_base: u64,
    /// Next PC the fetch engine will fetch from.
    pub fetch_pc: u64,
    /// True while fetch follows a mispredicted (wrong) path; instructions
    /// are synthesized from the static program instead of consumed from the
    /// trace.
    pub on_wrong_path: bool,
    /// Correct-path instructions squashed by a FLUSH that must be re-fetched
    /// before the trace continues (oldest first).
    pub replay: VecDeque<DynInst>,
    /// Fetched instructions waiting to dispatch (the fetch queue).
    pub queue: VecDeque<Handle>,
    /// Fetch is blocked until this cycle (pending I-cache fill).
    pub icache_ready_at: u64,
}

impl ThreadFront {
    pub fn new(profile: &BenchProfile, seed: u64, addr_base: u64, skip: u64) -> ThreadFront {
        let trace = ThreadTrace::new(profile, seed, addr_base, skip);
        let synth = trace.make_synth(profile);
        let program = trace.program().clone();
        let fetch_pc = trace.peek_pc();
        ThreadFront {
            source: CorrectPath::Synthetic(trace),
            synth,
            program,
            profile: profile.clone(),
            code_base: addr_base,
            fetch_pc,
            on_wrong_path: false,
            replay: VecDeque::new(),
            queue: VecDeque::new(),
            icache_ready_at: 0,
        }
    }

    /// Build a front-end that replays a recorded trace, rebased onto
    /// `addr_base`. The recording's profile must name a known benchmark
    /// (wrong-path synthesis needs its pool calibration). Replay wraps
    /// around at the end of the recording.
    pub fn from_recording(rec: &RecordedTrace, seed: u64, addr_base: u64) -> ThreadFront {
        let profile = rec
            .profile()
            .expect("recorded trace names a known benchmark profile");
        assert!(!rec.insts.is_empty(), "empty recording");
        let delta = addr_base.wrapping_sub(rec.code_base);
        let insts: Vec<DynInst> = rec
            .insts
            .iter()
            .map(|d| DynInst {
                pc: d.pc.wrapping_add(delta),
                next_pc: d.next_pc.wrapping_add(delta),
                mem_addr: d.mem_addr.map(|a| a.wrapping_add(delta)),
                ..*d
            })
            .collect();
        let fetch_pc = insts[0].pc;
        ThreadFront {
            source: CorrectPath::Recorded {
                insts: Arc::new(insts),
                pos: 0,
                delta,
                emitted: 0,
            },
            synth: SynthState::new(&profile, seed, addr_base),
            program: Arc::new(rec.program.clone()),
            profile,
            code_base: addr_base,
            fetch_pc,
            on_wrong_path: false,
            replay: VecDeque::new(),
            queue: VecDeque::new(),
            icache_ready_at: 0,
        }
    }

    /// Base byte address of the code image.
    pub fn code_base(&self) -> u64 {
        self.code_base
    }

    /// Correct-path instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        match &self.source {
            CorrectPath::Synthetic(t) => t.emitted(),
            CorrectPath::Recorded { emitted, .. } => *emitted,
        }
    }

    /// Pool-draw statistics (synthetic streams only).
    pub fn pool_draws(&self) -> (u64, [u64; 3]) {
        match &self.source {
            CorrectPath::Synthetic(t) => t.pool_draws(),
            CorrectPath::Recorded { .. } => (0, [0; 3]),
        }
    }

    /// Next correct-path instruction: the replay buffer first, then the
    /// stream. Recorded replays wrap around at the end of the recording.
    pub fn next_correct(&mut self) -> DynInst {
        if let Some(d) = self.replay.pop_front() {
            return d;
        }
        match &mut self.source {
            CorrectPath::Synthetic(t) => t.next_inst(),
            CorrectPath::Recorded {
                insts,
                pos,
                emitted,
                ..
            } => {
                let d = insts[*pos];
                *pos = (*pos + 1) % insts.len();
                *emitted += 1;
                d
            }
        }
    }

    /// Next instruction for the current path at the current fetch PC.
    pub fn next_to_fetch(&mut self) -> DynInst {
        if self.on_wrong_path {
            let program = self.program.clone();
            self.synth.synth_at(&program, self.fetch_pc)
        } else {
            let d = self.next_correct();
            // Recorded replays wrap at the end of the recording, where the
            // PC chain has a one-off discontinuity; synthetic streams must
            // stay exactly in sync.
            debug_assert!(
                d.pc == self.fetch_pc || matches!(self.source, CorrectPath::Recorded { .. }),
                "correct-path stream out of sync with fetch PC"
            );
            self.fetch_pc = d.pc;
            d
        }
    }

    /// Push squashed correct-path instructions (given oldest-first) back for
    /// re-fetch, and point fetch at the oldest of them.
    ///
    /// When `squashed` is empty the front-end state is left untouched: the
    /// squash removed only wrong-path instructions, which means any live
    /// mispredicted branch is older than the squash point and fetch must
    /// stay on its wrong path until that branch resolves. (Redirecting to a
    /// leftover replay entry here would fetch correct-path instructions
    /// younger than a live mispredicted branch — they would be lost when it
    /// resolves.)
    pub fn restore_for_replay(&mut self, squashed: Vec<DynInst>) {
        if squashed.is_empty() {
            return;
        }
        for d in squashed.into_iter().rev() {
            self.replay.push_front(d);
        }
        let front = self.replay.front().expect("just pushed");
        self.fetch_pc = front.pc;
        self.on_wrong_path = false;
    }

    /// Structurally unable to fetch this cycle?    /// Structurally unable to fetch this cycle?
    pub fn blocked(&self, now: u64, fetch_queue_cap: u32) -> bool {
        now < self.icache_ready_at || self.queue.len() >= fetch_queue_cap as usize
    }

    /// Wrap a (wrong-path) PC into the code image. Without this, sequential
    /// wrong-path fetch would run past the end of the code and stream junk
    /// addresses through the I-cache and L2.
    pub fn wrap_pc(&self, pc: u64) -> u64 {
        let base = self.code_base;
        let size = self.program.code_bytes();
        if pc >= base && pc < base + size {
            pc
        } else {
            base + pc.wrapping_sub(base) % size
        }
    }
}

/// Fetch-queue and replay-buffer snapshot cap.
const MAX_QUEUE: usize = 1 << 20;

// The front-end's evolving state: stream position, wrong-path synthesizer,
// fetch PC and path flag, replay buffer, fetch queue, and I-cache wait
// state. The program image, profile, and code base are construction-
// derived; restore targets an identically-constructed front-end.
snap_fields! {
    ThreadFront {
        source,
        synth,
        fetch_pc,
        on_wrong_path,
        replay: Seq(MAX_QUEUE),
        queue: Seq(MAX_QUEUE),
        icache_ready_at,
    }
    derived { program, profile, code_base }
}

/// A tag for the stream kind, which must match the constructed front-end,
/// then the stream position. The recorded instruction array and its
/// rebase delta are construction-derived.
impl Snap for CorrectPath {
    #[deny(unused_variables)]
    fn save_state(&self, out: &mut Vec<u8>) {
        match self {
            CorrectPath::Synthetic(t) => {
                snapio::put_u8(out, 0);
                t.save_state(out);
            }
            CorrectPath::Recorded {
                insts: _,
                pos,
                delta: _,
                emitted,
            } => {
                snapio::put_u8(out, 1);
                pos.save_state(out);
                emitted.save_state(out);
            }
        }
    }

    #[deny(unused_variables)]
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.u8()?;
        match (self, tag) {
            (CorrectPath::Synthetic(t), 0) => t.load_state(r),
            (
                CorrectPath::Recorded {
                    insts,
                    pos,
                    delta: _,
                    emitted,
                },
                1,
            ) => {
                pos.load_state(r)?;
                ensure(*pos < insts.len(), || {
                    format!(
                        "recorded-trace position {pos} out of {} instructions",
                        insts.len()
                    )
                })?;
                emitted.load_state(r)
            }
            _ => Err(SnapError::malformed(format!(
                "correct-path stream kind tag {tag} does not match the constructed front-end"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_trace::profile::gzip;

    #[test]
    fn starts_at_trace_head() {
        let p = gzip();
        let mut f = ThreadFront::new(&p, 1, 0x1000, 0);
        assert_eq!(f.fetch_pc, 0x1000, "block 0 starts at the code base");
        let d = f.next_to_fetch();
        assert_eq!(d.pc, 0x1000);
    }

    #[test]
    fn replay_takes_precedence_over_trace() {
        let p = gzip();
        let mut f = ThreadFront::new(&p, 1, 0, 0);
        let a = f.next_to_fetch();
        let b = {
            f.fetch_pc = a.next_pc;
            f.next_to_fetch()
        };
        // Squash both; they must come back in order.
        f.restore_for_replay(vec![a, b]);
        assert_eq!(f.fetch_pc, a.pc);
        assert!(!f.on_wrong_path);
        let a2 = f.next_to_fetch();
        assert_eq!(a2, a);
        f.fetch_pc = a2.next_pc;
        let b2 = f.next_to_fetch();
        assert_eq!(b2, b);
    }

    #[test]
    fn wrong_path_synthesizes_at_fetch_pc() {
        let p = gzip();
        let mut f = ThreadFront::new(&p, 1, 0, 0);
        f.on_wrong_path = true;
        f.fetch_pc = 0x40;
        let d = f.next_to_fetch();
        assert!(d.wrong_path);
        assert_eq!(d.pc, 0x40);
    }

    #[test]
    fn front_state_round_trips_mid_stream() {
        let p = gzip();
        let mut f = ThreadFront::new(&p, 7, 0x2000, 0);
        // Advance the stream, leave a replay entry and queue contents.
        let mut last = f.next_to_fetch();
        for _ in 0..500 {
            f.fetch_pc = last.next_pc;
            last = f.next_to_fetch();
        }
        f.restore_for_replay(vec![last]);
        f.queue.push_back(Handle { idx: 3, gen: 1 });
        f.icache_ready_at = 1234;
        let mut buf = Vec::new();
        f.save_state(&mut buf);

        let mut g = ThreadFront::new(&p, 7, 0x2000, 0);
        let mut r = SnapReader::new(&buf);
        g.load_state(&mut r).unwrap();
        r.finish("front").unwrap();
        assert_eq!(g.fetch_pc, f.fetch_pc);
        assert_eq!(g.icache_ready_at, 1234);
        assert_eq!(g.queue, f.queue);
        // Continuations agree instruction for instruction.
        for _ in 0..200 {
            let a = f.next_to_fetch();
            let b = g.next_to_fetch();
            assert_eq!(a, b);
            f.fetch_pc = a.next_pc;
            g.fetch_pc = b.next_pc;
        }
        // A truncated section is a typed error, not a panic.
        let mut h = ThreadFront::new(&p, 7, 0x2000, 0);
        let mut r = SnapReader::new(&buf[..buf.len() / 2]);
        assert!(h.load_state(&mut r).is_err());
    }

    #[test]
    fn blocked_on_icache_or_full_queue() {
        let p = gzip();
        let mut f = ThreadFront::new(&p, 1, 0, 0);
        assert!(!f.blocked(0, 8));
        f.icache_ready_at = 10;
        assert!(f.blocked(5, 8));
        assert!(!f.blocked(10, 8));
        f.icache_ready_at = 0;
        for _ in 0..8 {
            f.queue.push_back(Handle { idx: 0, gen: 0 });
        }
        assert!(f.blocked(0, 8));
    }
}
