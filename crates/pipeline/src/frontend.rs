//! Per-thread front-end state.
//!
//! Each hardware context owns a [`ThreadFront`]: its trace (correct-path
//! stream), wrong-path synthesizer, fetch PC, replay buffer (correct-path
//! instructions squashed by FLUSH that must be re-fetched), fetch queue, and
//! I-cache wait state.

use std::collections::VecDeque;

use smt_trace::snap_fields;
use smt_trace::snapio::{self, ensure, Codec, Seq, Snap, SnapError, SnapReader};
use smt_trace::{BenchProfile, DynInst, SynthState, ThreadTrace};

use crate::inflight::Handle;

/// Front-end state of one hardware context.
#[derive(Debug)]
pub(crate) struct ThreadFront {
    /// The correct-path stream; its static program is also the wrong-path
    /// dictionary.
    pub trace: ThreadTrace,
    pub synth: SynthState,
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
        ThreadFront {
            synth: trace.make_synth(profile),
            fetch_pc: trace.peek_pc(),
            trace,
            on_wrong_path: false,
            replay: VecDeque::new(),
            queue: VecDeque::new(),
            icache_ready_at: 0,
        }
    }

    /// Next correct-path instruction: the replay buffer first, then the
    /// stream.
    pub fn next_correct(&mut self) -> DynInst {
        match self.replay.pop_front() {
            Some(d) => d,
            None => self.trace.next_inst(),
        }
    }

    /// Next instruction for the current path at the current fetch PC.
    pub fn next_to_fetch(&mut self) -> DynInst {
        if self.on_wrong_path {
            self.synth.synth_at(self.trace.program(), self.fetch_pc)
        } else {
            let d = self.next_correct();
            debug_assert_eq!(
                d.pc, self.fetch_pc,
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

    /// Structurally unable to fetch this cycle?
    pub fn blocked(&self, now: u64, fetch_queue_cap: u32) -> bool {
        now < self.icache_ready_at || self.queue.len() >= fetch_queue_cap as usize
    }

    /// Wrap a (wrong-path) PC into the code image. Without this, sequential
    /// wrong-path fetch would run past the end of the code and stream junk
    /// addresses through the I-cache and L2.
    pub fn wrap_pc(&self, pc: u64) -> u64 {
        let base = self.trace.code_base();
        let size = self.trace.program().code_bytes();
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
// state. The static program and code base belong to the stream's
// construction; restore targets an identically-constructed front-end.
snap_fields! {
    ThreadFront {
        trace: StreamTag,
        synth,
        fetch_pc,
        on_wrong_path,
        replay: Seq(MAX_QUEUE),
        queue: Seq(MAX_QUEUE),
        icache_ready_at,
    }
}

/// The stream's state behind a one-byte stream-kind tag. The synthetic
/// stream is the only kind, tag 0. Writing the byte keeps snapshot bytes,
/// and so `SNAPSHOT_VERSION`, unchanged; a restore rejects any other tag.
struct StreamTag;

impl Codec<ThreadTrace> for StreamTag {
    fn save(&self, trace: &ThreadTrace, out: &mut Vec<u8>) {
        snapio::put_u8(out, 0);
        trace.save_state(out);
    }

    fn load(&self, trace: &mut ThreadTrace, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.u8()?;
        ensure(tag == 0, || {
            format!("correct-path stream kind tag {tag} is not the synthetic stream's 0")
        })?;
        trace.load_state(r)
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
    fn restore_rejects_an_unknown_stream_tag() {
        let p = gzip();
        let f = ThreadFront::new(&p, 7, 0x2000, 0);
        let mut buf = Vec::new();
        f.save_state(&mut buf);
        assert_eq!(buf[0], 0, "the synthetic stream's tag leads the section");
        buf[0] = 1;
        let mut g = ThreadFront::new(&p, 7, 0x2000, 0);
        let err = g.load_state(&mut SnapReader::new(&buf)).unwrap_err();
        assert!(
            matches!(&err, SnapError::Malformed(m) if m.contains("tag 1")),
            "{err}"
        );
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
