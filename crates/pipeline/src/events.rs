//! Calendar-queue event scheduler for the cycle loop.
//!
//! The simulator schedules a handful of timed events per instruction
//! (result broadcast, completion, cache outcomes, L2-miss declarations).
//! Almost all of them land within a few hundred cycles of `now` — bounded
//! by the memory round-trip — so a classic calendar queue (a ring of
//! per-cycle buckets) turns every push and pop into O(1) array traffic,
//! where the previous `BinaryHeap` paid a comparison-heavy sift per
//! operation on the hottest path in the simulator.
//!
//! Events beyond the wheel horizon (possible in principle under extreme
//! bank-queue backlog) spill into a small binary heap that is consulted
//! once per drain; correctness never depends on the horizon, only
//! performance does.
//!
//! A bitmap with one bit per bucket marks the buckets that hold events.
//! Only a few dozen of the 1,024 buckets are occupied at a time, so the
//! scans that must find them — the quiescence engine's
//! [`EventWheel::next_due`] and the sanitizer's per-cycle
//! [`EventWheel::audit`] — walk set bits instead of every bucket.
//!
//! # Ordering contract
//!
//! [`EventWheel::drain_due`] yields, for one value of `now`, exactly the
//! events scheduled for that cycle, sorted by `(seq, kind)` — the same
//! total order `(at, seq, kind)` the heap-based implementation produced,
//! restricted to one `at`. The golden-digest suite pins this equivalence:
//! simulations are bit-identical to the heap-based scheduler's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use smt_trace::snapio::{self, ensure, Snap, SnapError, SnapReader};

use crate::inflight::Handle;

/// Kind of a scheduled pipeline event. The discriminant order is part of
/// the scheduler's tie-break (same cycle, same instruction ⇒ kind order),
/// so variants must not be reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EvKind {
    /// Result broadcast: consumers become issue-eligible this cycle, so a
    /// dependent single-cycle op can execute back-to-back with its producer
    /// (full bypass network).
    Wakeup,
    Complete,
    L1Outcome,
    Fill,
    ResolveNotice,
    Declare,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ev {
    pub at: u64,
    pub seq: u64,
    pub kind: EvKind,
    pub h: Handle,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq, self.kind).cmp(&(other.at, other.seq, other.kind))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Fixed-horizon calendar queue with a heap spill-over.
#[derive(Debug)]
pub(crate) struct EventWheel {
    /// One bucket per cycle within the horizon, indexed by `at & mask`.
    buckets: Vec<Vec<Ev>>,
    mask: u64,
    /// Bit `i` is set while `buckets[i]` may hold events: filing sets it,
    /// draining the bucket clears it. Derived from `buckets`.
    occupied: Vec<u64>,
    /// Events scheduled `>= horizon` cycles ahead (rare).
    overflow: BinaryHeap<Reverse<Ev>>,
    /// Total queued events (buckets + overflow).
    len: usize,
}

impl EventWheel {
    /// `horizon` must be a power of two, larger than the common scheduling
    /// distance (memory latency + TLB penalty + queuing slack).
    pub fn new(horizon: usize) -> EventWheel {
        assert!(horizon.is_power_of_two());
        EventWheel {
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            mask: horizon as u64 - 1,
            occupied: vec![0; horizon.div_ceil(64)],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// File `ev` in its bucket, `at & mask`, and flag the bucket.
    #[inline]
    fn file(&mut self, ev: Ev) {
        let i = (ev.at & self.mask) as usize;
        self.buckets[i].push(ev);
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn is_occupied(&self, i: usize) -> bool {
        self.occupied[i / 64] & (1 << (i % 64)) != 0
    }

    /// The first flagged bucket index in `from..to`.
    fn next_occupied(&self, from: usize, to: usize) -> Option<usize> {
        let mut i = from;
        while i < to {
            let word = self.occupied[i / 64] >> (i % 64);
            if word != 0 {
                let found = i + word.trailing_zeros() as usize;
                return (found < to).then_some(found);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }

    /// Every flagged bucket index, ascending.
    fn occupied_buckets(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.buckets.len();
        std::iter::successors(self.next_occupied(0, n), move |&i| {
            self.next_occupied(i + 1, n)
        })
    }

    /// Queue `ev`; `now` is the current cycle and `ev.at` must be in the
    /// future (the cycle loop never schedules same-cycle work).
    pub fn push(&mut self, now: u64, ev: Ev) {
        debug_assert!(ev.at > now, "events must be scheduled in the future");
        self.len += 1;
        if ev.at - now < self.buckets.len() as u64 {
            // Within the horizon the target bucket cannot still hold older
            // events: bucket `at & mask` was drained at cycle `at - horizon`
            // before any event this far out could have been filed into it.
            self.file(ev);
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Whether any event is due exactly at `now` — the O(1) fast-path probe
    /// the cycle loop uses to bypass the drain machinery on the (frequent)
    /// cycles with an empty calendar slot.
    #[inline]
    pub fn has_due(&self, now: u64) -> bool {
        if self.len == 0 {
            return false;
        }
        let i = (now & self.mask) as usize;
        (self.is_occupied(i) && self.buckets[i].iter().any(|e| e.at == now))
            || self
                .overflow
                .peek()
                .is_some_and(|&Reverse(ev)| ev.at == now)
    }

    /// Move every event scheduled for cycle `now` into `out`, sorted by
    /// `(seq, kind)`. `out` is cleared first; its capacity is reused across
    /// cycles by the caller.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<Ev>) {
        out.clear();
        let i = (now & self.mask) as usize;
        let bucket = &mut self.buckets[i];
        debug_assert!(bucket.iter().all(|e| e.at == now));
        out.append(bucket);
        self.occupied[i / 64] &= !(1 << (i % 64));
        while let Some(&Reverse(ev)) = self.overflow.peek() {
            debug_assert!(ev.at >= now, "overflow event missed its cycle");
            if ev.at != now {
                break;
            }
            out.push(ev);
            self.overflow.pop();
        }
        self.len -= out.len();
        // Insertion sort: a cycle rarely has more than a handful of due
        // events, where the general sort's dispatch overhead dominates.
        for i in 1..out.len() {
            let mut j = i;
            while j > 0 && (out[j - 1].seq, out[j - 1].kind) > (out[j].seq, out[j].kind) {
                out.swap(j - 1, j);
                j -= 1;
            }
        }
    }

    /// Queued events across buckets and overflow.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Earliest cycle `>= now` with a queued event, or `None` when the
    /// wheel is empty. This is the quiescence engine's skip target: when
    /// the pipeline is provably idle, the clock can jump straight here.
    /// Events due exactly at `now` (queued for the upcoming step) are
    /// included so the engine never skips over pending work.
    ///
    /// The scan visits flagged buckets only, in cycle order from `now`'s
    /// bucket around the ring: a word of the bitmap covers 64 cycles.
    pub fn next_due(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let (n, start) = (self.buckets.len(), (now & self.mask) as usize);
        let mut wheel_next = None;
        // From `now`'s bucket to the end of the ring, then around to the
        // bucket before it.
        'scan: for (lo, hi, lap) in [(start, n, 0), (0, start, n)] {
            let mut from = lo;
            while let Some(i) = self.next_occupied(from, hi) {
                let at = now + (i + lap - start) as u64;
                // A bucket may hold events one full horizon ahead of the
                // slot being probed (filed before `now` advanced past
                // them), so the stored timestamp — not mere occupancy —
                // decides.
                if self.buckets[i].iter().any(|e| e.at == at) {
                    wheel_next = Some(at);
                    break 'scan;
                }
                from = i + 1;
            }
        }
        let overflow_next = self.overflow.peek().map(|&Reverse(ev)| ev.at);
        match (wheel_next, overflow_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Sanitizer audit (`INV007`/`INV008`): scan the flagged buckets for
    /// events that are already due (they will never drain — `drain_due`
    /// visits only the current cycle's bucket) and cross-check the cached
    /// length against the count they hold, so an event in a bucket the
    /// bitmap missed shows as a length mismatch.
    pub fn audit(&self, now: u64) -> WheelAudit {
        let mut past_due: Option<(u64, u64)> = None;
        let mut note = |ev: &Ev| {
            if ev.at <= now && past_due.is_none_or(|p| (ev.at, ev.seq) < p) {
                past_due = Some((ev.at, ev.seq));
            }
        };
        let mut queued = self.overflow.len();
        for i in self.occupied_buckets() {
            queued += self.buckets[i].len();
            for ev in &self.buckets[i] {
                note(ev);
            }
        }
        // The overflow is a min-heap: its root is the earliest entry.
        if let Some(&Reverse(ev)) = self.overflow.peek() {
            note(&ev);
        }
        WheelAudit {
            past_due,
            queued,
            cached_len: self.len,
        }
    }

    /// Serialize every queued event, sorted by the scheduler's total order
    /// `(at, seq, kind)` — placement (bucket vs. overflow) is a performance
    /// detail, so sorting makes equal queue *contents* byte-identical
    /// regardless of how the events arrived.
    #[deny(unused_variables)]
    pub fn save_state(&self, out: &mut Vec<u8>) {
        let EventWheel {
            buckets,
            mask: _,
            occupied: _,
            overflow,
            len,
        } = self;
        let mut evs: Vec<Ev> = Vec::with_capacity(*len);
        for bucket in buckets {
            evs.extend_from_slice(bucket);
        }
        evs.extend(overflow.iter().map(|&Reverse(ev)| ev));
        evs.sort_unstable();
        snapio::put_usize(out, evs.len());
        for Ev { at, seq, kind, h } in &evs {
            at.save_state(out);
            seq.save_state(out);
            kind.save_state(out);
            h.save_state(out);
        }
    }

    /// Rebuild the queue from a snapshot section, given the restored cycle
    /// counter. Every event must be due at or after `now` (`INV007`: events
    /// due exactly at `now` are legal between cycles — they drain at the
    /// head of the next step). The horizon is construction-derived and not
    /// serialized, nor is the occupancy bitmap; placement replicates
    /// [`EventWheel::push`].
    #[deny(unused_variables)]
    pub fn load_state(&mut self, now: u64, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        const MAX_EVENTS: usize = 1 << 24;
        let EventWheel {
            buckets,
            mask,
            occupied,
            overflow,
            len,
        } = self;
        *len = r.len_capped(MAX_EVENTS)?;
        for b in buckets.iter_mut() {
            b.clear();
        }
        occupied.fill(0);
        overflow.clear();
        for _ in 0..*len {
            let mut ev = Ev {
                at: 0,
                seq: 0,
                kind: EvKind::Wakeup,
                h: Handle::default(),
            };
            ev.at.load_state(r)?;
            ev.seq.load_state(r)?;
            ev.kind.load_state(r)?;
            ev.h.load_state(r)?;
            ensure(ev.at >= now, || {
                format!(
                    "event for seq {} due at cycle {} is already past (now {now})",
                    ev.seq, ev.at
                )
            })?;
            if ev.at - now < buckets.len() as u64 {
                let i = (ev.at & *mask) as usize;
                buckets[i].push(ev);
                occupied[i / 64] |= 1 << (i % 64);
            } else {
                overflow.push(Reverse(ev));
            }
        }
        Ok(())
    }

    /// Mutation-test hook: file `ev` unconditionally, bypassing the
    /// future-only precondition of [`EventWheel::push`]. A past-due event
    /// lands in a bucket `drain_due` will not visit for a full horizon,
    /// mimicking a missed drain so the sanitizer's `INV007` check can be
    /// exercised.
    #[doc(hidden)]
    pub fn inject_unchecked(&mut self, ev: Ev) {
        self.len += 1;
        self.file(ev);
    }

    /// Mutation-test hook: inflate the cached length without filing an
    /// event, mimicking a drain that dropped an event while decrementing
    /// nothing, so the sanitizer's `INV008` check can be exercised.
    #[doc(hidden)]
    pub fn skew_len_for_test(&mut self) {
        self.len += 1;
    }
}

smt_trace::snap_tags!(EvKind {
    Wakeup = 0,
    Complete = 1,
    L1Outcome = 2,
    Fill = 3,
    ResolveNotice = 4,
    Declare = 5,
});

/// Result of [`EventWheel::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WheelAudit {
    /// Earliest event due at or before `now` still queued, as `(at, seq)`.
    pub past_due: Option<(u64, u64)>,
    /// Events actually present across buckets and overflow.
    pub queued: usize,
    /// The cached length counter.
    pub cached_len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, seq: u64, kind: EvKind) -> Ev {
        Ev {
            at,
            seq,
            kind,
            h: Handle { idx: 0, gen: 0 },
        }
    }

    /// Reference scheduler: the heap the wheel replaced.
    fn heap_order(events: &[Ev]) -> Vec<Ev> {
        let mut heap: BinaryHeap<Reverse<Ev>> = events.iter().map(|&e| Reverse(e)).collect();
        let mut out = Vec::new();
        while let Some(Reverse(e)) = heap.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn drains_in_heap_order() {
        let events = vec![
            ev(3, 7, EvKind::Complete),
            ev(1, 9, EvKind::Wakeup),
            ev(3, 2, EvKind::Fill),
            ev(1, 9, EvKind::Complete),
            ev(2, 1, EvKind::Declare),
            ev(3, 2, EvKind::L1Outcome),
        ];
        let mut wheel = EventWheel::new(8);
        for &e in &events {
            wheel.push(0, e);
        }
        let mut drained = Vec::new();
        let mut buf = Vec::new();
        for now in 1..=3 {
            wheel.drain_due(now, &mut buf);
            drained.extend(buf.iter().copied());
        }
        assert_eq!(drained, heap_order(&events));
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn far_events_spill_to_overflow_and_still_fire() {
        let mut wheel = EventWheel::new(4);
        wheel.push(0, ev(100, 1, EvKind::Complete));
        wheel.push(0, ev(2, 2, EvKind::Wakeup));
        let mut buf = Vec::new();
        wheel.drain_due(2, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].seq, 2);
        for now in 3..100 {
            wheel.drain_due(now, &mut buf);
            assert!(buf.is_empty(), "nothing due at {now}");
        }
        wheel.drain_due(100, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].seq, 1);
    }

    #[test]
    fn bucket_reuse_across_wraparound() {
        let mut wheel = EventWheel::new(4);
        let mut buf = Vec::new();
        // Same bucket index (at & 3 == 1) used at cycles 1, 5, 9, ...
        let mut now = 0;
        for lap in 0..8u64 {
            let at = 4 * lap + 1;
            wheel.push(now, ev(at, lap, EvKind::Wakeup));
            while now < at {
                now += 1;
                wheel.drain_due(now, &mut buf);
                if now == at {
                    assert_eq!(buf.len(), 1);
                    assert_eq!(buf[0].seq, lap);
                } else {
                    assert!(buf.is_empty());
                }
            }
        }
    }

    #[test]
    fn next_due_reports_earliest_pending_event() {
        let mut wheel = EventWheel::new(4);
        assert_eq!(wheel.next_due(0), None);
        wheel.push(0, ev(100, 1, EvKind::Complete)); // beyond horizon
        wheel.push(0, ev(3, 2, EvKind::Wakeup));
        assert_eq!(wheel.next_due(1), Some(3));
        assert_eq!(wheel.next_due(3), Some(3), "events due now are pending");
        let mut buf = Vec::new();
        wheel.drain_due(3, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(wheel.next_due(4), Some(100), "overflow bounds the frontier");
    }

    #[test]
    fn wheel_state_round_trips_and_rejects_past_due() {
        let mut wheel = EventWheel::new(8);
        wheel.push(0, ev(3, 1, EvKind::Complete));
        wheel.push(0, ev(100, 2, EvKind::Fill)); // overflow
        wheel.push(0, ev(5, 3, EvKind::Wakeup));
        let mut buf = Vec::new();
        wheel.save_state(&mut buf);

        let mut back = EventWheel::new(8);
        let mut r = SnapReader::new(&buf);
        back.load_state(3, &mut r).unwrap();
        r.finish("wheel").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.next_due(3), Some(3), "due-now events survive restore");
        // Drain order matches the original wheel's.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (mut da, mut db) = (Vec::new(), Vec::new());
        for now in 3..=100 {
            wheel.drain_due(now, &mut a);
            back.drain_due(now, &mut b);
            da.extend(a.iter().copied());
            db.extend(b.iter().copied());
        }
        assert_eq!(da, db);
        // Restored contents re-serialize byte-identically.
        let mut wheel2 = EventWheel::new(8);
        let mut r = SnapReader::new(&buf);
        wheel2.load_state(3, &mut r).unwrap();
        let mut buf2 = Vec::new();
        wheel2.save_state(&mut buf2);
        assert_eq!(buf2, buf);
        // An event strictly before `now` is a typed error (INV007).
        let mut r = SnapReader::new(&buf);
        let e = EventWheel::new(8).load_state(50, &mut r).unwrap_err();
        assert!(e.to_string().contains("already past"), "{e}");
    }

    /// Shadow model: seeded random schedules against the heap the wheel
    /// replaced, checked at every cycle. Push distances run from 1 to three
    /// horizons, so events wrap their buckets and spill into the overflow
    /// heap; several kinds per `seq` exercise the same-cycle tie-break.
    #[test]
    fn matches_a_heap_reference_on_random_schedules() {
        const KINDS: [EvKind; 6] = [
            EvKind::Wakeup,
            EvKind::Complete,
            EvKind::L1Outcome,
            EvKind::Fill,
            EvKind::ResolveNotice,
            EvKind::Declare,
        ];
        for (seed, horizon) in [(1, 4), (2, 4), (3, 16), (4, 16), (5, 64), (6, 64)] {
            let mut rng = smt_trace::Rng::new(seed);
            let mut wheel = EventWheel::new(horizon);
            let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
            let (mut seq, mut kinds_used) = (0u64, 0u8);
            let mut buf = Vec::new();
            let mut now = 0u64;
            for _ in 0..3_000 {
                // A burst of pushes, sometimes none, then one cycle. The
                // frontier is checked on both sides of the advance: right
                // after the burst it may sit a full horizon out.
                for _ in 0..rng.below(4) {
                    if kinds_used == 0b11_1111 || rng.chance(0.6) {
                        (seq, kinds_used) = (seq + 1, 0);
                    }
                    let kind = loop {
                        let k = rng.below(6) as u8;
                        if kinds_used & (1 << k) == 0 {
                            kinds_used |= 1 << k;
                            break KINDS[k as usize];
                        }
                    };
                    let at = now + rng.range(1, 3 * horizon as u64 + 1);
                    let e = ev(at, seq, kind);
                    wheel.push(now, e);
                    heap.push(Reverse(e));
                }
                let next = heap.peek().map(|&Reverse(e)| e.at);
                assert_eq!(wheel.next_due(now), next, "seed {seed}, cycle {now}");
                now += 1;
                let next = heap.peek().map(|&Reverse(e)| e.at);
                assert_eq!(wheel.next_due(now), next, "seed {seed}, cycle {now}");
                assert_eq!(
                    wheel.has_due(now),
                    next == Some(now),
                    "seed {seed}, cycle {now}"
                );
                let mut want = Vec::new();
                while let Some(&Reverse(e)) = heap.peek().filter(|r| r.0.at == now) {
                    want.push(e);
                    heap.pop();
                }
                wheel.drain_due(now, &mut buf);
                assert_eq!(buf, want, "seed {seed}, cycle {now}");
                assert_eq!(wheel.len(), heap.len());
                let audit = wheel.audit(now);
                assert_eq!(audit.past_due, None);
                assert_eq!(audit.queued, heap.len(), "seed {seed}, cycle {now}");
            }
        }
    }

    #[test]
    fn same_cycle_ties_break_by_seq_then_kind() {
        let mut wheel = EventWheel::new(8);
        wheel.push(0, ev(1, 5, EvKind::Declare));
        wheel.push(0, ev(1, 5, EvKind::Wakeup));
        wheel.push(0, ev(1, 3, EvKind::Complete));
        let mut buf = Vec::new();
        wheel.drain_due(1, &mut buf);
        assert_eq!(
            buf.iter().map(|e| (e.seq, e.kind)).collect::<Vec<_>>(),
            vec![
                (3, EvKind::Complete),
                (5, EvKind::Wakeup),
                (5, EvKind::Declare)
            ]
        );
    }
}
