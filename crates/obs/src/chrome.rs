//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! One simulator cycle maps to one microsecond of trace time (`ts`), so
//! Perfetto's time axis reads directly in cycles. Mapping:
//!
//! * gate episodes → duration events (`B`/`E`) on the thread's track;
//! * L1-miss lifetimes → async events (`b`/`e`) keyed by `load_id`, so
//!   overlapping outstanding misses render as separate slices;
//! * L2 declares/resolves, squashes, I-fetch misses → instant events (`i`);
//! * per-instruction fetch/dispatch/issue/commit (when captured) →
//!   instant events;
//! * the run's interval series → counter tracks (`C`, `cat: "interval"`),
//!   emitted exactly as `IntervalSeries::counter_trace` emits them.

use crate::interval::IntervalSeries;
use crate::json::Json;
use crate::ring::{EventKind, EventRing};

/// The Chrome-trace process id of every exported event.
pub(crate) const PID: u64 = 1;

fn base(name: &str, cat: &str, ph: &str, cycle: u64, tid: usize) -> Vec<(String, Json)> {
    vec![
        ("name".to_string(), Json::str(name)),
        ("cat".to_string(), Json::str(cat)),
        ("ph".to_string(), Json::str(ph)),
        ("ts".to_string(), Json::U64(cycle)),
        ("pid".to_string(), Json::U64(PID)),
        ("tid".to_string(), Json::U64(tid as u64)),
    ]
}

fn args(pairs: Vec<(&str, Json)>) -> (String, Json) {
    ("args".to_string(), Json::obj(pairs))
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

/// The metadata record naming the trace's one process.
pub(crate) fn process_name() -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::str("process_name")),
        ("ph".to_string(), Json::str("M")),
        ("pid".to_string(), Json::U64(PID)),
        args(vec![("name", Json::str("dwarn-smt"))]),
    ])
}

/// Thread `t`'s track label: `t<i> <name>`, or `t<i>` without a name.
pub(crate) fn thread_label(thread_names: &[String], t: usize) -> String {
    thread_names
        .get(t)
        .map(|n| format!("t{t} {n}"))
        .unwrap_or_else(|| format!("t{t}"))
}

/// Convert captured events plus the run's interval series into a Chrome
/// trace-event JSON document. `thread_names` labels the per-thread tracks
/// (pass benchmark names); missing entries fall back to `t<i>`.
pub fn chrome_trace(
    events: &EventRing,
    series: &IntervalSeries,
    thread_names: &[String],
) -> String {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + series.intervals.len() * 6 + 8);

    // Track metadata.
    out.push(process_name());
    let num_threads = thread_names
        .len()
        .max(events.iter().map(|e| e.thread + 1).max().unwrap_or(0));
    for t in 0..num_threads {
        let label = thread_label(thread_names, t);
        out.push(Json::Obj(vec![
            ("name".to_string(), Json::str("thread_name")),
            ("ph".to_string(), Json::str("M")),
            ("pid".to_string(), Json::U64(PID)),
            ("tid".to_string(), Json::U64(t as u64)),
            args(vec![("name", Json::str(label))]),
        ]));
    }

    for ev in events.iter() {
        let (cycle, t) = (ev.cycle, ev.thread);
        let json = match ev.kind {
            EventKind::Gate { reason } => {
                let mut e = base(
                    &format!("gated: {}", reason.as_str()),
                    "gate",
                    "B",
                    cycle,
                    t,
                );
                e.push(args(vec![("reason", Json::str(reason.as_str()))]));
                Json::Obj(e)
            }
            EventKind::Ungate { reason } => Json::Obj(base(
                &format!("gated: {}", reason.as_str()),
                "gate",
                "E",
                cycle,
                t,
            )),
            EventKind::L1MissBegin { load_id, addr, l2 } => {
                let mut e = base("dcache miss", "dmiss", "b", cycle, t);
                e.push(("id".to_string(), Json::U64(load_id)));
                e.push(args(vec![
                    ("load_id", Json::U64(load_id)),
                    ("addr", hex(addr)),
                    ("l2_miss", Json::Bool(l2)),
                ]));
                Json::Obj(e)
            }
            EventKind::L1MissEnd { load_id } => {
                let mut e = base("dcache miss", "dmiss", "e", cycle, t);
                e.push(("id".to_string(), Json::U64(load_id)));
                Json::Obj(e)
            }
            EventKind::L2Declare { load_id } => {
                let mut e = base("L2-miss declared", "declare", "i", cycle, t);
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![("load_id", Json::U64(load_id))]));
                Json::Obj(e)
            }
            EventKind::L2Resolve { load_id } => {
                let mut e = base("declared load resolving", "declare", "i", cycle, t);
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![("load_id", Json::U64(load_id))]));
                Json::Obj(e)
            }
            EventKind::Squash { seq, kind } => {
                let mut e = base(
                    &format!("squash: {}", kind.as_str()),
                    "squash",
                    "i",
                    cycle,
                    t,
                );
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![("seq", Json::U64(seq))]));
                Json::Obj(e)
            }
            EventKind::IfetchMiss { addr, ready_at } => {
                let mut e = base("I-cache miss", "ifetch", "i", cycle, t);
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![
                    ("addr", hex(addr)),
                    ("ready_at", Json::U64(ready_at)),
                ]));
                Json::Obj(e)
            }
            EventKind::Fetch {
                pc,
                seq,
                wrong_path,
            } => {
                let mut e = base("fetch", "inst", "i", cycle, t);
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![
                    ("pc", hex(pc)),
                    ("seq", Json::U64(seq)),
                    ("wrong_path", Json::Bool(wrong_path)),
                ]));
                Json::Obj(e)
            }
            EventKind::Dispatch { seq } => {
                let mut e = base("dispatch", "inst", "i", cycle, t);
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![("seq", Json::U64(seq))]));
                Json::Obj(e)
            }
            EventKind::Issue { seq } => {
                let mut e = base("issue", "inst", "i", cycle, t);
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![("seq", Json::U64(seq))]));
                Json::Obj(e)
            }
            EventKind::Commit { seq, pc } => {
                let mut e = base("commit", "inst", "i", cycle, t);
                e.push(("s".to_string(), Json::str("t")));
                e.push(args(vec![("seq", Json::U64(seq)), ("pc", hex(pc))]));
                Json::Obj(e)
            }
            EventKind::PolicySwitch { from, to } => {
                // Process-scoped instant: the switch affects every thread.
                let mut e = base(
                    &format!("policy switch: {from} -> {to}"),
                    "policy",
                    "i",
                    cycle,
                    t,
                );
                e.push(("s".to_string(), Json::str("p")));
                e.push(args(vec![("from", Json::str(from)), ("to", Json::str(to))]));
                Json::Obj(e)
            }
        };
        out.push(json);
    }

    series.push_counter_events(thread_names, &mut out);

    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj(vec![
                ("cycles_per_us", Json::U64(1)),
                ("dropped_events", Json::U64(events.dropped())),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::GateReason;
    use crate::ring::TraceEvent;

    #[test]
    fn trace_has_balanced_gate_pairs_and_metadata() {
        let mut ring = EventRing::new(16);
        ring.push(TraceEvent {
            cycle: 5,
            thread: 1,
            kind: EventKind::Gate {
                reason: GateReason::Policy,
            },
        });
        ring.push(TraceEvent {
            cycle: 9,
            thread: 1,
            kind: EventKind::Ungate {
                reason: GateReason::Policy,
            },
        });
        let s = chrome_trace(
            &ring,
            &IntervalSeries::default(),
            &["mcf".to_string(), "gzip".to_string()],
        );
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"ph\":\"B\""));
        assert!(s.contains("\"ph\":\"E\""));
        assert!(s.contains("gated: policy"));
        assert!(s.contains("t1 gzip"));
    }

    #[test]
    fn async_miss_events_carry_ids() {
        let mut ring = EventRing::new(16);
        ring.push(TraceEvent {
            cycle: 1,
            thread: 0,
            kind: EventKind::L1MissBegin {
                load_id: 42,
                addr: 0x1000,
                l2: true,
            },
        });
        ring.push(TraceEvent {
            cycle: 100,
            thread: 0,
            kind: EventKind::L1MissEnd { load_id: 42 },
        });
        let s = chrome_trace(&ring, &IntervalSeries::default(), &[]);
        assert!(s.contains("\"ph\":\"b\""));
        assert!(s.contains("\"ph\":\"e\""));
        assert!(s.contains("\"id\":42"));
        assert!(s.contains("\"0x1000\""));
    }

    #[test]
    fn series_becomes_counter_events() {
        use crate::interval::{IntervalConfig, IntervalProbe};
        use crate::probe::{CycleState, Enabled, Probe};
        let on = Enabled::of::<IntervalProbe>().expect("the interval probe is enabled");
        let mut p = IntervalProbe::new(IntervalConfig { window: 10 });
        let state = CycleState {
            cycle: 0,
            iq: [3, 0, 2],
            regs_int: 17,
            regs_fp: 4,
            rob: &[12, 9],
            iq_per_thread: &[4, 1],
            outstanding_miss: &[1, 0],
            gate: &[None, None],
        };
        p.on_quiescent_span(on, &state, 20);
        let series = p.into_series();
        let s = chrome_trace(&EventRing::new(4), &series, &["mcf".to_string()]);
        // Two windows × six tracks, the same records the counter-trace
        // export writes after its metadata line.
        assert_eq!(s.matches("\"ph\":\"C\"").count(), 12);
        assert!(s.contains("\"cat\":\"interval\""));
        assert!(s.contains("\"iq_ldst\":2"));
        assert!(s.contains("\"t0 mcf\":0"));
        let counters = series.counter_trace(&["mcf".to_string()]);
        let start = counters.find("{\"name\":\"interval ipc\"").unwrap();
        let end = counters.find("],\"displayTimeUnit\"").unwrap();
        assert!(s.contains(&counters[start..end]));
    }
}
