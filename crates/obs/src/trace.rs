//! Chrome trace-event output (the JSON object format Perfetto loads).
//!
//! The sink accumulates events and serializes them as
//! `{"traceEvents": [...]}`. Timestamps are simulated cycles reported in
//! the format's microsecond field, so one trace microsecond equals one
//! simulated cycle. Each stream buffer gets its own thread track (`tid`)
//! via [`TraceSink::thread_name`], which emits the standard `M`
//! (metadata) event.
//!
//! Event phases used here:
//!
//! * `X` — complete event with a duration (a prefetch in flight),
//! * `i` — instant event (a demand hit, an eviction),
//! * `C` — counter event (occupancy, priority over time),
//! * `M` — metadata (process/thread names).
//!
//! Recording is allocation-free beyond the event vector's amortised
//! growth: an `X`, `i` or `C` event is a `Copy` record of static names,
//! numbers and at most [`MAX_ARGS`] inline arguments. Only thread names
//! are owned strings. [`TraceSink::to_json`] builds the [`Json`] tree
//! once, straight from those records.
//!
//! # Example
//!
//! ```
//! use psb_obs::trace::TraceSink;
//!
//! let mut t = TraceSink::new(1024);
//! t.thread_name(0, "stream-buffer-0");
//! t.complete("prefetch", "prefetch", 0, 100, 45, [("block", 0x40)]);
//! t.instant("used", "demand", 0, 150, [("block", 0x40)]);
//! let json = t.to_json();
//! assert_eq!(json.get("traceEvents").and_then(|e| e.as_arr()).map(|a| a.len()), Some(3));
//! ```

use crate::json::Json;

/// The process id every event reports; the trace models one simulator.
pub const PID: u64 = 1;

/// The most numeric arguments one event carries (a stream allocation's
/// pc / confidence / displaced, a buffer's ready / in-flight / priority).
/// Passing more is a compile-time error.
pub const MAX_ARGS: usize = 3;

/// An event's numeric arguments, stored inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Args {
    pairs: [(&'static str, u64); MAX_ARGS],
    len: u8,
}

impl Args {
    fn new<const N: usize>(given: [(&'static str, u64); N]) -> Args {
        const { assert!(N <= MAX_ARGS, "a trace event carries at most MAX_ARGS args") };
        let mut pairs = [("", 0); MAX_ARGS];
        for (slot, arg) in pairs.iter_mut().zip(given) {
            *slot = arg;
        }
        Args { pairs, len: N as u8 }
    }

    fn to_json(self) -> Json {
        let used = self.pairs.iter().take(usize::from(self.len));
        Json::obj(used.map(|&(k, v)| (k, Json::u64(v))))
    }
}

/// A complete event (phase `X`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Complete {
    name: &'static str,
    cat: &'static str,
    tid: u64,
    ts: u64,
    dur: u64,
    args: Args,
}

/// An instant event (phase `i`, thread scope).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Instant {
    name: &'static str,
    cat: &'static str,
    tid: u64,
    ts: u64,
    args: Args,
}

/// A counter event (phase `C`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counter {
    name: &'static str,
    tid: u64,
    ts: u64,
    args: Args,
}

/// One recorded event, in recording order.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    /// Phase `M`: names track `tid`.
    ThreadName {
        tid: u64,
        name: String,
    },
    Complete(Complete),
    Instant(Instant),
    Counter(Counter),
}

impl Event {
    /// The event as a Chrome trace-event object.
    fn to_json(&self) -> Json {
        match self {
            Event::ThreadName { tid, name } => Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::u64(PID)),
                ("tid", Json::u64(*tid)),
                ("args", Json::obj([("name", Json::str(name.as_str()))])),
            ]),
            Event::Complete(e) => Json::obj([
                ("name", Json::str(e.name)),
                ("cat", Json::str(e.cat)),
                ("ph", Json::str("X")),
                ("ts", Json::u64(e.ts)),
                ("dur", Json::u64(e.dur)),
                ("pid", Json::u64(PID)),
                ("tid", Json::u64(e.tid)),
                ("args", e.args.to_json()),
            ]),
            Event::Instant(e) => Json::obj([
                ("name", Json::str(e.name)),
                ("cat", Json::str(e.cat)),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", Json::u64(e.ts)),
                ("pid", Json::u64(PID)),
                ("tid", Json::u64(e.tid)),
                ("args", e.args.to_json()),
            ]),
            Event::Counter(e) => Json::obj([
                ("name", Json::str(e.name)),
                ("ph", Json::str("C")),
                ("ts", Json::u64(e.ts)),
                ("pid", Json::u64(PID)),
                ("tid", Json::u64(e.tid)),
                ("args", e.args.to_json()),
            ]),
        }
    }
}

/// A bounded sink of Chrome trace events.
///
/// Events past the capacity are dropped (the drop count is reported in
/// the serialized metadata) so tracing a long run cannot exhaust memory.
#[derive(Debug)]
pub struct TraceSink {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl TraceSink {
    /// Creates a sink that keeps at most `capacity` events.
    pub fn new(capacity: usize) -> TraceSink {
        TraceSink { events: Vec::new(), capacity, dropped: 0 }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped after the sink filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, event: Event) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }

    /// Names the thread track `tid` (phase `M` metadata event).
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        self.push(Event::ThreadName { tid, name: name.to_owned() });
    }

    /// A complete event (`X`): `name` on track `tid`, spanning
    /// `[ts, ts + dur]` cycles, with numeric `args`.
    pub fn complete<const N: usize>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        ts: u64,
        dur: u64,
        args: [(&'static str, u64); N],
    ) {
        self.push(Event::Complete(Complete { name, cat, tid, ts, dur, args: Args::new(args) }));
    }

    /// An instant event (`i`) on track `tid` at cycle `ts`.
    pub fn instant<const N: usize>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        ts: u64,
        args: [(&'static str, u64); N],
    ) {
        self.push(Event::Instant(Instant { name, cat, tid, ts, args: Args::new(args) }));
    }

    /// A counter event (`C`): one or more named series sampled at `ts`.
    pub fn counter<const N: usize>(
        &mut self,
        name: &'static str,
        tid: u64,
        ts: u64,
        series: [(&'static str, u64); N],
    ) {
        self.push(Event::Counter(Counter { name, tid, ts, args: Args::new(series) }));
    }

    /// Serializes the trace as a Chrome trace-event JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("traceEvents", Json::arr(self.events.iter().map(Event::to_json))),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("clock", Json::str("1 trace us = 1 simulated cycle")),
                    ("dropped_events", Json::u64(self.dropped)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// The golden snippet: a prefetch lifecycle on one buffer track must
    /// round-trip through the parser and carry the fields Perfetto
    /// requires (name, ph, ts, pid, tid; dur for `X`).
    #[test]
    fn golden_trace_snippet_is_well_formed() {
        let mut t = TraceSink::new(16);
        t.thread_name(2, "stream-buffer-2");
        t.complete("prefetch", "prefetch", 2, 1000, 36, [("block", 0x1f40)]);
        t.instant("used", "demand", 2, 1040, [("block", 0x1f40), ("late_by", 0)]);
        t.counter("occupancy", 2, 1040, [("ready", 3), ("in_flight", 1)]);
        let text = t.to_json().to_string();
        let back = parse(&text).expect("trace must re-parse");
        let events = back.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        assert_eq!(events.len(), 4);
        for e in events {
            assert!(e.get("name").and_then(Json::as_str).is_some(), "every event has a name");
            let ph = e.get("ph").and_then(Json::as_str).expect("every event has a phase");
            assert!(e.get("pid").and_then(Json::as_u64).is_some());
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_u64).is_some(), "{ph} event has ts");
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(Json::as_u64).is_some(), "X event has dur");
            }
        }
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("block")).and_then(Json::as_u64),
            Some(0x1f40)
        );
    }

    /// The exact bytes of every phase, including a thread name that
    /// needs escaping, an event without args and a dropped event. Any
    /// change to key order, number formatting or escaping shows here.
    #[test]
    fn golden_trace_bytes_are_pinned() {
        let mut t = TraceSink::new(5);
        t.thread_name(0, "sb \"0\"\\\n\u{1}");
        t.complete("prefetch", "prefetch", 0, 100, 36, [("block", 0x40)]);
        t.instant("used", "demand", 0, 136, [("block", 0x40), ("late_by", u64::MAX)]);
        t.counter("occupancy", 7, 140, [("ready", 3), ("in_flight", 1), ("priority", 0)]);
        t.instant("evicted-unused", "prefetch", 1, 9, []);
        t.thread_name(1, "dropped");
        let expected = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"#,
            r#""args":{"name":"sb \"0\"\\\n\u0001"}},"#,
            r#"{"name":"prefetch","cat":"prefetch","ph":"X","ts":100,"dur":36,"pid":1,"tid":0,"#,
            r#""args":{"block":64}},"#,
            r#"{"name":"used","cat":"demand","ph":"i","s":"t","ts":136,"pid":1,"tid":0,"#,
            r#""args":{"block":64,"late_by":18446744073709551615}},"#,
            r#"{"name":"occupancy","ph":"C","ts":140,"pid":1,"tid":7,"#,
            r#""args":{"ready":3,"in_flight":1,"priority":0}},"#,
            r#"{"name":"evicted-unused","cat":"prefetch","ph":"i","s":"t","ts":9,"pid":1,"tid":1,"#,
            r#""args":{}}"#,
            r#"],"displayTimeUnit":"ms","#,
            r#""otherData":{"clock":"1 trace us = 1 simulated cycle","dropped_events":1}}"#,
        );
        assert_eq!(t.to_json().to_string(), expected);
    }

    #[test]
    fn sink_caps_and_counts_drops() {
        let mut t = TraceSink::new(2);
        for i in 0..5 {
            t.instant("e", "c", 0, i, []);
        }
        t.thread_name(3, "late");
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 4);
        let json = t.to_json();
        let meta = json.get("otherData").unwrap();
        assert_eq!(meta.get("dropped_events").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn empty_sink_serializes() {
        let t = TraceSink::new(8);
        assert!(t.is_empty());
        let text = t.to_json().to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }
}
