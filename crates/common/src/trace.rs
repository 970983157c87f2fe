//! Epoch-scoped trace spans, dumpable as a `chrome://tracing` /
//! Perfetto-compatible JSON event log.
//!
//! The engine records **B**egin/**E**nd span pairs around epoch phases
//! and **X** (complete) events for operators. Phase spans carry the
//! profiler's phase names (`wal`, `source-read`, `execute`,
//! `sink-commit`, `state-commit`, …) because the same
//! [`EpochTimer`](crate::profile::EpochTimer) call records both, so an
//! operator can load one JSON file and see where an epoch's time went.
//!
//! Timestamps come from the log's [`Clock`](crate::clock::Clock): an
//! engine passes its configured clock, so under a simulated clock the
//! trace is on virtual time like everything else the engine measures.
//!
//! [`TraceLog`] is a clonable handle around a shared, bounded event
//! buffer; recording is a short mutex-protected push, cheap relative to
//! the phases being traced (which are all I/O- or batch-sized). When
//! the buffer is full new events are dropped and counted rather than
//! blocking the query.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{system_clock, ClockRef};
use crate::metrics::Counter;

/// Default maximum number of buffered events before dropping.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One trace event in the chrome://tracing "trace event format".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name, e.g. `"epoch"` or `"sink-commit"`.
    pub name: String,
    /// Phase: `'B'` (begin), `'E'` (end), `'X'` (complete), `'i'` (instant).
    pub ph: char,
    /// Timestamp in µs relative to the log's origin.
    pub ts_us: u64,
    /// Duration in µs; only present for `'X'` events.
    pub dur_us: Option<u64>,
    /// Thread id (a stable per-thread hash).
    pub tid: u64,
    /// Extra key/value context rendered into the event's `args`.
    pub args: Vec<(String, String)>,
}

#[derive(Debug)]
struct TraceInner {
    enabled: AtomicBool,
    clock: ClockRef,
    /// The clock's monotonic reading when the log was created.
    origin_us: u64,
    events: Mutex<Vec<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
    /// Optional registry counter mirroring `dropped`, so silent span
    /// loss shows up as `ss_trace_dropped_total` in `/metrics`.
    drop_counter: Mutex<Option<Counter>>,
}

/// A shared, bounded trace-event log. Clones share the buffer.
#[derive(Debug, Clone)]
pub struct TraceLog {
    inner: Arc<TraceInner>,
}

impl Default for TraceLog {
    fn default() -> TraceLog {
        TraceLog::new()
    }
}

fn current_tid() -> u64 {
    // ThreadId has no stable numeric accessor; hash its Debug repr.
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() % 1_000_000
}

impl TraceLog {
    /// A log stamped by the system clock.
    pub fn new() -> TraceLog {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> TraceLog {
        TraceLog::build(capacity, system_clock())
    }

    /// A log stamped by `clock` (an engine's configured clock).
    pub fn with_clock(clock: ClockRef) -> TraceLog {
        TraceLog::build(DEFAULT_TRACE_CAPACITY, clock)
    }

    fn build(capacity: usize, clock: ClockRef) -> TraceLog {
        TraceLog {
            inner: Arc::new(TraceInner {
                enabled: AtomicBool::new(true),
                origin_us: clock.monotonic_us(),
                clock,
                events: Mutex::new(Vec::new()),
                capacity,
                dropped: AtomicU64::new(0),
                drop_counter: Mutex::new(None),
            }),
        }
    }

    /// Mirror future buffer-full drops into `counter` (typically the
    /// registry's `ss_trace_dropped_total`). Drops that already
    /// happened are credited immediately so the counter never
    /// understates [`TraceLog::dropped`].
    pub fn attach_drop_counter(&self, counter: Counter) {
        let already = self.inner.dropped.load(Ordering::Relaxed);
        if already > counter.get() {
            counter.add(already - counter.get());
        }
        *self.inner.drop_counter.lock() = Some(counter);
    }

    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since this log was created, on its clock.
    pub fn now_us(&self) -> u64 {
        self.inner
            .clock
            .monotonic_us()
            .saturating_sub(self.inner.origin_us)
    }

    fn push(&self, name: &str, ph: char, ts_us: u64, dur_us: Option<u64>, args: &[(&str, &str)]) {
        if !self.is_enabled() {
            return;
        }
        let ev = TraceEvent {
            name: name.to_string(),
            ph,
            ts_us,
            dur_us,
            tid: current_tid(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        let mut events = self.inner.events.lock();
        if events.len() >= self.inner.capacity {
            drop(events);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self.inner.drop_counter.lock().as_ref() {
                c.inc();
            }
            return;
        }
        events.push(ev);
    }

    /// Record a span begin (`ph: "B"`).
    pub fn begin(&self, name: &str, args: &[(&str, &str)]) {
        self.begin_at(name, self.now_us(), args);
    }

    /// Record a span begin stamped `ts_us` (a [`TraceLog::now_us`]
    /// reading the caller already took).
    pub fn begin_at(&self, name: &str, ts_us: u64, args: &[(&str, &str)]) {
        self.push(name, 'B', ts_us, None, args);
    }

    /// Record a span end (`ph: "E"`).
    pub fn end(&self, name: &str) {
        self.end_at(name, self.now_us());
    }

    /// Record a span end stamped `ts_us`.
    pub fn end_at(&self, name: &str, ts_us: u64) {
        self.push(name, 'E', ts_us, None, &[]);
    }

    /// Record a complete event (`ph: "X"`) that started `ts_us` into
    /// the log and lasted `dur_us`.
    pub fn complete(&self, name: &str, ts_us: u64, dur_us: u64, args: &[(&str, &str)]) {
        self.push(name, 'X', ts_us, Some(dur_us), args);
    }

    /// Record an instant event (`ph: "i"`).
    pub fn instant(&self, name: &str, args: &[(&str, &str)]) {
        self.push(name, 'i', self.now_us(), None, args);
    }

    /// Begin a span and return a guard that ends it on drop.
    pub fn span(&self, name: &str, args: &[(&str, &str)]) -> TraceSpan {
        self.begin(name, args);
        TraceSpan {
            log: self.clone(),
            name: name.to_string(),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A copy of all buffered events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().clone()
    }

    pub fn clear(&self) {
        self.inner.events.lock().clear();
        self.inner.dropped.store(0, Ordering::Relaxed);
    }

    /// Serialize to the chrome://tracing JSON object format:
    /// `{"traceEvents":[{"name":...,"ph":"B","ts":...,"pid":1,...}]}`.
    /// Load the result via `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        self.write_chrome_events(1, &mut out);
        out.push_str("]}");
        out
    }

    /// Append this log's events as comma-separated chrome://tracing
    /// JSON objects under the given `pid`, without the surrounding
    /// `traceEvents` wrapper. The introspection server uses this to
    /// merge several queries into one trace, one pid per query. Returns
    /// the number of events written.
    pub fn write_chrome_events(&self, pid: u64, out: &mut String) -> usize {
        let events = self.inner.events.lock();
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
                escape_json(&ev.name),
                ev.ph,
                ev.ts_us,
                pid,
                ev.tid
            );
            if let Some(dur) = ev.dur_us {
                let _ = write!(out, ",\"dur\":{dur}");
            }
            if ev.ph == 'i' {
                // Instant events need a scope; "t" = thread-scoped.
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
                }
                out.push('}');
            }
            out.push('}');
        }
        events.len()
    }
}

/// Guard returned by [`TraceLog::span`]; records the matching end
/// event when dropped.
#[derive(Debug)]
pub struct TraceSpan {
    log: TraceLog,
    name: String,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.log.end(&self.name);
    }
}

/// JSON string escaping shared by the hand-written JSON emitters
/// (trace, profile, event log) — ss-common has no JSON dependency.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_emits_begin_and_end() {
        let log = TraceLog::new();
        {
            let _s = log.span("epoch", &[("epoch", "3")]);
            log.instant("offsets-written", &[]);
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!((events[0].ph, events[0].name.as_str()), ('B', "epoch"));
        assert_eq!(events[0].args, vec![("epoch".to_string(), "3".to_string())]);
        assert_eq!(events[1].ph, 'i');
        assert_eq!((events[2].ph, events[2].name.as_str()), ('E', "epoch"));
        assert!(events[0].ts_us <= events[2].ts_us);
    }

    #[test]
    fn complete_events_carry_duration() {
        let log = TraceLog::new();
        log.complete("op:agg-0", 10, 250, &[("rows", "42")]);
        let ev = &log.events()[0];
        assert_eq!(ev.ph, 'X');
        assert_eq!(ev.ts_us, 10);
        assert_eq!(ev.dur_us, Some(250));
    }

    #[test]
    fn chrome_json_shape() {
        let log = TraceLog::new();
        log.begin("epoch", &[("epoch", "1")]);
        log.complete("op:\"scan\"", 5, 7, &[]);
        log.end("epoch");
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"dur\":7"));
        assert!(json.contains("op:\\\"scan\\\""), "escaping: {json}");
        assert!(json.contains("\"args\":{\"epoch\":\"1\"}"));
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let log = TraceLog::with_capacity(2);
        log.instant("a", &[]);
        log.instant("b", &[]);
        log.instant("c", &[]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn drop_counter_mirrors_buffer_drops() {
        let log = TraceLog::with_capacity(1);
        log.instant("kept", &[]);
        log.instant("lost-before-attach", &[]);
        let c = Counter::new();
        // Attaching after a drop credits the backlog.
        log.attach_drop_counter(c.clone());
        assert_eq!(c.get(), 1);
        log.instant("lost-after-attach", &[]);
        assert_eq!(log.dropped(), 2);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn chrome_events_use_the_given_pid() {
        let log = TraceLog::new();
        log.instant("marker", &[]);
        let mut out = String::new();
        let n = log.write_chrome_events(7, &mut out);
        assert_eq!(n, 1);
        assert!(out.contains("\"pid\":7"), "got: {out}");
        assert!(log.to_chrome_json().contains("\"pid\":1"));
    }

    #[test]
    fn events_are_stamped_on_the_log_clock() {
        let clock = crate::clock::StepClock::frozen(1_000);
        let log = TraceLog::with_clock(clock.handle());
        log.begin("epoch", &[]);
        clock.set_us(1_250);
        log.end("epoch");
        log.begin_at("wal", 40, &[]);
        let ts: Vec<u64> = log.events().iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![0, 250, 40]);
        assert_eq!(log.now_us(), 250);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::new();
        log.set_enabled(false);
        log.instant("a", &[]);
        assert!(log.is_empty());
        log.set_enabled(true);
        log.instant("b", &[]);
        assert_eq!(log.len(), 1);
    }
}
