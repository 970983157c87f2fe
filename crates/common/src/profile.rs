//! The epoch profiler: attributes each epoch's time to a fixed phase
//! tree, so an operator can see *where* an epoch's time went, not just
//! how long it took (§7.4 Monitoring, and the prerequisite for any
//! adaptive execution decision).
//!
//! The phase tree mirrors the epoch protocol:
//!
//! ```text
//! epoch
//! ├─ admission        offset snapshots, backlog accounting, budgeting
//! ├─ wal              offset + commit log appends
//! ├─ source-read      reading the logged offset ranges
//! ├─ quarantine-probe isolation mode: probing each input row alone
//! ├─ execute          the incremental plan
//! │  ├─ map           map-stage scatter (parallel path)
//! │  ├─ shuffle-write bucketing rows by key into partitions
//! │  ├─ shuffle-read  collecting buckets into per-partition inputs
//! │  ├─ reduce        reduce-stage scatter (sharded stateful kernels)
//! │  └─ merge         deterministic merge/sort of partition outputs
//! ├─ sink-commit      delivering the epoch's output
//! ├─ state-commit     state checkpoint, manifest, retention GC
//! └─ finalize         rate-controller update, progress assembly
//! ```
//!
//! Top-level phases are disjoint intervals measured on the engine
//! thread, so they sum to (almost all of) the epoch's total; the
//! `execute` children overlap the parent and — for `shuffle-write`,
//! which runs inside map tasks — are CPU time summed across workers,
//! so children may legitimately exceed their parent on multi-core runs.
//!
//! One [`EpochTimer`] times an epoch. It reads the engine's injected
//! clock (through the engine's [`TraceLog`]), and each phase site makes
//! one call that records the phase in the [`EpochProfile`] and a trace
//! span of the same name; operators are recorded once, as
//! [`OpDuration`]s and `op:` trace events on the same time base. Under
//! a simulated clock the whole profile is therefore a function of the
//! seed.
//!
//! [`EpochProfiler`] keeps a bounded history of [`EpochProfile`]s per
//! query, rendered as JSON by the introspection server's
//! `/query/<name>/profile` endpoint.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::ClockRef;
use crate::trace::{escape_json, TraceLog};

/// Top-level phases (disjoint engine-thread intervals).
pub const PHASE_ADMISSION: &str = "admission";
pub const PHASE_SOURCE_READ: &str = "source-read";
pub const PHASE_QUARANTINE_PROBE: &str = "quarantine-probe";
pub const PHASE_EXECUTE: &str = "execute";
pub const PHASE_SINK_COMMIT: &str = "sink-commit";
pub const PHASE_WAL: &str = "wal";
pub const PHASE_STATE_COMMIT: &str = "state-commit";
pub const PHASE_FINALIZE: &str = "finalize";

/// Children of [`PHASE_EXECUTE`] on the data-parallel path.
pub const PHASE_MAP: &str = "map";
pub const PHASE_SHUFFLE_WRITE: &str = "shuffle-write";
pub const PHASE_SHUFFLE_READ: &str = "shuffle-read";
pub const PHASE_REDUCE: &str = "reduce";
pub const PHASE_MERGE: &str = "merge";

/// The phase `name` nests under in the tree: the data-parallel stages
/// under `execute`, everything else at the top level.
fn parent_phase(name: &str) -> Option<&'static str> {
    match name {
        PHASE_MAP | PHASE_SHUFFLE_WRITE | PHASE_SHUFFLE_READ | PHASE_REDUCE | PHASE_MERGE => {
            Some(PHASE_EXECUTE)
        }
        _ => None,
    }
}

/// Time attributed to one phase of one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDuration {
    /// Phase name (one of the `PHASE_*` constants).
    pub name: String,
    /// Parent phase, `None` for top-level phases.
    pub parent: Option<String>,
    pub duration_us: u64,
}

/// Per-task skew statistics for one epoch's scheduled tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskSkew {
    pub tasks: u64,
    pub min_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl TaskSkew {
    /// Compute skew stats from raw per-task durations. `None` when no
    /// tasks ran.
    pub fn from_durations(durations: &[u64]) -> Option<TaskSkew> {
        if durations.is_empty() {
            return None;
        }
        let mut sorted = durations.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let at = |p: f64| sorted[(((n - 1) as f64) * p).round() as usize];
        Some(TaskSkew {
            tasks: n as u64,
            min_us: sorted[0],
            p50_us: at(0.50),
            p99_us: at(0.99),
            max_us: sorted[n - 1],
        })
    }
}

/// Shuffle-exchange attribution for one epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShuffleProfile {
    /// Rows routed to each reduce partition.
    pub rows_per_partition: Vec<u64>,
    /// Approximate bytes routed to each reduce partition.
    pub bytes_per_partition: Vec<u64>,
    /// Hottest partition's rows over the mean partition's rows
    /// (1.0 = perfectly balanced; 0.0 when the epoch shuffled nothing).
    pub key_skew: f64,
}

impl ShuffleProfile {
    /// Build from per-partition row/byte tallies.
    pub fn new(rows: Vec<u64>, bytes: Vec<u64>) -> ShuffleProfile {
        let total: u64 = rows.iter().sum();
        let key_skew = if total == 0 || rows.is_empty() {
            0.0
        } else {
            let mean = total as f64 / rows.len() as f64;
            *rows.iter().max().unwrap() as f64 / mean
        };
        ShuffleProfile {
            rows_per_partition: rows,
            bytes_per_partition: bytes,
            key_skew,
        }
    }

    pub fn total_rows(&self) -> u64 {
        self.rows_per_partition.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_partition.iter().sum()
    }
}

/// One epoch's complete profile: the phase tree plus task-skew,
/// shuffle and end-to-end latency attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProfile {
    pub epoch: u64,
    /// The epoch's measured total (µs, engine clock).
    pub total_us: u64,
    pub phases: Vec<PhaseDuration>,
    /// Skew stats across all tasks the scheduler launched this epoch;
    /// `None` on the serial path.
    pub tasks: Option<TaskSkew>,
    /// Shuffle-exchange attribution; `None` when the epoch ran no
    /// shuffle.
    pub shuffle: Option<ShuffleProfile>,
    /// `(min, max)` end-to-end event latency observed at sink commit
    /// (sink-commit time − record ingest time, µs); `None` when the
    /// sources carry no ingest timestamps or the epoch had no input.
    pub e2e_latency_us: Option<(u64, u64)>,
}

impl EpochProfile {
    pub fn new(epoch: u64) -> EpochProfile {
        EpochProfile {
            epoch,
            total_us: 0,
            phases: Vec::new(),
            tasks: None,
            shuffle: None,
            e2e_latency_us: None,
        }
    }

    /// Attribute `duration_us` to `name` (accumulating — phases like
    /// `wal` are recorded from more than one site per epoch).
    pub fn record(&mut self, name: &str, parent: Option<&str>, duration_us: u64) {
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == name) {
            p.duration_us += duration_us;
            return;
        }
        self.phases.push(PhaseDuration {
            name: name.to_string(),
            parent: parent.map(str::to_string),
            duration_us,
        });
    }

    /// The duration attributed to one phase (0 when absent).
    pub fn phase_us(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.duration_us)
    }

    /// Sum of the top-level (parentless) phases — the wall time the
    /// profiler can account for.
    pub fn attributed_us(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.parent.is_none())
            .map(|p| p.duration_us)
            .sum()
    }

    /// Fraction of the epoch's measured wall time the phase tree
    /// attributes (1.0 = fully accounted for).
    pub fn coverage(&self) -> f64 {
        if self.total_us == 0 {
            return 1.0;
        }
        self.attributed_us() as f64 / self.total_us as f64
    }

    /// Render as a JSON object (hand-written; no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"epoch\":{},\"total_us\":{},\"attributed_us\":{},\"coverage\":{:.4},\"phases\":[",
            self.epoch,
            self.total_us,
            self.attributed_us(),
            finite(self.coverage()),
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":",
                escape_json(&p.name)
            );
            match &p.parent {
                Some(par) => {
                    let _ = write!(out, "\"{}\"", escape_json(par));
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"duration_us\":{}}}", p.duration_us);
        }
        out.push_str("],\"tasks\":");
        match &self.tasks {
            Some(t) => {
                let _ = write!(
                    out,
                    "{{\"count\":{},\"min_us\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                    t.tasks, t.min_us, t.p50_us, t.p99_us, t.max_us
                );
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"shuffle\":");
        match &self.shuffle {
            Some(s) => {
                let _ = write!(out, "{{\"rows_per_partition\":{:?}", s.rows_per_partition);
                let _ = write!(out, ",\"bytes_per_partition\":{:?}", s.bytes_per_partition);
                let _ = write!(out, ",\"key_skew\":{:.4}}}", finite(s.key_skew));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"e2e_latency_us\":");
        match self.e2e_latency_us {
            Some((min, max)) => {
                let _ = write!(out, "{{\"min\":{min},\"max\":{max}}}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Time spent in one operator during one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDuration {
    /// The operator's stable label, e.g. `"scan:clicks"` or `"agg-0"`.
    pub op: String,
    /// Rows the operator produced this epoch.
    pub rows_out: u64,
    /// Inclusive evaluation time (µs): a node's time contains its
    /// children's, like a flame graph.
    pub duration_us: u64,
}

/// Times one epoch: every phase and operator once, on the clock of the
/// engine's [`TraceLog`]. Reads only monotonic time, never wall time (a
/// `StepClock` advances on every wall read).
#[derive(Debug)]
pub struct EpochTimer {
    trace: TraceLog,
    started_us: u64,
    /// Every scheduled task's duration, summarized at [`finish`].
    ///
    /// [`finish`]: EpochTimer::finish
    task_us: Vec<u64>,
    /// The profile being built.
    pub profile: EpochProfile,
    /// Operators recorded so far, in record order.
    pub ops: Vec<OpDuration>,
}

impl EpochTimer {
    /// Start timing `epoch` now, recording spans into `trace`.
    pub fn start(epoch: u64, trace: TraceLog) -> EpochTimer {
        EpochTimer {
            started_us: trace.now_us(),
            trace,
            task_us: Vec::new(),
            profile: EpochProfile::new(epoch),
            ops: Vec::new(),
        }
    }

    /// A timer that records no trace events, for scratch executions
    /// (isolation probes).
    pub fn untraced(epoch: u64, clock: ClockRef) -> EpochTimer {
        let trace = TraceLog::with_clock(clock);
        trace.set_enabled(false);
        EpochTimer::start(epoch, trace)
    }

    /// Now, in µs on the trace's time base.
    pub fn now_us(&self) -> u64 {
        self.trace.now_us()
    }

    /// Run `f` as phase `name`: its duration goes into the profile
    /// (accumulating, under the phase's parent) and a `B`/`E` span of
    /// the same name into the trace. `f` gets the timer back, to time
    /// operators and child phases inside.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut EpochTimer) -> T) -> T {
        let since = self.now_us();
        self.open(name, since);
        let out = f(self);
        self.close(name, since);
        out
    }

    /// Attribute everything since the timer started to phase `name`:
    /// the phase that ran before the epoch was known to need timing.
    pub fn phase_from_start(&mut self, name: &str) {
        self.open(name, self.started_us);
        self.close(name, self.started_us);
    }

    fn open(&mut self, name: &str, since_us: u64) {
        self.trace.begin_at(name, since_us, &[]);
        // Listing the phase when it opens keeps the tree in pre-order:
        // a parent comes before the children that close ahead of it.
        self.profile.record(name, parent_phase(name), 0);
    }

    fn close(&mut self, name: &str, since_us: u64) {
        let now = self.now_us();
        self.trace.end_at(name, now);
        self.profile
            .record(name, parent_phase(name), now.saturating_sub(since_us));
    }

    /// Attribute `us` measured elsewhere to phase `name`: time summed
    /// across tasks, which has no single interval and so no span.
    pub fn add(&mut self, name: &str, us: u64) {
        self.profile.record(name, parent_phase(name), us);
    }

    /// Record operator `op`, which started at `since_us` and emitted
    /// `rows_out` rows: one [`OpDuration`] and one `op:` complete event.
    pub fn op(&mut self, op: String, rows_out: u64, since_us: u64) {
        let duration_us = self.now_us().saturating_sub(since_us);
        let name = format!("op:{op}");
        let rows = rows_out.to_string();
        self.trace
            .complete(&name, since_us, duration_us, &[("rows_out", &rows)]);
        self.ops.push(OpDuration {
            op,
            rows_out,
            duration_us,
        });
    }

    /// Fold one scatter's per-task durations into the epoch's skew.
    pub fn tasks(&mut self, durations_us: &[u64]) {
        self.task_us.extend_from_slice(durations_us);
    }

    /// Stop the clock: the profile with its total and task skew, and
    /// the operator records.
    pub fn finish(mut self) -> (EpochProfile, Vec<OpDuration>) {
        self.profile.total_us = self.now_us().saturating_sub(self.started_us);
        self.profile.tasks = TaskSkew::from_durations(&self.task_us);
        (self.profile, self.ops)
    }
}

/// Default number of epoch profiles retained per query.
pub const DEFAULT_PROFILE_CAPACITY: usize = 64;

#[derive(Debug)]
struct ProfilerInner {
    history: VecDeque<EpochProfile>,
    capacity: usize,
}

/// A bounded, shared history of epoch profiles. Clones share the
/// buffer; the engine pushes one profile per epoch, the introspection
/// server reads them.
#[derive(Debug, Clone)]
pub struct EpochProfiler {
    inner: Arc<Mutex<ProfilerInner>>,
}

impl Default for EpochProfiler {
    fn default() -> EpochProfiler {
        EpochProfiler::new(DEFAULT_PROFILE_CAPACITY)
    }
}

impl EpochProfiler {
    pub fn new(capacity: usize) -> EpochProfiler {
        EpochProfiler {
            inner: Arc::new(Mutex::new(ProfilerInner {
                history: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
            })),
        }
    }

    pub fn push(&self, profile: EpochProfile) {
        let mut inner = self.inner.lock();
        if inner.history.len() == inner.capacity {
            inner.history.pop_front();
        }
        inner.history.push_back(profile);
    }

    /// Retained profiles, oldest first.
    pub fn profiles(&self) -> Vec<EpochProfile> {
        self.inner.lock().history.iter().cloned().collect()
    }

    pub fn last(&self) -> Option<EpochProfile> {
        self.inner.lock().history.back().cloned()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().history.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained profiles as a JSON array.
    pub fn to_json(&self) -> String {
        let profiles = self.profiles();
        let mut out = String::from("[");
        for (i, p) in profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_phase() {
        let mut p = EpochProfile::new(3);
        p.record(PHASE_WAL, None, 10);
        p.record(PHASE_WAL, None, 5);
        p.record(PHASE_MAP, Some(PHASE_EXECUTE), 7);
        assert_eq!(p.phase_us(PHASE_WAL), 15);
        assert_eq!(p.phase_us(PHASE_MAP), 7);
        // Children do not count toward the top-level attribution.
        assert_eq!(p.attributed_us(), 15);
    }

    #[test]
    fn coverage_is_attributed_over_total() {
        let mut p = EpochProfile::new(1);
        p.record(PHASE_EXECUTE, None, 95);
        p.total_us = 100;
        assert!((p.coverage() - 0.95).abs() < 1e-9);
        let empty = EpochProfile::new(2);
        assert_eq!(empty.coverage(), 1.0);
    }

    #[test]
    fn task_skew_from_durations() {
        assert_eq!(TaskSkew::from_durations(&[]), None);
        let s = TaskSkew::from_durations(&[40, 10, 20, 30]).unwrap();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.min_us, 10);
        assert_eq!(s.max_us, 40);
        assert!(s.p50_us >= 10 && s.p50_us <= 40);
        assert_eq!(s.p99_us, 40);
    }

    #[test]
    fn shuffle_profile_key_skew() {
        let s = ShuffleProfile::new(vec![10, 10, 10, 10], vec![100, 100, 100, 100]);
        assert!((s.key_skew - 1.0).abs() < 1e-9);
        assert_eq!(s.total_rows(), 40);
        assert_eq!(s.total_bytes(), 400);
        let hot = ShuffleProfile::new(vec![30, 5, 5, 0], vec![0, 0, 0, 0]);
        assert!((hot.key_skew - 3.0).abs() < 1e-9);
        let empty = ShuffleProfile::new(vec![0, 0], vec![0, 0]);
        assert_eq!(empty.key_skew, 0.0);
    }

    #[test]
    fn profiler_history_is_bounded() {
        let prof = EpochProfiler::new(2);
        for e in 1..=5 {
            prof.push(EpochProfile::new(e));
        }
        let all = prof.profiles();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].epoch, 4);
        assert_eq!(prof.last().unwrap().epoch, 5);
    }

    #[test]
    fn timer_records_phases_ops_and_tasks_once_on_the_trace_clock() {
        use crate::clock::StepClock;
        let clock = StepClock::frozen(0);
        let trace = TraceLog::with_clock(clock.handle());
        let mut t = EpochTimer::start(9, trace.clone());
        clock.set_us(10);
        t.phase_from_start(PHASE_ADMISSION);
        t.phase(PHASE_EXECUTE, |t| {
            let since = t.now_us();
            t.phase(PHASE_MAP, |_| clock.set_us(25));
            t.op("agg-0".into(), 3, since);
            clock.set_us(30);
        });
        t.add(PHASE_SHUFFLE_WRITE, 4);
        t.tasks(&[7, 2]);
        clock.set_us(42);
        let (p, ops) = t.finish();
        assert_eq!(p.epoch, 9);
        assert_eq!(p.total_us, 42);
        assert_eq!(p.phase_us(PHASE_ADMISSION), 10);
        assert_eq!(p.phase_us(PHASE_EXECUTE), 20);
        assert_eq!(p.phase_us(PHASE_MAP), 15);
        let parent = |n: &str| p.phases.iter().find(|d| d.name == n).map(|d| d.parent.clone());
        let execute = Some(Some(PHASE_EXECUTE.to_string()));
        assert_eq!(parent(PHASE_MAP), execute);
        assert_eq!(parent(PHASE_SHUFFLE_WRITE), execute);
        assert_eq!(parent(PHASE_EXECUTE), Some(None));
        // Pre-order: a parent lists before its children.
        let order: Vec<&str> = p.phases.iter().map(|d| d.name.as_str()).collect();
        let expected = [PHASE_ADMISSION, PHASE_EXECUTE, PHASE_MAP, PHASE_SHUFFLE_WRITE];
        assert_eq!(order, expected);
        assert_eq!(p.tasks.map(|s| (s.tasks, s.max_us)), Some((2, 7)));
        let agg = OpDuration {
            op: "agg-0".into(),
            rows_out: 3,
            duration_us: 15,
        };
        assert_eq!(ops, vec![agg]);
        // Spans carry the phase names and the same stamps.
        let spans: Vec<(String, char, u64)> = trace
            .events()
            .into_iter()
            .map(|e| (e.name, e.ph, e.ts_us))
            .collect();
        let ev = |n: &str, ph: char, ts: u64| (n.to_string(), ph, ts);
        assert_eq!(
            spans,
            vec![
                ev(PHASE_ADMISSION, 'B', 0),
                ev(PHASE_ADMISSION, 'E', 10),
                ev(PHASE_EXECUTE, 'B', 10),
                ev(PHASE_MAP, 'B', 10),
                ev(PHASE_MAP, 'E', 25),
                ev("op:agg-0", 'X', 10),
                ev(PHASE_EXECUTE, 'E', 30),
            ]
        );
    }

    #[test]
    fn untraced_timer_still_times() {
        let clock = crate::clock::StepClock::frozen(5);
        let mut t = EpochTimer::untraced(1, clock.handle());
        t.phase(PHASE_EXECUTE, |_| clock.set_us(8));
        assert_eq!(t.profile.phase_us(PHASE_EXECUTE), 3);
        assert!(t.trace.is_empty());
    }

    #[test]
    fn json_shape_is_parseable() {
        let mut p = EpochProfile::new(7);
        p.total_us = 1000;
        p.record(PHASE_EXECUTE, None, 800);
        p.record(PHASE_MAP, Some(PHASE_EXECUTE), 300);
        p.tasks = TaskSkew::from_durations(&[100, 200]);
        p.shuffle = Some(ShuffleProfile::new(vec![3, 1], vec![64, 16]));
        p.e2e_latency_us = Some((5, 50));
        let json = p.to_json();
        assert!(json.starts_with("{\"epoch\":7,"));
        assert!(json.contains("\"name\":\"execute\",\"parent\":null"));
        assert!(json.contains("\"name\":\"map\",\"parent\":\"execute\""));
        assert!(json.contains("\"rows_per_partition\":[3, 1]"));
        assert!(json.contains("\"min\":5,\"max\":50"));
        let prof = EpochProfiler::new(4);
        prof.push(p);
        assert!(prof.to_json().starts_with("[{\"epoch\":7"));
    }
}
