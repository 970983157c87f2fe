//! `map_live_continuous`: filter → project on the continuous engine
//! (§6.3), one partition, WAL-backed epoch markers, fed open loop.
//!
//! The continuous engine delivers one partition's output rows in
//! offset order, so output row `i` must be the projection of the
//! `i`-th view event. The benchmark's record sink checks each row
//! against that expectation and stamps it against its due time.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ss_bus::MessageBus;
use ss_common::{Row, Value};
use ss_core::continuous::{ContinuousQuery, RecordSink};
use ss_core::StreamingContext;
use ss_state::{CheckpointBackend, MemoryBackend};

use crate::engine::{continuous_config, views};
use crate::inputs::{Inputs, TOPIC};
use crate::live::{record_setups, LiveSpec};
use crate::pin::Placement;
use crate::producer::{produce, Schedule};
use crate::report::Run;
use crate::stats::{percentile, process_cpu, LatencyWindows};
use crate::trace::{maybe_time, timed_record_sink, Recorder, TimedBackend};

/// One expected output row: `(ad_id, event_time)` and the input's
/// sequence number.
type Expected = (i64, i64, u64);

struct Delivered {
    next: usize,
    wrong: u64,
    windows: LatencyWindows,
    digest: u64,
    /// When the last row arrived.
    last: Option<Instant>,
}

/// The benchmark's record sink state.
struct Checker {
    /// The schedule's start, set once the query is up.
    t0: OnceLock<Instant>,
    expected: Vec<Expected>,
    schedule: Schedule,
    st: Mutex<Delivered>,
}

impl Checker {
    /// Start the schedule clock: latencies count from `measure_from`.
    fn begin(&self, t0: Instant, measure_from: Instant, window: Duration) {
        let _ = self.t0.set(t0);
        self.st.lock().expect("record sink state poisoned").windows =
            LatencyWindows::new(measure_from, window);
    }

    fn deliver(&self, row: &Row) {
        let now = Instant::now();
        let mut st = self.st.lock().expect("record sink state poisoned");
        let i = st.next;
        st.next += 1;
        st.last = Some(now);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        st.digest = st.digest.rotate_left(7) ^ h.finish();
        let Some(&(ad, t, j)) = self.expected.get(i) else {
            st.wrong += 1; // more rows than view events: a duplicate
            return;
        };
        let matches =
            row.len() == 2 && row.get(0) == &Value::Int64(ad) && row.get(1) == &Value::Timestamp(t);
        if !matches {
            st.wrong += 1;
        }
        let Some(&t0) = self.t0.get() else { return };
        let due = t0 + self.schedule.due(j);
        st.windows
            .add(due, now.saturating_duration_since(due).as_nanos() as u64);
    }
}

fn start(
    inputs: &Inputs,
    bus: &Arc<MessageBus>,
    sink: RecordSink,
    rec: Option<&Arc<Recorder>>,
) -> ss_common::Result<ContinuousQuery> {
    let ctx = StreamingContext::new();
    let plan = views(inputs, &ctx, bus.clone(), rec)?.plan();
    let backend: Arc<dyn CheckpointBackend> = Arc::new(MemoryBackend::new());
    let (sink, backend): (RecordSink, Arc<dyn CheckpointBackend>) = match rec {
        Some(r) => (
            timed_record_sink(sink, r.clone()),
            Arc::new(TimedBackend::new(backend, r.clone())),
        ),
        None => (sink, backend),
    };
    ContinuousQuery::start(
        &plan,
        bus.clone(),
        TOPIC,
        sink,
        Some(backend),
        continuous_config(),
    )
}

/// Run `map_live_continuous` for `seconds` of measured schedule.
pub fn run(inputs: &Inputs, spec: &LiveSpec, seconds: f64, rec: Option<&Arc<Recorder>>) -> Run {
    let mut run = Run::default();
    // Engine threads started from here on inherit the engine's CPUs.
    let placement = Placement::apply();
    let schedule = spec.schedule(seconds);
    let total = schedule.total;
    run.attempted = total;

    let feeds = schedule.rows(|p, o| inputs.row(p, o));
    let expected: Vec<Expected> = feeds[0]
        .iter()
        .enumerate()
        .filter(|(_, r)| Inputs::is_view(r))
        .filter_map(|(j, r)| match (r.get(2), r.get(5)) {
            (Value::Int64(ad), Value::Timestamp(t)) => Some((*ad, *t, j as u64)),
            _ => None,
        })
        .collect();
    let views_expected = expected.len() as u64;
    let checker = Arc::new(Checker {
        t0: OnceLock::new(),
        expected,
        schedule,
        st: Mutex::new(Delivered {
            next: 0,
            wrong: 0,
            windows: LatencyWindows::new(Instant::now(), spec.window),
            digest: 0,
            last: None,
        }),
    });

    let first = spec.first_measured();
    let (backlog, feeds) = schedule.split(feeds, first);
    // Only the last set-up, wired to the checking sink, runs the
    // schedule; earlier ones are stopped as soon as they are timed.
    let mut retire_errors = Vec::new();
    let setup = spec.timed_setups(
        backlog,
        rec,
        |bus, last| {
            let sink: RecordSink = if last {
                let c = checker.clone();
                Arc::new(move |_p, row| {
                    c.deliver(&row);
                    Ok(())
                })
            } else {
                Arc::new(|_p, _row| Ok(()))
            };
            maybe_time(
                rec,
                "query.start",
                0,
                || start(inputs, &bus, sink, rec),
                |_| 0,
            )
        },
        |q: ContinuousQuery| {
            if let Err(e) = q.stop() {
                retire_errors.push(e.to_string());
            }
        },
    );
    run.errors.extend(retire_errors);
    let (bus, q, setup_times) = match setup {
        Ok(s) => (s.bus, s.query, s.times),
        Err(e) => {
            run.error(e, total);
            return run;
        }
    };
    record_setups(&mut run, &setup_times);

    // The backlog was due before the producer starts: the schedule's
    // origin lies one warm-up in the past.
    let measure_from = Instant::now() + Duration::from_millis(20);
    let t0 = measure_from
        .checked_sub(spec.warmup)
        .expect("the monotonic clock runs longer than one warm-up");
    checker.begin(t0, measure_from, spec.window);
    let give_up = t0 + schedule.due(total) + spec.drain_deadline;
    let mut lags: Vec<f64> = Vec::new();
    let mut cpu_from = None;
    let produced = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            if let Some(p) = &placement {
                p.pin_producer();
            }
            produce(&schedule, t0, first, feeds, &bus, rec, |n| {
                lags.push(n.saturating_sub(q.processed()) as f64);
            })
        });
        // The engine runs on its own threads; this thread only watches.
        loop {
            let now = Instant::now();
            if cpu_from.is_none() && now >= measure_from {
                cpu_from = Some((process_cpu(), now));
            }
            if q.processed() >= total || now >= give_up || q.error().is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        producer.join().expect("producer thread panicked")
    });
    let (cpu_end, t_end) = (process_cpu(), Instant::now());
    let processed = q.processed();
    if let Some(e) = produced.error {
        run.errors.push(format!("producer: {e}"));
    }
    if let Err(e) = q.stop() {
        run.errors.push(e.to_string());
    }

    let mut st = checker.st.lock().expect("record sink state poisoned");
    let missing = views_expected.saturating_sub(st.next as u64);
    run.failed += (st.wrong + missing.max(total.saturating_sub(processed))).min(total);
    run.output = format!("rows {} digest {:016x}\n", st.next, st.digest);

    // Records consumed per second over the measured window, which ends
    // when the last row reached the sink.
    let window = st.last.map_or(0.0, |l| {
        l.saturating_duration_since(measure_from).as_secs_f64()
    });
    let offered = total.saturating_sub(first).max(1);
    let consumed = processed.saturating_sub(first);
    run.sample(
        "throughput_rps",
        if window > 0.0 {
            consumed as f64 / window
        } else {
            0.0
        },
    );
    run.sample("latency_p50_ms", st.windows.percentile_ms(0.5));
    run.sample("latency_p90_ms", st.windows.percentile_ms(0.9));
    run.sample("latency_p99_ms", st.windows.percentile_ms(0.99));
    // Process CPU (the producer's appends are bus work, so they count)
    // and wall time over the measured window.
    let cpu_window = cpu_from.map(|(cpu0, at)| {
        (
            cpu_end.saturating_sub(cpu0),
            t_end.saturating_duration_since(at),
        )
    });
    if let Some((cpu, _)) = cpu_window {
        run.sample(
            "cpu_us_per_record",
            cpu.as_secs_f64() * 1e6 / offered as f64,
        );
    }

    if rec.is_some() {
        let gen: Vec<f64> = produced
            .tick_lag_ns
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect();
        run.layer("generator.lag_ms_p99", percentile(&gen, 0.99));
        run.layer("continuous.lag_records_p99", percentile(&lags, 0.99));
        if let Some((cpu, wall)) = cpu_window.filter(|(_, wall)| !wall.is_zero()) {
            run.layer("workers.busy_ratio", cpu.as_secs_f64() / wall.as_secs_f64());
        }
    }
    run
}
