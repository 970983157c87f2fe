//! `yahoo_live`: the Yahoo query, serial, fed open loop while a 5 ms
//! processing-time trigger fires epochs.
//!
//! Epochs stay small (about 500 rows), so per-epoch fixed work — offset
//! and commit logs, state checkpoint, manifest, sink commit, admission —
//! dominates them. Epochs are not run back to back: on this engine
//! their cost then grows during a run (epoch wall time roughly doubles
//! over ten seconds, by a different amount each run), which made
//! latency too unsteady to gate on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_baselines::workload::BenchCounts;
use ss_bus::MessageBus;
use ss_common::Row;

use crate::drain::{registry_layers, sink_counts};
use crate::engine::{render_rows, start_yahoo, YahooQuery};
use crate::inputs::{count_mismatches, Inputs, TOPIC};
use crate::pin::Placement;
use crate::producer::{produce, Schedule};
use crate::report::Run;
use crate::stats::{median, percentile, process_cpu, LatencyWindows};
use crate::trace::{maybe_time, Recorder};

/// The set-up that runs the schedule, with every set-up's
/// `(fill, start)` times in seconds.
pub struct SetUp<T> {
    pub bus: Arc<MessageBus>,
    pub query: T,
    pub times: Vec<(f64, f64)>,
}

/// Shape of a live (open-loop) workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Offered records per second (fixed, absolute).
    pub rate: f64,
    pub partitions: u32,
    pub tick: Duration,
    /// Processing-time trigger interval of the microbatch engine (the
    /// continuous engine ignores it).
    pub trigger: Duration,
    /// Leading part of the schedule. Its records are the backlog the
    /// query starts from: set-up fills them onto the bus, and they are
    /// left out of the latency and CPU measurement.
    pub warmup: Duration,
    /// Latency percentiles are taken per window of due times, then the
    /// median over windows is reported.
    pub window: Duration,
    /// Set-ups (fresh bus, backlog fill, query start) timed for
    /// `setup_s`; the last one runs.
    pub setup_reps: usize,
    /// How long after the last due time undelivered records still
    /// count as delivered.
    pub drain_deadline: Duration,
}

impl LiveSpec {
    pub fn schedule(&self, seconds: f64) -> Schedule {
        let span = self.warmup.as_secs_f64() + seconds;
        Schedule {
            rate: self.rate,
            partitions: self.partitions,
            tick: self.tick,
            total: (span * self.rate).round() as u64,
        }
    }

    /// First record whose latency is measured.
    pub fn first_measured(&self) -> u64 {
        (self.warmup.as_secs_f64() * self.rate).ceil() as u64
    }

    /// Set up `setup_reps` times: a fresh bus filled with `backlog`
    /// (copied before the clock starts), then `start(bus, last)`. Every
    /// set-up but the last is handed to `retire`. Returns the last bus
    /// and query with each set-up's fill and start times in seconds.
    pub fn timed_setups<T>(
        &self,
        backlog: Vec<Vec<Row>>,
        rec: Option<&Arc<Recorder>>,
        mut start: impl FnMut(Arc<MessageBus>, bool) -> ss_common::Result<T>,
        mut retire: impl FnMut(T),
    ) -> ss_common::Result<SetUp<T>> {
        let reps = self.setup_reps.max(1);
        let mut times = Vec::with_capacity(reps);
        let mut backlog = Some(backlog);
        for rep in 1..=reps {
            let last = rep == reps;
            let rows = if last {
                backlog.take().expect("the backlog is used once")
            } else {
                backlog
                    .clone()
                    .expect("the backlog is kept until the last set-up")
            };
            let t = Instant::now();
            let bus = Arc::new(MessageBus::new());
            bus.create_topic(TOPIC, self.partitions)?;
            for (p, part) in rows.into_iter().enumerate() {
                let k = part.len() as u64;
                maybe_time(
                    rec,
                    "bus.append",
                    0,
                    || bus.append(TOPIC, p as u32, part),
                    |_| k,
                )?;
            }
            let filled = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let v = start(bus.clone(), last)?;
            times.push((filled, t.elapsed().as_secs_f64()));
            if last {
                return Ok(SetUp {
                    bus,
                    query: v,
                    times,
                });
            }
            retire(v);
        }
        unreachable!("the last set-up returns")
    }
}

/// Sample `setup_s` (fill plus start) for every set-up, and keep the
/// medians of its two parts as per-layer readings.
pub fn record_setups(run: &mut Run, times: &[(f64, f64)]) {
    for (fill, start) in times {
        run.sample("setup_s", fill + start);
    }
    let part = |i: usize| median(&times.iter().map(|t| [t.0, t.1][i]).collect::<Vec<_>>());
    run.layer("setup.preload_s", part(0));
    run.layer("setup.start_ms", part(1) * 1e3);
}

/// Run `yahoo_live` for `seconds` of measured schedule.
pub fn run(inputs: &Inputs, spec: &LiveSpec, seconds: f64, rec: Option<&Arc<Recorder>>) -> Run {
    let mut run = Run::default();
    // Engine threads started from here on inherit the engine's CPUs.
    let placement = Placement::apply();
    let schedule = spec.schedule(seconds);
    let total = schedule.total;
    run.attempted = total;

    let feeds = schedule.rows(|p, o| inputs.row(p, o));
    let mut expected = BenchCounts::new();
    for row in feeds.iter().flatten() {
        inputs.count(&mut expected, row);
    }
    let first = spec.first_measured();
    let (backlog, feeds) = schedule.split(feeds, first);

    let setup = spec.timed_setups(
        backlog,
        rec,
        |bus, _| {
            maybe_time(
                rec,
                "query.start",
                0,
                || start_yahoo(inputs, bus, 1, rec),
                |_| 0,
            )
        },
        drop,
    );
    let (bus, mut yq, setup_times) = match setup {
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
    let give_up = t0 + schedule.due(total) + spec.drain_deadline;
    let (produced, (t_end, cpu_from)) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            if let Some(p) = &placement {
                p.pin_producer();
            }
            produce(&schedule, t0, first, feeds, &bus, rec, |_| {})
        });
        let ended = drive(
            &mut yq,
            total,
            measure_from,
            give_up,
            spec.trigger,
            rec,
            &mut run,
        );
        (producer.join().expect("producer thread panicked"), ended)
    });
    let cpu_end = process_cpu();
    if let Some(e) = produced.error {
        run.errors.push(format!("producer: {e}"));
    }

    let mut windows = LatencyWindows::new(measure_from, spec.window);
    let delivered = yq.deliveries(&mut windows, |p, o| t0 + schedule.due(schedule.seq(p, o)));
    let delivered = match delivered {
        Ok(d) => d,
        Err(e) => {
            run.error(e, total);
            return run;
        }
    };
    let table = yq.sink.table.snapshot();
    // Undelivered records are failures; the oracle for the rest is
    // checked only once everything was delivered (a partial result
    // cannot be split per record).
    let undelivered = total.saturating_sub(delivered.records);
    let wrong = if undelivered == 0 {
        count_mismatches(&expected, &sink_counts(&table))
    } else {
        0
    };
    run.failed += (undelivered + wrong).min(total);
    run.output = render_rows(&table);

    let measured_records = windows.samples() as f64;
    let window = delivered.last_commit.map_or(0.0, |l| {
        l.saturating_duration_since(measure_from).as_secs_f64()
    });
    run.sample(
        "throughput_rps",
        if window > 0.0 {
            measured_records / window
        } else {
            0.0
        },
    );
    run.sample("latency_p50_ms", windows.percentile_ms(0.5));
    run.sample("latency_p90_ms", windows.percentile_ms(0.9));
    run.sample("latency_p99_ms", windows.percentile_ms(0.99));
    // Process CPU (the producer's appends are bus work, so they count)
    // and wall time over the measured window.
    let cpu_window = cpu_from.map(|(cpu0, at)| {
        (
            cpu_end.saturating_sub(cpu0),
            t_end.saturating_duration_since(at),
        )
    });
    if let Some((cpu, _)) = cpu_window {
        let offered = total.saturating_sub(first).max(1);
        run.sample(
            "cpu_us_per_record",
            cpu.as_secs_f64() * 1e6 / offered as f64,
        );
    }

    if rec.is_some() {
        let lags: Vec<f64> = produced
            .tick_lag_ns
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect();
        run.layer("generator.lag_ms_p99", percentile(&lags, 0.99));
        if let Some((cpu, wall)) = cpu_window.filter(|(_, wall)| !wall.is_zero()) {
            run.layer("workers.busy_ratio", cpu.as_secs_f64() / wall.as_secs_f64());
        }
        for (name, us) in yq.execute_phases_us() {
            run.layer(&format!("profile.execute.{name}_us"), us);
        }
        registry_layers(&yq.query.metrics(), &mut run);
    }
    run
}

/// Fire the processing-time trigger every `trigger` until every record
/// is consumed or the deadline passes. Returns when the last epoch that
/// ran ended, and the process CPU time and instant when the measured
/// window began.
fn drive(
    yq: &mut YahooQuery,
    total: u64,
    measure_from: Instant,
    give_up: Instant,
    trigger: Duration,
    rec: Option<&Arc<Recorder>>,
    run: &mut Run,
) -> (Instant, Option<(Duration, Instant)>) {
    let mut cpu_from = None;
    let mut consumed = 0u64;
    let mut epoch_id = 0u64;
    let origin = Instant::now();
    let interval = trigger;
    let mut t_end = Instant::now();
    while consumed < total {
        let now = Instant::now();
        if now >= give_up {
            break;
        }
        if cpu_from.is_none() && now >= measure_from {
            cpu_from = Some((process_cpu(), now));
        }
        epoch_id += 1;
        match yq.step(epoch_id, rec) {
            Ok(rows) => {
                consumed += rows;
                if rows > 0 {
                    t_end = Instant::now();
                }
            }
            Err(e) => {
                run.errors.push(e.to_string());
                break;
            }
        }
        // Processing-time trigger: the next epoch fires on the next
        // interval boundary after this one ends.
        let since = Instant::now().saturating_duration_since(origin);
        let next = (since.as_nanos() / interval.as_nanos() + 1) * interval.as_nanos();
        std::thread::sleep(Duration::from_nanos(next as u64).saturating_sub(since));
    }
    (t_end, cpu_from)
}
