//! `yahoo_drain` and `yahoo_drain_p2`: drain a preloaded backlog.
//!
//! Every repetition fills a fresh bus with the same seeded events,
//! starts a fresh query and runs epochs until the engine reports idle.
//! Rows are generated before a repetition's clock starts, so neither
//! the fill nor the drain includes harness work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_baselines::workload::BenchCounts;
use ss_bus::MessageBus;
use ss_common::{MetricValue, Row, Value};

use crate::engine::{render_rows, start_yahoo};
use crate::inputs::{count_mismatches, Inputs, TOPIC};
use crate::report::Run;
use crate::stats::{median, process_cpu, LatencyWindows};
use crate::trace::{maybe_time, Recorder};

/// Shape of a drain workload.
#[derive(Debug, Clone, Copy)]
pub struct DrainSpec {
    pub partitions: u32,
    pub per_partition: u64,
    pub parallelism: usize,
    /// Repetitions run before measuring (warm caches and allocator).
    pub warmup_reps: usize,
    /// Fewest measured repetitions, however short `seconds` is.
    pub min_reps: usize,
}

impl DrainSpec {
    pub fn records(&self) -> u64 {
        self.partitions as u64 * self.per_partition
    }
}

/// `(campaign, window_start) → count` from the sink's Update-mode
/// table (`window_start, window_end, campaign_id, count`).
pub fn sink_counts(rows: &[Row]) -> BenchCounts {
    let mut counts = BenchCounts::new();
    for row in rows {
        if let (Value::Timestamp(w), Value::Int64(c), Value::Int64(n)) =
            (row.get(0), row.get(2), row.get(3))
        {
            counts.insert((*c, *w), *n);
        }
    }
    counts
}

/// The expected result of draining the whole backlog.
fn oracle(inputs: &Inputs, spec: &DrainSpec) -> BenchCounts {
    let mut counts = BenchCounts::new();
    for p in 0..spec.partitions {
        for o in 0..spec.per_partition {
            inputs.count(&mut counts, &inputs.row(p, o));
        }
    }
    counts
}

/// Per-repetition figures that feed the per-layer metrics.
#[derive(Default)]
struct LayerSamples {
    phases: std::collections::BTreeMap<&'static str, Vec<f64>>,
    busy: Vec<f64>,
    preload_s: Vec<f64>,
    start_ms: Vec<f64>,
}

/// Run the drain workload for about `seconds` of measured repetitions.
pub fn run(inputs: &Inputs, spec: &DrainSpec, seconds: f64, rec: Option<&Arc<Recorder>>) -> Run {
    let expected = oracle(inputs, spec);
    let mut run = Run::default();
    let mut layers = LayerSamples::default();
    let mut epoch_id = 0u64;
    let mut started = Instant::now();
    let mut rep = 0usize;
    loop {
        let measured = rep >= spec.warmup_reps;
        let measured_reps = rep.saturating_sub(spec.warmup_reps);
        if measured
            && measured_reps >= spec.min_reps
            && started.elapsed() >= Duration::from_secs_f64(seconds)
        {
            break;
        }
        if rep == spec.warmup_reps {
            // Warm-up is over: the measured window starts now.
            started = Instant::now();
            run = Run::default();
            layers = LayerSamples::default();
            if let Some(r) = rec {
                r.clear();
            }
        }
        one_rep(
            inputs,
            spec,
            &expected,
            rec,
            &mut epoch_id,
            &mut run,
            &mut layers,
        );
        rep += 1;
        if run.errors.len() > 3 {
            break; // a broken engine: report, do not spin
        }
    }
    if rec.is_some() {
        for (name, v) in &layers.phases {
            run.layer(&format!("profile.execute.{name}_us"), median(v));
        }
        run.layer("workers.busy_ratio", median(&layers.busy));
        run.layer("setup.preload_s", median(&layers.preload_s));
        run.layer("setup.start_ms", median(&layers.start_ms));
    }
    run
}

fn one_rep(
    inputs: &Inputs,
    spec: &DrainSpec,
    expected: &BenchCounts,
    rec: Option<&Arc<Recorder>>,
    epoch_id: &mut u64,
    run: &mut Run,
    layers: &mut LayerSamples,
) {
    let n = spec.records();
    run.attempted += n;
    let rows: Vec<Vec<Row>> = (0..spec.partitions)
        .map(|p| inputs.rows(p, 0, spec.per_partition))
        .collect();

    // Set-up: bus fill, then query start (analyze, optimize,
    // incrementalize).
    let t_fill = Instant::now();
    let bus = Arc::new(MessageBus::new());
    let filled = bus.create_topic(TOPIC, spec.partitions).and_then(|()| {
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
        Ok(())
    });
    if let Err(e) = filled {
        return run.error(e, n);
    }
    let t_start = Instant::now();
    let started = maybe_time(
        rec,
        "query.start",
        0,
        || start_yahoo(inputs, bus.clone(), spec.parallelism, rec),
        |_| 0,
    );
    let mut yq = match started {
        Ok(q) => q,
        Err(e) => return run.error(e, n),
    };
    let t_drain = Instant::now();

    // The drain: epochs back to back until idle.
    let cpu0 = process_cpu();
    loop {
        *epoch_id += 1;
        match yq.step(*epoch_id, rec) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                // Whatever the commits delivered is checked below.
                run.errors.push(e.to_string());
                break;
            }
        }
    }
    let t_done = Instant::now();
    let cpu = process_cpu().saturating_sub(cpu0);

    // Every record was due when the drain started: one window.
    let mut windows = LatencyWindows::new(t_drain, Duration::from_secs(3600));
    let delivered = match yq.deliveries(&mut windows, |_, _| t_drain) {
        Ok(d) => d,
        Err(e) => return run.error(e, n),
    };
    let table = yq.sink.table.snapshot();
    let wrong = count_mismatches(expected, &sink_counts(&table));
    run.failed += (wrong + n.saturating_sub(delivered.records)).min(n);
    if run.output.is_empty() {
        run.output = render_rows(&table);
    }

    let wall = t_done.duration_since(t_drain).as_secs_f64();
    run.sample("throughput_rps", n as f64 / wall);
    run.sample("latency_p50_ms", windows.percentile_ms(0.5));
    run.sample("latency_p90_ms", windows.percentile_ms(0.9));
    run.sample("latency_p99_ms", windows.percentile_ms(0.99));
    run.sample("cpu_us_per_record", cpu.as_secs_f64() * 1e6 / n as f64);
    run.sample("setup_s", t_drain.duration_since(t_fill).as_secs_f64());

    if rec.is_some() {
        layers
            .preload_s
            .push(t_start.duration_since(t_fill).as_secs_f64());
        layers
            .start_ms
            .push(t_drain.duration_since(t_start).as_secs_f64() * 1e3);
        layers
            .busy
            .push(cpu.as_secs_f64() / (wall * spec.parallelism as f64));
        for (name, us) in yq.execute_phases_us() {
            layers.phases.entry(name).or_default().push(us);
        }
        registry_layers(&yq.query.metrics(), run);
    }
    // Tear-down (dropping the bus and query) is outside every clock.
    drop(yq);
    drop(bus);
}

/// Retry counters and state size from the query's metric registry
/// (accumulated across repetitions; state bytes is the last reading).
pub fn registry_layers(registry: &ss_common::MetricsRegistry, run: &mut Run) {
    let counter = |op: &str| match registry.value("ss_retry_attempts_total", &[("op", op)]) {
        Some(MetricValue::Counter(c)) => c as f64,
        _ => 0.0,
    };
    let add = |run: &mut Run, name: &str, v: f64| {
        let cur = run.layers.get(name).copied().unwrap_or(0.0);
        run.layer(name, cur + v);
    };
    add(run, "source.retries", counter("source_read"));
    add(run, "sink.retries", counter("sink_commit"));
    add(
        run,
        "wal.retries",
        counter("wal_offsets_append") + counter("wal_commits_append"),
    );
    if let Some(MetricValue::Gauge(b)) = registry.value("ss_state_bytes", &[]) {
        run.layer("state.bytes", b as f64);
    }
}
