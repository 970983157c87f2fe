//! The queries under test, with every engine setting pinned.
//!
//! `MicroBatchConfig::default()` reads `SS_PARALLELISM` and
//! `SS_EPOCH_DEADLINE_MS`, so a CI environment could silently change
//! what the benchmark measures. The configs here name every field.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ss_bus::{BusSource, EpochOutput, MemorySink, MessageBus, Sink, Source};
use ss_common::clock::system_clock;
use ss_common::{ErrorPolicy, FaultRegistry, Result, RetryPolicy, Row};
use ss_core::continuous::ContinuousConfig;
use ss_core::prelude::*;
use ss_core::{DataFrame, StreamingQuery};
use ss_state::{CheckpointBackend, MemoryBackend};

use ss_core::microbatch::EpochRun;

use crate::delivery::{Delivered, EpochRanges};
use crate::inputs::{Inputs, TOPIC};
use crate::stats::{median, LatencyWindows};
use crate::trace::{maybe_time, Recorder, TimedBackend, TimedSink, TimedSource};

/// Microbatch engine settings shared by every Yahoo workload; only the
/// worker count differs.
pub fn microbatch_config(parallelism: usize) -> MicroBatchConfig {
    MicroBatchConfig {
        max_records_per_trigger: None,
        adaptive_batching: true,
        catchup_multiplier: 8,
        checkpoint_interval: 1,
        progress_history: 128,
        faults: FaultRegistry::new(),
        retry: RetryPolicy::default(),
        clock: system_clock(),
        interrupt: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        rate_controller: None,
        state_budget: MemoryBudget::default(),
        // Spark's default `minBatchesToRetain`: without it the
        // checkpoint grows by one state delta per epoch.
        min_epochs_to_retain: Some(100),
        parallelism,
        shuffle_partitions: 0,
        error_policy: ErrorPolicy::Fail,
        epoch_deadline: None,
        task_soft_deadline: None,
        task_hard_deadline: None,
        dlq: None,
        ha: None,
    }
}

/// Continuous engine settings for `map_live_continuous`.
pub fn continuous_config() -> ContinuousConfig {
    ContinuousConfig {
        // Epoch markers every 100 ms: ~10 WAL marker writes a second.
        epoch_interval_us: 100_000,
        poll_batch: 256,
        // Poll without sleeping. A 100 µs idle park put the worker's
        // wake-up latency on a small VM (often several ms, varying from
        // run to run) into every record's latency.
        idle_sleep: Duration::ZERO,
        // The benchmark stamps rows in its own record sink.
        record_latency: false,
        faults: FaultRegistry::new(),
        clock: system_clock(),
    }
}

/// The benchmark's sink: a [`MemorySink`] that also notes when each
/// epoch's commit returned, the end of every record's journey.
pub struct StampSink {
    pub table: Arc<MemorySink>,
    commits: Mutex<Vec<(u64, Instant)>>,
}

impl StampSink {
    pub fn new() -> Arc<StampSink> {
        Arc::new(StampSink {
            table: MemorySink::new("yahoo-counts"),
            commits: Mutex::new(Vec::new()),
        })
    }

    /// `(epoch, commit returned at)` in commit order.
    pub fn commits(&self) -> Vec<(u64, Instant)> {
        self.commits.lock().expect("commit stamps poisoned").clone()
    }
}

impl Sink for StampSink {
    fn name(&self) -> &str {
        self.table.name()
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        self.table.commit_epoch(epoch, output)?;
        self.commits
            .lock()
            .expect("commit stamps poisoned")
            .push((epoch, Instant::now()));
        Ok(())
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        self.table.truncate_after(epoch)
    }

    fn rows_written(&self) -> u64 {
        self.table.rows_written()
    }
}

/// The source over the benchmark topic, wrapped for tracing when a
/// recorder is given.
fn source(
    inputs: &Inputs,
    bus: Arc<MessageBus>,
    rec: Option<&Arc<Recorder>>,
) -> Result<Arc<dyn Source>> {
    let bus_source: Arc<dyn Source> =
        Arc::new(BusSource::new(bus, TOPIC, inputs.workload.event_schema())?);
    Ok(match rec {
        Some(r) => Arc::new(TimedSource::new(bus_source, r.clone())),
        None => bus_source,
    })
}

/// Filter views → project `(ad_id, event_time)`: the map-like prefix
/// shared by the Yahoo query and the continuous workload.
pub fn views(
    inputs: &Inputs,
    ctx: &StreamingContext,
    bus: Arc<MessageBus>,
    rec: Option<&Arc<Recorder>>,
) -> Result<DataFrame> {
    Ok(ctx
        .read_source(source(inputs, bus, rec)?)?
        .filter(col("event_type").eq(lit("view")))
        .select(vec![col("ad_id"), col("event_time")]))
}

/// A started Yahoo query and the handles the harness inspects.
pub struct YahooQuery {
    pub query: StreamingQuery,
    pub sink: Arc<StampSink>,
    /// Offset range of every epoch run so far.
    ranges: EpochRanges,
}

impl YahooQuery {
    /// Fire one trigger as harness epoch `id` (a span
    /// `engine.run_epoch` when traced) and note the epoch's offset
    /// range. Returns the rows the epoch consumed; 0 means idle.
    pub fn step(&mut self, id: u64, rec: Option<&Arc<Recorder>>) -> Result<u64> {
        if let Some(r) = rec {
            r.set_epoch(id);
        }
        let query = &mut self.query;
        let out = maybe_time(
            rec,
            "engine.run_epoch",
            id,
            || query.run_epoch(),
            |r| match r {
                Ok(EpochRun::Ran(p)) => p.num_input_rows,
                _ => 0,
            },
        );
        if let Some(r) = rec {
            r.set_epoch(0);
        }
        match out? {
            EpochRun::Ran(p) => {
                self.ranges.note(self.query.current_epoch())?;
                Ok(p.num_input_rows)
            }
            EpochRun::Idle => Ok(0),
        }
    }

    /// Median per epoch of each child phase of `execute` in the engine's
    /// own profiles (all zero on the serial path, which has none).
    pub fn execute_phases_us(&self) -> Vec<(&'static str, f64)> {
        let profiles = self.query.profiles();
        ["map", "shuffle-write", "shuffle-read", "reduce", "merge"]
            .into_iter()
            .map(|name| {
                let per_epoch: Vec<f64> = profiles
                    .iter()
                    .map(|p| {
                        p.phases
                            .iter()
                            .filter(|d| d.name == name && d.parent.as_deref() == Some("execute"))
                            .fold(0.0, |acc, d| acc + d.duration_us as f64)
                    })
                    .collect();
                (name, median(&per_epoch))
            })
            .collect()
    }

    /// Records the sink commits delivered so far, with each one's
    /// latency from its due time added to `windows`.
    pub fn deliveries(
        &self,
        windows: &mut LatencyWindows,
        due: impl Fn(u32, u64) -> Instant,
    ) -> Result<Delivered> {
        self.ranges.deliveries(&self.sink.commits(), windows, due)
    }
}

/// Start the Yahoo query (§9.1): filter views → project → join the
/// static 1,000-ad campaign table → count per campaign per 10 s window,
/// Update mode, on the given worker count.
pub fn start_yahoo(
    inputs: &Inputs,
    bus: Arc<MessageBus>,
    parallelism: usize,
    rec: Option<&Arc<Recorder>>,
) -> Result<YahooQuery> {
    let ctx = StreamingContext::new();
    let campaigns = ctx.read_table("campaigns", vec![inputs.workload.campaign_batch()])?;
    let counts = views(inputs, &ctx, bus, rec)?
        .join(
            &campaigns,
            JoinType::Inner,
            vec![(col("ad_id"), col("c_ad_id"))],
        )
        .group_by(vec![
            window(col("event_time"), "10 seconds")?,
            col("campaign_id"),
        ])
        .count();
    let sink = StampSink::new();
    let backend = Arc::new(MemoryBackend::new());
    let (engine_sink, engine_backend): (Arc<dyn Sink>, Arc<dyn CheckpointBackend>) = match rec {
        Some(r) => (
            Arc::new(TimedSink::new(sink.clone(), r.clone())),
            Arc::new(TimedBackend::new(backend.clone(), r.clone())),
        ),
        None => (sink.clone(), backend.clone()),
    };
    let query = counts
        .write_stream()
        .query_name("yahoo")
        .output_mode(OutputMode::Update)
        .engine_config(microbatch_config(parallelism))
        .sink(engine_sink)
        .checkpoint(engine_backend)
        .start_sync()?;
    Ok(YahooQuery {
        query,
        sink,
        ranges: EpochRanges::new(&backend),
    })
}

/// The sink's result table rendered as text, one row per line: the
/// bytes compared between traced and untraced runs.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!("{r:?}\n"));
    }
    out
}
