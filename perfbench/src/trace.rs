//! Tracing from outside the engine.
//!
//! The benchmark measures each layer without touching the engine's
//! code: it wraps the public [`Source`], [`Sink`] and
//! [`CheckpointBackend`] traits in timing decorators, and times its own
//! calls into the bus, the query and the continuous record sink. Every
//! wrapped call becomes one [`Span`] kept in memory by a [`Recorder`]
//! and written out when the run ends.
//!
//! A decorator must forward **every** trait method, including the ones
//! with default bodies: a missed forward silently falls back to the
//! default (for example the concatenating `read_all_projected`), and
//! the traced run would then time a different program.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ss_bus::{EpochOutput, MessageBus, Sink, Source};
use ss_common::{OffsetRange, PartitionOffsets, RecordBatch, Result, Row, SchemaRef};
use ss_core::continuous::RecordSink;
use ss_state::CheckpointBackend;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The harness's `run_epoch` call this span ran under (1-based);
    /// 0 for spans outside any epoch (producer appends, set-up, the
    /// continuous engine's threads).
    pub epoch: u64,
    /// What the call moved: rows for reads, appends and commits, bytes
    /// for checkpoint-backend calls, records of lag for offset probes.
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store shared by every decorator of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    epoch: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            epoch: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Mark the start of the harness's next `run_epoch` call; spans
    /// recorded from inside the engine until the next call carry it.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as one span under the current epoch.
    pub fn time<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        let epoch = self.epoch.load(Ordering::Relaxed);
        self.time_in(name, epoch, f, count)
    }

    /// Run `f` as one span under an explicit parent epoch (harness
    /// threads that run beside the engine use 0).
    pub fn time_in<T>(
        &self,
        name: &'static str,
        epoch: u64,
        f: impl FnOnce() -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span {
            name,
            start_ns,
            end_ns,
            epoch,
            count: count(&out),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        out
    }

    /// Forget every span so far (the end of a warm-up).
    pub fn clear(&self) {
        self.spans.lock().expect("span store poisoned").clear();
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as a tab-separated line
    /// `name start_ns end_ns epoch count`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tepoch\tcount")?;
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.epoch, s.count
            )?;
        }
        out.flush()
    }
}

/// Time `f` when a recorder is present; otherwise just run it.
pub fn maybe_time<T>(
    rec: Option<&Arc<Recorder>>,
    name: &'static str,
    epoch: u64,
    f: impl FnOnce() -> T,
    count: impl FnOnce(&T) -> u64,
) -> T {
    match rec {
        Some(r) => r.time_in(name, epoch, f, count),
        None => f(),
    }
}

fn rows_of(r: &Result<RecordBatch>) -> u64 {
    r.as_ref().map_or(0, |b| b.num_rows() as u64)
}

/// [`Source`] decorator: `source.read` (every read method, count =
/// rows), `source.ingest_bounds`, `source.earliest_offsets` and
/// `source.latest_offsets` (count = lag: records available beyond what
/// the last read consumed).
pub struct TimedSource {
    inner: Arc<dyn Source>,
    rec: Arc<Recorder>,
    consumed: Mutex<PartitionOffsets>,
}

impl TimedSource {
    pub fn new(inner: Arc<dyn Source>, rec: Arc<Recorder>) -> TimedSource {
        TimedSource {
            inner,
            rec,
            consumed: Mutex::new(PartitionOffsets::new()),
        }
    }

    fn lag(&self, latest: &Result<PartitionOffsets>) -> u64 {
        let Ok(latest) = latest else { return 0 };
        let consumed = self.consumed.lock().expect("consumed offsets poisoned");
        latest
            .iter()
            .map(|(p, &e)| e.saturating_sub(consumed.get(p).copied().unwrap_or(0)))
            .sum()
    }

    fn note_consumed(&self, range: &OffsetRange) {
        let mut consumed = self.consumed.lock().expect("consumed offsets poisoned");
        for (&p, &e) in &range.end {
            let slot = consumed.entry(p).or_insert(0);
            *slot = (*slot).max(e);
        }
    }
}

impl Source for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn num_partitions(&self) -> u32 {
        self.inner.num_partitions()
    }

    fn latest_offsets(&self) -> Result<PartitionOffsets> {
        self.rec.time(
            "source.latest_offsets",
            || self.inner.latest_offsets(),
            |r| self.lag(r),
        )
    }

    fn earliest_offsets(&self) -> Result<PartitionOffsets> {
        self.rec.time(
            "source.earliest_offsets",
            || self.inner.earliest_offsets(),
            |_| 0,
        )
    }

    fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch> {
        self.rec.time(
            "source.read",
            || self.inner.read_partition(partition, start, end),
            rows_of,
        )
    }

    fn bus_binding(&self) -> Option<(Arc<MessageBus>, String)> {
        self.inner.bus_binding()
    }

    fn read_partition_projected(
        &self,
        partition: u32,
        start: u64,
        end: u64,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        self.rec.time(
            "source.read",
            || {
                self.inner
                    .read_partition_projected(partition, start, end, projection)
            },
            rows_of,
        )
    }

    fn read(&self, range: &OffsetRange) -> Result<Vec<RecordBatch>> {
        self.note_consumed(range);
        self.rec.time(
            "source.read",
            || self.inner.read(range),
            |r| {
                r.as_ref()
                    .map_or(0, |v| v.iter().map(|b| b.num_rows() as u64).sum())
            },
        )
    }

    fn read_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<Vec<RecordBatch>> {
        self.note_consumed(range);
        self.rec.time(
            "source.read",
            || self.inner.read_projected(range, projection),
            |r| {
                r.as_ref()
                    .map_or(0, |v| v.iter().map(|b| b.num_rows() as u64).sum())
            },
        )
    }

    fn ingest_bounds(&self, range: &OffsetRange) -> Result<Option<(i64, i64)>> {
        self.rec.time(
            "source.ingest_bounds",
            || self.inner.ingest_bounds(range),
            |_| 0,
        )
    }

    fn read_all_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        self.note_consumed(range);
        self.rec.time(
            "source.read",
            || self.inner.read_all_projected(range, projection),
            rows_of,
        )
    }
}

/// [`Sink`] decorator: `sink.commit` (count = output rows) and
/// `sink.truncate`.
pub struct TimedSink {
    inner: Arc<dyn Sink>,
    rec: Arc<Recorder>,
}

impl TimedSink {
    pub fn new(inner: Arc<dyn Sink>, rec: Arc<Recorder>) -> TimedSink {
        TimedSink { inner, rec }
    }
}

impl Sink for TimedSink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        self.rec.time(
            "sink.commit",
            || self.inner.commit_epoch(epoch, output),
            |_| output.num_rows() as u64,
        )
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        self.rec
            .time("sink.truncate", || self.inner.truncate_after(epoch), |_| 0)
    }

    fn rows_written(&self) -> u64 {
        self.inner.rows_written()
    }
}

/// [`CheckpointBackend`] decorator. Keys under `wal/` are the offset
/// and commit logs (`wal.*` spans); everything else — state
/// checkpoints under `state/` and the manifest at the root — is
/// `state.*`. Counts are bytes moved.
pub struct TimedBackend {
    inner: Arc<dyn CheckpointBackend>,
    rec: Arc<Recorder>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn CheckpointBackend>, rec: Arc<Recorder>) -> TimedBackend {
        TimedBackend { inner, rec }
    }
}

fn is_wal(key: &str) -> bool {
    key.starts_with("wal/")
}

impl CheckpointBackend for TimedBackend {
    fn write_atomic(&self, key: &str, data: &[u8]) -> Result<()> {
        let name = if is_wal(key) {
            "wal.write"
        } else {
            "state.write"
        };
        self.rec.time(
            name,
            || self.inner.write_atomic(key, data),
            |_| data.len() as u64,
        )
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let name = if is_wal(key) {
            "wal.read"
        } else {
            "state.read"
        };
        self.rec.time(
            name,
            || self.inner.read(key),
            |r| {
                r.as_ref()
                    .ok()
                    .and_then(|d| d.as_ref())
                    .map_or(0, |d| d.len() as u64)
            },
        )
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let name = if is_wal(prefix) {
            "wal.list"
        } else {
            "state.list"
        };
        self.rec.time(name, || self.inner.list(prefix), |_| 0)
    }

    fn delete(&self, key: &str) -> Result<()> {
        let name = if is_wal(key) {
            "wal.delete"
        } else {
            "state.delete"
        };
        self.rec.time(name, || self.inner.delete(key), |_| 0)
    }
}

/// Wrap a continuous-mode record sink: one `continuous.sink` span per
/// delivered row.
pub fn timed_record_sink(inner: RecordSink, rec: Arc<Recorder>) -> RecordSink {
    Arc::new(move |partition: u32, row: Row| {
        rec.time_in("continuous.sink", 0, || inner(partition, row), |_| 1)
    })
}
