//! The timing decorators must be transparent: they forward every trait
//! method (a missed forward silently runs a default method instead),
//! traced runs produce the same sink bytes as untraced runs, and the
//! times they measure from outside agree with the engine's own phases.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use perfbench::drain::{self, DrainSpec};
use perfbench::engine::start_yahoo;
use perfbench::inputs::{Inputs, TOPIC};
use perfbench::live::LiveSpec;
use perfbench::trace::{timed_record_sink, Recorder, TimedBackend, TimedSink, TimedSource};
use perfbench::{cont, live};
use ss_bus::{EpochOutput, MessageBus, Sink, Source};
use ss_common::{
    DataType, Field, OffsetRange, PartitionOffsets, RecordBatch, Result, Row, Schema, SchemaRef,
    Value,
};
use ss_core::continuous::RecordSink;
use ss_state::CheckpointBackend;

type Calls = Arc<Mutex<Vec<&'static str>>>;

fn take(calls: &Calls) -> Vec<&'static str> {
    std::mem::take(&mut *calls.lock().unwrap())
}

fn schema() -> SchemaRef {
    Schema::of(vec![Field::new("x", DataType::Int64)])
}

fn batch(n: i64) -> RecordBatch {
    let rows: Vec<Row> = (0..n).map(|i| Row::new(vec![Value::Int64(i)])).collect();
    RecordBatch::from_rows(schema(), &rows).unwrap()
}

/// Overrides every `Source` method and logs which one ran.
struct ProbeSource {
    calls: Calls,
    bus: Arc<MessageBus>,
}

impl ProbeSource {
    fn log(&self, m: &'static str) {
        self.calls.lock().unwrap().push(m);
    }
}

impl Source for ProbeSource {
    fn name(&self) -> &str {
        self.log("name");
        "probe"
    }
    fn schema(&self) -> SchemaRef {
        self.log("schema");
        schema()
    }
    fn num_partitions(&self) -> u32 {
        self.log("num_partitions");
        3
    }
    fn latest_offsets(&self) -> Result<PartitionOffsets> {
        self.log("latest_offsets");
        Ok([(0, 10)].into_iter().collect())
    }
    fn earliest_offsets(&self) -> Result<PartitionOffsets> {
        self.log("earliest_offsets");
        Ok([(0, 2)].into_iter().collect())
    }
    fn read_partition(&self, _p: u32, _s: u64, _e: u64) -> Result<RecordBatch> {
        self.log("read_partition");
        Ok(batch(1))
    }
    fn bus_binding(&self) -> Option<(Arc<MessageBus>, String)> {
        self.log("bus_binding");
        Some((self.bus.clone(), "probe-topic".into()))
    }
    fn read_partition_projected(
        &self,
        _p: u32,
        _s: u64,
        _e: u64,
        _projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        self.log("read_partition_projected");
        Ok(batch(2))
    }
    fn read(&self, _range: &OffsetRange) -> Result<Vec<RecordBatch>> {
        self.log("read");
        Ok(vec![batch(3)])
    }
    fn read_projected(
        &self,
        _range: &OffsetRange,
        _projection: Option<&[usize]>,
    ) -> Result<Vec<RecordBatch>> {
        self.log("read_projected");
        Ok(vec![batch(4)])
    }
    fn ingest_bounds(&self, _range: &OffsetRange) -> Result<Option<(i64, i64)>> {
        self.log("ingest_bounds");
        Ok(Some((5, 6)))
    }
    fn read_all_projected(
        &self,
        _range: &OffsetRange,
        _projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        self.log("read_all_projected");
        Ok(batch(7))
    }
}

#[test]
fn source_decorator_forwards_every_method() {
    let calls: Calls = Arc::default();
    let bus = Arc::new(MessageBus::new());
    let rec = Recorder::new();
    let src = TimedSource::new(
        Arc::new(ProbeSource {
            calls: calls.clone(),
            bus: bus.clone(),
        }),
        rec.clone(),
    );
    let range = OffsetRange {
        start: [(0, 0)].into_iter().collect(),
        end: [(0, 4)].into_iter().collect(),
    };
    let proj: &[usize] = &[0];

    assert_eq!(src.name(), "probe");
    assert_eq!(take(&calls), ["name"]);
    src.schema();
    assert_eq!(take(&calls), ["schema"]);
    assert_eq!(src.num_partitions(), 3);
    assert_eq!(take(&calls), ["num_partitions"]);
    assert_eq!(src.latest_offsets().unwrap()[&0], 10);
    assert_eq!(take(&calls), ["latest_offsets"]);
    assert_eq!(src.earliest_offsets().unwrap()[&0], 2);
    assert_eq!(take(&calls), ["earliest_offsets"]);
    assert_eq!(src.read_partition(0, 0, 1).unwrap().num_rows(), 1);
    assert_eq!(take(&calls), ["read_partition"]);
    let (b, topic) = src.bus_binding().expect("binding forwarded");
    assert!(Arc::ptr_eq(&b, &bus) && topic == "probe-topic");
    assert_eq!(take(&calls), ["bus_binding"]);
    assert_eq!(
        src.read_partition_projected(0, 0, 2, Some(proj))
            .unwrap()
            .num_rows(),
        2
    );
    assert_eq!(take(&calls), ["read_partition_projected"]);
    assert_eq!(src.read(&range).unwrap()[0].num_rows(), 3);
    assert_eq!(take(&calls), ["read"]);
    assert_eq!(
        src.read_projected(&range, Some(proj)).unwrap()[0].num_rows(),
        4
    );
    assert_eq!(take(&calls), ["read_projected"]);
    assert_eq!(src.ingest_bounds(&range).unwrap(), Some((5, 6)));
    assert_eq!(take(&calls), ["ingest_bounds"]);
    assert_eq!(
        src.read_all_projected(&range, Some(proj))
            .unwrap()
            .num_rows(),
        7
    );
    assert_eq!(take(&calls), ["read_all_projected"]);

    // After reading up to offset 4 of partition 0, the lag against the
    // latest offset 10 is 6 records.
    src.latest_offsets().unwrap();
    let spans = rec.spans();
    let lag = spans
        .iter()
        .rev()
        .find(|s| s.name == "source.latest_offsets")
        .unwrap();
    assert_eq!(lag.count, 6);
    let reads: u64 = spans
        .iter()
        .filter(|s| s.name == "source.read")
        .map(|s| s.count)
        .sum();
    assert_eq!(reads, 1 + 2 + 3 + 4 + 7);
}

struct ProbeSink {
    calls: Calls,
}

impl Sink for ProbeSink {
    fn name(&self) -> &str {
        self.calls.lock().unwrap().push("name");
        "probe-sink"
    }
    fn commit_epoch(&self, _epoch: u64, _output: &EpochOutput) -> Result<()> {
        self.calls.lock().unwrap().push("commit_epoch");
        Ok(())
    }
    fn truncate_after(&self, _epoch: u64) -> Result<()> {
        self.calls.lock().unwrap().push("truncate_after");
        Ok(())
    }
    fn rows_written(&self) -> u64 {
        self.calls.lock().unwrap().push("rows_written");
        42
    }
}

#[test]
fn sink_decorator_forwards_every_method() {
    let calls: Calls = Arc::default();
    let sink = TimedSink::new(
        Arc::new(ProbeSink {
            calls: calls.clone(),
        }),
        Recorder::new(),
    );
    assert_eq!(sink.name(), "probe-sink");
    sink.commit_epoch(1, &EpochOutput::Append(batch(3)))
        .unwrap();
    sink.truncate_after(0).unwrap();
    assert_eq!(sink.rows_written(), 42);
    assert_eq!(
        take(&calls),
        ["name", "commit_epoch", "truncate_after", "rows_written"]
    );
}

struct ProbeBackend {
    calls: Calls,
}

impl CheckpointBackend for ProbeBackend {
    fn write_atomic(&self, _key: &str, _data: &[u8]) -> Result<()> {
        self.calls.lock().unwrap().push("write_atomic");
        Ok(())
    }
    fn read(&self, _key: &str) -> Result<Option<Vec<u8>>> {
        self.calls.lock().unwrap().push("read");
        Ok(Some(vec![1, 2, 3]))
    }
    fn list(&self, _prefix: &str) -> Result<Vec<String>> {
        self.calls.lock().unwrap().push("list");
        Ok(vec!["wal/a".into()])
    }
    fn delete(&self, _key: &str) -> Result<()> {
        self.calls.lock().unwrap().push("delete");
        Ok(())
    }
}

#[test]
fn backend_decorator_forwards_every_method_and_splits_wal_from_state() {
    let calls: Calls = Arc::default();
    let rec = Recorder::new();
    let b = TimedBackend::new(
        Arc::new(ProbeBackend {
            calls: calls.clone(),
        }),
        rec.clone(),
    );
    b.write_atomic("wal/offsets/epoch-1.json", b"abcd").unwrap();
    b.write_atomic("state/chk-1", b"xy").unwrap();
    assert_eq!(b.read("MANIFEST.json").unwrap(), Some(vec![1, 2, 3]));
    assert_eq!(b.list("wal/").unwrap(), ["wal/a"]);
    b.delete("state/chk-0").unwrap();
    assert_eq!(
        take(&calls),
        ["write_atomic", "write_atomic", "read", "list", "delete"]
    );
    let spans: Vec<(&str, u64)> = rec.spans().iter().map(|s| (s.name, s.count)).collect();
    assert_eq!(
        spans,
        [
            ("wal.write", 4),
            ("state.write", 2),
            ("state.read", 3),
            ("wal.list", 0),
            ("state.delete", 0)
        ]
    );
}

#[test]
fn record_sink_decorator_forwards_rows() {
    let seen: Arc<Mutex<Vec<(u32, Row)>>> = Arc::default();
    let inner: RecordSink = {
        let seen = seen.clone();
        Arc::new(move |p, row| {
            seen.lock().unwrap().push((p, row));
            Ok(())
        })
    };
    let rec = Recorder::new();
    let sink = timed_record_sink(inner, rec.clone());
    sink(3, Row::new(vec![Value::Int64(9)])).unwrap();
    assert_eq!(
        *seen.lock().unwrap(),
        [(3, Row::new(vec![Value::Int64(9)]))]
    );
    assert_eq!(rec.spans()[0].name, "continuous.sink");
}

const SMALL_DRAIN: DrainSpec = DrainSpec {
    partitions: 4,
    per_partition: 5_000,
    parallelism: 1,
    warmup_reps: 0,
    min_reps: 2,
};

#[test]
fn traced_drains_match_untraced_output_byte_for_byte() {
    let inputs = Inputs::from_seed(11);
    for parallelism in [1, 2] {
        let spec = DrainSpec {
            parallelism,
            ..SMALL_DRAIN
        };
        let plain = drain::run(&inputs, &spec, 0.0, None);
        let traced = drain::run(&inputs, &spec, 0.0, Some(&Recorder::new()));
        for run in [&plain, &traced] {
            assert!(run.errors.is_empty(), "{:?}", run.errors);
            assert_eq!(run.failed, 0);
            assert_eq!(run.attempted, 2 * spec.records());
        }
        assert!(!plain.output.is_empty());
        assert_eq!(plain.output, traced.output, "parallelism {parallelism}");
    }
}

const SMALL_LIVE: LiveSpec = LiveSpec {
    rate: 20_000.0,
    partitions: 4,
    tick: Duration::from_micros(500),
    trigger: Duration::from_millis(5),
    warmup: Duration::from_millis(200),
    window: Duration::from_millis(250),
    setup_reps: 3,
    drain_deadline: Duration::from_secs(5),
};

#[test]
fn traced_live_runs_match_untraced_output_byte_for_byte() {
    let inputs = Inputs::from_seed(12);
    let plain = live::run(&inputs, &SMALL_LIVE, 1.0, None);
    let traced = live::run(&inputs, &SMALL_LIVE, 1.0, Some(&Recorder::new()));
    for run in [&plain, &traced] {
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(run.failed, 0);
        assert!(run.value("latency_p99_ms") > 0.0);
    }
    assert_eq!(plain.output, traced.output);

    let spec = LiveSpec {
        partitions: 1,
        ..SMALL_LIVE
    };
    let plain = cont::run(&inputs, &spec, 1.0, None);
    let traced = cont::run(&inputs, &spec, 1.0, Some(&Recorder::new()));
    for run in [&plain, &traced] {
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(run.failed, 0);
    }
    assert_eq!(plain.output, traced.output);
}

/// The outside-measured source read and sink commit agree with the
/// engine's `source-read` and `sink-commit` phases within 25% + 100 µs.
/// The WAL and state decorators see only the backend calls, a subset
/// of the `wal` and `state-commit` phases (which also encode records
/// and walk state), so for them the outside time must not exceed the
/// phase by more than the phases' per-call µs truncation.
#[test]
fn outside_times_agree_with_engine_phases() {
    let inputs = Inputs::from_seed(13);
    let rec = Recorder::new();
    let bus = Arc::new(MessageBus::new());
    bus.create_topic(TOPIC, 4).unwrap();
    let mut yq = start_yahoo(&inputs, bus.clone(), 1, Some(&rec)).unwrap();
    let per_chunk = 5_000u64;
    for chunk in 0..8u64 {
        for p in 0..4 {
            bus.append(
                TOPIC,
                p,
                inputs.rows(p, chunk * per_chunk, (chunk + 1) * per_chunk),
            )
            .unwrap();
        }
        assert!(yq.step(chunk + 1, Some(&rec)).unwrap() > 0);
    }
    let mut phase_us: BTreeMap<String, f64> = BTreeMap::new();
    let profiles = yq.query.profiles();
    assert_eq!(profiles.len(), 8);
    for p in &profiles {
        for d in p.phases.iter().filter(|d| d.parent.is_none()) {
            *phase_us.entry(d.name.clone()).or_default() += d.duration_us as f64;
        }
    }
    let spans = rec.spans();
    let outside = |pred: &dyn Fn(&str) -> bool| -> (f64, usize) {
        let hits: Vec<_> = spans
            .iter()
            .filter(|s| s.epoch != 0 && pred(s.name))
            .collect();
        (hits.iter().map(|s| s.ns() as f64 / 1e3).sum(), hits.len())
    };
    let close = |what: &str, (out, _): (f64, usize), phase: f64| {
        assert!(
            (out - phase).abs() <= 0.25 * phase + 100.0,
            "{what}: outside {out:.0} µs vs engine phase {phase:.0} µs"
        );
    };
    close(
        "source",
        outside(&|n| n == "source.read" || n == "source.ingest_bounds"),
        phase_us["source-read"],
    );
    close(
        "sink",
        outside(&|n| n == "sink.commit"),
        phase_us["sink-commit"],
    );
    let subset = |what: &str, (out, calls): (f64, usize), phase: f64| {
        assert!(calls > 0, "{what}: no backend calls seen");
        assert!(
            out <= phase + calls as f64,
            "{what}: outside {out:.0} µs exceeds engine phase {phase:.0} µs"
        );
    };
    subset("wal", outside(&|n| n.starts_with("wal.")), phase_us["wal"]);
    subset(
        "state",
        outside(&|n| n.starts_with("state.")),
        phase_us["state-commit"],
    );
}
