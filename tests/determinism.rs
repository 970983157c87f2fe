//! Parallel-execution determinism matrix.
//!
//! The data-parallel scheduler's contract is that epoch output is
//! **byte-identical** to serial execution — same rows, same order —
//! for every worker count and shuffle-partition count, and that
//! restarting a checkpointed query with a *different* partition count
//! transparently repartitions the sharded state. These tests run the
//! same workloads across the {1, 2, 4, 8} × partition-count matrix and
//! compare raw (unsorted) sink bytes and state sizes against the
//! serial run.

use std::sync::Arc;

use structured_streaming::prelude::*;
use structured_streaming::ss_expr::Expr;

fn ts(seconds: i64) -> Value {
    Value::Timestamp(seconds * 1_000_000)
}

fn agg_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("key", DataType::Utf8),
        Field::new("v", DataType::Int64),
        Field::new("time", DataType::Timestamp),
    ])
}

/// Deterministic input: `n` rows spread over 7 keys and an advancing
/// (but out-of-order within each wave) event-time column.
fn feed_agg(bus: &MessageBus, n: u64, start: u64) {
    for i in start..start + n {
        let key = format!("k{}", i % 7);
        // Jitter event times so every wave has out-of-order rows.
        let t = (i as i64) + [3i64, -2, 0, 5, -1][(i % 5) as usize];
        bus.append(
            "in",
            (i % 3) as u32,
            vec![row![key, i as i64, ts(t.max(0))]],
        )
        .unwrap();
    }
}

/// Run the windowed aggregation to completion at the given parallelism
/// and return the sink rows in **delivery order** plus the final state
/// size.
fn run_windowed(
    window: &Expr,
    mode: OutputMode,
    parallelism: usize,
    partitions: usize,
) -> (Vec<Row>, u64) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 3).unwrap();
    let ctx = StreamingContext::new();
    let df = ctx
        .read_source(Arc::new(BusSource::new(bus.clone(), "in", agg_schema()).unwrap()))
        .unwrap()
        .with_watermark("time", "5 seconds")
        .unwrap()
        .group_by(vec![window.clone(), col("key")])
        .agg(vec![count_star(), sum(col("v"))]);
    let sink = MemorySink::new("out");
    let mut query = df
        .write_stream()
        .output_mode(mode)
        .sink(sink.clone())
        .parallelism(parallelism)
        .shuffle_partitions(partitions)
        .start_sync()
        .unwrap();
    let mut fed = 0u64;
    while fed < 120 {
        feed_agg(&bus, 15, fed);
        fed += 15;
        query.process_available().unwrap();
    }
    query.process_available().unwrap();
    let state = query.state_rows();
    query.stop().unwrap();
    (sink.snapshot(), state)
}

#[test]
fn windowed_aggregation_is_byte_identical_across_the_parallelism_matrix() {
    let windows = [
        window(col("time"), "10 seconds").unwrap(),
        window_sliding(col("time"), "10 seconds", "5 seconds").unwrap(),
    ];
    for w in &windows {
        for mode in [OutputMode::Append, OutputMode::Update, OutputMode::Complete] {
            let (expected, expected_state) = run_windowed(w, mode, 1, 1);
            assert!(
                !expected.is_empty(),
                "{w} {mode:?}: reference produced no rows"
            );
            // Worker count and partition count vary independently; several
            // combinations deliberately mismatch (skewed task/shard splits).
            for (p, s) in [(2, 2), (4, 4), (8, 8), (2, 8), (4, 2), (8, 3), (3, 1)] {
                let (got, state) = run_windowed(w, mode, p, s);
                assert_eq!(
                    got, expected,
                    "{w} {mode:?}: sink bytes diverged at parallelism={p} partitions={s}"
                );
                assert_eq!(
                    state, expected_state,
                    "{w} {mode:?}: state size diverged at parallelism={p} partitions={s}"
                );
            }
        }
    }
}

fn imp_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("imp_ad", DataType::Int64),
        Field::new("imp_time", DataType::Timestamp),
    ])
}

fn click_schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("click_ad", DataType::Int64),
        Field::new("click_time", DataType::Timestamp),
    ])
}

/// Run a watermarked left-outer stream–stream join to completion and
/// return the sink rows in delivery order plus final state size.
fn run_join(parallelism: usize, partitions: usize) -> (Vec<Row>, u64) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("impressions", 2).unwrap();
    bus.create_topic("clicks", 2).unwrap();
    let ctx = StreamingContext::new();
    let impressions = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "impressions", imp_schema()).unwrap(),
        ))
        .unwrap()
        .with_watermark("imp_time", "10 seconds")
        .unwrap();
    let clicks = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "clicks", click_schema()).unwrap(),
        ))
        .unwrap()
        .with_watermark("click_time", "10 seconds")
        .unwrap();
    let joined = impressions.join(
        &clicks,
        JoinType::LeftOuter,
        vec![(col("imp_ad"), col("click_ad"))],
    );
    let sink = MemorySink::new("out");
    let mut query = joined
        .write_stream()
        .output_mode(OutputMode::Append)
        .sink(sink.clone())
        .parallelism(parallelism)
        .shuffle_partitions(partitions)
        .start_sync()
        .unwrap();
    // Interleaved waves: some ads click (i % 3 == 0), some never do and
    // must surface NULL-extended once the watermark passes them.
    for wave in 0..8i64 {
        for i in 0..6i64 {
            let ad = wave * 6 + i;
            bus.append(
                "impressions",
                (ad % 2) as u32,
                vec![row![ad, ts(wave * 10 + i)]],
            )
            .unwrap();
            if ad % 3 == 0 {
                bus.append(
                    "clicks",
                    (ad % 2) as u32,
                    vec![row![ad, ts(wave * 10 + i + 2)]],
                )
                .unwrap();
            }
        }
        query.process_available().unwrap();
    }
    // Push both watermarks far past everything so outer rows drain.
    bus.append("impressions", 0, vec![row![9999i64, ts(500)]]).unwrap();
    bus.append("clicks", 0, vec![row![9999i64, ts(500)]]).unwrap();
    query.process_available().unwrap();
    bus.append("impressions", 0, vec![row![9998i64, ts(501)]]).unwrap();
    query.process_available().unwrap();
    let state = query.state_rows();
    query.stop().unwrap();
    (sink.snapshot(), state)
}

#[test]
fn stream_join_is_byte_identical_across_the_parallelism_matrix() {
    let (expected, expected_state) = run_join(1, 1);
    assert!(
        expected.iter().any(|r| r.get(2).is_null()),
        "reference must include NULL-extended outer rows"
    );
    for (p, s) in [(2, 2), (4, 4), (8, 8), (4, 7), (2, 3)] {
        let (got, state) = run_join(p, s);
        assert_eq!(
            got, expected,
            "join sink bytes diverged at parallelism={p} partitions={s}"
        );
        assert_eq!(
            state, expected_state,
            "join state size diverged at parallelism={p} partitions={s}"
        );
    }
}

/// Restarting from a checkpoint with a different partition count must
/// repartition the sharded state by shuffle hash: a query that lives
/// through partition counts 4 → 2 → 1 must end byte-identical to one
/// that ran serially without interruption.
#[test]
fn restart_across_partition_counts_repartitions_state() {
    let run_segmented = |counts: &[(usize, usize)]| -> Vec<Row> {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("in", 3).unwrap();
        let backend = Arc::new(MemoryBackend::new());
        let sink = MemorySink::new("out");
        let waves_per_segment = 9 / counts.len() as u64;
        let mut fed = 0u64;
        for (seg, &(p, s)) in counts.iter().enumerate() {
            let ctx = StreamingContext::new();
            let df = ctx
                .read_source(Arc::new(
                    BusSource::new(bus.clone(), "in", agg_schema()).unwrap(),
                ))
                .unwrap()
                .with_watermark("time", "5 seconds")
                .unwrap()
                .group_by(vec![window(col("time"), "10 seconds").unwrap(), col("key")])
                .agg(vec![count_star(), sum(col("v"))]);
            let mut query = df
                .write_stream()
                .output_mode(OutputMode::Append)
                .sink(sink.clone())
                .checkpoint(backend.clone())
                .parallelism(p)
                .shuffle_partitions(s)
                .start_sync()
                .unwrap();
            let waves = if seg == counts.len() - 1 {
                9 - fed / 15 // last segment takes the remainder
            } else {
                waves_per_segment
            };
            for _ in 0..waves {
                feed_agg(&bus, 15, fed);
                fed += 15;
                query.process_available().unwrap();
            }
            query.process_available().unwrap();
            query.stop().unwrap();
        }
        sink.snapshot()
    };
    let uninterrupted = run_segmented(&[(1, 1)]);
    assert!(!uninterrupted.is_empty());
    assert_eq!(
        run_segmented(&[(4, 4), (2, 2), (1, 1)]),
        uninterrupted,
        "4 → 2 → 1 restart chain diverged from the serial run"
    );
    assert_eq!(
        run_segmented(&[(1, 1), (4, 6), (2, 3)]),
        uninterrupted,
        "1 → 4 → 2 restart chain diverged from the serial run"
    );
}

fn dims_table(ctx: &StreamingContext) -> DataFrame {
    let schema = Schema::of(vec![
        Field::new("d_key", DataType::Utf8),
        Field::new("label", DataType::Utf8),
    ]);
    // k5 and k6 have no dimension row: inner joins drop them, outer
    // joins pad them.
    let rows: Vec<Row> = (0..5)
        .map(|k| row![format!("k{k}"), format!("dim-{k}")])
        .collect();
    ctx.read_table("dims", vec![RecordBatch::from_rows(schema, &rows).unwrap()])
        .unwrap()
}

/// The two stateless shapes of [`run_stateless`].
#[derive(Clone, Copy, Debug)]
enum StatelessShape {
    /// filter → project → watermark → left-outer static join with the
    /// stream on the probe (left) side: chunk-safe.
    StreamProbes,
    /// The same chain joined with the stream on the right: the output
    /// follows static-side order, so it must stay serial.
    StreamOnRight,
}

/// Run an Append-mode stateless query to completion and return the sink
/// rows in delivery order, plus whether any epoch ran a parallel map
/// stage (an `execute` → `map` phase in the epoch profile).
fn run_stateless(shape: StatelessShape, parallelism: usize, partitions: usize) -> (Vec<Row>, bool) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic("in", 3).unwrap();
    let ctx = StreamingContext::new();
    let dims = dims_table(&ctx);
    // A 2 s lateness bound against ±5 s jitter: every wave after the
    // first carries rows the watermark op drops.
    let stream = ctx
        .read_source(Arc::new(
            BusSource::new(bus.clone(), "in", agg_schema()).unwrap(),
        ))
        .unwrap()
        .filter(col("v").gt(lit(3i64)))
        .select(vec![
            col("key"),
            col("v").mul(lit(10i64)).alias("v10"),
            col("time"),
        ])
        .with_watermark("time", "2 seconds")
        .unwrap();
    let joined = match shape {
        StatelessShape::StreamProbes => {
            stream.join(&dims, JoinType::LeftOuter, vec![(col("key"), col("d_key"))])
        }
        StatelessShape::StreamOnRight => {
            dims.join(&stream, JoinType::Inner, vec![(col("d_key"), col("key"))])
        }
    };
    let sink = MemorySink::new("out");
    let mut query = joined
        .write_stream()
        .output_mode(OutputMode::Append)
        .sink(sink.clone())
        .parallelism(parallelism)
        .shuffle_partitions(partitions)
        .start_sync()
        .unwrap();
    let mut fed = 0u64;
    while fed < 120 {
        feed_agg(&bus, 15, fed);
        fed += 15;
        query.process_available().unwrap();
    }
    let ran_map_stage = query.profiles().iter().any(|p| {
        p.phases
            .iter()
            .any(|d| d.name == "map" && d.parent.as_deref() == Some("execute"))
    });
    query.stop().unwrap();
    (sink.snapshot(), ran_map_stage)
}

/// Pins the chunk-safety rule of stateless chains: a chain whose
/// stream probes every static join runs as a parallel map stage, one
/// with the stream on the static join's right side stays serial, and
/// both are byte-identical to serial execution everywhere in the
/// matrix.
#[test]
fn stateless_chains_are_byte_identical_and_parallel_only_when_chunk_safe() {
    for shape in [StatelessShape::StreamProbes, StatelessShape::StreamOnRight] {
        let (expected, ran_map_stage) = run_stateless(shape, 1, 1);
        assert!(
            !expected.is_empty(),
            "{shape:?}: reference produced no rows"
        );
        assert!(!ran_map_stage, "{shape:?}: the serial path ran a map stage");
        for (p, s) in [(2, 2), (4, 4), (8, 8), (2, 8), (4, 2), (8, 3), (3, 1)] {
            let (got, ran_map_stage) = run_stateless(shape, p, s);
            assert_eq!(
                got, expected,
                "{shape:?}: sink bytes diverged at parallelism={p} partitions={s}"
            );
            let chunk_safe = matches!(shape, StatelessShape::StreamProbes);
            assert_eq!(
                ran_map_stage, chunk_safe,
                "{shape:?}: map stage ran = {ran_map_stage} at parallelism={p} partitions={s}"
            );
        }
    }
    // The probe-side run pads unmatched keys; the right-side run drops
    // them and reorders columns, so the two shapes really differ.
    let (probes, _) = run_stateless(StatelessShape::StreamProbes, 1, 1);
    assert!(probes.iter().any(|r| r.get(3).is_null()));
}
