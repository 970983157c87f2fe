//! Data-parallel epoch execution: partitioned stages with a shuffle
//! exchange and sharded operator state.
//!
//! This is the engine-side half of the task scheduler (`ss-sched`
//! provides the worker pool). An epoch over a supported plan shape is
//! compiled into two stages:
//!
//! 1. **Map stage** — the epoch's input batch is split into row chunks
//!    and each chunk runs the plan's [`StatelessChain`] (shared with
//!    the serial operator tree through an `Arc`) on a worker. For
//!    stateful plans the map task also routes its rows by shuffle key:
//!    an aggregate chunk is split into one batch per reduce partition
//!    (`HashAggregator::partition_rows`, then `RecordBatch::take`), a
//!    join chunk into keyed delta rows.
//! 2. **Shuffle + reduce stage** — keys are placed by
//!    [`ss_common::shuffle_partition`], so every key is **owned by
//!    exactly one reduce partition**. Each reduce task runs the same
//!    stateful kernel serial execution runs (`aggregate_epoch` on the
//!    partition's concatenated batch, `execute_on_states` for joins),
//!    against that partition's sharded state-store namespace
//!    (`{op_id}/p{r}`, joins `{op_id}/p{r}-left/-right`). A row whose
//!    sliding windows fall in several partitions goes to each of them,
//!    and each shard aggregates only the window keys it owns.
//!
//! ## Determinism
//!
//! The merged epoch output is **byte-identical to serial execution**,
//! regardless of worker count or OS interleaving:
//!
//! * each partition's routed batches are concatenated in chunk order,
//!   so shuffled rows reach their owning reduce partition in original
//!   arrival order — each accumulator sees exactly the update sequence
//!   serial execution would have fed it (bit-exact even for
//!   non-associative float aggregation);
//! * aggregate shards emit key-sorted rows and keys never span shards,
//!   so concat-then-sort reproduces the serial (key-sorted) emission
//!   order; join shards emit [`TaggedRow`]s whose `(phase, idx, key,
//!   seq)` sort key reconstructs the serial emission sequence;
//! * the worker pool itself returns results in task-index order and
//!   resolves failures lowest-index-first.
//!
//! Plans whose chains are not `StatelessChain::is_chunk_safe`, or
//! that carry stateful UDFs, dedup or nested stateful operators, return
//! `None` from [`ParallelExec::try_build`] and fall back to the serial
//! path.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use ss_common::clock::ClockRef;
use ss_common::profile::{
    ShuffleProfile, PHASE_MAP, PHASE_MERGE, PHASE_REDUCE, PHASE_SHUFFLE_READ, PHASE_SHUFFLE_WRITE,
};
use ss_common::{
    shuffle_partition, Column, EpochTimer, FaultRegistry, MetricsRegistry, RecordBatch, Result,
    RetryPolicy, Row, SsError, TraceLog, Value,
};
use ss_exec::aggregate::HashAggregator;
use ss_exec::ops;
use ss_plan::SortKey;
use ss_sched::{failpoints, WorkerPool};
use ss_state::{OpState, StateEntry, StateStore};

use crate::chain::{ChainEnv, StatelessChain};
use crate::incremental::{aggregate_epoch, restore_aggregate, EpochContext, IncNode};
use crate::microbatch::retried;
use crate::sjoin::{KeyedDeltaRow, StreamJoinExec, TaggedRow};
use crate::watermark::WatermarkTracker;

/// A post-aggregate serial suffix (Complete-mode `Sort`/`Limit`),
/// applied to the merged output on the engine thread.
#[derive(Clone)]
enum SuffixOp {
    Sort(Vec<SortKey>),
    Limit(usize),
}

/// A plan compiled for partitioned execution.
enum ParallelPlan {
    /// Stateless: map chunks, concatenate in chunk order.
    Map { chain: Arc<StatelessChain> },
    /// Map → shuffle by group key → per-partition stateful aggregation.
    Aggregate {
        chain: Arc<StatelessChain>,
        op_id: String,
        /// Empty blueprint: map tasks route rows with it, and shards
        /// are cloned from it.
        template: Arc<HashAggregator>,
        /// One aggregator per reduce partition, holding only the keys
        /// that hash there.
        shards: Vec<HashAggregator>,
        suffix: Vec<SuffixOp>,
    },
    /// Two map sides → shuffle by join key → per-partition symmetric
    /// join against sharded buffers.
    Join {
        left_chain: Arc<StatelessChain>,
        right_chain: Arc<StatelessChain>,
        exec: StreamJoinExec,
    },
}

/// The data-parallel epoch executor: a worker pool plus the compiled
/// stage plan. Built once per query when `parallelism > 1` and the
/// plan shape is supported.
pub struct ParallelExec {
    pool: WorkerPool,
    partitions: usize,
    plan: ParallelPlan,
    registry: MetricsRegistry,
    faults: FaultRegistry,
    retry: RetryPolicy,
    clock: ClockRef,
    interrupt: Arc<AtomicBool>,
}

impl ParallelExec {
    /// Compile `root` for partitioned execution, or `None` when the
    /// plan contains a shape that cannot be chunked/sharded safely
    /// (the engine then stays on the serial path).
    #[allow(clippy::too_many_arguments)]
    pub fn try_build(
        root: &IncNode,
        parallelism: usize,
        partitions: usize,
        registry: &MetricsRegistry,
        trace: &TraceLog,
        faults: FaultRegistry,
        retry: RetryPolicy,
        clock: ClockRef,
        interrupt: Arc<AtomicBool>,
        soft_deadline: Option<Duration>,
        hard_deadline: Option<Duration>,
    ) -> Option<ParallelExec> {
        let partitions = partitions.max(1);
        let plan = compile(root)?;
        registry.describe(
            "ss_shuffle_rows_total",
            "Rows moved through the shuffle exchange between stages.",
        );
        registry.describe(
            "ss_shuffle_bytes_total",
            "Approximate bytes moved through the shuffle exchange.",
        );
        registry.describe(
            "ss_shuffle_key_skew_x1000",
            "Hottest reduce partition's rows over the mean, x1000 (last epoch).",
        );
        Some(ParallelExec {
            pool: WorkerPool::new(parallelism, Some(registry.clone()), Some(trace.clone()))
                .with_deadlines(soft_deadline, hard_deadline)
                .with_clock(clock.clone()),
            partitions,
            plan,
            registry: registry.clone(),
            faults,
            retry,
            clock,
            interrupt,
        })
    }

    /// Number of reduce partitions (= state shards) this executor runs
    /// with; recorded in the checkpoint manifest.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Execute one epoch, timing its stages (map, shuffle, reduce,
    /// merge), task skew and shuffle volume into `ctx.timer`.
    /// Byte-identical to `IncNode::execute_epoch` on the same inputs
    /// and state.
    pub fn execute_epoch(&mut self, ctx: &mut EpochContext<'_>) -> Result<RecordBatch> {
        let started = ctx.timer.now_us();
        // Disjoint borrows: the match below holds `&mut self.plan`, so
        // everything else the arms need is lifted out first.
        let pool = &self.pool;
        let partitions = self.partitions;
        let registry = self.registry.clone();
        let env = TaskEnv {
            faults: self.faults.clone(),
            retry: self.retry,
            clock: self.clock.clone(),
            interrupt: self.interrupt.clone(),
            registry: self.registry.clone(),
        };
        let (out, label) = match &mut self.plan {
            ParallelPlan::Map { chain } => {
                let input = bind_input(chain, ctx)?;
                let chunks = split_chunks(input, partitions);
                let results = scatter_map(pool, &env, chunks, chain, ctx.watermark_us, ctx.timer)?;
                let out = ctx.timer.phase(PHASE_MERGE, |_| {
                    let mut batches = Vec::with_capacity(results.len());
                    let mut maxima = Vec::new();
                    for (b, m) in results {
                        batches.push(b);
                        maxima.extend(m);
                    }
                    observe_maxima(ctx.tracker, maxima);
                    RecordBatch::concat(&batches)
                })?;
                (out, "parallel-map".to_string())
            }
            ParallelPlan::Aggregate {
                chain,
                op_id,
                template,
                shards,
                suffix,
            } => {
                let input = bind_input(chain, ctx)?;
                let chunks = split_chunks(input, partitions);
                let parts = partitions;

                // Map stage: chain, then route every row to the
                // partitions that own its group keys.
                let mut tasks: Vec<MapTask<AggMapOut>> = Vec::with_capacity(chunks.len());
                for chunk in chunks {
                    let chain = chain.clone();
                    let agg = template.clone();
                    let wm = ctx.watermark_us;
                    let TaskEnv {
                        faults,
                        retry,
                        clock,
                        interrupt,
                        registry,
                    } = env.clone();
                    tasks.push(Box::new(move || {
                        retried(&retry, &clock, &interrupt, &registry, "sched_task_run", || {
                            faults.fire(failpoints::TASK_RUN)
                        })?;
                        faults.fire(failpoints::TASK_HANG)?;
                        let (out, maxima) = apply_chunk(&chain, chunk, wm, &faults)?;
                        retried(&retry, &clock, &interrupt, &registry, "sched_shuffle_write", || {
                            faults.fire(failpoints::SHUFFLE_WRITE)
                        })?;
                        let t_write = clock.monotonic_us();
                        let batches = agg
                            .partition_rows(&out, parts)?
                            .iter()
                            .map(|rows| out.take(rows))
                            .collect::<Result<Vec<_>>>()?;
                        let write_us = clock.monotonic_us().saturating_sub(t_write);
                        Ok((batches, maxima, write_us))
                    }));
                }
                let map_out = scatter(pool, ctx.timer, PHASE_MAP, tasks)?;
                // Routing ran inside the map tasks: CPU time summed
                // across them.
                let write_us = map_out.iter().map(|(_, _, us)| us).sum();
                ctx.timer.add(PHASE_SHUFFLE_WRITE, write_us);

                // Shuffle: concatenate each partition's batches in chunk
                // order, so every key sees its rows in the original
                // global arrival order.
                let (shuffled, prof) = ctx.timer.phase(PHASE_SHUFFLE_READ, |_| -> Result<_> {
                    let mut routed: Vec<Vec<RecordBatch>> =
                        (0..parts).map(|_| Vec::new()).collect();
                    let mut maxima = Vec::new();
                    for (batches, m, _) in map_out {
                        for (r, b) in batches.into_iter().enumerate() {
                            routed[r].push(b);
                        }
                        maxima.extend(m);
                    }
                    observe_maxima(ctx.tracker, maxima);
                    let shuffled: Vec<RecordBatch> = routed
                        .iter()
                        .map(|b| RecordBatch::concat(b))
                        .collect::<Result<_>>()?;
                    let prof = ShuffleProfile::new(
                        shuffled.iter().map(|b| b.num_rows() as u64).collect(),
                        shuffled.iter().map(approx_batch_bytes).collect(),
                    );
                    Ok((shuffled, prof))
                })?;
                record_shuffle(&registry, op_id.as_str(), &prof);
                ctx.timer.profile.shuffle = Some(prof);

                // Reduce stage: every partition runs the serial
                // aggregate epoch over its shard and state shard.
                if shards.len() != parts {
                    // First epoch (or post-failure): build fresh shards.
                    *shards = (0..parts).map(|_| template.fresh_clone()).collect();
                }
                let shard_aggs = std::mem::take(shards);
                let mut tasks: Vec<MapTask<AggReduceOut>> = Vec::with_capacity(parts);
                for (r, (mut shard, delta)) in shard_aggs.into_iter().zip(shuffled).enumerate() {
                    let mut op = ctx.store.take_op(&shard_ns(op_id, r, parts, ""));
                    let owner = Some((r, parts));
                    let mode = ctx.output_mode;
                    let wm = ctx.watermark_us;
                    let TaskEnv {
                        faults,
                        retry,
                        clock,
                        interrupt,
                        registry,
                    } = env.clone();
                    tasks.push(Box::new(move || {
                        retried(&retry, &clock, &interrupt, &registry, "sched_task_run", || {
                            faults.fire(failpoints::TASK_RUN)
                        })?;
                        faults.fire(failpoints::TASK_HANG)?;
                        let out = aggregate_epoch(&mut shard, &mut op, &delta, owner, mode, wm)?;
                        Ok((shard, op, out.to_rows()))
                    }));
                }
                let red = scatter(pool, ctx.timer, PHASE_REDUCE, tasks)?;

                let batch = ctx.timer.phase(PHASE_MERGE, |_| -> Result<RecordBatch> {
                    let mut rows: Vec<Row> = Vec::new();
                    for (r, (shard, op, shard_rows)) in red.into_iter().enumerate() {
                        ctx.store.put_op(&shard_ns(op_id, r, parts, ""), op);
                        shards.push(shard);
                        rows.extend(shard_rows);
                    }
                    // Keys never span shards and every shard emits
                    // key-sorted rows (the window-end column is a
                    // function of window-start, so whole-row order ==
                    // key order): a global sort reproduces the serial
                    // emission order.
                    rows.sort();
                    let mut batch =
                        RecordBatch::from_rows(template.output_schema().clone(), &rows)?;
                    for s in suffix.iter() {
                        batch = match s {
                            SuffixOp::Sort(keys) => ops::sort_batch(&batch, keys)?,
                            SuffixOp::Limit(n) => ops::limit_batch(&batch, *n)?,
                        };
                    }
                    Ok(batch)
                })?;
                (batch, op_id.clone())
            }
            ParallelPlan::Join {
                left_chain,
                right_chain,
                exec,
            } => {
                let left_in = bind_input(left_chain, ctx)?;
                let right_in = bind_input(right_chain, ctx)?;
                let parts = partitions;
                let left_chunks = split_chunks(left_in, parts);
                let n_left = left_chunks.len();
                let right_chunks = split_chunks(right_in, parts);

                // Map stage, both sides in one scatter: chain + join-key
                // evaluation per chunk (indices local to the chunk).
                let mut tasks: Vec<MapTask<JoinMapOut>> =
                    Vec::with_capacity(n_left + right_chunks.len());
                for (is_left, chunk) in left_chunks
                    .into_iter()
                    .map(|c| (true, c))
                    .chain(right_chunks.into_iter().map(|c| (false, c)))
                {
                    let chain = if is_left { left_chain.clone() } else { right_chain.clone() };
                    let exec = exec.clone();
                    let wm = ctx.watermark_us;
                    let TaskEnv {
                        faults,
                        retry,
                        clock,
                        interrupt,
                        registry,
                    } = env.clone();
                    tasks.push(Box::new(move || {
                        retried(&retry, &clock, &interrupt, &registry, "sched_task_run", || {
                            faults.fire(failpoints::TASK_RUN)
                        })?;
                        faults.fire(failpoints::TASK_HANG)?;
                        let (out, maxima) = apply_chunk(&chain, chunk, wm, &faults)?;
                        let keyed = exec.prepare_side(&out, is_left, 0)?;
                        retried(&retry, &clock, &interrupt, &registry, "sched_shuffle_write", || {
                            faults.fire(failpoints::SHUFFLE_WRITE)
                        })?;
                        Ok((keyed, maxima))
                    }));
                }
                let map_out = scatter(pool, ctx.timer, PHASE_MAP, tasks)?;

                // Shuffle: restore global arrival indices (chunk order)
                // then bucket by join key. NULL-keyed rows shuffle on
                // their buffer key (`[NULL]`), so exactly one partition
                // owns their buffering and outer-row eviction. The
                // bucketing runs on the engine thread here (keys were
                // evaluated in the map tasks), so it's all shuffle-write.
                let (lbuckets, rbuckets, prof) = ctx.timer.phase(PHASE_SHUFFLE_WRITE, |_| {
                    let null_key = Row::new(vec![Value::Null]);
                    let mut lbuckets: Vec<Vec<KeyedDeltaRow>> =
                        (0..parts).map(|_| Vec::new()).collect();
                    let mut rbuckets: Vec<Vec<KeyedDeltaRow>> =
                        (0..parts).map(|_| Vec::new()).collect();
                    let mut maxima = Vec::new();
                    let (mut loff, mut roff) = (0u64, 0u64);
                    for (i, (keyed, m)) in map_out.into_iter().enumerate() {
                        maxima.extend(m);
                        let is_left = i < n_left;
                        let offset = if is_left { &mut loff } else { &mut roff };
                        let buckets = if is_left { &mut lbuckets } else { &mut rbuckets };
                        let n = keyed.len() as u64;
                        for (j, (_, key, row)) in keyed.into_iter().enumerate() {
                            let r = shuffle_partition(key.as_ref().unwrap_or(&null_key), parts);
                            buckets[r].push((*offset + j as u64, key, row));
                        }
                        *offset += n;
                    }
                    observe_maxima(ctx.tracker, maxima);
                    let part_rows: Vec<u64> = lbuckets
                        .iter()
                        .zip(&rbuckets)
                        .map(|(l, r)| (l.len() + r.len()) as u64)
                        .collect();
                    let part_bytes: Vec<u64> = lbuckets
                        .iter()
                        .zip(&rbuckets)
                        .map(|(l, r)| {
                            l.iter()
                                .chain(r.iter())
                                .map(|(_, _, row)| row.approx_bytes() as u64)
                                .sum()
                        })
                        .collect();
                    (lbuckets, rbuckets, ShuffleProfile::new(part_rows, part_bytes))
                });
                record_shuffle(&registry, exec.op_id.as_str(), &prof);
                ctx.timer.profile.shuffle = Some(prof);

                // Reduce stage: each partition probes/buffers/evicts
                // against its own `-left`/`-right` state shards.
                let mut tasks: Vec<MapTask<JoinReduceOut>> = Vec::with_capacity(parts);
                for (r, (lrows, rrows)) in
                    lbuckets.into_iter().zip(rbuckets).enumerate()
                {
                    let left_op = ctx.store.take_op(&shard_ns(&exec.op_id, r, parts, "-left"));
                    let right_op =
                        ctx.store.take_op(&shard_ns(&exec.op_id, r, parts, "-right"));
                    let exec = exec.clone();
                    let wm = ctx.watermark_us;
                    let TaskEnv {
                        faults,
                        retry,
                        clock,
                        interrupt,
                        registry,
                    } = env.clone();
                    tasks.push(Box::new(move || {
                        retried(&retry, &clock, &interrupt, &registry, "sched_task_run", || {
                            faults.fire(failpoints::TASK_RUN)
                        })?;
                        faults.fire(failpoints::TASK_HANG)?;
                        let mut left_op = left_op;
                        let mut right_op = right_op;
                        let tagged = exec.execute_on_states(
                            &lrows,
                            &rrows,
                            &mut left_op,
                            &mut right_op,
                            wm,
                        )?;
                        Ok((left_op, right_op, tagged))
                    }));
                }
                let red = scatter(pool, ctx.timer, PHASE_REDUCE, tasks)?;

                let batch = ctx.timer.phase(PHASE_MERGE, |_| {
                    let mut tagged: Vec<TaggedRow> = Vec::new();
                    for (r, (left_op, right_op, t)) in red.into_iter().enumerate() {
                        ctx.store
                            .put_op(&shard_ns(&exec.op_id, r, parts, "-left"), left_op);
                        ctx.store
                            .put_op(&shard_ns(&exec.op_id, r, parts, "-right"), right_op);
                        tagged.extend(t);
                    }
                    // `(phase, idx, key, seq)` is the serial emission order.
                    tagged.sort();
                    let rows: Vec<Row> = tagged.into_iter().map(|t| t.row).collect();
                    RecordBatch::from_rows(exec.output_schema.clone(), &rows)
                })?;
                (batch, exec.op_id.clone())
            }
        };
        ctx.timer.op(label, out.num_rows() as u64, started);
        Ok(out)
    }

    /// Rebuild shard state from the (restored, already repartitioned)
    /// state store — the parallel counterpart of
    /// `IncNode::restore_state`.
    pub fn restore_state(&mut self, store: &mut StateStore) -> Result<()> {
        let parts = self.partitions;
        match &mut self.plan {
            ParallelPlan::Map { chain } => chain.reset(),
            ParallelPlan::Join {
                left_chain,
                right_chain,
                ..
            } => {
                left_chain.reset();
                right_chain.reset();
            }
            ParallelPlan::Aggregate {
                chain,
                op_id,
                template,
                shards,
                ..
            } => {
                chain.reset();
                *shards = (0..parts).map(|_| template.fresh_clone()).collect();
                for (r, shard) in shards.iter_mut().enumerate() {
                    restore_aggregate(shard, store.operator(&shard_ns(op_id, r, parts, "")))?;
                }
            }
        }
        Ok(())
    }

}

/// Record one epoch's shuffle volume and skew into the registry.
fn record_shuffle(registry: &MetricsRegistry, op: &str, prof: &ShuffleProfile) {
    registry
        .counter("ss_shuffle_rows_total", &[("op", op)])
        .add(prof.total_rows());
    registry
        .counter("ss_shuffle_bytes_total", &[("op", op)])
        .add(prof.total_bytes());
    registry
        .gauge("ss_shuffle_key_skew_x1000", &[("op", op)])
        .set((prof.key_skew * 1000.0) as i64);
}

/// Cloneable environment every task closure captures: fail points,
/// retry policy (with the clock its backoffs sleep on and the
/// interrupt flag that cuts them short) and the metric registry the
/// retries report into.
#[derive(Clone)]
struct TaskEnv {
    faults: FaultRegistry,
    retry: RetryPolicy,
    clock: ClockRef,
    interrupt: Arc<AtomicBool>,
    registry: MetricsRegistry,
}

/// Run one stage's tasks as phase `stage` (`map` or `reduce`), folding
/// their durations into the epoch's task skew.
fn scatter<R: Send + 'static>(
    pool: &WorkerPool,
    timer: &mut EpochTimer,
    stage: &str,
    tasks: Vec<MapTask<R>>,
) -> Result<Vec<R>> {
    let out = timer.phase(stage, |_| pool.scatter(stage, tasks))?;
    timer.tasks(&out.task_us);
    Ok(out.results)
}

/// Scatter a stateless map stage (used by the `Map` plan).
fn scatter_map(
    pool: &WorkerPool,
    env: &TaskEnv,
    chunks: Vec<RecordBatch>,
    chain: &Arc<StatelessChain>,
    watermark_us: i64,
    timer: &mut EpochTimer,
) -> Result<Vec<ChainOut>> {
    let mut tasks: Vec<MapTask<ChainOut>> = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let chain = chain.clone();
        let TaskEnv {
            faults,
            retry,
            clock,
            interrupt,
            registry,
        } = env.clone();
        tasks.push(Box::new(move || {
            retried(&retry, &clock, &interrupt, &registry, "sched_task_run", || {
                faults.fire(failpoints::TASK_RUN)
            })?;
            faults.fire(failpoints::TASK_HANG)?;
            apply_chunk(&chain, chunk, watermark_us, &faults)
        }));
    }
    scatter(pool, timer, PHASE_MAP, tasks)
}

type MapTask<R> = Box<dyn FnOnce() -> Result<R> + Send>;
/// A stateless map task's output: the chunk after the chain, plus
/// per-column event-time maxima observed by watermark ops.
type ChainOut = (RecordBatch, Vec<(String, i64)>);
/// An aggregate map task's output: one batch per reduce partition,
/// watermark maxima, and the in-task shuffle-write routing time (µs,
/// engine clock).
type AggMapOut = (Vec<RecordBatch>, Vec<(String, i64)>, u64);
type AggReduceOut = (HashAggregator, OpState, Vec<Row>);
type JoinMapOut = (Vec<KeyedDeltaRow>, Vec<(String, i64)>);
type JoinReduceOut = (OpState, OpState, Vec<TaggedRow>);

/// The sharded state-store namespace for one reduce partition.
/// `partitions == 1` uses the serial unsharded layout, so a
/// single-partition parallel run reads and writes exactly the
/// namespaces serial execution does.
fn shard_ns(base: &str, r: usize, partitions: usize, suffix: &str) -> String {
    if partitions <= 1 {
        format!("{base}{suffix}")
    } else {
        format!("{base}/p{r}{suffix}")
    }
}

/// Approximate bytes of a shuffled batch, estimated per column: eight
/// per value, plus each string's payload.
fn approx_batch_bytes(batch: &RecordBatch) -> u64 {
    let bytes: usize = batch
        .columns()
        .iter()
        .map(|c| match c {
            Column::Utf8(s) => s.values().iter().map(|s| s.len() + 8).sum(),
            c => c.len() * 8,
        })
        .sum();
    bytes as u64
}

/// Apply a map stage's chain to one chunk, returning the output and
/// the chunk's watermark observations.
fn apply_chunk(
    chain: &StatelessChain,
    chunk: RecordBatch,
    watermark_us: i64,
    faults: &FaultRegistry,
) -> Result<ChainOut> {
    let mut env = ChainEnv::new(watermark_us, Some(faults));
    let out = chain.apply(chunk, &mut env)?;
    Ok((out, env.maxima))
}

/// Bind a map stage's epoch input through its chain's scan (recorded as
/// `scan:<name>`, as serial execution records it), priming the chain's
/// static-join caches on the engine thread first.
fn bind_input(chain: &StatelessChain, ctx: &mut EpochContext<'_>) -> Result<RecordBatch> {
    let scan = chain
        .scan()
        .ok_or_else(|| SsError::Internal("map stage without a scan".into()))?;
    chain.prime(ctx.statics)?;
    let started = ctx.timer.now_us();
    let input = scan.bind(ctx.inputs)?;
    let rows = input.num_rows() as u64;
    ctx.timer.op(format!("scan:{}", scan.name), rows, started);
    Ok(input)
}

/// Merge per-chunk watermark observations (max per column) and fold
/// them into the tracker, exactly once per column as serial execution
/// would.
fn observe_maxima(tracker: &mut WatermarkTracker, maxima: Vec<(String, i64)>) {
    let mut merged: BTreeMap<String, i64> = BTreeMap::new();
    for (column, v) in maxima {
        let e = merged.entry(column).or_insert(i64::MIN);
        *e = (*e).max(v);
    }
    for (column, v) in merged {
        if v > i64::MIN {
            tracker.observe(&column, v);
        }
    }
}

/// Split an epoch input into at most `parts` row chunks. An empty
/// batch still produces one (empty) chunk so stateful reduce stages run
/// (watermark-driven eviction happens on empty epochs too).
fn split_chunks(batch: RecordBatch, parts: usize) -> Vec<RecordBatch> {
    let rows = batch.num_rows();
    if rows == 0 {
        return vec![batch];
    }
    let chunk_rows = rows.div_ceil(parts.max(1)).max(1);
    batch.chunks(chunk_rows)
}

/// Compile an incremental operator tree into a stage plan, or `None`
/// when any node is not provably chunk-safe.
fn compile(root: &IncNode) -> Option<ParallelPlan> {
    // Peel a Complete-mode Sort/Limit suffix (valid only above an
    // aggregate; the analyzer enforces the mode).
    let mut suffix: Vec<SuffixOp> = Vec::new();
    let mut node = root;
    loop {
        match node {
            IncNode::Sort { input, keys } => {
                suffix.insert(0, SuffixOp::Sort(keys.clone()));
                node = input;
            }
            IncNode::Limit { input, n } => {
                suffix.insert(0, SuffixOp::Limit(*n));
                node = input;
            }
            _ => break,
        }
    }
    match node {
        IncNode::Aggregate { input, op_id, agg } => Some(ParallelPlan::Aggregate {
            chain: map_chain(input)?,
            op_id: op_id.clone(),
            template: Arc::new(agg.fresh_clone()),
            shards: Vec::new(),
            suffix,
        }),
        IncNode::StreamJoin { left, right, exec } if suffix.is_empty() => {
            Some(ParallelPlan::Join {
                left_chain: map_chain(left)?,
                right_chain: map_chain(right)?,
                exec: exec.clone(),
            })
        }
        _ if suffix.is_empty() => Some(ParallelPlan::Map {
            chain: map_chain(node)?,
        }),
        _ => None,
    }
}

/// The chain a map stage runs for `node`: `Some` only for a chain that
/// reads its scan directly and is chunk-safe. Stateful or
/// order-sensitive nodes in a map position (MapGroups: the UDF sees
/// arrival order per group across the whole epoch; Distinct:
/// first-wins races; nested aggregates/joins; Sort/Limit below a
/// stateful op) are `None`.
fn map_chain(node: &IncNode) -> Option<Arc<StatelessChain>> {
    match node {
        IncNode::Chain { input: None, chain } if chain.is_chunk_safe() => Some(chain.clone()),
        _ => None,
    }
}

/// The stateful operator families of a plan: `(namespace base,
/// namespace suffix)` per sharded state family. Used to repartition
/// checkpointed state when the partition count changes across restarts.
pub fn state_families(root: &IncNode) -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    collect_families(root, &mut out);
    out
}

fn collect_families(node: &IncNode, out: &mut Vec<(String, &'static str)>) {
    match node {
        IncNode::Aggregate { input, op_id, .. } => {
            out.push((op_id.clone(), ""));
            collect_families(input, out);
        }
        IncNode::StreamJoin { left, right, exec } => {
            out.push((exec.op_id.clone(), "-left"));
            out.push((exec.op_id.clone(), "-right"));
            collect_families(left, out);
            collect_families(right, out);
        }
        IncNode::Chain { input, .. } => {
            if let Some(input) = input {
                collect_families(input, out);
            }
        }
        IncNode::MapGroups { input, .. }
        | IncNode::Distinct { input, .. }
        | IncNode::Sort { input, .. }
        | IncNode::Limit { input, .. } => collect_families(input, out),
    }
}

/// Re-shard one state family to `to` partitions, whatever layout the
/// restored checkpoint is in.
///
/// Layout-agnostic on the source side: entries are gathered from the
/// unsharded namespace (`{base}{suffix}`) *and* every sharded one
/// (`{base}/p{r}{suffix}`) present in the store, then rehashed into
/// the target layout. This makes the operation idempotent and safe
/// against a crash between a checkpoint write (new layout on disk) and
/// its manifest write (still declaring the old partition count): if
/// the store already matches the target layout exactly, nothing moves.
///
/// Moves go through `OpState::remove`/`put`, so the store's dirty and
/// removed tracking stays correct and the next delta checkpoint
/// captures the migration.
pub fn repartition_family(
    store: &mut StateStore,
    base: &str,
    suffix: &str,
    to: usize,
) -> Result<()> {
    let to = to.max(1);
    let flat = format!("{base}{suffix}");
    let shard_prefix = format!("{base}/p");
    let sources: BTreeSet<String> = store
        .operator_ids()
        .into_iter()
        .filter(|id| {
            if *id == flat {
                return true;
            }
            id.strip_prefix(&shard_prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
                .is_some_and(|num| {
                    !num.is_empty() && num.bytes().all(|b| b.is_ascii_digit())
                })
        })
        .collect();
    let targets: BTreeSet<String> = if to == 1 {
        std::iter::once(flat.clone()).collect()
    } else {
        (0..to).map(|r| format!("{base}/p{r}{suffix}")).collect()
    };
    if sources == targets {
        return Ok(()); // already in the requested layout
    }
    let mut moved: Vec<(Row, StateEntry)> = Vec::new();
    for id in &sources {
        let op = store.operator(id);
        let keys: Vec<Row> = op.iter().map(|(k, _)| k.clone()).collect();
        for k in keys {
            if let Some(e) = op.remove(&k) {
                moved.push((k, e));
            }
        }
    }
    for (key, entry) in moved {
        let ns = if to == 1 {
            flat.clone()
        } else {
            format!("{base}/p{}{suffix}", shuffle_partition(&key, to))
        };
        store.operator(&ns).put(key, entry);
    }
    Ok(())
}
