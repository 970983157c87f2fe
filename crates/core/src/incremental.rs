//! The incrementalizer (§5.2): mapping an analyzed, optimized logical
//! plan onto a tree of *incremental* operators that update the result
//! in time proportional to the new data per trigger.
//!
//! "The engine uses Catalyst transformation rules to map these
//! supported queries into trees of physical operators that perform both
//! computation and state management." The mapping implemented here:
//!
//! | Logical node | Incremental operator |
//! |---|---|
//! | streaming `Scan`, `Filter`, `Project`, `Watermark`, stream×static `Join` | one [`StatelessChain`] per stateless run ([`crate::chain`]); the static side runs once via the batch engine and is cached |
//! | `Aggregate` | `StatefulAggregate`: a [`HashAggregator`] whose groups live in the state store; emission follows the query's output mode |
//! | stream×stream `Join` | symmetric stateful join ([`StreamJoinExec`]) |
//! | `MapGroupsWithState` | stateful UDF operator ([`crate::stateful`]) |
//! | `Distinct` | stateful dedup (seen-set in the state store) |
//! | `Sort`/`Limit` | applied to the per-epoch output (Complete mode only, enforced at analysis) |
//!
//! Each stateful operator is assigned a stable `op_id` so its state
//! store entries survive restarts. Per §5.2, the *internal* output
//! mode of each operator is inferred here — users never specify
//! intra-DAG modes.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ss_common::{EpochTimer, FaultRegistry, RecordBatch, Result, SchemaRef, SsError};
use ss_exec::aggregate::HashAggregator;
use ss_exec::executor::Catalog;
use ss_exec::ops;
use ss_plan::stateful::StatefulOpDef;
use ss_plan::{LogicalPlan, OutputMode, SortKey};
use ss_state::{OpState, StateEntry, StateStore};

use crate::chain::{ChainEnv, StatelessChain};
use crate::sjoin::{JoinSide, StreamJoinExec};
use crate::stateful::execute_map_groups;
use crate::watermark::WatermarkTracker;

/// Everything one epoch's execution can see.
pub struct EpochContext<'a> {
    pub epoch: u64,
    /// Streaming scan name → this epoch's new rows (one concatenated
    /// batch per source, already projected to the scan's columns).
    /// Scans *take* their batch out of the map (no copy); only scans
    /// marked shared clone it.
    pub inputs: &'a mut HashMap<String, RecordBatch>,
    /// Static tables for the batch-executed side of stream–static
    /// joins.
    pub statics: &'a dyn Catalog,
    pub store: &'a mut StateStore,
    /// The watermark in force for this epoch (advanced at epoch
    /// boundaries).
    pub watermark_us: i64,
    pub processing_time_us: i64,
    pub output_mode: OutputMode,
    /// Event-time maxima observed while running this epoch; folded into
    /// the [`WatermarkTracker`] at the epoch boundary.
    pub tracker: &'a mut WatermarkTracker,
    /// The epoch's timer: operators record their rows and inclusive
    /// time into it (§7.4).
    pub timer: &'a mut EpochTimer,
    /// Fail-point registry: stateless eval arms fire
    /// `exec.record.eval` so the chaos suite can poison evaluation.
    pub faults: &'a FaultRegistry,
}

/// A tree of incremental operators.
pub enum IncNode {
    /// A stateless run: the input operator's output (or, with no input,
    /// the chain's streaming scan) through the chain's ops. Shared by
    /// reference with the parallel executor's map tasks.
    Chain {
        input: Option<Box<IncNode>>,
        chain: Arc<StatelessChain>,
    },
    StreamJoin {
        left: Box<IncNode>,
        right: Box<IncNode>,
        exec: StreamJoinExec,
    },
    Aggregate {
        input: Box<IncNode>,
        op_id: String,
        agg: HashAggregator,
    },
    MapGroups {
        input: Box<IncNode>,
        op_id: String,
        op: StatefulOpDef,
    },
    Distinct {
        input: Box<IncNode>,
        op_id: String,
        schema: SchemaRef,
    },
    Sort {
        input: Box<IncNode>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<IncNode>,
        n: usize,
    },
}

impl IncNode {
    /// The operator's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            IncNode::Chain { chain, .. } => chain.output_schema(),
            IncNode::Sort { input, .. } | IncNode::Limit { input, .. } => input.schema(),
            IncNode::StreamJoin { exec, .. } => exec.output_schema.clone(),
            IncNode::Aggregate { agg, .. } => agg.output_schema().clone(),
            IncNode::MapGroups { op, .. } => op.output_schema.clone(),
            IncNode::Distinct { schema, .. } => schema.clone(),
        }
    }

    /// The operator's stable metric label. Nodes with inherent identity
    /// (stateful op_ids) use it; the others are disambiguated with
    /// their post-order record sequence number, which is deterministic
    /// for a fixed plan. `None` for chains, which record their scan and
    /// every op themselves.
    fn op_label(&self, seq: usize) -> Option<String> {
        Some(match self {
            IncNode::Chain { .. } => return None,
            IncNode::StreamJoin { exec, .. } => exec.op_id.clone(),
            IncNode::Aggregate { op_id, .. }
            | IncNode::MapGroups { op_id, .. }
            | IncNode::Distinct { op_id, .. } => op_id.clone(),
            IncNode::Sort { .. } => format!("sort#{seq}"),
            IncNode::Limit { .. } => format!("limit#{seq}"),
        })
    }

    /// Execute one epoch, returning this operator's output delta (or,
    /// for Complete-mode aggregates and their parents, the full
    /// table). Records this operator's rows/duration into `ctx.timer`.
    pub fn execute_epoch(&mut self, ctx: &mut EpochContext<'_>) -> Result<RecordBatch> {
        let started = ctx.timer.now_us();
        let out = self.execute_op(ctx)?;
        if let Some(label) = self.op_label(ctx.timer.ops.len()) {
            ctx.timer.op(label, out.num_rows() as u64, started);
        }
        Ok(out)
    }

    fn execute_op(&mut self, ctx: &mut EpochContext<'_>) -> Result<RecordBatch> {
        match self {
            IncNode::Chain { input, chain } => execute_chain(input.as_deref_mut(), chain, ctx),
            IncNode::StreamJoin { left, right, exec } => {
                let l = left.execute_epoch(ctx)?;
                let r = right.execute_epoch(ctx)?;
                exec.execute_epoch(&l, &r, ctx.store, ctx.watermark_us)
            }
            IncNode::Aggregate { input, op_id, agg } => {
                let delta = input.execute_epoch(ctx)?;
                aggregate_epoch(
                    agg,
                    ctx.store.operator(op_id),
                    &delta,
                    None,
                    ctx.output_mode,
                    ctx.watermark_us,
                )
            }
            IncNode::MapGroups { input, op_id, op } => {
                let delta = input.execute_epoch(ctx)?;
                execute_map_groups(
                    op,
                    op_id,
                    &delta,
                    ctx.store,
                    ctx.watermark_us,
                    ctx.processing_time_us,
                )
            }
            IncNode::Distinct {
                input,
                op_id,
                schema,
            } => {
                let delta = input.execute_epoch(ctx)?;
                let op = ctx.store.operator(op_id);
                let mut keep = Vec::with_capacity(delta.num_rows());
                for i in 0..delta.num_rows() {
                    let row = delta.row(i);
                    if op.get(&row).is_none() {
                        op.put(row, StateEntry::new(vec![]));
                        keep.push(true);
                    } else {
                        keep.push(false);
                    }
                }
                let out = delta.filter(&keep)?;
                debug_assert_eq!(out.schema().fields(), schema.fields());
                Ok(out)
            }
            IncNode::Sort { input, keys } => {
                let batch = input.execute_epoch(ctx)?;
                ops::sort_batch(&batch, keys)
            }
            IncNode::Limit { input, n } => {
                let batch = input.execute_epoch(ctx)?;
                ops::limit_batch(&batch, *n)
            }
        }
    }

    /// Rebuild in-memory operator state from the (restored) state
    /// store — §6.1 step 4.
    pub fn restore_state(&mut self, store: &mut StateStore) -> Result<()> {
        match self {
            IncNode::Aggregate { input, op_id, agg } => {
                restore_aggregate(agg, store.operator(op_id))?;
                input.restore_state(store)
            }
            IncNode::Chain { input, chain } => {
                chain.reset();
                match input {
                    Some(input) => input.restore_state(store),
                    None => Ok(()),
                }
            }
            IncNode::MapGroups { input, .. }
            | IncNode::Distinct { input, .. }
            | IncNode::Sort { input, .. }
            | IncNode::Limit { input, .. } => input.restore_state(store),
            IncNode::StreamJoin { left, right, .. } => {
                left.restore_state(store)?;
                right.restore_state(store)
            }
        }
    }

    /// Column projections to push into each source read: scan name →
    /// projection (`None` = all columns; a name scanned with different
    /// projections also maps to `None`).
    pub fn scan_projections(&self) -> HashMap<String, Option<Vec<usize>>> {
        let mut out: HashMap<String, Option<Vec<usize>>> = HashMap::new();
        self.collect_scan_projections(&mut out);
        out
    }

    fn collect_scan_projections(&self, out: &mut HashMap<String, Option<Vec<usize>>>) {
        match self {
            IncNode::Chain { input, chain } => {
                if let Some(input) = input {
                    input.collect_scan_projections(out);
                }
                if let Some(scan) = chain.scan() {
                    match out.get(&scan.name) {
                        None => {
                            out.insert(scan.name.clone(), scan.projection.clone());
                        }
                        Some(existing) if *existing != scan.projection => {
                            out.insert(scan.name.clone(), None);
                        }
                        Some(_) => {}
                    }
                }
            }
            IncNode::StreamJoin { left, right, .. } => {
                left.collect_scan_projections(out);
                right.collect_scan_projections(out);
            }
            IncNode::Aggregate { input, .. }
            | IncNode::MapGroups { input, .. }
            | IncNode::Distinct { input, .. }
            | IncNode::Sort { input, .. }
            | IncNode::Limit { input, .. } => input.collect_scan_projections(out),
        }
    }

    /// Any processing-time timeouts pending at `processing_time_us`?
    /// (Used to run an epoch even when no new data arrived.)
    pub fn has_pending_timeouts(
        &self,
        store: &mut StateStore,
        processing_time_us: i64,
    ) -> bool {
        match self {
            IncNode::MapGroups { input, op_id, op } => {
                let pending = matches!(
                    op.timeout,
                    ss_plan::StateTimeout::ProcessingTime
                ) && !store
                    .operator(op_id)
                    .expired_keys(processing_time_us)
                    .is_empty();
                pending || input.has_pending_timeouts(store, processing_time_us)
            }
            IncNode::Chain { input, .. } => input
                .as_ref()
                .is_some_and(|i| i.has_pending_timeouts(store, processing_time_us)),
            IncNode::StreamJoin { left, right, .. } => {
                left.has_pending_timeouts(store, processing_time_us)
                    || right.has_pending_timeouts(store, processing_time_us)
            }
            IncNode::Aggregate { input, .. }
            | IncNode::Distinct { input, .. }
            | IncNode::Sort { input, .. }
            | IncNode::Limit { input, .. } => {
                input.has_pending_timeouts(store, processing_time_us)
            }
        }
    }

    /// Positions (in the final output schema) of the columns that act
    /// as the upsert key for Update-mode sinks: the aggregate's group
    /// columns when they survive to the output, else the whole row.
    pub fn update_key_columns(&self, final_schema: &ss_common::Schema) -> Vec<usize> {
        // Find the aggregate (there is at most one, per §5.2).
        fn find_agg(node: &IncNode) -> Option<&HashAggregator> {
            match node {
                IncNode::Aggregate { agg, .. } => Some(agg),
                IncNode::Chain { input, .. } => input.as_deref().and_then(find_agg),
                IncNode::StreamJoin { left, right, .. } => {
                    find_agg(left).or_else(|| find_agg(right))
                }
                IncNode::MapGroups { input, .. }
                | IncNode::Distinct { input, .. }
                | IncNode::Sort { input, .. }
                | IncNode::Limit { input, .. } => find_agg(input),
            }
        }
        if let Some(agg) = find_agg(self) {
            let agg_schema = agg.output_schema();
            // Group columns are the prefix of the aggregate schema,
            // before the aggregate expressions.
            let key_names: Vec<&str> = agg_schema
                .fields()
                .iter()
                .take(agg.num_key_columns())
                .map(|f| f.name.as_str())
                .collect();
            let positions: Vec<usize> = key_names
                .iter()
                .filter_map(|n| final_schema.index_of(n).ok())
                .collect();
            if !positions.is_empty() {
                return positions;
            }
        }
        (0..final_schema.len()).collect()
    }
}

/// One epoch of `StatefulAggregate` (§5.2) over `agg` and its state
/// namespace `op`, shared by the serial operator and every parallel
/// reduce shard (which passes its `owner`, see
/// [`HashAggregator::ingest`]): ingest `delta`, write changed groups
/// through to `op`, emit per output mode, and evict from `op` exactly
/// the groups the aggregator dropped behind the watermark.
pub(crate) fn aggregate_epoch(
    agg: &mut HashAggregator,
    op: &mut OpState,
    delta: &RecordBatch,
    owner: Option<(usize, usize)>,
    mode: OutputMode,
    watermark_us: i64,
) -> Result<RecordBatch> {
    agg.ingest(delta, owner)?;
    let changed = agg.take_changed();
    for key in &changed {
        let states = agg
            .state_for_key(key)
            .ok_or_else(|| SsError::Internal("changed key missing".into()))?;
        op.put(key.clone(), StateEntry::new(states));
    }
    let (out, evicted) = match mode {
        OutputMode::Complete => (agg.finish_all()?, Vec::new()),
        OutputMode::Update => {
            let out = agg.output_for_keys(&changed)?;
            // Before the first watermark nothing can expire.
            let evicted = if watermark_us > i64::MIN {
                agg.evict_expired(watermark_us)
            } else {
                Vec::new()
            };
            (out, evicted)
        }
        OutputMode::Append => agg.drain_finalized(watermark_us)?,
    };
    for k in &evicted {
        op.evict(k);
    }
    Ok(out)
}

/// Rebuild `agg` from its (restored) state namespace `op` — §6.1 step 4
/// for the serial operator and for each parallel shard.
pub(crate) fn restore_aggregate(agg: &mut HashAggregator, op: &OpState) -> Result<()> {
    agg.clear();
    for (key, entry) in op.iter() {
        agg.restore_entry(key.clone(), &entry.values)?;
    }
    Ok(())
}

/// Run one epoch through a chain: its input operator (or its scan,
/// recorded as `scan:<name>`), then each op, recording every op with
/// inclusive timing from the chain's start.
fn execute_chain(
    input: Option<&mut IncNode>,
    chain: &StatelessChain,
    ctx: &mut EpochContext<'_>,
) -> Result<RecordBatch> {
    let started = ctx.timer.now_us();
    let mut batch = match (input, chain.scan()) {
        (Some(input), _) => input.execute_epoch(ctx)?,
        (None, Some(scan)) => {
            let batch = scan.bind(ctx.inputs)?;
            let rows = batch.num_rows() as u64;
            ctx.timer.op(format!("scan:{}", scan.name), rows, started);
            batch
        }
        (None, None) => return Err(SsError::Internal("chain without an input".into())),
    };
    chain.prime(ctx.statics)?;
    let mut env = ChainEnv::new(ctx.watermark_us, Some(ctx.faults));
    for op in chain.ops() {
        batch = op.apply(batch, &mut env)?;
        let label = op.label(ctx.timer.ops.len());
        ctx.timer.op(label, batch.num_rows() as u64, started);
    }
    for (column, max_seen) in env.maxima {
        ctx.tracker.observe(&column, max_seen);
    }
    Ok(batch)
}

/// Map an analyzed, optimized logical plan to an incremental operator
/// tree. `counter` provides stable operator ids (depth-first order, so
/// the same query shape always gets the same ids across restarts).
pub fn incrementalize(plan: &LogicalPlan, counter: &mut usize) -> Result<IncNode> {
    // Sources scanned more than once (stream self-joins) must clone
    // their epoch input; unique scans take it by move.
    let mut seen = HashSet::new();
    let shared: HashSet<String> = plan
        .streaming_scans()
        .into_iter()
        .filter(|s| !seen.insert(s.clone()))
        .collect();
    inc_node(plan, counter, &shared, None)
}

/// `needed`: the columns the parent operator reads, when it is an
/// aggregate (see [`StatelessChain::compile`]).
fn inc_node(
    plan: &LogicalPlan,
    counter: &mut usize,
    shared: &HashSet<String>,
    needed: Option<&[String]>,
) -> Result<IncNode> {
    let next_id = |prefix: &str, counter: &mut usize| {
        let id = format!("{prefix}-{counter}");
        *counter += 1;
        id
    };
    Ok(match plan {
        LogicalPlan::Scan {
            name,
            streaming: false,
            ..
        } => {
            return Err(SsError::Internal(format!(
                "static scan `{name}` reached the incrementalizer outside a join"
            )));
        }
        LogicalPlan::Join { left, right, .. } if !left.is_streaming() && !right.is_streaming() => {
            return Err(SsError::Internal(
                "fully static join reached the incrementalizer".into(),
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } if left.is_streaming() && right.is_streaming() => {
            let watermark_cols: Vec<String> =
                plan.watermarks().into_iter().map(|(c, _)| c).collect();
            let l = inc_node(left, counter, shared, None)?;
            let r = inc_node(right, counter, shared, None)?;
            let lschema = l.schema();
            let rschema = r.schema();
            let time_col_of =
                |s: &ss_common::Schema| watermark_cols.iter().find_map(|c| s.index_of(c).ok());
            let exec = StreamJoinExec::new(
                next_id("join", counter),
                *join_type,
                JoinSide {
                    schema: lschema.clone(),
                    key_exprs: on.iter().map(|(a, _)| a.clone()).collect(),
                    time_col: time_col_of(&lschema),
                },
                JoinSide {
                    schema: rschema.clone(),
                    key_exprs: on.iter().map(|(_, b)| b.clone()).collect(),
                    time_col: time_col_of(&rschema),
                },
            );
            IncNode::StreamJoin {
                left: Box::new(l),
                right: Box::new(r),
                exec,
            }
        }
        // Streaming scans, filters, projections, watermarks and
        // stream–static joins: one chain per stateless run.
        LogicalPlan::Scan { .. }
        | LogicalPlan::Filter { .. }
        | LogicalPlan::Project { .. }
        | LogicalPlan::Watermark { .. }
        | LogicalPlan::Join { .. } => {
            let (chain, rest) = StatelessChain::compile(plan, shared, needed)?;
            let (input, chain) = match rest {
                Some(rest) => {
                    let input = inc_node(rest, counter, shared, None)?;
                    let chain = chain.with_input_schema(input.schema());
                    (Some(Box::new(input)), chain)
                }
                None => (None, chain),
            };
            IncNode::Chain {
                input,
                chain: Arc::new(chain),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            // Fuse: when the aggregate sits directly on a stream–static
            // join, the join only materializes the columns the
            // aggregation reads (join keys are hashed, not output).
            let mut needed: Vec<String> = Vec::new();
            for g in group_exprs {
                needed.extend(g.referenced_columns());
            }
            for a in aggregates {
                if let Some(arg) = &a.arg {
                    needed.extend(arg.referenced_columns());
                }
            }
            let child = inc_node(input, counter, shared, Some(&needed))?;
            let agg = HashAggregator::new(
                child.schema(),
                group_exprs.clone(),
                aggregates.clone(),
            )?;
            IncNode::Aggregate {
                input: Box::new(child),
                op_id: next_id("agg", counter),
                agg,
            }
        }
        LogicalPlan::MapGroupsWithState { input, op } => IncNode::MapGroups {
            input: Box::new(inc_node(input, counter, shared, None)?),
            op_id: next_id("mgws", counter),
            op: op.clone(),
        },
        LogicalPlan::Distinct { input } => {
            let child = inc_node(input, counter, shared, None)?;
            let schema = child.schema();
            IncNode::Distinct {
                input: Box::new(child),
                op_id: next_id("dedup", counter),
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => IncNode::Sort {
            input: Box::new(inc_node(input, counter, shared, None)?),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => IncNode::Limit {
            input: Box::new(inc_node(input, counter, shared, None)?),
            n: *n,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::time::secs;
    use ss_common::{row, DataType, Field, OpDuration, Row, Schema, TraceLog, Value};
    use ss_exec::MemoryCatalog;
    use ss_expr::{col, count_star, lit, window};
    use ss_plan::{JoinType, LogicalPlanBuilder};
    use ss_state::MemoryBackend;

    fn events_schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
        ])
    }

    fn events() -> LogicalPlanBuilder {
        LogicalPlanBuilder::scan("events", events_schema(), true)
    }

    struct Harness {
        node: IncNode,
        store: StateStore,
        tracker: WatermarkTracker,
        statics: MemoryCatalog,
        output_mode: OutputMode,
        epoch: u64,
        last_ops: Vec<OpDuration>,
        faults: FaultRegistry,
    }

    impl Harness {
        fn new(plan: &LogicalPlan, output_mode: OutputMode) -> Harness {
            let mut counter = 0;
            Harness {
                node: incrementalize(plan, &mut counter).unwrap(),
                store: StateStore::new(Arc::new(MemoryBackend::new())),
                tracker: WatermarkTracker::new(&plan.watermarks()),
                statics: MemoryCatalog::new(),
                output_mode,
                epoch: 0,
                last_ops: Vec::new(),
                faults: FaultRegistry::new(),
            }
        }

        fn run(&mut self, rows: &[Row]) -> RecordBatch {
            self.epoch += 1;
            let mut inputs = HashMap::new();
            inputs.insert(
                "events".to_string(),
                RecordBatch::from_rows(events_schema(), rows).unwrap(),
            );
            let mut timer = EpochTimer::start(self.epoch, TraceLog::new());
            let mut ctx = EpochContext {
                epoch: self.epoch,
                inputs: &mut inputs,
                statics: &self.statics,
                store: &mut self.store,
                watermark_us: self.tracker.current(),
                processing_time_us: self.epoch as i64 * 1_000_000,
                output_mode: self.output_mode,
                tracker: &mut self.tracker,
                timer: &mut timer,
                faults: &self.faults,
            };
            let out = self.node.execute_epoch(&mut ctx).unwrap();
            self.last_ops = timer.finish().1;
            self.tracker.advance();
            out
        }
    }

    #[test]
    fn update_mode_emits_changed_groups_only() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Update);
        let out = h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["US", Value::Timestamp(0)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["CA", 1i64], row!["US", 1i64]]);
        let out = h.run(&[row!["CA", Value::Timestamp(0)]]);
        // Only CA changed.
        assert_eq!(out.to_rows(), vec![row!["CA", 2i64]]);
        // Empty epoch: nothing changed.
        let out = h.run(&[]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn complete_mode_emits_whole_table() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Complete);
        h.run(&[row!["CA", Value::Timestamp(0)]]);
        let out = h.run(&[row!["US", Value::Timestamp(0)]]);
        assert_eq!(out.to_rows(), vec![row!["CA", 1i64], row!["US", 1i64]]);
    }

    #[test]
    fn append_mode_emits_on_watermark_passing() {
        let plan = events()
            .with_watermark("time", "5 seconds")
            .unwrap()
            .aggregate(
                vec![window(col("time"), "10 seconds").unwrap()],
                vec![count_star()],
            )
            .build();
        let mut h = Harness::new(&plan, OutputMode::Append);
        // Epoch 1: events in window [0,10); watermark still -inf.
        let out = h.run(&[
            row!["CA", Value::Timestamp(secs(1))],
            row!["CA", Value::Timestamp(secs(9))],
        ]);
        assert_eq!(out.num_rows(), 0);
        // Epoch 2: event at 21s pushes watermark to 16s (21-5) at the
        // *end* of the epoch; during the epoch the watermark is 4s
        // (9-5), so [0,10) is not yet closed.
        let out = h.run(&[row!["CA", Value::Timestamp(secs(21))]]);
        assert_eq!(out.num_rows(), 0);
        // Epoch 3: watermark now 16s >= 10s: window [0,10) finalizes.
        let out = h.run(&[]);
        assert_eq!(
            out.to_rows(),
            vec![row![Value::Timestamp(0), Value::Timestamp(secs(10)), 2i64]]
        );
        // State for the closed window is gone (also from the store).
        let out = h.run(&[]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn late_rows_are_dropped_at_the_watermark_operator() {
        let plan = events()
            .with_watermark("time", "0 seconds")
            .unwrap()
            .aggregate(
                vec![window(col("time"), "10 seconds").unwrap()],
                vec![count_star()],
            )
            .build();
        let mut h = Harness::new(&plan, OutputMode::Update);
        h.run(&[row!["CA", Value::Timestamp(secs(100))]]); // wm -> 100s
        // A very late row (t=1s) must not recreate evicted state.
        let out = h.run(&[row!["CA", Value::Timestamp(secs(1))]]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn stream_static_join_caches_static_side() {
        let campaigns_schema = Schema::of(vec![
            Field::new("c_country", DataType::Utf8),
            Field::new("campaign", DataType::Utf8),
        ]);
        let static_side = LogicalPlanBuilder::scan("campaigns", campaigns_schema.clone(), false);
        let plan = events()
            .join(
                static_side,
                JoinType::Inner,
                vec![(col("country"), col("c_country"))],
            )
            .build();
        let mut h = Harness::new(&plan, OutputMode::Append);
        h.statics.register(
            "campaigns",
            vec![RecordBatch::from_rows(
                campaigns_schema,
                &[row!["CA", "camp1"]],
            )
            .unwrap()],
        );
        let out = h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["US", Value::Timestamp(0)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["CA", Value::Timestamp(0), "CA", "camp1"]]);
        // Second epoch works off the cache.
        let out = h.run(&[row!["CA", Value::Timestamp(1)]]);
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn distinct_is_stateful_across_epochs() {
        let plan = events().project(vec![col("country")]).distinct().build();
        let mut h = Harness::new(&plan, OutputMode::Append);
        let out = h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["CA", Value::Timestamp(1)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["CA"]]);
        let out = h.run(&[
            row!["CA", Value::Timestamp(2)],
            row!["US", Value::Timestamp(3)],
        ]);
        assert_eq!(out.to_rows(), vec![row!["US"]]);
    }

    #[test]
    fn aggregate_state_survives_restore() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Complete);
        h.run(&[row!["CA", Value::Timestamp(0)]]);
        h.store.checkpoint(1).unwrap();
        h.run(&[row!["CA", Value::Timestamp(0)]]);
        // Roll back to the checkpoint and rebuild the operator.
        h.store.restore(1).unwrap();
        h.node.restore_state(&mut h.store).unwrap();
        let out = h.run(&[row!["CA", Value::Timestamp(0)]]);
        // 1 (restored) + 1 (new) = 2, not 3.
        assert_eq!(out.to_rows(), vec![row!["CA", 2i64]]);
    }

    #[test]
    fn update_key_columns_prefer_group_keys() {
        let plan = events()
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let h = Harness::new(&plan, OutputMode::Update);
        let schema = h.node.schema();
        assert_eq!(h.node.update_key_columns(&schema), vec![0]);
        // Whole-row fallback for key-less plans.
        let plan2 = events().filter(col("country").eq(lit("CA"))).build();
        let h2 = Harness::new(&plan2, OutputMode::Append);
        let s2 = h2.node.schema();
        assert_eq!(h2.node.update_key_columns(&s2), vec![0, 1]);
    }

    #[test]
    fn op_stats_record_every_operator_with_stable_labels() {
        let plan = events()
            .filter(col("country").eq(lit("CA")))
            .aggregate(vec![col("country")], vec![count_star()])
            .build();
        let mut h = Harness::new(&plan, OutputMode::Update);
        h.run(&[
            row!["CA", Value::Timestamp(0)],
            row!["US", Value::Timestamp(0)],
        ]);
        let labels: Vec<&str> = h.last_ops.iter().map(|s| s.op.as_str()).collect();
        // Post-order: scan, filter, aggregate.
        assert_eq!(labels, vec!["scan:events", "filter#1", "agg-0"]);
        assert_eq!(h.last_ops[0].rows_out, 2);
        assert_eq!(h.last_ops[1].rows_out, 1);
        assert_eq!(h.last_ops[2].rows_out, 1);
        // Inclusive timing: the root contains its children.
        assert!(h.last_ops[2].duration_us >= h.last_ops[1].duration_us);
        // Labels are identical in the next epoch.
        h.run(&[row!["CA", Value::Timestamp(1)]]);
        let labels2: Vec<&str> = h.last_ops.iter().map(|s| s.op.as_str()).collect();
        assert_eq!(labels2, vec!["scan:events", "filter#1", "agg-0"]);
    }

    #[test]
    fn static_scan_alone_is_rejected() {
        let plan = LogicalPlanBuilder::scan("t", events_schema(), false).build();
        let mut c = 0;
        assert!(incrementalize(&plan, &mut c).is_err());
    }
}
