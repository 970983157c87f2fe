//! Stateless operator chains: the one compiler for the paper's
//! "map-like" operators.
//!
//! The incrementalizer (§5.2) maps filter, project, watermark and
//! stream–static join onto stateless operators, and continuous mode
//! (§6.3) runs the same operators once per record. A stateless run of an
//! optimized [`LogicalPlan`] compiles here, once, into a
//! [`StatelessChain`]: a flat list of `ChainOp`s with
//! `Project(Filter(x))` fused and each static join's batch result cached
//! per run. Every execution path evaluates stateless operators through
//! it: serial epochs (`IncNode::Chain`), parallel map tasks (sharing it
//! through an `Arc`), continuous workers (`StatelessChain::apply_row`)
//! and multi-query fan-out suffixes.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_common::{FaultRegistry, RecordBatch, Result, Row, Schema, SchemaRef, SsError};
use ss_exec::executor::Catalog;
use ss_exec::join::hash_join_projected;
use ss_exec::ops;
use ss_expr::eval::evaluate_row;
use ss_expr::Expr;
use ss_plan::{JoinType, LogicalPlan};

/// How a chain binds its epoch input: one streaming source's new rows.
#[derive(Debug)]
pub(crate) struct ScanBinding {
    pub(crate) name: String,
    /// The source's full schema (what a bus record's row follows).
    schema: SchemaRef,
    pub(crate) projection: Option<Vec<usize>>,
    /// `schema` narrowed by `projection`: the batch the ops see.
    projected: SchemaRef,
    /// True when the plan scans the same source more than once (e.g. a
    /// stream self-join): the epoch input is then cloned rather than
    /// moved out of the input map.
    shared: bool,
}

impl ScanBinding {
    /// Take (or, for a shared scan, copy) this source's epoch input out
    /// of `inputs`; a missing source yields an empty batch. The engine
    /// pushes the projection into the source read, so the batch usually
    /// arrives pre-projected.
    pub(crate) fn bind(&self, inputs: &mut HashMap<String, RecordBatch>) -> Result<RecordBatch> {
        let batch = if self.shared {
            inputs.get(&self.name).cloned()
        } else {
            inputs.remove(&self.name)
        };
        let Some(batch) = batch else {
            return Ok(RecordBatch::empty(self.projected.clone()));
        };
        match &self.projection {
            Some(idx) if batch.schema().fields() != self.projected.fields() => batch.project(idx),
            _ => Ok(batch),
        }
    }
}

/// A stream–static join. The static side is computed once per run by
/// the batch engine (§3: "compute a static table [...] and join it with
/// a stream") and shared by every application until a restore.
#[derive(Debug)]
pub(crate) struct StaticJoin {
    static_plan: Arc<LogicalPlan>,
    cache: Mutex<Option<Arc<RecordBatch>>>,
    stream_is_left: bool,
    join_type: JoinType,
    on: Vec<(Expr, Expr)>,
    /// Output columns to materialize (indices into the full join
    /// output) when the consuming aggregation reads only a subset, so
    /// join keys are never copied into the output.
    output_projection: Option<Vec<usize>>,
    schema: SchemaRef,
}

/// One stateless operator, in a chain's application order.
#[derive(Debug)]
pub(crate) enum ChainOp {
    Filter(Expr),
    Project {
        exprs: Vec<Expr>,
        schema: SchemaRef,
    },
    /// `Project(Filter(x))` fused: filtered-out columns the projection
    /// drops are never materialized.
    FilterProject {
        predicate: Expr,
        exprs: Vec<Expr>,
        schema: SchemaRef,
    },
    /// Observe the column's max event time and drop rows later than the
    /// in-force watermark (§4.3.1).
    Watermark {
        column: String,
    },
    StaticJoin(StaticJoin),
}

/// What one application of a chain sees and reports.
pub struct ChainEnv<'a> {
    /// The watermark in force for this epoch.
    pub(crate) watermark_us: i64,
    /// Fires `exec.record.eval` before each filter/project over a
    /// non-empty batch; `None` where evaluation is no fail point.
    pub(crate) faults: Option<&'a FaultRegistry>,
    /// `(column, max event time)` observed by watermark ops, for the
    /// caller to fold into its watermark tracker.
    pub(crate) maxima: Vec<(String, i64)>,
}

impl<'a> ChainEnv<'a> {
    /// An environment with nothing observed yet.
    pub fn new(watermark_us: i64, faults: Option<&'a FaultRegistry>) -> ChainEnv<'a> {
        ChainEnv {
            watermark_us,
            faults,
            maxima: Vec::new(),
        }
    }
}

impl ChainOp {
    /// The op's stable metric label; `seq` is its post-order record
    /// number in the epoch, which is deterministic for a fixed plan.
    pub(crate) fn label(&self, seq: usize) -> String {
        match self {
            ChainOp::Filter(_) => format!("filter#{seq}"),
            ChainOp::Project { .. } | ChainOp::FilterProject { .. } => format!("project#{seq}"),
            ChainOp::Watermark { column } => format!("watermark:{column}"),
            ChainOp::StaticJoin(_) => format!("static-join#{seq}"),
        }
    }

    /// Apply this op to one batch.
    pub(crate) fn apply(&self, batch: RecordBatch, env: &mut ChainEnv<'_>) -> Result<RecordBatch> {
        if let (
            Some(faults),
            ChainOp::Filter(_) | ChainOp::Project { .. } | ChainOp::FilterProject { .. },
        ) = (env.faults, self)
        {
            if batch.num_rows() > 0 {
                faults.fire(ops::failpoints::RECORD_EVAL)?;
            }
        }
        match self {
            ChainOp::Filter(predicate) => ops::filter_batch(&batch, predicate),
            ChainOp::Project { exprs, .. } => ops::project_batch(&batch, exprs),
            ChainOp::FilterProject {
                predicate, exprs, ..
            } => ops::filter_project_batch(&batch, predicate, exprs),
            ChainOp::Watermark { column } => {
                let tc = batch.column_by_name(column)?.as_i64()?;
                let max_seen = (0..tc.len()).filter_map(|i| tc.get(i).copied()).max();
                if let Some(max_seen) = max_seen.filter(|&m| m > i64::MIN) {
                    env.maxima.push((column.clone(), max_seen));
                }
                // Rows already later than the in-force watermark are
                // dropped: downstream stateful operators have (or may
                // have) finalized their groups.
                let wm = env.watermark_us;
                if wm == i64::MIN {
                    return Ok(batch);
                }
                let mask: Vec<bool> = (0..tc.len())
                    .map(|i| tc.get(i).is_none_or(|&v| v >= wm))
                    .collect();
                batch.filter(&mask)
            }
            ChainOp::StaticJoin(join) => {
                let cached = join.cache.lock().clone();
                let side =
                    cached.ok_or_else(|| SsError::Internal("static join not primed".into()))?;
                let (on, proj) = (&join.on, join.output_projection.as_deref());
                if join.stream_is_left {
                    hash_join_projected(&batch, &side, join.join_type, on, proj)
                } else {
                    hash_join_projected(&side, &batch, join.join_type, on, proj)
                }
            }
        }
    }
}

/// A compiled run of stateless operators over either a streaming scan
/// or another operator's output.
#[derive(Debug)]
pub struct StatelessChain {
    /// The scan the chain reads; `None` when its input is an operator.
    scan: Option<ScanBinding>,
    ops: Vec<ChainOp>,
    /// The schema of the batch the first op sees.
    input_schema: SchemaRef,
}

impl StatelessChain {
    /// Compile the maximal stateless run at the top of `plan` (a
    /// streaming scan, filter, project, watermark or stream–static
    /// join). Returns the chain and the plan below the run, which the
    /// caller executes as the chain's input — `None` when the chain
    /// reads a streaming scan itself.
    ///
    /// `shared_scans` names the sources the whole plan scans more than
    /// once. `needed` lists the columns the consuming aggregate reads;
    /// a chain ending in a stream–static join then materializes only
    /// those.
    pub fn compile<'p>(
        plan: &'p LogicalPlan,
        shared_scans: &HashSet<String>,
        needed: Option<&[String]>,
    ) -> Result<(StatelessChain, Option<&'p LogicalPlan>)> {
        let mut ops = Vec::new();
        let (scan, input_schema, rest) = match lower(plan, &mut ops)? {
            LogicalPlan::Scan {
                name,
                schema,
                streaming: true,
                projection,
            } => {
                let projected = match projection {
                    Some(idx) => Arc::new(schema.project(idx)?),
                    None => schema.clone(),
                };
                let scan = ScanBinding {
                    name: name.clone(),
                    schema: schema.clone(),
                    projection: projection.clone(),
                    projected: projected.clone(),
                    shared: shared_scans.contains(name),
                };
                (Some(scan), projected, None)
            }
            other => (None, other.schema()?, Some(other)),
        };
        if let (Some(needed), Some(ChainOp::StaticJoin(join))) = (needed, ops.last_mut()) {
            let schema = &join.schema;
            let mut idx: Vec<usize> = needed
                .iter()
                .filter_map(|n| schema.index_of(n).ok())
                .collect();
            idx.sort_unstable();
            idx.dedup();
            if idx.len() < schema.len() && needed.iter().all(|n| schema.contains(n)) {
                join.schema = Arc::new(schema.project(&idx)?);
                join.output_projection = Some(idx);
            }
        }
        let chain = StatelessChain {
            scan,
            ops,
            input_schema,
        };
        Ok((chain, rest))
    }

    /// Take the input operator's own schema as the chain's input schema.
    pub(crate) fn with_input_schema(mut self, schema: SchemaRef) -> StatelessChain {
        self.input_schema = schema;
        self
    }

    pub(crate) fn scan(&self) -> Option<&ScanBinding> {
        self.scan.as_ref()
    }

    pub(crate) fn ops(&self) -> &[ChainOp] {
        &self.ops
    }

    /// The schema of the chain's output.
    pub(crate) fn output_schema(&self) -> SchemaRef {
        let reshaped = self.ops.iter().rev().find_map(|op| match op {
            ChainOp::Filter(_) | ChainOp::Watermark { .. } => None,
            ChainOp::Project { schema, .. }
            | ChainOp::FilterProject { schema, .. }
            | ChainOp::StaticJoin(StaticJoin { schema, .. }) => Some(schema),
        });
        reshaped.unwrap_or(&self.input_schema).clone()
    }

    fn static_joins(&self) -> impl Iterator<Item = &StaticJoin> {
        self.ops.iter().filter_map(|op| match op {
            ChainOp::StaticJoin(join) => Some(join),
            _ => None,
        })
    }

    /// True when applying the chain to row chunks and concatenating the
    /// outputs in chunk order is byte-identical to one whole-batch
    /// application, so a parallel map stage may run it. The chain must
    /// read a scan no other plan branch consumes (chunk ownership would
    /// be ambiguous), and every stream–static join must probe with the
    /// stream (output follows probe-row order) and never pad unmatched
    /// static rows (right-outer pads once per batch, not per chunk).
    pub(crate) fn is_chunk_safe(&self) -> bool {
        self.scan.as_ref().is_some_and(|s| !s.shared)
            && self
                .static_joins()
                .all(|j| j.stream_is_left && j.join_type != JoinType::RightOuter)
    }

    /// Fill every empty static-join cache through the batch engine.
    pub(crate) fn prime(&self, statics: &dyn Catalog) -> Result<()> {
        for join in self.static_joins() {
            let mut cache = join.cache.lock();
            if cache.is_none() {
                *cache = Some(Arc::new(ss_exec::execute(&join.static_plan, statics)?));
            }
        }
        Ok(())
    }

    /// Drop the static-join caches (on restore).
    pub(crate) fn reset(&self) {
        for join in self.static_joins() {
            *join.cache.lock() = None;
        }
    }

    /// Apply every op, in order, to one batch (static joins primed).
    pub fn apply(&self, mut batch: RecordBatch, env: &mut ChainEnv<'_>) -> Result<RecordBatch> {
        for op in &self.ops {
            batch = op.apply(batch, env)?;
        }
        Ok(batch)
    }

    /// Run one record of the scanned source through the chain: `None`
    /// if a filter drops it. Filters read the borrowed row; a row is
    /// built only by a projection (or, with none, by the scan
    /// projection). Watermark ops are no-ops; static joins are refused.
    pub(crate) fn apply_row(&self, row: &Row) -> Result<Option<Row>> {
        let mut schema: &Schema = self.scan.as_ref().map_or(&self.input_schema, |s| &s.schema);
        let mut built: Option<Row> = None;
        for op in &self.ops {
            let current = built.as_ref().unwrap_or(row);
            let (predicate, projection) = match op {
                ChainOp::Filter(p) => (Some(p), None),
                ChainOp::Project { exprs, schema } => (None, Some((exprs, schema))),
                ChainOp::FilterProject {
                    predicate,
                    exprs,
                    schema,
                } => (Some(predicate), Some((exprs, schema))),
                ChainOp::Watermark { .. } => (None, None),
                ChainOp::StaticJoin(_) => {
                    return Err(SsError::Unsupported(
                        "stream–static joins do not run record at a time".into(),
                    ))
                }
            };
            if let Some(p) = predicate {
                if evaluate_row(p, schema, current)?.as_bool()? != Some(true) {
                    return Ok(None);
                }
            }
            if let Some((exprs, out)) = projection {
                let values = exprs.iter().map(|e| evaluate_row(e, schema, current));
                built = Some(Row::new(values.collect::<Result<_>>()?));
                schema = out;
            }
        }
        let scan_projection = self.scan.as_ref().and_then(|s| s.projection.as_deref());
        Ok(Some(match (built, scan_projection) {
            (Some(out), _) => out,
            (None, Some(idx)) => row.project(idx),
            (None, None) => row.clone(),
        }))
    }
}

/// Lower the stateless run at the top of `plan` into `ops` (application
/// order), returning the node the run bottoms out at.
fn lower<'p>(plan: &'p LogicalPlan, ops: &mut Vec<ChainOp>) -> Result<&'p LogicalPlan> {
    let (input, op) = match plan {
        LogicalPlan::Filter { input, predicate } => (input, ChainOp::Filter(predicate.clone())),
        LogicalPlan::Project { input, exprs } => {
            let (exprs, schema) = (exprs.clone(), plan.schema()?);
            match input.as_ref() {
                LogicalPlan::Filter { input, predicate } => {
                    let predicate = predicate.clone();
                    (
                        input,
                        ChainOp::FilterProject {
                            predicate,
                            exprs,
                            schema,
                        },
                    )
                }
                _ => (input, ChainOp::Project { exprs, schema }),
            }
        }
        LogicalPlan::Watermark { input, column, .. } => (
            input,
            ChainOp::Watermark {
                column: column.clone(),
            },
        ),
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } if left.is_streaming() != right.is_streaming() => {
            let stream_is_left = left.is_streaming();
            let (stream, static_plan) = if stream_is_left {
                (left, right)
            } else {
                (right, left)
            };
            let join = StaticJoin {
                static_plan: static_plan.clone(),
                cache: Mutex::new(None),
                stream_is_left,
                join_type: *join_type,
                on: on.clone(),
                output_projection: None,
                schema: plan.schema()?,
            };
            (stream, ChainOp::StaticJoin(join))
        }
        _ => return Ok(plan),
    };
    let bottom = lower(input, ops)?;
    ops.push(op);
    Ok(bottom)
}
