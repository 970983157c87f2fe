//! Hash aggregation: the operator a streaming `Aggregate` maps onto.
//!
//! [`HashAggregator`] is used two ways:
//!
//! * **Batch**: feed every input batch with [`HashAggregator::update_batch`],
//!   then read the full result with [`HashAggregator::finish_all`].
//! * **Streaming** (`StatefulAggregate`, §5.2): the aggregator *is* the
//!   operator state. Each epoch feeds its new data, then:
//!   - Update mode emits [`HashAggregator::take_changed`] keys,
//!   - Complete mode emits `finish_all`,
//!   - Append mode emits [`HashAggregator::drain_finalized`] once the
//!     event-time watermark passes a window's end (§4.3.1), which also
//!     evicts that window's state.
//!
//!   The `state_entries` / `restore_entry` pair serializes the group map
//!   to the state store for checkpointing (§6.1).
//! * **Sharded** (parallel reduce): [`HashAggregator::partition_rows`]
//!   routes each input row to the reduce partitions that own its group
//!   keys, and each shard runs the same [`HashAggregator::ingest`] on the
//!   rows it was routed, with an owner `(r, parts)`, so every group
//!   lives in exactly one shard.
//!
//! Event-time windows: one `window()` grouping key is supported; each
//! row expands into `size/slide` windows (one for tumbling windows), the
//! same assignment Spark's window expression produces. Rows whose
//! timestamp is NULL are dropped from windowed aggregation, as in Spark.
//! Key evaluation and window expansion are written once, in the key
//! visitor both ingest and routing use.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use ss_common::{
    shuffle_partition, Column, DataType, Field, RecordBatch, Result, Row, Schema, SchemaRef,
    SsError, Value,
};
use ss_expr::agg::Accumulator;
use ss_expr::eval::evaluate;
use ss_expr::{AggregateExpr, Expr};
use ss_plan::plan::strip_alias;

/// The window grouping key, if any.
#[derive(Debug, Clone)]
struct WindowSpec {
    /// Index of the window expression within `group_exprs`.
    slot: usize,
    time: Expr,
    size_us: i64,
    slide_us: i64,
}

/// One group's live state: its accumulators plus a dirty flag for
/// per-epoch changed-key tracking (a flag write per row is much
/// cheaper than maintaining a separate changed-key set on the hot
/// path).
struct GroupEntry {
    accs: Vec<Accumulator>,
    dirty: bool,
}

/// Hash aggregation with mergeable, serializable group state.
pub struct HashAggregator {
    input_schema: SchemaRef,
    group_exprs: Vec<Expr>,
    window: Option<WindowSpec>,
    aggregates: Vec<AggregateExpr>,
    output_schema: SchemaRef,
    /// Key layout: one value per group expression, with the window slot
    /// holding the window *start* timestamp.
    groups: FxHashMap<Row, GroupEntry>,
}

impl HashAggregator {
    pub fn new(
        input_schema: SchemaRef,
        group_exprs: Vec<Expr>,
        aggregates: Vec<AggregateExpr>,
    ) -> Result<HashAggregator> {
        let mut window = None;
        for (i, g) in group_exprs.iter().enumerate() {
            if let Expr::Window {
                time,
                size_us,
                slide_us,
            } = strip_alias(g)
            {
                if window.is_some() {
                    return Err(SsError::Plan(
                        "at most one window() grouping key is supported".into(),
                    ));
                }
                window = Some(WindowSpec {
                    slot: i,
                    time: (**time).clone(),
                    size_us: *size_us,
                    slide_us: *slide_us,
                });
            }
        }
        let output_schema = Self::compute_output_schema(&input_schema, &group_exprs, &aggregates)?;
        Ok(HashAggregator {
            input_schema,
            group_exprs,
            window,
            aggregates,
            output_schema,
            groups: FxHashMap::default(),
        })
    }

    fn compute_output_schema(
        input_schema: &Schema,
        group_exprs: &[Expr],
        aggregates: &[AggregateExpr],
    ) -> Result<SchemaRef> {
        let mut fields = Vec::new();
        for g in group_exprs {
            if let Expr::Window { .. } = strip_alias(g) {
                fields.push(Field::not_null("window_start", DataType::Timestamp));
                fields.push(Field::not_null("window_end", DataType::Timestamp));
            } else {
                fields.push(Field {
                    name: g.output_name(),
                    data_type: g.data_type(input_schema)?,
                    nullable: g.nullable(input_schema),
                });
            }
        }
        for a in aggregates {
            fields.push(Field::new(a.output_name(), a.result_type(input_schema)?));
        }
        Ok(Arc::new(Schema::new(fields)?))
    }

    /// The aggregation output schema (window keys expanded to
    /// start/end).
    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }

    /// The input schema this aggregator was planned against.
    pub fn input_schema(&self) -> &SchemaRef {
        &self.input_schema
    }

    /// Number of live groups (= state size, the metric §2.3 says
    /// operators monitor).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// True if the grouping includes an event-time window.
    pub fn is_windowed(&self) -> bool {
        self.window.is_some()
    }

    /// Number of leading output columns that form the group key
    /// (window keys count as two: start and end).
    pub fn num_key_columns(&self) -> usize {
        self.output_schema.len() - self.aggregates.len()
    }

    /// Ingest one batch of input rows.
    pub fn update_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        self.ingest(batch, None)
    }

    /// Ingest one batch. With an `owner` `(r, parts)` this aggregator
    /// is reduce shard `r` of `parts`, fed the rows
    /// [`HashAggregator::partition_rows`] routed to it, and updates only
    /// the groups it owns.
    pub fn ingest(&mut self, batch: &RecordBatch, owner: Option<(usize, usize)>) -> Result<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        // Evaluate aggregate argument columns once, vectorized.
        let arg_cols: Vec<Option<Column>> = self
            .aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| evaluate(e, batch)).transpose())
            .collect::<Result<_>>()?;
        let n_keys = self.group_exprs.len();
        let (group_exprs, window) = (&self.group_exprs, self.window.as_ref());
        for_each_key(group_exprs, window, batch, owner, |row, key| {
            // Look up without cloning the key; the buffer is only
            // taken when the group is new.
            if let Some(entry) = self.groups.get_mut(key) {
                entry.dirty = true;
                return update_accs(&mut entry.accs, &arg_cols, row);
            }
            let mut accs: Vec<Accumulator> = self
                .aggregates
                .iter()
                .map(|a| a.create_accumulator())
                .collect();
            update_accs(&mut accs, &arg_cols, row)?;
            let key = std::mem::replace(key, Row::new(Vec::with_capacity(n_keys)));
            self.groups.insert(key, GroupEntry { accs, dirty: true });
            Ok(())
        })
    }

    /// Route `batch`'s rows to `parts` reduce partitions: per partition,
    /// the indices of the rows with a group key it owns
    /// ([`shuffle_partition`]), in arrival order. A row goes to every
    /// partition that owns one of its window keys; a row whose event
    /// time is NULL goes nowhere. Shard `r` ingests its rows with owner
    /// `(r, parts)`.
    pub fn partition_rows(&self, batch: &RecordBatch, parts: usize) -> Result<Vec<Vec<usize>>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); parts];
        let (group_exprs, window) = (&self.group_exprs, self.window.as_ref());
        for_each_key(group_exprs, window, batch, None, |row, key| {
            let rows = &mut out[shuffle_partition(key, parts)];
            if rows.last() != Some(&row) {
                rows.push(row);
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Keys whose aggregates changed since the last call (dirty flags
    /// are reset). This is what Update output mode emits per epoch.
    pub fn take_changed(&mut self) -> Vec<Row> {
        let mut keys: Vec<Row> = Vec::new();
        for (k, entry) in self.groups.iter_mut() {
            if entry.dirty {
                entry.dirty = false;
                keys.push(k.clone());
            }
        }
        keys.sort();
        keys
    }

    /// Build output rows for specific keys (must exist).
    pub fn output_for_keys(&self, keys: &[Row]) -> Result<RecordBatch> {
        let rows: Vec<Row> = keys
            .iter()
            .map(|k| {
                let entry = self.groups.get(k).ok_or_else(|| {
                    SsError::Internal(format!("output_for_keys: unknown group {k}"))
                })?;
                Ok(self.output_row(k, &entry.accs))
            })
            .collect::<Result<_>>()?;
        RecordBatch::from_rows(self.output_schema.clone(), &rows)
    }

    /// The whole result table, sorted by key for determinism (Complete
    /// mode / batch execution).
    pub fn finish_all(&self) -> Result<RecordBatch> {
        let mut keys: Vec<&Row> = self.groups.keys().collect();
        keys.sort();
        let rows: Vec<Row> = keys
            .iter()
            .map(|k| self.output_row(k, &self.groups[*k].accs))
            .collect();
        RecordBatch::from_rows(self.output_schema.clone(), &rows)
    }

    /// Append-mode finalization: emit and evict every windowed group
    /// whose `window_end <= watermark_us`. Returns the finalized rows
    /// and the evicted keys, both sorted by key. Errors if the grouping
    /// has no window (such queries cannot use Append mode; the analyzer
    /// enforces this).
    pub fn drain_finalized(&mut self, watermark_us: i64) -> Result<(RecordBatch, Vec<Row>)> {
        let w = self.window.as_ref().ok_or_else(|| {
            SsError::Plan("append finalization requires a window() grouping key".into())
        })?;
        let size = w.size_us;
        let slot = w.slot;
        let mut done: Vec<Row> = self
            .groups
            .keys()
            .filter(|k| match k.get(slot) {
                Value::Timestamp(start) => start + size <= watermark_us,
                _ => false,
            })
            .cloned()
            .collect();
        done.sort();
        let rows: Vec<Row> = done
            .iter()
            .map(|k| {
                let entry = self.groups.remove(k).expect("key just listed");
                self.output_row(k, &entry.accs)
            })
            .collect();
        let out = RecordBatch::from_rows(self.output_schema.clone(), &rows)?;
        Ok((out, done))
    }

    /// Drop windowed state older than the watermark *without* emitting
    /// (used in Update mode to bound state per §4.3.1). Returns the
    /// evicted keys so callers can mirror the removal in the state
    /// store.
    pub fn evict_expired(&mut self, watermark_us: i64) -> Vec<Row> {
        let Some(w) = &self.window else { return Vec::new() };
        let size = w.size_us;
        let slot = w.slot;
        let mut evicted = Vec::new();
        self.groups.retain(|k, _| match k.get(slot) {
            Value::Timestamp(start) => {
                let keep = start + size > watermark_us;
                if !keep {
                    evicted.push(k.clone());
                }
                keep
            }
            _ => true,
        });
        evicted.sort();
        evicted
    }

    fn output_row(&self, key: &Row, accs: &[Accumulator]) -> Row {
        let mut out = Vec::with_capacity(self.output_schema.len());
        for (i, v) in key.values().iter().enumerate() {
            match &self.window {
                Some(w) if w.slot == i => {
                    let start = match v {
                        Value::Timestamp(s) => *s,
                        _ => unreachable!("window slot always holds a timestamp"),
                    };
                    out.push(Value::Timestamp(start));
                    out.push(Value::Timestamp(start + w.size_us));
                }
                _ => out.push(v.clone()),
            }
        }
        for a in accs {
            out.push(a.evaluate());
        }
        Row::new(out)
    }

    // ---- state-store integration (§6.1) ----

    /// The partial states of one group, if present.
    pub fn state_for_key(&self, key: &Row) -> Option<Vec<Row>> {
        self.groups
            .get(key)
            .map(|e| e.accs.iter().map(|a| a.state()).collect())
    }

    /// Iterate `(key, per-aggregate partial states)` for checkpointing.
    pub fn state_entries(&self) -> impl Iterator<Item = (&Row, Vec<Row>)> + '_ {
        self.groups
            .iter()
            .map(|(k, e)| (k, e.accs.iter().map(|a| a.state()).collect()))
    }

    /// Restore (or merge) one checkpointed entry.
    pub fn restore_entry(&mut self, key: Row, states: &[Row]) -> Result<()> {
        if states.len() != self.aggregates.len() {
            return Err(SsError::Serde(format!(
                "state entry has {} aggregates, expected {}",
                states.len(),
                self.aggregates.len()
            )));
        }
        let entry = self.groups.entry(key).or_insert_with(|| GroupEntry {
            accs: self
                .aggregates
                .iter()
                .map(|a| a.create_accumulator())
                .collect(),
            dirty: false,
        });
        for (acc, st) in entry.accs.iter_mut().zip(states) {
            acc.merge(st)?;
        }
        Ok(())
    }

    /// Clear all state (used when rebuilding from a checkpoint).
    pub fn clear(&mut self) {
        self.groups.clear();
    }

    /// An empty aggregator with the same configuration — the shard
    /// constructor for partitioned execution (each reduce partition
    /// owns one clone holding only its keys' state).
    pub fn fresh_clone(&self) -> HashAggregator {
        HashAggregator {
            input_schema: self.input_schema.clone(),
            group_exprs: self.group_exprs.clone(),
            window: self.window.clone(),
            aggregates: self.aggregates.clone(),
            output_schema: self.output_schema.clone(),
            groups: FxHashMap::default(),
        }
    }
}

/// Visit every `(row, group key)` of `batch` in arrival order: the one
/// place grouping keys are evaluated. Rows whose event time is NULL are
/// dropped, as in Spark, and every other row expands into its windows.
/// With an `owner` `(r, parts)`, a row that expands into several
/// windows visits only the keys partition `r` owns; a row with one key
/// was routed to its owner already. `visit` gets the row index and the
/// key in a reused buffer, which it may take.
fn for_each_key(
    group_exprs: &[Expr],
    window: Option<&WindowSpec>,
    batch: &RecordBatch,
    owner: Option<(usize, usize)>,
    mut visit: impl FnMut(usize, &mut Row) -> Result<()>,
) -> Result<()> {
    // The window slot evaluates to the raw timestamp; expansion
    // happens per row below.
    let key_cols: Vec<Column> = group_exprs
        .iter()
        .enumerate()
        .map(|(i, g)| match window {
            Some(w) if w.slot == i => evaluate(&w.time, batch),
            _ => evaluate(g, batch),
        })
        .collect::<Result<_>>()?;
    // Typed access to the timestamps avoids a Value per row.
    let window = match window {
        Some(w) => Some((w, key_cols[w.slot].as_i64()?)),
        None => None,
    };
    let mut key = Row::new(Vec::with_capacity(key_cols.len()));
    let mut starts: Vec<i64> = Vec::new();
    for row in 0..batch.num_rows() {
        starts.clear();
        match window {
            Some((w, times)) => match times.get(row) {
                None => continue,
                Some(&ts) if w.slide_us == w.size_us => {
                    starts.push(ss_common::time::window_start(ts, w.size_us, 0));
                }
                Some(&ts) => starts.extend(
                    ss_common::time::windows_for(ts, w.size_us, w.slide_us)
                        .into_iter()
                        .map(|(s, _)| s),
                ),
            },
            None => starts.push(0),
        }
        let owner = owner.filter(|_| starts.len() > 1);
        for &start in &starts {
            key.0.clear();
            // One push per arm: a single push of the matched value ran
            // the serial Yahoo aggregate about 10% slower.
            for (i, kc) in key_cols.iter().enumerate() {
                match window {
                    Some((w, _)) if w.slot == i => key.0.push(Value::Timestamp(start)),
                    _ => key.0.push(kc.value(row)),
                }
            }
            if let Some((r, parts)) = owner {
                if shuffle_partition(&key, parts) != r {
                    continue;
                }
            }
            visit(row, &mut key)?;
        }
    }
    Ok(())
}

/// Feed row `row`'s argument values to one group's accumulators.
fn update_accs(accs: &mut [Accumulator], arg_cols: &[Option<Column>], row: usize) -> Result<()> {
    for (acc, arg) in accs.iter_mut().zip(arg_cols) {
        match arg {
            Some(col) => acc.update_value(&col.value(row))?,
            // count(*): any non-NULL value counts.
            None => acc.update_value(&Value::Int64(1))?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::row;
    use ss_common::time::secs;
    use ss_expr::{avg, col, count, count_star, sum, window, window_sliding};

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("campaign", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
            Field::new("v", DataType::Int64),
        ])
    }

    fn batch(rows: &[Row]) -> RecordBatch {
        RecordBatch::from_rows(schema(), rows).unwrap()
    }

    #[test]
    fn group_by_key_counts() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(0), 1i64],
            row!["b", Value::Timestamp(0), 2i64],
            row!["a", Value::Timestamp(0), 3i64],
        ]))
        .unwrap();
        let out = agg.finish_all().unwrap();
        assert_eq!(out.to_rows(), vec![row!["a", 2i64], row!["b", 1i64]]);
    }

    #[test]
    fn global_aggregate_single_group() {
        let mut agg = HashAggregator::new(schema(), vec![], vec![sum(col("v")), avg(col("v"))])
            .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(0), 1i64],
            row!["a", Value::Timestamp(0), 3i64],
        ]))
        .unwrap();
        let out = agg.finish_all().unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int64(4));
        assert_eq!(out.value(0, 1), Value::Float64(2.0));
    }

    #[test]
    fn tumbling_window_grouping() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap(), col("campaign")],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(secs(5)), 0i64],
            row!["a", Value::Timestamp(secs(9)), 0i64],
            row!["a", Value::Timestamp(secs(15)), 0i64],
            row!["b", Value::Timestamp(secs(5)), 0i64],
        ]))
        .unwrap();
        let out = agg.finish_all().unwrap();
        assert_eq!(
            out.schema().field_names(),
            vec!["window_start", "window_end", "campaign", "count(*)"]
        );
        assert_eq!(
            out.to_rows(),
            vec![
                row![Value::Timestamp(0), Value::Timestamp(secs(10)), "a", 2i64],
                row![Value::Timestamp(0), Value::Timestamp(secs(10)), "b", 1i64],
                row![
                    Value::Timestamp(secs(10)),
                    Value::Timestamp(secs(20)),
                    "a",
                    1i64
                ],
            ]
        );
    }

    #[test]
    fn sliding_window_expands_rows() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window_sliding(col("time"), "10 seconds", "5 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[row!["a", Value::Timestamp(secs(7)), 0i64]]))
            .unwrap();
        let out = agg.finish_all().unwrap();
        // t=7s belongs to windows [0,10) and [5,15).
        assert_eq!(
            out.to_rows(),
            vec![
                row![Value::Timestamp(0), Value::Timestamp(secs(10)), 1i64],
                row![Value::Timestamp(secs(5)), Value::Timestamp(secs(15)), 1i64],
            ]
        );
    }

    #[test]
    fn null_event_time_rows_dropped() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Null, 0i64],
            row!["a", Value::Timestamp(secs(1)), 0i64],
        ]))
        .unwrap();
        assert_eq!(agg.finish_all().unwrap().num_rows(), 1);
    }

    #[test]
    fn changed_keys_track_epochs() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        agg.update_batch(&batch(&[row!["a", Value::Timestamp(0), 0i64]]))
            .unwrap();
        assert_eq!(agg.take_changed(), vec![row!["a"]]);
        // Nothing changed since the drain.
        assert!(agg.take_changed().is_empty());
        agg.update_batch(&batch(&[row!["b", Value::Timestamp(0), 0i64]]))
            .unwrap();
        let changed = agg.take_changed();
        assert_eq!(changed, vec![row!["b"]]);
        let out = agg.output_for_keys(&changed).unwrap();
        assert_eq!(out.to_rows(), vec![row!["b", 1i64]]);
    }

    #[test]
    fn drain_finalized_emits_and_evicts_closed_windows() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(secs(5)), 0i64],
            row!["a", Value::Timestamp(secs(15)), 0i64],
        ]))
        .unwrap();
        // Watermark at 12s closes [0,10) only.
        let (out, evicted) = agg.drain_finalized(secs(12)).unwrap();
        assert_eq!(
            out.to_rows(),
            vec![row![Value::Timestamp(0), Value::Timestamp(secs(10)), 1i64]]
        );
        assert_eq!(evicted, vec![row![Value::Timestamp(0)]]);
        assert_eq!(agg.num_groups(), 1);
        // Draining again at the same watermark emits nothing.
        let (out, evicted) = agg.drain_finalized(secs(12)).unwrap();
        assert_eq!((out.num_rows(), evicted.len()), (0, 0));
    }

    #[test]
    fn drain_finalized_requires_window() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        assert!(agg.drain_finalized(0).is_err());
    }

    #[test]
    fn evict_expired_drops_state_silently() {
        let mut agg = HashAggregator::new(
            schema(),
            vec![window(col("time"), "10 seconds").unwrap()],
            vec![count_star()],
        )
        .unwrap();
        agg.update_batch(&batch(&[
            row!["a", Value::Timestamp(secs(5)), 0i64],
            row!["a", Value::Timestamp(secs(25)), 0i64],
        ]))
        .unwrap();
        let evicted = agg.evict_expired(secs(20));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].get(0), &Value::Timestamp(0));
        assert_eq!(agg.num_groups(), 1);
    }

    #[test]
    fn state_round_trip_matches_continuous_run() {
        let rows1 = [row!["a", Value::Timestamp(0), 5i64]];
        let rows2 = [
            row!["a", Value::Timestamp(0), 7i64],
            row!["b", Value::Timestamp(0), 1i64],
        ];
        let make = || {
            HashAggregator::new(
                schema(),
                vec![col("campaign")],
                vec![sum(col("v")), count_star()],
            )
            .unwrap()
        };
        // One aggregator sees everything.
        let mut full = make();
        full.update_batch(&batch(&rows1)).unwrap();
        full.update_batch(&batch(&rows2)).unwrap();
        // Another is checkpointed after epoch 1 and restored fresh.
        let mut first = make();
        first.update_batch(&batch(&rows1)).unwrap();
        let checkpoint: Vec<(Row, Vec<Row>)> = first
            .state_entries()
            .map(|(k, s)| (k.clone(), s))
            .collect();
        let mut restored = make();
        for (k, s) in checkpoint {
            restored.restore_entry(k, &s).unwrap();
        }
        restored.update_batch(&batch(&rows2)).unwrap();
        assert_eq!(
            restored.finish_all().unwrap(),
            full.finish_all().unwrap()
        );
    }

    #[test]
    fn routed_shards_hold_disjoint_keys_and_match_update_batch_bit_for_bit() {
        let schema = Schema::of(vec![
            Field::new("campaign", DataType::Utf8),
            Field::new("time", DataType::Timestamp),
            Field::new("v", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]);
        // NULL event times, NULL count(v) arguments, and float addends
        // whose sum depends on the order they arrive in.
        let rows: Vec<Row> = (0..48i64)
            .map(|i| {
                let time = match i % 7 {
                    3 => Value::Null,
                    _ => Value::Timestamp(secs(i * 13 % 40)),
                };
                let v = match i % 5 {
                    0 => Value::Null,
                    _ => Value::Int64(i),
                };
                let x = [1e16, 1.0, -1e16, 0.1][i as usize % 4] * (i + 1) as f64;
                row![["a", "b", "c"][i as usize % 3], time, v, Value::Float64(x)]
            })
            .collect();
        let input = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        let nulls: Vec<usize> = (0..rows.len()).filter(|i| i % 7 == 3).collect();
        let groupings = [
            vec![window(col("time"), "10 seconds").unwrap(), col("campaign")],
            vec![
                window_sliding(col("time"), "10 seconds", "5 seconds").unwrap(),
                col("campaign"),
            ],
            vec![],
        ];
        for group_exprs in groupings {
            let windowed = !group_exprs.is_empty();
            let make = || {
                HashAggregator::new(
                    schema.clone(),
                    group_exprs.clone(),
                    vec![count_star(), count(col("v")), sum(col("x"))],
                )
                .unwrap()
            };
            let mut serial = make();
            serial.update_batch(&input).unwrap();
            let mut expected: Vec<(Row, Vec<Row>)> = serial
                .state_entries()
                .map(|(k, s)| (k.clone(), s))
                .collect();
            expected.sort();
            for parts in [1, 2, 3, 8] {
                let routes = serial.partition_rows(&input, parts).unwrap();
                assert_eq!(routes.len(), parts);
                let mut union: Vec<(Row, Vec<Row>)> = Vec::new();
                for (r, route) in routes.iter().enumerate() {
                    assert!(route.windows(2).all(|w| w[0] < w[1]), "arrival order");
                    if windowed {
                        assert!(route.iter().all(|i| !nulls.contains(i)), "NULL time routed");
                    }
                    let mut shard = make();
                    let routed = input.take(route).unwrap();
                    shard.ingest(&routed, Some((r, parts))).unwrap();
                    for (k, s) in shard.state_entries() {
                        assert_eq!(shuffle_partition(k, parts), r, "{k} outside its owner");
                        union.push((k.clone(), s));
                    }
                }
                union.sort();
                assert!(
                    union.windows(2).all(|w| w[0].0 != w[1].0),
                    "a key lives in two shards at {parts} partitions"
                );
                assert_eq!(union, expected, "{parts} partitions");
            }
        }
    }

    #[test]
    fn restore_entry_validates_arity() {
        let mut agg =
            HashAggregator::new(schema(), vec![col("campaign")], vec![count_star()]).unwrap();
        assert!(agg
            .restore_entry(row!["a"], &[row![1i64], row![2i64]])
            .is_err());
    }
}
