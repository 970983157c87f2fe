//! Per-query output taps over one shared execution.
//!
//! A sharing group runs ONE [`ss_core::MicroBatchExecution`] whose sink
//! is a [`FanoutSink`]. Each subscribed query owns a **tap**: its real
//! sink plus the stateless suffix ([`ss_plan::SuffixOp`]) its plan
//! carries above the shared stateful prefix, compiled once at attach
//! into the same [`StatelessChain`] the engine runs. Every epoch the
//! engine commits once into the fan-out, which applies each tap's chain
//! to the shared output and commits the result to that query's sink —
//! so N queries cost one incremental update plus N cheap, stateless
//! post-processing passes.
//!
//! Taps can be attached and detached while the group runs (a query
//! joining or leaving the share); detachment takes effect at the next
//! epoch boundary. Idempotence is inherited: the fan-out replays a
//! whole epoch into every tap, and every underlying sink is required
//! to be idempotent per epoch already.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_bus::{EpochOutput, Sink};
use ss_common::{RecordBatch, Result, SchemaRef, SsError};
use ss_core::chain::{ChainEnv, StatelessChain};
use ss_plan::{LogicalPlan, SuffixOp};

/// The source name a tap's suffix plan scans: the shared prefix output.
const SHARED_SCAN: &str = "__shared_prefix";

struct Tap {
    query: String,
    /// The compiled suffix; `None` for a tap that takes the shared
    /// output as is.
    suffix: Option<StatelessChain>,
    sink: Arc<dyn Sink>,
}

/// A [`Sink`] that fans one epoch's output to every subscribed query,
/// applying each query's stateless suffix on the way.
pub struct FanoutSink {
    name: String,
    taps: Mutex<Vec<Tap>>,
    /// Rows delivered across all taps (post-suffix).
    fanned_rows: AtomicU64,
    /// Epochs committed through the fan-out.
    epochs: AtomicU64,
}

impl FanoutSink {
    pub fn new(name: impl Into<String>) -> Arc<FanoutSink> {
        Arc::new(FanoutSink {
            name: name.into(),
            taps: Mutex::new(Vec::new()),
            fanned_rows: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
        })
    }

    /// Attach a query's tap, compiling its suffix against `schema`,
    /// the group's output schema. `suffix` must be empty unless the
    /// group runs in append or complete mode (checked by the engine,
    /// not here).
    pub fn attach(
        &self,
        query: impl Into<String>,
        suffix: &[SuffixOp],
        schema: SchemaRef,
        sink: Arc<dyn Sink>,
    ) -> Result<()> {
        let suffix = match suffix {
            [] => None,
            ops => Some(compile_suffix(ops, schema)?),
        };
        self.taps.lock().push(Tap {
            query: query.into(),
            suffix,
            sink,
        });
        Ok(())
    }

    /// Detach a query's tap; returns false if it was not attached.
    /// Takes effect at the next epoch boundary — an epoch currently
    /// committing still includes the tap it started with.
    pub fn detach(&self, query: &str) -> bool {
        let mut taps = self.taps.lock();
        let before = taps.len();
        taps.retain(|t| t.query != query);
        taps.len() != before
    }

    /// Names of currently attached queries, in attach order.
    pub fn attached(&self) -> Vec<String> {
        self.taps.lock().iter().map(|t| t.query.clone()).collect()
    }

    /// Epochs committed through this fan-out.
    pub fn epochs_committed(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }
}

/// Compile a stateless suffix over a scan of the shared output.
fn compile_suffix(suffix: &[SuffixOp], schema: SchemaRef) -> Result<StatelessChain> {
    let analyzed = ss_plan::analyze(&suffix_plan(suffix, schema))?;
    let (chain, _) = StatelessChain::compile(&analyzed, &Default::default(), None)?;
    Ok(chain)
}

/// A suffix as a plan over a scan of the shared output.
fn suffix_plan(suffix: &[SuffixOp], schema: SchemaRef) -> Arc<LogicalPlan> {
    let mut plan = Arc::new(LogicalPlan::Scan {
        name: SHARED_SCAN.into(),
        schema,
        streaming: true,
        projection: None,
    });
    for op in suffix {
        plan = Arc::new(match op {
            SuffixOp::Project(exprs) => LogicalPlan::Project {
                input: plan,
                exprs: exprs.clone(),
            },
            SuffixOp::Filter(predicate) => LogicalPlan::Filter {
                input: plan,
                predicate: predicate.clone(),
            },
        });
    }
    plan
}

impl Sink for FanoutSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn commit_epoch(&self, epoch: u64, output: &EpochOutput) -> Result<()> {
        let taps = self.taps.lock();
        for tap in taps.iter() {
            let Some(suffix) = &tap.suffix else {
                tap.sink.commit_epoch(epoch, output)?;
                self.fanned_rows
                    .fetch_add(output.num_rows() as u64, Ordering::Relaxed);
                continue;
            };
            let apply = |batch: &RecordBatch| {
                suffix.apply(batch.clone(), &mut ChainEnv::new(i64::MIN, None))
            };
            // A suffix rewrites the row set, which is sound for append
            // output (each epoch's new rows) and complete output (the
            // whole result table) — but not update output, whose
            // upsert keys are positional in the pre-suffix schema (the
            // engine refuses such taps up front).
            let tapped = match output {
                EpochOutput::Append(batch) => EpochOutput::Append(apply(batch)?),
                EpochOutput::Complete(batch) => EpochOutput::Complete(apply(batch)?),
                EpochOutput::Update { .. } => {
                    return Err(SsError::Execution(format!(
                        "tap `{}` carries a stateless suffix but the group \
                         emits update output",
                        tap.query
                    )));
                }
            };
            self.fanned_rows
                .fetch_add(tapped.num_rows() as u64, Ordering::Relaxed);
            tap.sink.commit_epoch(epoch, &tapped)?;
        }
        self.epochs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn truncate_after(&self, epoch: u64) -> Result<()> {
        for tap in self.taps.lock().iter() {
            tap.sink.truncate_after(epoch)?;
        }
        Ok(())
    }

    fn rows_written(&self) -> u64 {
        self.fanned_rows.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_bus::MemorySink;
    use ss_common::{row, DataType, Field, Row, Schema, SchemaRef};
    use ss_expr::{col, lit};

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("cnt", DataType::Int64),
        ])
    }

    fn batch(rows: &[Row]) -> RecordBatch {
        RecordBatch::from_rows(schema(), rows).unwrap()
    }

    #[test]
    fn fanout_delivers_to_every_tap_with_suffixes() {
        let fan = FanoutSink::new("fan");
        let all = MemorySink::new("all");
        let ca = MemorySink::new("ca");
        fan.attach("q-all", &[], schema(), all.clone()).unwrap();
        fan.attach(
            "q-ca",
            &[SuffixOp::Filter(col("country").eq(lit("CA")))],
            schema(),
            ca.clone(),
        )
        .unwrap();
        let out = EpochOutput::Append(batch(&[row!["CA", 3i64], row!["US", 5i64]]));
        fan.commit_epoch(1, &out).unwrap();
        assert_eq!(all.snapshot().len(), 2);
        assert_eq!(ca.snapshot(), vec![row!["CA", 3i64]]);
        assert_eq!(fan.epochs_committed(), 1);
        assert_eq!(fan.rows_written(), 3);
    }

    #[test]
    fn detach_removes_only_the_named_tap() {
        let fan = FanoutSink::new("fan");
        let a = MemorySink::new("a");
        let b = MemorySink::new("b");
        fan.attach("qa", &[], schema(), a.clone()).unwrap();
        fan.attach("qb", &[], schema(), b.clone()).unwrap();
        assert!(fan.detach("qa"));
        assert!(!fan.detach("qa"));
        fan.commit_epoch(1, &EpochOutput::Append(batch(&[row!["CA", 1i64]])))
            .unwrap();
        assert_eq!(a.snapshot().len(), 0);
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(fan.attached(), vec!["qb".to_string()]);
    }

    #[test]
    fn suffix_on_update_output_is_an_error_but_complete_is_rewritten() {
        let fan = FanoutSink::new("fan");
        let sink = MemorySink::new("s");
        fan.attach(
            "q",
            &[SuffixOp::Filter(col("country").eq(lit("CA")))],
            schema(),
            sink.clone(),
        )
        .unwrap();
        let upd = EpochOutput::Update {
            batch: batch(&[row!["CA", 1i64]]),
            key_cols: vec![0],
        };
        assert!(fan.commit_epoch(1, &upd).is_err());
        let out = EpochOutput::Complete(batch(&[row!["CA", 1i64], row!["US", 2i64]]));
        fan.commit_epoch(1, &out).unwrap();
        assert_eq!(sink.snapshot(), vec![row!["CA", 1i64]]);
    }

    #[test]
    fn suffix_project_reshapes_rows() {
        let b = batch(&[row!["CA", 3i64], row!["US", 5i64]]);
        let chain = compile_suffix(&[SuffixOp::Project(vec![col("cnt")])], schema()).unwrap();
        let projected = chain.apply(b, &mut ChainEnv::new(i64::MIN, None)).unwrap();
        assert_eq!(projected.num_columns(), 1);
        assert_eq!(projected.num_rows(), 2);
    }

    /// The batch executor is the reference semantics for a suffix: a
    /// compiled chain (which fuses filter→project) must produce exactly
    /// what `ss_exec::execute` produces for the equivalent plan.
    #[test]
    fn compiled_suffixes_match_the_batch_executor_byte_for_byte() {
        use ss_common::Value;
        use ss_exec::MemoryCatalog;

        let schema = Schema::of(vec![
            Field::new("country", DataType::Utf8),
            Field::new("cnt", DataType::Int64),
            Field::new("ratio", DataType::Float64),
            Field::new("flag", DataType::Boolean),
            Field::new("at", DataType::Timestamp),
        ]);
        let rows: Vec<Row> = (0..12i64)
            .map(|i| {
                let null_or = |v: Value| if i % 4 == 3 { Value::Null } else { v };
                Row::new(vec![
                    null_or(Value::str(["CA", "US", "DE"][(i % 3) as usize])),
                    if i % 5 == 4 {
                        Value::Null
                    } else {
                        Value::Int64(i * 7 - 20)
                    },
                    null_or(Value::Float64(i as f64 / 3.0)),
                    if i % 6 == 5 {
                        Value::Null
                    } else {
                        Value::Boolean(i % 2 == 0)
                    },
                    Value::Timestamp(i * 1_000_000),
                ])
            })
            .collect();
        let input = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        let filter = SuffixOp::Filter(col("cnt").gt(lit(0i64)).or(col("flag")));
        // Drops `at` and adds a computed column; keeps what the filter
        // reads, so the filter can run on either side of it.
        let project = SuffixOp::Project(vec![
            col("country"),
            col("cnt"),
            col("cnt").mul(lit(2i64)).alias("cnt2"),
            col("ratio"),
            col("flag"),
        ]);
        let suffixes: Vec<(&str, Vec<SuffixOp>)> = vec![
            ("filter", vec![filter.clone()]),
            ("project", vec![project.clone()]),
            ("filter->project", vec![filter.clone(), project.clone()]),
            ("project->filter", vec![project, filter]),
        ];
        for (name, suffix) in suffixes {
            let chain = compile_suffix(&suffix, schema.clone()).unwrap();
            let got = chain
                .apply(input.clone(), &mut ChainEnv::new(i64::MIN, None))
                .unwrap();

            let mut catalog = MemoryCatalog::new();
            catalog.register(SHARED_SCAN, vec![input.clone()]);
            let plan = ss_plan::analyze(&suffix_plan(&suffix, schema.clone())).unwrap();
            let expected = ss_exec::execute(&plan, &catalog).unwrap();

            assert!(expected.num_rows() > 0, "{name}: reference kept no rows");
            assert_eq!(got, expected, "{name}: chain output differs");
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&expected).unwrap(),
                "{name}: chain output bytes differ"
            );
        }
    }

    #[test]
    fn an_ill_typed_suffix_is_refused_at_attach() {
        let fan = FanoutSink::new("fan");
        let err = fan.attach(
            "q",
            &[SuffixOp::Filter(col("missing").eq(lit("CA")))],
            schema(),
            MemorySink::new("s"),
        );
        assert!(err.is_err());
        assert!(fan.attached().is_empty());
    }
}
