//! What one run measured, the metric catalogue, and the result line.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, quartiles};
use crate::trace::Span;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; `BENCHMARK.json` lists the same names with their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "rec/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_record", "us/rec"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload does not exercise reads 0 on it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The untraced run's p99: too noisy on a small shared VM to gate
    // on (host stalls of a few ms dominate it), reported for reading.
    ("latency.p99_ms", "ms"),
    ("source.read_ns_per_row", "ns/row"),
    ("source.read_share", "ratio"),
    ("source.rows_read", "rows"),
    ("source.reread_ratio", "ratio"),
    ("source.lag_records_p99", "records"),
    ("source.retries", "count"),
    ("engine.self_share", "ratio"),
    ("profile.execute.map_us", "us"),
    ("profile.execute.shuffle-write_us", "us"),
    ("profile.execute.shuffle-read_us", "us"),
    ("profile.execute.reduce_us", "us"),
    ("profile.execute.merge_us", "us"),
    ("workers.busy_ratio", "ratio"),
    ("epoch.count", "count"),
    ("epoch.rows_p50", "rows"),
    ("epoch.wall_ms_p50", "ms"),
    ("epoch.wall_ms_p99", "ms"),
    ("sink.commit_us_p50", "us"),
    ("sink.retries", "count"),
    ("wal.write_us_p50", "us"),
    ("wal.bytes_per_epoch", "B"),
    ("wal.retries", "count"),
    ("state.checkpoint_us_p50", "us"),
    ("state.checkpoint_bytes_per_epoch", "B"),
    ("state.bytes", "B"),
    ("bus.append_ns_per_row", "ns/row"),
    ("continuous.sink_ns_per_row", "ns/row"),
    ("continuous.wal_write_us_p50", "us"),
    ("continuous.lag_records_p99", "records"),
    ("setup.preload_s", "s"),
    ("setup.start_ms", "ms"),
    ("generator.lag_ms_p99", "ms"),
    ("trace.overhead_ratio.throughput_rps", "ratio"),
    ("trace.overhead_ratio.latency_p50_ms", "ratio"),
    ("trace.overhead_ratio.latency_p90_ms", "ratio"),
    ("trace.overhead_ratio.cpu_us_per_record", "ratio"),
    ("trace.overhead_ratio.setup_s", "ratio"),
];

/// The outcome of one untraced or traced run of a workload.
#[derive(Debug, Default)]
pub struct Run {
    /// Records offered to the engine.
    pub attempted: u64,
    /// Records whose result was missing, duplicated, wrong or late.
    pub failed: u64,
    /// Engine errors, each counted in `failed` for every record it
    /// left undelivered.
    pub errors: Vec<String>,
    /// Samples of each end-to-end metric; the result reports medians.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values gathered beside the spans (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// The sink's output, compared byte for byte between runs.
    pub output: String,
}

impl Run {
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    pub fn value(&self, metric: &str) -> f64 {
        self.samples.get(metric).map_or(0.0, |v| median(v))
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Account for an engine error that left `undelivered` records
    /// without a result.
    pub fn error(&mut self, err: impl std::fmt::Display, undelivered: u64) {
        self.errors.push(err.to_string());
        self.failed += undelivered;
    }
}

fn sum_ns(spans: &[Span], pred: impl Fn(&Span) -> bool) -> u64 {
    spans.iter().filter(|s| pred(s)).map(Span::ns).sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics derived from a traced run's spans. `offered` is
/// the number of records the run offered (the base of the re-read
/// ratio).
pub fn span_layers(spans: &[Span], offered: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    let epochs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "engine.run_epoch")
        .collect();
    let epoch_ns: u64 = epochs.iter().map(|s| s.ns()).sum();
    let in_epoch = |s: &Span| s.epoch != 0;

    let read_ns = sum_ns(spans, |s| {
        s.name == "source.read" || s.name == "source.ingest_bounds"
    });
    let rows_read: u64 = spans
        .iter()
        .filter(|s| s.name == "source.read")
        .map(|s| s.count)
        .sum();
    put(
        "source.read_ns_per_row",
        ratio(read_ns as f64, rows_read as f64),
    );
    put("source.read_share", ratio(read_ns as f64, epoch_ns as f64));
    put("source.rows_read", rows_read as f64);
    put(
        "source.reread_ratio",
        ratio(rows_read as f64, offered as f64),
    );
    let lags: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "source.latest_offsets")
        .map(|s| s.count as f64)
        .collect();
    put("source.lag_records_p99", percentile(&lags, 0.99));

    let layer_ns = sum_ns(spans, |s| {
        in_epoch(s)
            && (s.name.starts_with("source.")
                || s.name.starts_with("sink.")
                || s.name.starts_with("wal.")
                || s.name.starts_with("state."))
    });
    put(
        "engine.self_share",
        ratio(epoch_ns.saturating_sub(layer_ns) as f64, epoch_ns as f64),
    );

    // Per-epoch figures over the epochs that ran (an idle trigger has
    // no rows).
    let ran: Vec<&Span> = epochs.iter().copied().filter(|s| s.count > 0).collect();
    put("epoch.count", ran.len() as f64);
    let rows: Vec<f64> = ran.iter().map(|s| s.count as f64).collect();
    put("epoch.rows_p50", percentile(&rows, 0.5));
    let walls: Vec<f64> = ran.iter().map(|s| s.ns() as f64 / 1e6).collect();
    put("epoch.wall_ms_p50", percentile(&walls, 0.5));
    put("epoch.wall_ms_p99", percentile(&walls, 0.99));
    let commits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sink.commit")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    put("sink.commit_us_p50", percentile(&commits, 0.5));

    let mut per_epoch: BTreeMap<u64, [u64; 4]> = ran.iter().map(|s| (s.epoch, [0; 4])).collect();
    for s in spans.iter().filter(|s| in_epoch(s)) {
        let Some(slot) = per_epoch.get_mut(&s.epoch) else {
            continue;
        };
        if s.name.starts_with("wal.") {
            slot[0] += s.ns();
            if s.name == "wal.write" {
                slot[1] += s.count;
            }
        } else if s.name.starts_with("state.") {
            slot[2] += s.ns();
            if s.name == "state.write" {
                slot[3] += s.count;
            }
        }
    }
    let col = |i: usize, scale: f64| -> Vec<f64> {
        per_epoch.values().map(|v| v[i] as f64 / scale).collect()
    };
    let n_ran = per_epoch.len() as f64;
    put("wal.write_us_p50", percentile(&col(0, 1e3), 0.5));
    put(
        "wal.bytes_per_epoch",
        ratio(col(1, 1.0).iter().sum(), n_ran),
    );
    put("state.checkpoint_us_p50", percentile(&col(2, 1e3), 0.5));
    put(
        "state.checkpoint_bytes_per_epoch",
        ratio(col(3, 1.0).iter().sum(), n_ran),
    );

    let per_row = |name: &str| {
        let ns = sum_ns(spans, |s| s.name == name);
        let n: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum();
        ratio(ns as f64, n as f64)
    };
    put("bus.append_ns_per_row", per_row("bus.append"));
    put("continuous.sink_ns_per_row", per_row("continuous.sink"));
    // The continuous coordinator writes each epoch marker as an
    // offsets record then a commit record, outside any harness epoch.
    let marker_writes: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "wal.write" && s.epoch == 0)
        .map(Span::ns)
        .collect();
    let markers: Vec<f64> = marker_writes
        .chunks(2)
        .map(|c| c.iter().sum::<u64>() as f64 / 1e3)
        .collect();
    put("continuous.wal_write_us_p50", percentile(&markers, 0.5));
    out
}

/// Format a number with all its digits (shortest round-trip form) as
/// a JSON number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One human-readable line per end-to-end metric: median, quartiles,
/// relative spread and sample count.
pub fn summary_lines(workload: &str, run: &Run) -> Vec<String> {
    END_TO_END
        .iter()
        .map(|(name, unit)| {
            let v = run.samples.get(name).cloned().unwrap_or_default();
            let med = median(&v);
            let (q1, q3) = quartiles(&v);
            format!(
                "{workload:<20} {name:<18} median {med:>14.4} {unit:<6} q1 {q1:.4} q3 {q3:.4} spread {:.1}% n={}",
                100.0 * ratio(q3 - q1, med),
                v.len()
            )
        })
        .collect()
}
