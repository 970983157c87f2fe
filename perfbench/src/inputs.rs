//! Seeded inputs and the oracle they are checked against.
//!
//! `YahooWorkload::event(partition, offset)` has no seed: it is a pure
//! function of its two arguments. The benchmark draws a partition base
//! and an offset base from the seed, so bus partition `p`, offset `o`
//! holds generator event `(pb + p, ob + o)`. The same seed gives the
//! same rows, and the oracle is computed from those rows.

use ss_baselines::workload::{BenchCounts, YahooWorkload};
use ss_common::{Row, Value};

/// Bus topic every workload reads.
pub const TOPIC: &str = "ad-events";

/// The seeded event stream.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: YahooWorkload,
    partition_base: u32,
    offset_base: u64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let a = splitmix(seed);
        let b = splitmix(a);
        Inputs {
            workload: YahooWorkload::default(),
            partition_base: (a % 1_000_000) as u32,
            // Whole event-time windows apart, so event times (offset /
            // events_per_second) stay in a plausible range.
            offset_base: (b % 10_000) * 100_000,
        }
    }

    /// The event at bus partition `p`, offset `o`.
    pub fn row(&self, p: u32, o: u64) -> Row {
        self.workload
            .event(self.partition_base + p, self.offset_base + o)
    }

    /// Events `[start, end)` of bus partition `p`.
    pub fn rows(&self, p: u32, start: u64, end: u64) -> Vec<Row> {
        (start..end).map(|o| self.row(p, o)).collect()
    }

    /// Whether the event passes the query's `event_type = 'view'` filter.
    pub fn is_view(row: &Row) -> bool {
        matches!(row.get(4), Value::Utf8(s) if &**s == "view")
    }

    /// Add one event's contribution to the expected windowed counts.
    pub fn count(&self, counts: &mut BenchCounts, row: &Row) {
        if !Self::is_view(row) {
            return;
        }
        let (Value::Int64(ad), Value::Timestamp(t)) = (row.get(2), row.get(5)) else {
            return;
        };
        let window = t.div_euclid(self.workload.window_us) * self.workload.window_us;
        *counts
            .entry((self.workload.campaign_of(*ad), window))
            .or_insert(0) += 1;
    }
}

/// Records whose result is wrong: for every `(campaign, window)` the
/// absolute difference between the engine's count and the oracle's.
/// A missing or extra key counts every record it should (not) hold.
pub fn count_mismatches(expected: &BenchCounts, got: &BenchCounts) -> u64 {
    let mut failed = 0u64;
    for (k, &want) in expected {
        failed += want.abs_diff(got.get(k).copied().unwrap_or(0));
    }
    for (k, &have) in got {
        if !expected.contains_key(k) {
            failed += have.unsigned_abs();
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_and_different_seed_different_rows() {
        let a = Inputs::from_seed(7);
        let b = Inputs::from_seed(7);
        let c = Inputs::from_seed(8);
        assert_eq!(a.rows(3, 0, 50), b.rows(3, 0, 50));
        assert_ne!(a.rows(3, 0, 50), c.rows(3, 0, 50));
    }

    #[test]
    fn mismatch_counts_missing_extra_and_wrong() {
        let mut want = BenchCounts::new();
        want.insert((1, 0), 5);
        want.insert((2, 0), 3);
        let mut got = BenchCounts::new();
        got.insert((1, 0), 4);
        got.insert((9, 0), 2);
        assert_eq!(count_mismatches(&want, &want), 0);
        assert_eq!(count_mismatches(&want, &got), 1 + 3 + 2);
    }
}
